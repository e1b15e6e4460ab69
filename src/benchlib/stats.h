// Benchmark accounting: the two quantities the paper's evaluation reports
// for every figure — throughput (commits/second) and the abort breakdown by
// error class (deadlock / FCW conflict / unsafe, §6.1.1).

#ifndef SSIDB_BENCHLIB_STATS_H_
#define SSIDB_BENCHLIB_STATS_H_

#include <cstdint>
#include <string>

#include "src/common/status.h"
#include "src/obs/metrics.h"

namespace ssidb::bench {

/// Client-side outcome counts of one measured run at one MPL point, plus
/// the engine's own record of the same window.
struct RunResult {
  double seconds = 0;
  uint64_t commits = 0;
  uint64_t deadlocks = 0;         ///< S2PL (and SI writer) lock cycles.
  uint64_t update_conflicts = 0;  ///< First-committer-wins aborts.
  uint64_t unsafe = 0;            ///< SSI dangerous-structure aborts.
  uint64_t timeouts = 0;
  /// Intentional rollbacks: kNotFound, the TPC-C New-Order 1% unused-item
  /// rollback (spec 2.4.1.4).
  uint64_t app_rollbacks = 0;
  /// Every other failed attempt that is not an abort — engine or workload
  /// errors (a corrupt row, kIOError from a read-only engine). A clean run
  /// has zero.
  uint64_t errors = 0;

  /// The DB's metrics registry over the measurement window:
  /// end.Delta(start) of two Collect() snapshots taken at the window
  /// edges. Empty when the run was not driven by RunWorkload.
  obs::MetricsSnapshot window;

  uint64_t TotalAborts() const {
    return deadlocks + update_conflicts + unsafe + timeouts;
  }
  double Throughput() const { return seconds > 0 ? commits / seconds : 0; }
  /// The paper's "errors / commit" y-axis (Figs 6.1(b)-6.5(b)).
  double ErrorsPerCommit() const {
    return commits > 0 ? static_cast<double>(TotalAborts()) / commits : 0;
  }

  /// Classify one transaction-attempt outcome into the counters.
  void Count(const Status& status);
};

/// Header + row formatting shared by every figure binary so EXPERIMENTS.md
/// tables can be regenerated with a diff-stable layout.
std::string ResultHeader();
std::string ResultRow(const std::string& figure, const std::string& series,
                      int mpl, const RunResult& r);

/// One measured point as a single-line JSON object (for SSIDB_BENCH_JSON
/// artifacts: one object per line, JSON Lines): the client-side counts
/// plus the window delta as "metrics" (obs::ToJson layout).
std::string ResultJsonLine(const std::string& figure,
                           const std::string& series, int mpl,
                           const RunResult& r);

}  // namespace ssidb::bench

#endif  // SSIDB_BENCHLIB_STATS_H_
