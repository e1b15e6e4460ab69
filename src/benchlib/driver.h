// Benchmark driver: the MPL worker-pool harness the paper's db_perf tool
// provided for Berkeley DB (§6.1) — N client threads execute transactions
// back-to-back with no think time, a warmup phase fills caches, then a
// timed measurement window counts commits and classifies aborts.

#ifndef SSIDB_BENCHLIB_DRIVER_H_
#define SSIDB_BENCHLIB_DRIVER_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "src/benchlib/stats.h"
#include "src/common/options.h"
#include "src/common/random.h"
#include "src/db/db.h"
#include "src/db/session.h"

namespace ssidb::bench {

/// One line in a figure: a concurrency-control mode under test.
struct SeriesConfig {
  std::string name;  ///< "S2PL", "SI", "SSI" (figure legend).
  IsolationLevel isolation = IsolationLevel::kSerializableSSI;
  /// §3.8 mixing: run read-only transaction types at this level instead
  /// (e.g. queries at plain SI while updates run Serializable SI).
  std::optional<IsolationLevel> read_only_isolation;

  /// Isolation to use for a transaction program; workloads call this with
  /// read_only=true for query-only programs.
  IsolationLevel For(bool read_only) const {
    return (read_only && read_only_isolation) ? *read_only_isolation
                                              : isolation;
  }
};

/// The three standard series of every figure in Chapter 6.
std::vector<SeriesConfig> StandardSeries();

/// A transaction program mix. One instance is shared by all workers; per
/// worker state lives in the Random and worker_id arguments.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Execute ONE transaction attempt (begin..commit/abort) and return its
  /// outcome. The driver classifies the status and retries aborted work by
  /// simply calling again (the Chapter 6 retry discipline).
  virtual Status RunOne(DB* db, const SeriesConfig& series, uint64_t worker,
                        Random* rng) = 0;

  /// Pipelined attempt (DriverConfig::pipeline_depth > 0): run ONE
  /// transaction and deliver its final status through `done`, exactly
  /// once, possibly on another thread after this returns. The default
  /// runs RunOne to completion and acknowledges inline — correct for any
  /// workload, pipelined for none. Workloads whose programs can commit
  /// asynchronously override this to submit through `session`
  /// (Session::CommitAsync) so the worker keeps many commits in flight.
  virtual void SubmitOne(DB* db, Session* session, const SeriesConfig& series,
                         uint64_t worker, Random* rng,
                         std::function<void(Status)> done) {
    (void)session;
    done(RunOne(db, series, worker, rng));
  }
};

struct DriverConfig {
  int mpl = 1;
  double warmup_seconds = 0.05;
  double measure_seconds = 0.25;
  uint64_t seed = 42;
  /// 0: the classic blocking driver (one transaction in flight per
  /// worker). >0: the pipelined driver — each worker owns a Session and
  /// keeps up to this many submitted-but-unacknowledged transactions in
  /// flight via Workload::SubmitOne, so the durable regime's group-commit
  /// fsync amortizes across the whole window instead of across MPL
  /// threads.
  int pipeline_depth = 0;
};

/// Run `workload` on `db` with config.mpl concurrent workers and return
/// the measured-window counts.
RunResult RunWorkload(DB* db, Workload* workload, const SeriesConfig& series,
                      const DriverConfig& config);

/// Environment knobs shared by the figure binaries:
///   SSIDB_BENCH_SECONDS  - measurement window per point (default `dflt`).
///   SSIDB_BENCH_MPLS     - comma-separated MPL sweep (default `dflt`).
///   SSIDB_FLUSH_US       - simulated log flush latency override.
///   SSIDB_CKPT_INTERVAL_MS - background checkpointer interval for
///                          durable-regime points (incremental
///                          checkpoint runs; 0/unset = no
///                          checkpointer).
///   SSIDB_WAL_DIR        - base directory for a real file-backed WAL:
///                          flush-on-commit points run against write+fsync
///                          instead of the simulated latency (the durable
///                          regime). Each measurement point uses a fresh
///                          subdirectory. Empty/unset = simulated.
///   SSIDB_BENCH_JSON     - path to append one JSON object per measured
///                          point (JSON Lines) for machine-readable
///                          artifacts next to the CSV on stdout.
///   SSIDB_METRICS_DUMP   - path to write a full DB::DumpMetrics() JSON
///                          snapshot after each run (figure binaries and
///                          micro_ops write one file per run; a numeric
///                          suffix distinguishes points).
double EnvSeconds(double dflt);
std::vector<int> EnvMpls(const std::vector<int>& dflt);
uint32_t EnvFlushUs(uint32_t dflt);
uint32_t EnvCheckpointIntervalMs(uint32_t dflt);
std::string EnvWalDir();

/// SSIDB_METRICS_DUMP: base path for DumpMetrics() snapshots ("" = off).
std::string EnvMetricsDump();

/// SSIDB_PIPELINE: DriverConfig::pipeline_depth (0/unset = blocking).
int EnvPipelineDepth(int dflt);

/// Write db->DumpMetrics() (JSON) to `path` if non-empty. Figure binaries
/// call this with EnvMetricsDump() plus a per-point suffix. Best-effort:
/// failures are ignored (a bench run must not die on a metrics file).
void MaybeDumpMetrics(DB* db, const std::string& path);

/// A fresh per-point WAL directory under EnvWalDir(), or "" when unset.
std::string NextWalPointDir();

}  // namespace ssidb::bench

#endif  // SSIDB_BENCHLIB_DRIVER_H_
