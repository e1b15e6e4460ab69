// Shared scaffolding for the figure-reproduction binaries.
//
// Every binary sweeps MPL for the three concurrency-control series (S2PL /
// SI / SSI) exactly as Chapter 6 does, printing one CSV row per point:
//   figure,series,mpl,commits_per_sec,deadlocks_per_commit,
//   conflicts_per_commit,unsafe_per_commit,total_commits,app_rollbacks,
//   errors
// A fresh engine is created per point (the paper restarts between runs) so
// points are independent.
//
// Environment knobs (see benchlib/driver.h): SSIDB_BENCH_SECONDS,
// SSIDB_BENCH_MPLS, SSIDB_FLUSH_US.

#ifndef SSIDB_BENCH_FIGURE_COMMON_H_
#define SSIDB_BENCH_FIGURE_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/benchlib/driver.h"
#include "src/benchlib/stats.h"
#include "src/db/db.h"

namespace ssidb::bench {

/// Builds a fresh DB + workload for one measurement point.
struct FigureSetup {
  std::unique_ptr<DB> db;
  std::unique_ptr<Workload> workload;
};
using SetupFn = std::function<FigureSetup()>;

/// Default MPL sweep of the Berkeley DB chapters (§6.1.1); override with
/// SSIDB_BENCH_MPLS.
inline std::vector<int> DefaultMpls() { return {1, 2, 5, 10, 20}; }

/// Run one figure: for each series and MPL, run the measurement window and
/// print the CSV row. With `fresh_db_per_point` every point gets a newly
/// loaded engine (fully independent points — used where loading is cheap);
/// otherwise one engine is loaded per figure and reused, the usual OLTP
/// harness practice for heavyweight schemas (TPC-C's NEWO/DLVY rates are
/// balanced, so the database stays in steady state).
inline void RunFigure(const std::string& figure, const SetupFn& setup,
                      const std::vector<SeriesConfig>& series_list,
                      double default_seconds = 0.3,
                      bool fresh_db_per_point = true) {
  DriverConfig config;
  config.measure_seconds = EnvSeconds(default_seconds);
  config.warmup_seconds = config.measure_seconds / 4;
  // SSIDB_PIPELINE=N: every point runs the pipelined driver with N
  // in-flight commits per worker (workloads without a SubmitOne override
  // degrade to blocking behavior, one at a time).
  config.pipeline_depth = EnvPipelineDepth(0);
  const std::vector<int> mpls = EnvMpls(DefaultMpls());
  FigureSetup shared;
  if (!fresh_db_per_point) shared = setup();
  for (const SeriesConfig& series : series_list) {
    for (int mpl : mpls) {
      FigureSetup fresh;
      if (fresh_db_per_point) fresh = setup();
      FigureSetup& point = fresh_db_per_point ? fresh : shared;
      config.mpl = mpl;
      RunResult r =
          RunWorkload(point.db.get(), point.workload.get(), series, config);
      printf("%s\n", ResultRow(figure, series.name, mpl, r).c_str());
      fflush(stdout);
      if (const char* json_path = getenv("SSIDB_BENCH_JSON")) {
        if (FILE* jf = fopen(json_path, "a")) {
          fprintf(jf, "%s\n",
                  ResultJsonLine(figure, series.name, mpl, r).c_str());
          fclose(jf);
        }
      }
      // Full registry snapshot per point, suffixed so the sweep's files
      // don't overwrite each other (SSIDB_METRICS_DUMP=/tmp/m.json gives
      // /tmp/m.json.SSI.mpl20 etc.).
      const std::string dump_base = EnvMetricsDump();
      if (!dump_base.empty()) {
        MaybeDumpMetrics(point.db.get(), dump_base + "." + series.name +
                                             ".mpl" + std::to_string(mpl));
      }
    }
  }
}

inline void PrintHeaderOnce() {
  static bool printed = false;
  if (!printed) {
    printf("%s\n", ResultHeader().c_str());
    printed = true;
  }
}

}  // namespace ssidb::bench

#endif  // SSIDB_BENCH_FIGURE_COMMON_H_
