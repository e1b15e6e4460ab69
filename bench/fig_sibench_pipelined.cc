// Pipelined asynchronous commit vs blocking commit in the durable regime.
//
// The paper's §6.1.3 regime charges every update transaction a log flush;
// with one blocking transaction per worker, a worker commits at most
// 1/fsync per flush and throughput only grows by adding threads (MPL).
// The completion-driven commit core removes that coupling: a worker
// submits through Session::CommitAsync, keeps SSIDB_PIPELINE commits in
// flight, and the group-commit flusher acknowledges them in batches — the
// fsync amortizes across the pipeline depth instead of across threads.
//
// This binary runs the A/B directly: interleaved rounds of the blocking
// driver (pipeline_depth = 0) and the pipelined driver (depth from
// SSIDB_PIPELINE, default 32) over an update-only sibench at the same
// MPL, SSI series, flush_on_commit. Interleaving (A,B,A,B,...) rather
// than back-to-back blocks keeps slow drift (thermal, page cache) out of
// the comparison. Watch commits_per_sec and the mean flush batch
// (log.records / log.flush_batches in the JSON line's window delta):
// pipelining should multiply both.
//
// Durable points need SSIDB_WAL_DIR (real write+fsync WAL); without it
// the flush is the simulated latency (SSIDB_FLUSH_US, default 100us),
// which amortizes across a batch the same way and still demonstrates the
// pipeline.

#include "bench/figure_common.h"
#include "src/workloads/sibench.h"

namespace ssidb::bench {
namespace {

using workloads::SiBench;
using workloads::SiBenchConfig;

FigureSetup MakePoint(uint64_t items) {
  DBOptions opts;
  opts.log.flush_on_commit = true;
  opts.log.flush_latency_us = EnvFlushUs(100);
  opts.log.wal_dir = NextWalPointDir();
  opts.log.checkpoint_interval_ms = EnvCheckpointIntervalMs(0);
  FigureSetup setup;
  Status st = DB::Open(opts, &setup.db);
  if (!st.ok()) abort();
  SiBenchConfig config;
  config.items = items;
  config.queries_per_update = 0;  // Update-only: every commit pays the log.
  std::unique_ptr<SiBench> workload;
  st = SiBench::Setup(setup.db.get(), config, &workload);
  if (!st.ok()) abort();
  setup.workload = std::move(workload);
  return setup;
}

int EnvRounds(int dflt) {
  const char* v = getenv("SSIDB_BENCH_ROUNDS");
  if (v == nullptr) return dflt;
  const int r = atoi(v);
  return r > 0 ? r : dflt;
}

}  // namespace
}  // namespace ssidb::bench

int main() {
  using namespace ssidb::bench;
  PrintHeaderOnce();
  const uint64_t items = 1000;  // Low write-write contention: the flush,
                                // not FCW aborts, is the bottleneck.
  const int depth = EnvPipelineDepth(32);
  const int rounds = EnvRounds(3);
  const std::vector<int> mpls = EnvMpls({4});
  const SeriesConfig ssi{"SSI", ssidb::IsolationLevel::kSerializableSSI,
                         std::nullopt};
  DriverConfig config;
  config.measure_seconds = EnvSeconds(0.3);
  config.warmup_seconds = config.measure_seconds / 4;

  const std::string pipelined_name =
      "sibench_pipelined_depth" + std::to_string(depth);
  for (int round = 0; round < rounds; ++round) {
    for (int mpl : mpls) {
      for (const bool pipelined : {false, true}) {
        FigureSetup point = MakePoint(items);
        config.mpl = mpl;
        config.pipeline_depth = pipelined ? depth : 0;
        const std::string figure =
            (pipelined ? pipelined_name : "sibench_pipelined_blocking") +
            "_r" + std::to_string(round);
        RunResult r =
            RunWorkload(point.db.get(), point.workload.get(), ssi, config);
        printf("%s\n", ResultRow(figure, ssi.name, mpl, r).c_str());
        fflush(stdout);
        if (const char* json_path = getenv("SSIDB_BENCH_JSON")) {
          if (FILE* jf = fopen(json_path, "a")) {
            fprintf(jf, "%s\n",
                    ResultJsonLine(figure, ssi.name, mpl, r).c_str());
            fclose(jf);
          }
        }
      }
    }
  }
  return 0;
}
