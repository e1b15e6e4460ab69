// Figures 6.6-6.11: the InnoDB sibench evaluation (§6.3).
//
// Engine configured as the InnoDB prototype: row-level locks with gap
// locking, the precise reference-based conflict tracker (§4.6), immediate
// deadlock detection, commit flush enabled (InnoDB flushes its log; group
// commit is on).
//
//   Fig 6.6-6.8   mixed workload (1 query : 1 update), 10/100/1000 items
//   Fig 6.9-6.11  query-mostly (10 queries : 1 update), 10/100/1000 items
//
// Small item counts maximize write-write contention; large item counts
// make the query's scan (and its SIREAD locking under SSI, or shared
// locking under S2PL) the dominant cost — the regime where SI wins big and
// the paper measures SSI's lock-manager overhead (§6.3.3).

#include "bench/figure_common.h"
#include "src/workloads/sibench.h"

namespace ssidb::bench {
namespace {

using workloads::SiBench;
using workloads::SiBenchConfig;

SetupFn MakeSetup(uint64_t items, uint32_t queries_per_update) {
  return [items, queries_per_update]() {
    DBOptions opts;  // InnoDB prototype defaults: row locks, references.
    opts.log.flush_on_commit = true;
    opts.log.flush_latency_us = EnvFlushUs(100);  // Fast "disk" (SSD-ish).
    // SSIDB_WAL_DIR switches the point to the durable regime: a real
    // file-backed WAL with write+fsync group commits instead of the
    // simulated latency. SSIDB_CKPT_INTERVAL_MS additionally runs the
    // background checkpointer (incremental base+delta images + metadata
    // WAL GC) during the measurement, so the JSON artifact tracks the
    // full durable-regime overhead.
    opts.log.wal_dir = NextWalPointDir();
    opts.log.checkpoint_interval_ms = EnvCheckpointIntervalMs(0);
    FigureSetup setup;
    Status st = DB::Open(opts, &setup.db);
    if (!st.ok()) abort();
    SiBenchConfig config;
    config.items = items;
    config.queries_per_update = queries_per_update;
    std::unique_ptr<SiBench> workload;
    st = SiBench::Setup(setup.db.get(), config, &workload);
    if (!st.ok()) abort();
    setup.workload = std::move(workload);
    return setup;
  };
}

}  // namespace
}  // namespace ssidb::bench

int main() {
  using namespace ssidb::bench;
  PrintHeaderOnce();
  const struct {
    const char* name;
    uint64_t items;
    uint32_t queries_per_update;
  } figures[] = {
      {"fig6.6_sibench_10items_mixed", 10, 1},
      {"fig6.7_sibench_100items_mixed", 100, 1},
      {"fig6.8_sibench_1000items_mixed", 1000, 1},
      {"fig6.9_sibench_10items_qmostly", 10, 10},
      {"fig6.10_sibench_100items_qmostly", 100, 10},
      {"fig6.11_sibench_1000items_qmostly", 1000, 10},
  };
  for (const auto& fig : figures) {
    RunFigure(fig.name, MakeSetup(fig.items, fig.queries_per_update),
              StandardSeries());
  }
  return 0;
}
