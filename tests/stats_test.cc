// The registry's consistency contract (obs/metrics.h MetricsSnapshot):
// every counter is individually coherent and Collect() may be called from
// any thread at any time, including while the engine is under full
// concurrent load. These tests hammer the engine from worker threads while
// a sampler thread collects continuously — under ThreadSanitizer this
// proves the counters are race-free now that no global system mutex orders
// them — and then check the quiesced totals against ground truth.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "src/common/encoding.h"
#include "src/common/epoch.h"
#include "src/common/random.h"
#include "src/db/db.h"
#include "tests/test_util.h"

namespace ssidb {
namespace {

TEST(StatsTest, SamplingUnderConcurrentLoadIsCoherent) {
  DBOptions opts;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(opts, &db).ok());
  TableId table = 0;
  ASSERT_TRUE(db->CreateTable("t", &table).ok());
  constexpr uint64_t kKeys = 64;
  {
    auto seed = db->Begin({IsolationLevel::kSnapshot});
    for (uint64_t i = 0; i < kKeys; ++i) {
      ASSERT_TRUE(seed->Insert(table, EncodeU64Key(i), "0").ok());
    }
    ASSERT_TRUE(seed->Commit().ok());
  }

  constexpr int kWorkers = 4;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> committed{0};

  std::vector<std::thread> workers;
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      Random rng(static_cast<uint64_t>(w) * 7919 + 1);
      while (!stop.load(std::memory_order_relaxed)) {
        auto txn = db->Begin({IsolationLevel::kSerializableSSI});
        const std::string key = EncodeU64Key(rng.Uniform(kKeys));
        std::string value;
        txn->Get(table, key, &value);
        txn->Put(table, key, "x");
        if (txn->Commit().ok()) {
          committed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  // The sampler races Collect against the workers: the assertions here
  // only use per-counter coherence (no cross-counter relation), which is
  // exactly what the contract promises.
  std::thread sampler([&] {
    uint64_t samples = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      EXPECT_LE(Metric(db.get(), "engine.active_txns"), kWorkers + 1u);
      ++samples;
    }
    EXPECT_GT(samples, 0u);
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  stop.store(true);
  for (auto& t : workers) t.join();
  sampler.join();

  // Quiesced: totals must match ground truth exactly.
  const obs::MetricsSnapshot s = db->metrics()->Collect();
  EXPECT_EQ(Metric(s, "engine.active_txns"), 0u);
  // Every successful commit (including the seed load) appended one record.
  EXPECT_EQ(Metric(s, "log.records"), committed.load() + 1);
  EXPECT_GT(committed.load(), 0u);
}

TEST(StatsTest, GrantCountTracksLiveGrantsExactly) {
  DBOptions opts;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(opts, &db).ok());
  TableId table = 0;
  ASSERT_TRUE(db->CreateTable("t", &table).ok());

  EXPECT_EQ(Metric(db.get(), "lock.grants"), 0u);
  {
    auto txn = db->Begin({IsolationLevel::kSerializable2PL});
    std::string v;
    txn->Get(table, "a", &v);            // kShared on row "a".
    txn->Put(table, "b", "1");           // kExclusive row + gap.
    EXPECT_GT(Metric(db.get(), "lock.grants"), 0u);
    ASSERT_TRUE(txn->Commit().ok());
  }
  // S2PL releases everything at commit; nothing is retained.
  EXPECT_EQ(Metric(db.get(), "lock.grants"), 0u);

  // An SSI reader's SIREAD locks are retained past commit (suspension,
  // §3.3) while a concurrent transaction overlaps it.
  auto overlap = db->Begin({IsolationLevel::kSerializableSSI});
  std::string v;
  overlap->Get(table, "b", &v);  // Assigns overlap's snapshot.
  // Watermark past overlap's snapshot so the reader's read-only commit
  // timestamp (the watermark) makes them genuinely concurrent.
  BumpWatermark(db.get(), table);
  auto reader = db->Begin({IsolationLevel::kSerializableSSI});
  reader->Get(table, "b", &v);
  ASSERT_TRUE(reader->Commit().ok());
  EXPECT_GT(Metric(db.get(), "lock.grants"), 0u);
  EXPECT_EQ(Metric(db.get(), "engine.suspended_txns"), 1u);
  ASSERT_TRUE(overlap->Commit().ok());
  // Cleanup released the suspended reader's retained SIREAD locks.
  EXPECT_EQ(Metric(db.get(), "lock.grants"), 0u);
  EXPECT_EQ(Metric(db.get(), "engine.suspended_txns"), 0u);
}

/// Counter monotonicity under load: sampled values of cumulative counters
/// never go backwards (each is a single relaxed atomic, so torn or
/// regressing reads would indicate a real bug).
TEST(StatsTest, CumulativeCountersAreMonotonicUnderLoad) {
  DBOptions opts;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(opts, &db).ok());
  TableId table = 0;
  ASSERT_TRUE(db->CreateTable("t", &table).ok());

  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  for (int w = 0; w < 3; ++w) {
    workers.emplace_back([&, w] {
      Random rng(static_cast<uint64_t>(w) + 42);
      while (!stop.load(std::memory_order_relaxed)) {
        // Force write-write conflicts on a tiny keyspace so deadlock /
        // unsafe / wait counters actually move.
        auto txn = db->Begin({IsolationLevel::kSerializableSSI});
        std::string value;
        txn->Get(table, EncodeU64Key(rng.Uniform(2)), &value);
        txn->Put(table, EncodeU64Key(rng.Uniform(2)), "x");
        txn->Commit();
      }
    });
  }

  // Every registered counter is cumulative — the flat ones and each
  // abort-taxonomy reason alike (a single relaxed atomic bumped exactly
  // once per event) — so no sampled value ever regresses.
  obs::MetricsSnapshot last = db->metrics()->Collect();
  for (int i = 0; i < 2000; ++i) {
    obs::MetricsSnapshot s = db->metrics()->Collect();
    ASSERT_EQ(s.counters.size(), last.counters.size());
    for (size_t c = 0; c < s.counters.size(); ++c) {
      EXPECT_GE(s.counters[c].second, last.counters[c].second)
          << s.counters[c].first;
    }
    last = std::move(s);
  }
  stop.store(true);
  for (auto& t : workers) t.join();

  // Quiesced cross-check: SSI-classified aborts are bounded by the flat
  // unsafe counter (which counts detected dangerous structures; a victim
  // carrying an earlier cause, or a structure detected twice against the
  // same victim, makes the taxonomy side strictly smaller).
  const obs::MetricsSnapshot s = db->metrics()->Collect();
  const uint64_t ssi_classified =
      Metric(s, AbortMetric(AbortReason::kSsiPivot)) +
      Metric(s, AbortMetric(AbortReason::kSsiInSide)) +
      Metric(s, AbortMetric(AbortReason::kSsiOutSide));
  EXPECT_LE(ssi_classified, Metric(s, "ssi.unsafe_aborts"));
}

/// Commit-pipeline counters (the lock-free commit-slot ring): registered,
/// cumulative ones monotonic under sampling, and the window-depth
/// high-water mark reflects real concurrency.
TEST(StatsTest, CommitPipelineCountersFoldAndStayMonotonic) {
  DBOptions opts;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(opts, &db).ok());
  TableId table = 0;
  ASSERT_TRUE(db->CreateTable("t", &table).ok());

  // Quiet engine: nothing waited, nothing woke, nothing stalled.
  const obs::MetricsSnapshot s0 = db->metrics()->Collect();
  EXPECT_EQ(Metric(s0, "commit.waits"), 0u);
  EXPECT_EQ(Metric(s0, "commit.wakeups"), 0u);
  EXPECT_EQ(Metric(s0, "commit.ring_full_stalls"), 0u);

  std::atomic<int> done{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&, w] {
      Random rng(static_cast<uint64_t>(w) * 31 + 7);
      for (int i = 0; i < 500; ++i) {
        auto txn = db->Begin({IsolationLevel::kSnapshot});
        txn->Put(table, EncodeU64Key(rng.Uniform(256)), "x");
        txn->Commit();
      }
      done.fetch_add(1, std::memory_order_relaxed);
    });
  }

  // Sample while the workers run (fixed work, so commits are guaranteed
  // to have happened by the final check even on a single-core host).
  uint64_t last_waits = 0, last_wakeups = 0, last_stalls = 0;
  while (done.load(std::memory_order_relaxed) < 4) {
    const obs::MetricsSnapshot s = db->metrics()->Collect();
    EXPECT_GE(Metric(s, "commit.waits"), last_waits);
    EXPECT_GE(Metric(s, "commit.wakeups"), last_wakeups);
    EXPECT_GE(Metric(s, "commit.ring_full_stalls"), last_stalls);
    last_waits = Metric(s, "commit.waits");
    last_wakeups = Metric(s, "commit.wakeups");
    last_stalls = Metric(s, "commit.ring_full_stalls");
  }
  for (auto& t : workers) t.join();

  const obs::MetricsSnapshot s1 = db->metrics()->Collect();
  // Every writing commit entered the window: the depth watermark is live.
  EXPECT_GE(Metric(s1, "commit.max_window_depth"), 1u);
  // The default 4096-slot ring cannot backpressure 4 writers.
  EXPECT_EQ(Metric(s1, "commit.ring_full_stalls"), 0u);
}

/// Certification-stage counters: the conflict-free fast path and the
/// combiner are mutually exclusive classifications of an SSI commit, and
/// the registry must attribute each commit to exactly one of them.
TEST(StatsTest, CertificationCountersSplitFastPathFromCombining) {
  DBOptions opts;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(opts, &db).ok());
  TableId table = 0;
  ASSERT_TRUE(db->CreateTable("t", &table).ok());
  {
    // SI seeding never touches the certification stage (no commit check).
    auto seed = db->Begin({IsolationLevel::kSnapshot});
    ASSERT_TRUE(seed->Put(table, "x", "0").ok());
    ASSERT_TRUE(seed->Put(table, "y", "0").ok());
    ASSERT_TRUE(seed->Commit().ok());
    EXPECT_EQ(Metric(db.get(), "commit.fastpath"), 0u);
  }

  // A lone SSI writer has no conflict state: fast path, never combined.
  {
    auto t = db->Begin({IsolationLevel::kSerializableSSI});
    ASSERT_TRUE(t->Put(table, "x", "1").ok());
    ASSERT_TRUE(t->Commit().ok());
  }
  const obs::MetricsSnapshot s0 = db->metrics()->Collect();
  EXPECT_EQ(Metric(s0, "commit.fastpath"), 1u);
  EXPECT_EQ(Metric(s0, "commit.combined_txns"), 0u);
  EXPECT_EQ(Metric(s0, "commit.combine_batches"), 0u);
  EXPECT_EQ(Metric(s0, "commit.max_batch"), 0u);

  // A write-skew pair: both transactions carry rw-antidependency state at
  // commit, so both must go through the combiner (whatever the verdicts).
  {
    auto t1 = db->Begin({IsolationLevel::kSerializableSSI});
    auto t2 = db->Begin({IsolationLevel::kSerializableSSI});
    std::string v;
    ASSERT_TRUE(t1->Get(table, "x", &v).ok());
    ASSERT_TRUE(t1->Get(table, "y", &v).ok());
    ASSERT_TRUE(t2->Get(table, "x", &v).ok());
    ASSERT_TRUE(t2->Get(table, "y", &v).ok());
    ASSERT_TRUE(t1->Put(table, "x", "1").ok());
    ASSERT_TRUE(t2->Put(table, "y", "1").ok());
    t1->Commit();  // Verdicts may differ by tracking mode; the
    t2->Commit();  // classification must not.
  }
  const obs::MetricsSnapshot s1 = db->metrics()->Collect();
  const uint64_t combined = Metric(s1, "commit.combined_txns");
  const uint64_t batches = Metric(s1, "commit.combine_batches");
  EXPECT_EQ(Metric(s1, "commit.fastpath"), 1u);  // Unchanged: neither took it.
  EXPECT_GE(combined, 1u);
  EXPECT_GE(batches, 1u);
  EXPECT_LE(batches, combined);
  EXPECT_GE(Metric(s1, "commit.max_batch"), 1u);
  EXPECT_LE(Metric(s1, "commit.max_batch"), combined);
}

/// The commit_ring_slots knob reaches the pipeline: a tiny ring under
/// concurrent writers still drains correctly (and records any stalls it
/// took doing so).
TEST(StatsTest, TinyCommitRingStillDrains) {
  DBOptions opts;
  opts.commit_ring_slots = 2;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(opts, &db).ok());
  TableId table = 0;
  ASSERT_TRUE(db->CreateTable("t", &table).ok());

  std::atomic<uint64_t> committed{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&, w] {
      Random rng(static_cast<uint64_t>(w) * 131 + 11);
      for (int i = 0; i < 300; ++i) {
        auto txn = db->Begin({IsolationLevel::kSnapshot});
        txn->Put(table, EncodeU64Key(w * 1000 + i), "x");
        if (txn->Commit().ok()) {
          committed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : workers) t.join();
  EXPECT_EQ(committed.load(), 1200u);  // Disjoint keys: nothing aborts.
  const obs::MetricsSnapshot s = db->metrics()->Collect();
  EXPECT_EQ(Metric(s, "engine.active_txns"), 0u);
  // The in-flight window is bounded by the concurrent writer count (each
  // thread has at most one allocated-but-unstamped commit).
  EXPECT_LE(Metric(s, "commit.max_window_depth"), 4u);
}

/// The commit-ack waiter shards are sized from the runtime core topology
/// (ROADMAP item 3 leftover), floored at the previous fixed constant so
/// small machines keep the old footprint.
TEST(StatsTest, CommitAckWaiterShardsAreTopologySized) {
  DBOptions opts;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(opts, &db).ok());
  const uint64_t shards = db->txn_manager()->commit_waiter_shards();
  EXPECT_EQ(shards, TopologyShards(/*floor=*/16));
  EXPECT_GE(shards, 16u);
  EXPECT_EQ(shards & (shards - 1), 0u) << "must be a power of two";
}

/// Disk-tier counters: none of the six is registered while the tier is
/// disabled, and a spill/fault round trip moves each of them.
TEST(StatsTest, DiskTierCountersTrackSpillAndFault) {
  {
    // Memory-only engine: the tier never initializes, so its counters do
    // not exist rather than reading a misleading 0.
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open({}, &db).ok());
    TableId table = 0;
    ASSERT_TRUE(db->CreateTable("t", &table).ok());
    auto txn = db->Begin({IsolationLevel::kSnapshot});
    ASSERT_TRUE(txn->Put(table, "k", "v").ok());
    ASSERT_TRUE(txn->Commit().ok());
    EXPECT_EQ(db->SpillChains(table), 0u);
    const obs::MetricsSnapshot s = db->metrics()->Collect();
    for (const char* name :
         {"pool.hits", "pool.misses", "pool.evictions", "pool.writebacks",
          "tier.spilled_chains", "tier.faulted_chains",
          "tier.pages_probed"}) {
      EXPECT_FALSE(s.Find(name).has_value()) << name;
    }
  }

  ScratchDir dir;
  DBOptions opts;
  opts.buffer_pool_bytes = 1 << 16;
  opts.run_page_bytes = 4096;
  opts.data_dir = dir.path;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(opts, &db).ok());
  TableId table = 0;
  ASSERT_TRUE(db->CreateTable("t", &table).ok());
  constexpr uint64_t kKeys = 32;
  {
    auto txn = db->Begin({IsolationLevel::kSnapshot});
    for (uint64_t i = 0; i < kKeys; ++i) {
      ASSERT_TRUE(txn->Put(table, EncodeU64Key(i), "v").ok());
    }
    ASSERT_TRUE(txn->Commit().ok());
  }
  // First sweep clears the clock bits, second evicts (second chance).
  EXPECT_EQ(db->SpillChains(table), 0u);
  EXPECT_EQ(db->SpillChains(table), kKeys);
  {
    auto txn = db->Begin({IsolationLevel::kSnapshot});
    std::string v;
    for (uint64_t i = 0; i < kKeys; ++i) {
      ASSERT_TRUE(txn->Get(table, EncodeU64Key(i), &v).ok());
      EXPECT_EQ(v, "v");
    }
    ASSERT_TRUE(txn->Commit().ok());
  }
  const obs::MetricsSnapshot s = db->metrics()->Collect();
  EXPECT_EQ(Metric(s, "tier.spilled_chains"), kKeys);
  EXPECT_EQ(Metric(s, "tier.faulted_chains"), kKeys);
  // One run: each fault pins the one page its key sits on.
  EXPECT_EQ(Metric(s, "tier.pages_probed"), kKeys);
  // The run writer warms its own pages, so faults hit; the page reads all
  // went through the pool either way.
  EXPECT_GT(Metric(s, "pool.hits") + Metric(s, "pool.misses"), 0u);
  EXPECT_TRUE(s.Find("pool.evictions").has_value());
  // Dirty run pages were written back by RunFile::Create's flush.
  EXPECT_GT(Metric(s, "pool.writebacks"), 0u);
}

}  // namespace
}  // namespace ssidb
