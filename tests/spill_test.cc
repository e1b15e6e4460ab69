// Storage-tier integration tests: the spill / fault protocols between
// Table, VersionChain and StorageTier.
//
// The invariants under test (see version.h and storage_tier.h):
//   * a spill/fault round trip preserves the original commit timestamp,
//     value and tombstone flag of the chain anchor;
//   * reads, scans and write-path visibility checks transparently fault
//     evicted chains back in;
//   * the second-chance clock bit keeps hot chains resident;
//   * runs are the durable home of spilled keys across restarts (recovery
//     opens runs instead of replaying everything into RAM);
//   * compaction merges runs keeping the newest commit per key;
//   * a fault pins one page, whatever the number of newer runs (filters);
//   * runs stay newest-first while spills and a compaction race.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/encoding.h"
#include "src/common/random.h"
#include "src/db/db.h"
#include "src/storage/storage_tier.h"
#include "tests/test_util.h"

namespace ssidb {
namespace {

DBOptions TierOptions(const std::string& dir) {
  DBOptions opts;
  opts.buffer_pool_bytes = 1 << 16;  // 16 frames of 4 KiB.
  opts.run_page_bytes = 4096;
  opts.data_dir = dir;
  // The tests drive spilling explicitly; the background sweeper would race
  // the exact counts.
  opts.version_gc_interval_ms = 0;
  return opts;
}

struct TierFixture {
  ScratchDir dir;  // Declared first: outlives the DB (and its tier).
  std::unique_ptr<DB> db;
  TableId table = 0;

  TierFixture() {
    EXPECT_TRUE(DB::Open(TierOptions(dir.path), &db).ok());
    EXPECT_TRUE(db->CreateTable("t", &table).ok());
  }

  void Put(Slice key, Slice value) {
    auto txn = db->Begin({IsolationLevel::kSnapshot});
    ASSERT_TRUE(txn->Put(table, key, value).ok());
    ASSERT_TRUE(txn->Commit().ok());
  }

  void Del(Slice key) {
    auto txn = db->Begin({IsolationLevel::kSnapshot});
    ASSERT_TRUE(txn->Delete(table, key).ok());
    ASSERT_TRUE(txn->Commit().ok());
  }

  Status Get(Slice key, std::string* value) {
    auto txn = db->Begin({IsolationLevel::kSnapshot});
    Status st = txn->Get(table, key, value);
    txn->Commit();
    return st;
  }

  /// Evict every currently-cold committed chain: the first sweep clears
  /// the second-chance bits, the second evicts. Returns chains evicted.
  size_t SpillAll() {
    db->SpillChains(table);
    return db->SpillChains(table);
  }

  VersionChain* Chain(Slice key) { return db->table(table)->Find(key); }
};

TEST(SpillTest, RoundTripPreservesValueAndCommitTimestamp) {
  TierFixture f;
  constexpr uint64_t kKeys = 16;
  std::vector<Timestamp> cts(kKeys);
  for (uint64_t i = 0; i < kKeys; ++i) {
    f.Put(EncodeU64Key(i), "v" + std::to_string(i));
  }
  for (uint64_t i = 0; i < kKeys; ++i) {
    bool tomb = true;
    ASSERT_TRUE(f.Chain(EncodeU64Key(i))->LatestCommitted(&cts[i], &tomb));
    EXPECT_FALSE(tomb);
  }

  ASSERT_EQ(f.SpillAll(), kKeys);
  for (uint64_t i = 0; i < kKeys; ++i) {
    VersionChain* chain = f.Chain(EncodeU64Key(i));
    EXPECT_TRUE(chain->evicted());
    EXPECT_EQ(chain->size(), 0u) << "evicted chain must hold no versions";
  }

  // Reads fault the anchors back with value + commit_ts intact.
  for (uint64_t i = 0; i < kKeys; ++i) {
    std::string v;
    ASSERT_TRUE(f.Get(EncodeU64Key(i), &v).ok());
    EXPECT_EQ(v, "v" + std::to_string(i));
    VersionChain* chain = f.Chain(EncodeU64Key(i));
    EXPECT_FALSE(chain->evicted());
    Timestamp after = 0;
    bool tomb = true;
    ASSERT_TRUE(chain->LatestCommitted(&after, &tomb));
    EXPECT_EQ(after, cts[i]) << "fault must keep the original commit_ts";
    EXPECT_FALSE(tomb);
  }
  EXPECT_EQ(Metric(f.db.get(), "tier.faulted_chains"), kKeys);
}

TEST(SpillTest, TombstonesSpillAndGateInserts) {
  TierFixture f;
  f.Put("gone", "x");
  f.Put("also-gone", "y");
  f.Del("gone");
  f.Del("also-gone");
  Timestamp del_cts = 0;
  bool tomb = false;
  ASSERT_TRUE(f.Chain("gone")->LatestCommitted(&del_cts, &tomb));
  ASSERT_TRUE(tomb);

  ASSERT_EQ(f.SpillAll(), 2u);
  EXPECT_TRUE(f.Chain("gone")->evicted());

  // A read faults the tombstone back and correctly reports not-found.
  std::string v;
  EXPECT_TRUE(f.Get("gone", &v).IsNotFound());
  Timestamp after = 0;
  ASSERT_TRUE(f.Chain("gone")->LatestCommitted(&after, &tomb));
  EXPECT_TRUE(tomb) << "tombstone flag must survive the round trip";
  EXPECT_EQ(after, del_cts);

  // Insert's duplicate check on the OTHER spilled tombstone exercises the
  // write-path fault loop (no prior read): the faulted tombstone says the
  // key does not exist, so the insert must succeed.
  {
    auto txn = f.db->Begin({IsolationLevel::kSnapshot});
    ASSERT_TRUE(txn->Insert(f.table, "also-gone", "back").ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  ASSERT_TRUE(f.Get("also-gone", &v).ok());
  EXPECT_EQ(v, "back");

  // And inserting over a spilled LIVE anchor must fail as a duplicate.
  f.Put("alive", "1");
  ASSERT_GE(f.SpillAll(), 1u);
  {
    auto txn = f.db->Begin({IsolationLevel::kSnapshot});
    EXPECT_TRUE(txn->Insert(f.table, "alive", "2").IsDuplicateKey());
    txn->Abort();
  }
}

TEST(SpillTest, ScansFaultEvictedChains) {
  TierFixture f;
  constexpr uint64_t kKeys = 24;
  for (uint64_t i = 0; i < kKeys; ++i) {
    f.Put(EncodeU64Key(i), std::to_string(i));
  }
  ASSERT_EQ(f.SpillAll(), kKeys);

  auto txn = f.db->Begin({IsolationLevel::kSnapshot});
  uint64_t seen = 0;
  ASSERT_TRUE(txn->Scan(f.table, EncodeU64Key(0), EncodeU64Key(kKeys),
                        [&](Slice key, Slice value) {
                          EXPECT_EQ(key, Slice(EncodeU64Key(seen)));
                          EXPECT_EQ(value, Slice(std::to_string(seen)));
                          ++seen;
                          return true;
                        })
                  .ok());
  ASSERT_TRUE(txn->Commit().ok());
  EXPECT_EQ(seen, kKeys) << "a scan must surface every spilled key";
  EXPECT_EQ(Metric(f.db.get(), "tier.faulted_chains"), kKeys);
}

TEST(SpillTest, SecondChanceKeepsHotChainsResident) {
  TierFixture f;
  f.Put("hot", "h");
  f.Put("cold", "c");
  // First sweep clears both clock bits...
  EXPECT_EQ(f.db->SpillChains(f.table), 0u);
  // ...then a read re-arms the hot chain's bit.
  std::string v;
  ASSERT_TRUE(f.Get("hot", &v).ok());
  // The second sweep evicts only the cold chain (the hot one has its bit
  // cleared again, so a THIRD untouched sweep would take it).
  EXPECT_EQ(f.db->SpillChains(f.table), 1u);
  EXPECT_FALSE(f.Chain("hot")->evicted());
  EXPECT_TRUE(f.Chain("cold")->evicted());
}

TEST(SpillTest, UpdateAfterSpillFaultsAndSupersedes) {
  TierFixture f;
  f.Put("k", "old");
  ASSERT_EQ(f.SpillAll(), 1u);
  // Upsert over the evicted chain: unlike insert/delete, an upsert needs no
  // visibility check, so it installs at the head WITHOUT faulting the old
  // anchor in. The chain becomes hybrid: one resident version, still marked
  // evicted (the stale anchor lives only in the run).
  f.Put("k", "new");
  std::string v;
  ASSERT_TRUE(f.Get("k", &v).ok());
  EXPECT_EQ(v, "new");
  EXPECT_EQ(f.Chain("k")->size(), 1u);
  EXPECT_TRUE(f.Chain("k")->evicted()) << "hybrid: stale anchor still in run";

  // The hybrid chain re-spills through the normal path: its new head becomes
  // the new anchor, shadowing the stale run entry (newest-first lookup), and
  // a fresh fault returns the new value.
  ASSERT_EQ(f.SpillAll(), 1u);
  EXPECT_EQ(f.Chain("k")->size(), 0u);
  ASSERT_TRUE(f.Get("k", &v).ok());
  EXPECT_EQ(v, "new");
}

TEST(SpillTest, CompactionMergesRunsKeepingNewestCommit) {
  TierFixture f;
  StorageTier* tier = f.db->storage_tier();
  ASSERT_NE(tier, nullptr);
  constexpr uint64_t kKeys = 8;
  // Four waves of updates, each followed by a full spill: four runs, every
  // key present in each with increasing commit timestamps.
  for (int wave = 0; wave < 4; ++wave) {
    for (uint64_t i = 0; i < kKeys; ++i) {
      f.Put(EncodeU64Key(i), "w" + std::to_string(wave));
    }
    ASSERT_EQ(f.SpillAll(), kKeys);
  }
  ASSERT_EQ(tier->run_count(f.table), 4u);

  ASSERT_TRUE(tier->MaybeCompact(f.table).ok());
  EXPECT_EQ(tier->run_count(f.table), 1u);

  // Faults after compaction see the newest wave.
  for (uint64_t i = 0; i < kKeys; ++i) {
    std::string v;
    ASSERT_TRUE(f.Get(EncodeU64Key(i), &v).ok());
    EXPECT_EQ(v, "w3");
  }
}

TEST(SpillTest, RunsAreTheDurableHomeAcrossRestart) {
  ScratchDir dir;
  DBOptions opts = TierOptions(dir.path + "/runs");
  opts.log.wal_dir = dir.path + "/wal";
  constexpr uint64_t kKeys = 16;
  std::vector<Timestamp> cts(kKeys);
  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(opts, &db).ok());
    TableId table = 0;
    ASSERT_TRUE(db->CreateTable("t", &table).ok());
    {
      auto txn = db->Begin({IsolationLevel::kSnapshot});
      for (uint64_t i = 0; i < kKeys; ++i) {
        ASSERT_TRUE(txn->Put(table, EncodeU64Key(i), "d" + std::to_string(i))
                        .ok());
      }
      ASSERT_TRUE(txn->Commit().ok());
    }
    for (uint64_t i = 0; i < kKeys; ++i) {
      bool tomb = true;
      ASSERT_TRUE(
          db->table(table)->Find(EncodeU64Key(i))->LatestCommitted(&cts[i],
                                                                   &tomb));
    }
    db->SpillChains(table);
    ASSERT_EQ(db->SpillChains(table), kKeys);
    // The checkpoint's sweep skips the evicted chains — the runs, not the
    // image, are their durable home from here on.
    ASSERT_TRUE(db->Checkpoint().ok());
  }
  // Reopen: recovery must open the runs and leave the spilled chains on
  // disk (the checkpoint image does not contain them, so any resident
  // copy could only have come from a WAL segment the GC may keep or drop;
  // either way the values and their original commit timestamps survive).
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(opts, &db).ok());
  const TableId table = 0;
  ASSERT_GT(db->storage_tier()->run_count(table), 0u);
  for (uint64_t i = 0; i < kKeys; ++i) {
    auto txn = db->Begin({IsolationLevel::kSnapshot});
    std::string v;
    ASSERT_TRUE(txn->Get(table, EncodeU64Key(i), &v).ok()) << i;
    EXPECT_EQ(v, "d" + std::to_string(i));
    txn->Commit();
    Timestamp after = 0;
    bool tomb = true;
    ASSERT_TRUE(
        db->table(table)->Find(EncodeU64Key(i))->LatestCommitted(&after,
                                                                 &tomb));
    EXPECT_EQ(after, cts[i]) << "restart must keep the original commit_ts";
    EXPECT_FALSE(tomb);
  }
}

/// Concurrent readers/writers against a continuously spilling and
/// compacting table (the TSan job's integration stress): every read must
/// see a committed value, whatever the chain's residency at that instant.
TEST(SpillTest, ConcurrentSpillFaultStress) {
  TierFixture f;
  constexpr uint64_t kKeys = 64;
  for (uint64_t i = 0; i < kKeys; ++i) {
    f.Put(EncodeU64Key(i), "0");
  }

  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  // Spiller: plays the background sweeper, continuously.
  threads.emplace_back([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      f.db->SpillChains(f.table);
      f.db->storage_tier()->MaybeCompact(f.table);
    }
  });
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      Random rng(static_cast<uint64_t>(t) * 53 + 3);
      while (!stop.load(std::memory_order_relaxed)) {
        const std::string key = EncodeU64Key(rng.Uniform(kKeys));
        auto txn = f.db->Begin({IsolationLevel::kSnapshot});
        if (rng.Uniform(4) == 0) {
          txn->Put(f.table, key, std::to_string(rng.Uniform(1000)));
          txn->Commit();
        } else {
          std::string v;
          Status st = txn->Get(f.table, key, &v);
          // Transient IOError (fault retry exhaustion) is permitted by the
          // contract; a NotFound would mean a committed key vanished.
          if (st.IsNotFound()) failed.store(true);
          txn->Commit();
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  stop.store(true);
  for (auto& th : threads) th.join();
  EXPECT_FALSE(failed.load()) << "a committed key disappeared";
  // Quiesced sanity: everything reads back.
  for (uint64_t i = 0; i < kKeys; ++i) {
    std::string v;
    EXPECT_TRUE(f.Get(EncodeU64Key(i), &v).ok()) << i;
  }
}

TEST(SpillTest, FaultProbesOnePageWhateverTheNewerRuns) {
  TierFixture f;
  StorageTier* tier = f.db->storage_tier();
  // The oldest run holds the key; each newer run holds keys on both sides
  // of it, so every newer run's fences put the key on a page and only its
  // filter can rule the run out.
  const std::string key = EncodeU64Key(1000);
  f.Put(key, "oldest");
  ASSERT_EQ(f.SpillAll(), 1u);
  constexpr uint64_t kRuns = 8;
  for (uint64_t r = 1; r < kRuns; ++r) {
    f.Put(EncodeU64Key(r), "low");
    f.Put(EncodeU64Key(2000 + r), "high");
    ASSERT_EQ(f.SpillAll(), 2u);
  }
  ASSERT_EQ(tier->run_count(f.table), kRuns);

  auto pins = [&] {
    return Metric(f.db.get(), "pool.hits") + Metric(f.db.get(), "pool.misses");
  };
  const uint64_t probed = Metric(f.db.get(), "tier.pages_probed");
  const uint64_t faulted = Metric(f.db.get(), "tier.faulted_chains");
  const uint64_t pinned = pins();
  std::string v;
  ASSERT_TRUE(f.Get(key, &v).ok());
  EXPECT_EQ(v, "oldest");
  EXPECT_EQ(Metric(f.db.get(), "tier.faulted_chains") - faulted, 1u);
  EXPECT_EQ(Metric(f.db.get(), "tier.pages_probed") - probed, 1u)
      << "the newer runs' filters must skip them without a page read";
  EXPECT_EQ(pins() - pinned, 1u) << "the pool saw other page pins";
}

/// Run producers racing: one thread spills and compacts, another spills,
/// while the client rewrites each key and reads it back a full cycle of
/// keys later, by which time it has usually been spilled. A run published
/// out of order (a compaction's merged run ahead of a spill published
/// during the merge, or a later-probed spill ahead of an earlier one)
/// shadows the newest anchor, and the read returns an older value.
TEST(SpillTest, RacingSpillsAndCompactionKeepRunsNewestFirst) {
  TierFixture f;
  constexpr uint64_t kKeys = 256;
  std::vector<uint64_t> expected(kKeys, 0);
  for (uint64_t i = 0; i < kKeys; ++i) {
    f.Put(EncodeU64Key(i), "0");
  }

  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      f.db->SpillChains(f.table);
      f.db->storage_tier()->MaybeCompact(f.table);
    }
  });
  threads.emplace_back([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      f.db->SpillChains(f.table);
    }
  });
  uint64_t stale = 0;
  uint64_t reads = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(1000);
  for (uint64_t i = 0; std::chrono::steady_clock::now() < deadline; ++i) {
    const uint64_t k = i % kKeys;
    std::string v;
    Status st = f.Get(EncodeU64Key(k), &v);
    ASSERT_TRUE(st.ok()) << st.ToString();
    ++reads;
    if (v != std::to_string(expected[k])) ++stale;
    f.Put(EncodeU64Key(k), std::to_string(++expected[k]));
  }
  stop.store(true);
  for (auto& th : threads) th.join();
  EXPECT_EQ(stale, 0u) << "of " << reads << " reads";
  EXPECT_GT(Metric(f.db.get(), "tier.faulted_chains"), 0u);
}

}  // namespace
}  // namespace ssidb
