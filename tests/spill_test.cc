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
//     opens runs instead of replaying everything into RAM), and a spill run
//     newer than the checkpoint manifest wins over older replayed versions;
//   * a checkpoint faults back an evicted chain before it publishes a
//     newer version of it, so an older snapshot still reads the anchor;
//   * SpillChains compacts once a table's runs reach the trigger, keeping
//     the newest commit per key, so repeated spills keep the count bounded;
//   * a fault pins one page, whatever the number of newer runs (filters);
//   * runs stay newest-first while spills and a compaction race.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
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
  return opts;
}

struct TierFixture {
  ScratchDir dir;  // Declared first: outlives the DB (and its tier).
  std::unique_ptr<DB> db;
  TableId table = 0;

  explicit TierFixture(uint32_t compaction_min_runs =
                           DBOptions{}.run_compaction_min_runs) {
    DBOptions opts = TierOptions(dir.path);
    opts.run_compaction_min_runs = compaction_min_runs;
    EXPECT_TRUE(DB::Open(opts, &db).ok());
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
  ASSERT_EQ(f.db->options().run_compaction_min_runs, 4u);
  // Four waves of updates, each followed by a full spill, every key
  // present in each run with increasing commit timestamps. The first three
  // stay separate runs; the fourth spill reaches the trigger, and the same
  // SpillChains call merges all four into one.
  for (int wave = 0; wave < 4; ++wave) {
    for (uint64_t i = 0; i < kKeys; ++i) {
      f.Put(EncodeU64Key(i), "w" + std::to_string(wave));
    }
    ASSERT_EQ(f.SpillAll(), kKeys);
    EXPECT_EQ(tier->run_count(f.table), wave < 3 ? wave + 1u : 1u);
  }

  // Faults after compaction see the newest wave.
  for (uint64_t i = 0; i < kKeys; ++i) {
    std::string v;
    ASSERT_TRUE(f.Get(EncodeU64Key(i), &v).ok());
    EXPECT_EQ(v, "w3");
  }
}

/// Spilling is caller-driven, so the caller that adds runs must also keep
/// their count bounded: round after round of updates and spills never
/// reaches the compaction trigger, and every key reads its last value.
TEST(SpillTest, RepeatedSpillsKeepRunCountBelowCompactionTrigger) {
  TierFixture f;
  StorageTier* tier = f.db->storage_tier();
  const uint32_t trigger = f.db->options().run_compaction_min_runs;
  constexpr uint64_t kKeys = 16;
  constexpr int kRounds = 12;
  std::vector<std::string> expected(kKeys);
  for (int round = 0; round < kRounds; ++round) {
    // Every key in the first round, then a rotating half: each run holds
    // a mix of fresh anchors and keys whose newest copy is in an older run.
    for (uint64_t i = 0; i < kKeys; ++i) {
      if (round > 0 && (i + round) % 2 != 0) continue;
      expected[i] = "r" + std::to_string(round) + "k" + std::to_string(i);
      f.Put(EncodeU64Key(i), expected[i]);
    }
    f.SpillAll();
    EXPECT_GE(tier->run_count(f.table), 1u) << "round " << round;
    EXPECT_LT(tier->run_count(f.table), trigger) << "round " << round;
    for (uint64_t i = 0; i < kKeys; ++i) {
      std::string v;
      ASSERT_TRUE(f.Get(EncodeU64Key(i), &v).ok()) << round << "/" << i;
      EXPECT_EQ(v, expected[i]) << "round " << round << " key " << i;
    }
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
    // The checkpoint's sweep skips the evicted chains — the spill run is
    // their durable home from here on.
    ASSERT_TRUE(db->Checkpoint().ok());
  }
  // Reopen: recovery must open the runs and leave the spilled chains on
  // disk (the checkpoint wrote no run for them, so any resident copy
  // could only have come from a WAL segment the GC may keep or drop;
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

/// A spill run newer than the manifest's watermark, plus WAL replay of an
/// older version of the same key: recovery keeps the newest, whichever
/// source holds it, with a pool (the key stays on disk) and without one.
TEST(SpillTest, SpillRunNewerThanManifestWinsOverOlderReplay) {
  ScratchDir dir;
  DBOptions opts = TierOptions(dir.path + "/runs");
  opts.log.wal_dir = dir.path + "/wal";
  Timestamp newest = 0;
  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(opts, &db).ok());
    TableId table = 0;
    ASSERT_TRUE(db->CreateTable("t", &table).ok());
    const auto put = [&](const std::string& value) {
      auto txn = db->Begin({IsolationLevel::kSnapshot});
      ASSERT_TRUE(txn->Put(table, "k", value).ok());
      ASSERT_TRUE(txn->Commit().ok());
      newest = txn->commit_ts();
    };
    put("v1");
    ASSERT_TRUE(db->Checkpoint().ok());  // Manifest watermark covers v1.
    put("v2");
    put("v3");
    db->SpillChains(table);
    ASSERT_EQ(db->SpillChains(table), 1u);  // A spill run holds v3.
  }
  // The WAL past the watermark replays v2 and v3; the runs hold v1 (the
  // checkpoint) and v3 (the spill).
  for (const uint64_t pool : {opts.buffer_pool_bytes, uint64_t{0}}) {
    DBOptions reopen = opts;
    reopen.buffer_pool_bytes = pool;
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(reopen, &db).ok()) << pool;
    EXPECT_TRUE(db->recovery_stats().used_checkpoint);
    EXPECT_LT(db->recovery_stats().checkpoint_ts, newest);
    const TableId table = 0;
    auto txn = db->Begin({IsolationLevel::kSnapshot});
    std::string v;
    ASSERT_TRUE(txn->Get(table, "k", &v).ok()) << pool;
    EXPECT_EQ(v, "v3") << pool;
    txn->Commit();
    Timestamp cts = 0;
    ASSERT_TRUE(db->table(table)->Find("k")->LatestCommitted(&cts, nullptr));
    EXPECT_EQ(cts, newest) << pool;
  }
}

/// An upsert over an evicted chain leaves it evicted, with the new version
/// resident above the anchor in the spill run. A checkpoint that writes the
/// new version to a run must not let a snapshot older than it fault that
/// version in place of the anchor: it faults the anchor back first.
TEST(SpillTest, CheckpointFaultsBackAnEvictedChainItWrites) {
  ScratchDir dir;
  DBOptions opts = TierOptions(dir.path + "/runs");
  opts.log.wal_dir = dir.path + "/wal";
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(opts, &db).ok());
  TableId table = 0;
  ASSERT_TRUE(db->CreateTable("t", &table).ok());
  const auto put = [&](const std::string& key, const std::string& value) {
    auto txn = db->Begin({IsolationLevel::kSnapshot});
    ASSERT_TRUE(txn->Put(table, key, value).ok());
    ASSERT_TRUE(txn->Commit().ok());
  };
  put("k", "anchor");
  put("other", "x");
  // A reader whose snapshot sees the anchor, held open throughout.
  auto reader = db->Begin({IsolationLevel::kSnapshot});
  std::string v;
  ASSERT_TRUE(reader->Get(table, "other", &v).ok());
  db->SpillChains(table);
  db->SpillChains(table);
  ASSERT_TRUE(db->table(table)->Find("k")->evicted());
  put("k", "newer");  // Hybrid: still evicted, "newer" resident.
  ASSERT_TRUE(db->table(table)->Find("k")->evicted());

  ASSERT_TRUE(db->Checkpoint().ok());  // Its run holds k = "newer".
  EXPECT_FALSE(db->table(table)->Find("k")->evicted());
  ASSERT_TRUE(reader->Get(table, "k", &v).ok());
  EXPECT_EQ(v, "anchor");
  ASSERT_TRUE(reader->Commit().ok());
}

/// Bytes of the files under `dir` (recursively) whose names end in `ext`.
uint64_t FileBytes(const std::string& dir, const std::string& ext) {
  uint64_t total = 0;
  for (const auto& e : std::filesystem::recursive_directory_iterator(dir)) {
    const std::string name = e.path().filename().string();
    if (e.is_regular_file() && name.size() >= ext.size() &&
        name.compare(name.size() - ext.size(), ext.size(), ext) == 0) {
      total += e.file_size();
    }
  }
  return total;
}

TEST(SpillTest, CompactionBytesAreCountedApartFromCheckpoints) {
  // ckpt.bytes_written is a checkpoint's runs plus its manifest; the
  // compaction a checkpoint triggers counts in
  // tier.compaction_bytes_written instead.
  ScratchDir dir;
  DBOptions opts = TierOptions(dir.path + "/runs");
  opts.log.wal_dir = dir.path + "/wal";
  opts.run_compaction_min_runs = 2;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(opts, &db).ok());
  TableId table = 0;
  ASSERT_TRUE(db->CreateTable("t", &table).ok());
  const auto wave = [&](const std::string& value) {
    auto txn = db->Begin({IsolationLevel::kSnapshot});
    for (uint64_t i = 0; i < 32; ++i) {
      ASSERT_TRUE(txn->Put(table, EncodeU64Key(i), value).ok());
    }
    ASSERT_TRUE(txn->Commit().ok());
  };
  wave("v1");
  ASSERT_TRUE(db->Checkpoint().ok());
  const uint64_t first = Metric(db.get(), "ckpt.bytes_written");
  EXPECT_EQ(first, FileBytes(dir.path, ".run") +
                       FileBytes(dir.path + "/wal", "MANIFEST"));
  EXPECT_EQ(Metric(db.get(), "tier.compaction_bytes_written"), 0u);

  // The second checkpoint's run (same keys, same value sizes) reaches the
  // trigger: the two runs merge into one.
  wave("v2");
  ASSERT_TRUE(db->Checkpoint().ok());
  ASSERT_EQ(db->storage_tier()->run_count(table), 1u);
  const uint64_t compacted = Metric(db.get(), "tier.compaction_bytes_written");
  EXPECT_GT(compacted, 0u);
  EXPECT_EQ(compacted, FileBytes(dir.path, ".run"));
  EXPECT_EQ(Metric(db.get(), "ckpt.bytes_written"), 2 * first);
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
  // Spiller: spills and compacts, continuously.
  threads.emplace_back([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      f.db->SpillChains(f.table);
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
  constexpr uint64_t kRuns = 8;
  // The test is about filters across many runs: keep compaction from
  // merging them.
  TierFixture f(/*compaction_min_runs=*/kRuns + 1);
  StorageTier* tier = f.db->storage_tier();
  // The oldest run holds the key; each newer run holds keys on both sides
  // of it, so every newer run's fences put the key on a page and only its
  // filter can rule the run out.
  const std::string key = EncodeU64Key(1000);
  f.Put(key, "oldest");
  ASSERT_EQ(f.SpillAll(), 1u);
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

/// Run producers racing: two threads spill (each SpillChains also
/// compacts once the runs reach the trigger), while the client rewrites
/// each key and reads it back a full cycle of keys later, by which time it
/// has usually been spilled. A run published out of order (a compaction's
/// merged run ahead of a spill published during the merge, or a
/// later-probed spill ahead of an earlier one) shadows the newest anchor,
/// and the read returns an older value.
TEST(SpillTest, RacingSpillsAndCompactionKeepRunsNewestFirst) {
  TierFixture f;
  constexpr uint64_t kKeys = 256;
  std::vector<uint64_t> expected(kKeys, 0);
  for (uint64_t i = 0; i < kKeys; ++i) {
    f.Put(EncodeU64Key(i), "0");
  }

  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        f.db->SpillChains(f.table);
      }
    });
  }
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
