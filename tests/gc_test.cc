// Regression tests for the two unbounded-memory leaks and the storage-GC
// machinery that bounds them:
//
//   * The kPage first-committer-wins map (TxnManager::page_write_ts_) was
//     insert-only: entries were added at commit and never erased. It is
//     now swept during CleanupSuspended — entries at or below
//     min_active_read_ts can never again fail the §4.2 FCW test or mark an
//     rw-conflict (every current and future snapshot is at or past them,
//     and a missing entry already means "never written").
//
//   * Cold version chains leaked: inline pruning fires only when the
//     *same key* is written again, so versions that piled up on a
//     read-mostly key behind a long snapshot were never reclaimed once the
//     writes stopped. The DB's background sweep
//     (DBOptions::version_gc_interval_ms) is the backstop.
//
// Plus the per-shard max-commit-ts hint that lets incremental checkpoints
// skip cold shards latch-free, and the registry's durability counters.

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>

#include "src/db/db.h"
#include "src/storage/table.h"
#include "tests/test_util.h"

namespace ssidb {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  TempDir() {
    char tmpl[] = "/tmp/ssidb_gc_XXXXXX";
    path = mkdtemp(tmpl);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string path;
};

/// Spin until `pred` holds or ~5s elapse (background threads are on their
/// own schedule).
template <typename Pred>
bool WaitFor(const Pred& pred) {
  for (int i = 0; i < 500; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return pred();
}

TEST(PageFcwMapTest, EntriesPrunedOnceBelowSnapshotWatermark) {
  DBOptions opts;
  opts.granularity = LockGranularity::kPage;
  opts.rows_per_page = 1;  // Every key is its own page: map entry per key.
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(opts, &db).ok());
  TableId t = 0;
  ASSERT_TRUE(db->CreateTable("t", &t).ok());

  // Pin a snapshot so commits stay above min_active_read_ts and the sweep
  // (which runs every few cleanups) cannot reclaim their entries yet.
  auto pin = db->Begin({IsolationLevel::kSnapshot});
  std::string v;
  EXPECT_TRUE(pin->Get(t, "pin", &v).IsNotFound());  // Assigns the snapshot.

  constexpr int kPages = 120;
  for (int i = 0; i < kPages; ++i) {
    auto txn = db->Begin({IsolationLevel::kSnapshot});
    ASSERT_TRUE(txn->Put(t, "page" + std::to_string(i), "v").ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  const size_t pinned_size = db->txn_manager()->page_write_entries();
  EXPECT_GE(pinned_size, static_cast<size_t>(kPages));
  EXPECT_EQ(Metric(db.get(), "txn.page_fcw_entries"), pinned_size);

  // Release the pin and drive enough commits for a periodic sweep: every
  // entry now sits at or below the watermark and must be erased.
  ASSERT_TRUE(pin->Commit().ok());
  for (int i = 0; i < 20; ++i) {
    auto txn = db->Begin({IsolationLevel::kSnapshot});
    ASSERT_TRUE(txn->Put(t, "extra" + std::to_string(i), "v").ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  const size_t after = db->txn_manager()->page_write_entries();
  EXPECT_LT(after, pinned_size);
  EXPECT_LT(after, 64u);  // The old generation is gone, not just trimmed.
  EXPECT_GT(db->txn_manager()->page_entries_pruned(), 0u);

  // The map's semantics survive pruning: a missing entry reads as "never
  // written", so a fresh writer is not spuriously conflicted.
  auto txn = db->Begin({IsolationLevel::kSnapshot});
  ASSERT_TRUE(txn->Put(t, "page0", "again").ok());
  ASSERT_TRUE(txn->Commit().ok());
}

TEST(VersionGcTest, BackgroundSweepReclaimsColdChainWithoutManualPrune) {
  DBOptions opts;
  opts.version_gc_interval_ms = 5;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(opts, &db).ok());
  TableId t = 0;
  ASSERT_TRUE(db->CreateTable("t", &t).ok());

  // A long-running snapshot pins the prune horizon while "hot" is
  // rewritten: inline pruning (write path) cannot reclaim anything.
  auto pin = db->Begin({IsolationLevel::kSnapshot});
  std::string v;
  EXPECT_TRUE(pin->Get(t, "hot", &v).IsNotFound());
  constexpr int kWrites = 20;
  for (int i = 0; i < kWrites; ++i) {
    auto txn = db->Begin({IsolationLevel::kSnapshot});
    ASSERT_TRUE(txn->Put(t, "hot", std::to_string(i)).ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  VersionChain* chain = db->table(t)->Find("hot");
  ASSERT_NE(chain, nullptr);
  EXPECT_GE(chain->size(), static_cast<size_t>(kWrites) / 2);

  // Release the pin and never write "hot" again: this is the read-mostly
  // key the inline path can never reach. Only the background sweep can
  // bring the chain back to one version.
  ASSERT_TRUE(pin->Commit().ok());
  EXPECT_TRUE(WaitFor([&] { return chain->size() == 1; }))
      << "chain still holds " << chain->size() << " versions";
  EXPECT_GT(Metric(db.get(), "gc.versions_pruned"), 0u);

  auto reader = db->Begin({IsolationLevel::kSnapshot});
  ASSERT_TRUE(reader->Get(t, "hot", &v).ok());
  EXPECT_EQ(v, std::to_string(kWrites - 1));  // Latest value survives.
  EXPECT_TRUE(reader->Commit().ok());
}

TEST(TableHintTest, FilteredForEachChainSkipsColdShardsLatchFree) {
  Table table(0, "t", /*split_threshold=*/4);
  const auto key = [](int i) {
    char buf[8];
    snprintf(buf, sizeof(buf), "k%03d", i);
    return std::string(buf);
  };
  for (int i = 0; i < 32; ++i) {
    table.GetOrCreate(key(i));
    table.NoteCommit(key(i), 10);
  }
  ASSERT_GT(table.ShardCount(), 2u);  // Threshold 4 forces splits.
  // One commit past the watermark lands in exactly one shard.
  table.NoteCommit(key(0), 100);

  size_t visited = 0;
  table.ForEachChain(/*since=*/50,
                     [&](const std::string&, VersionChain*) { ++visited; });
  EXPECT_GT(visited, 0u);   // The hot shard is visited...
  EXPECT_LT(visited, 32u);  // ...every cold shard is skipped.

  // since=0 visits everything (all hints are > 0 once stamped).
  size_t all = 0;
  table.ForEachChain(/*since=*/0,
                     [&](const std::string&, VersionChain*) { ++all; });
  EXPECT_EQ(all, 32u);
}

TEST(PruneHorizonTest, CheckpointSweepFloorsPruning) {
  // A checkpoint sweep at watermark W must not lose a key whose newest
  // version <= W gets superseded mid-sweep: while the sweep is active the
  // prune horizon is capped at W even as min_active_read_ts runs past it.
  DBOptions opts;
  opts.version_gc_interval_ms = 0;  // Drive pruning by hand.
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(opts, &db).ok());
  TableId t = 0;
  ASSERT_TRUE(db->CreateTable("t", &t).ok());
  const auto commit_one = [&](const std::string& v) {
    auto txn = db->Begin({IsolationLevel::kSnapshot});
    ASSERT_TRUE(txn->Put(t, "k", v).ok());
    ASSERT_TRUE(txn->Commit().ok());
  };
  commit_one("old");
  TxnManager* tm = db->txn_manager();
  const Timestamp wm = tm->BeginCheckpointSweep();
  // The key is overwritten after the sweep began: its pre-overwrite
  // version is the one a sweep at `wm` still has to serialize.
  commit_one("new");
  EXPECT_GT(tm->min_active_read_ts(), wm);
  EXPECT_EQ(tm->prune_horizon(), wm);
  // A prune during the sweep keeps the watermark-visible version.
  db->PruneVersions(t);
  EXPECT_GE(db->table(t)->Find("k")->size(), 2u);
  tm->EndCheckpointSweep();
  EXPECT_GT(tm->prune_horizon(), wm);
  db->PruneVersions(t);
  EXPECT_EQ(db->table(t)->Find("k")->size(), 1u);
}

TEST(GcMetricsTest, DurabilityCountersShareOneSnapshot) {
  TempDir dir;
  DBOptions opts;
  opts.log.wal_dir = dir.path;
  opts.log.wal_fsync = false;  // Format-only: keep the test fast.
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(opts, &db).ok());
  TableId t = 0;
  ASSERT_TRUE(db->CreateTable("t", &t).ok());
  for (int i = 0; i < 10; ++i) {
    auto txn = db->Begin();
    ASSERT_TRUE(txn->Put(t, "k" + std::to_string(i), "v").ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  ASSERT_TRUE(db->Checkpoint().ok());
  const obs::MetricsSnapshot stats = db->metrics()->Collect();
  EXPECT_EQ(Metric(stats, "ckpt.taken"), 1u);
  EXPECT_GT(Metric(stats, "ckpt.bytes_written"), 0u);
  // One base image over a single live segment: nothing to reclaim yet.
  EXPECT_EQ(Metric(stats, "wal.segments_deleted"), 0u);
  EXPECT_EQ(Metric(stats, "txn.page_fcw_entries"), 0u);  // kRow granularity.

  // Manual pruning is folded into the same counter the background sweep
  // and the inline write path feed.
  const uint64_t before = Metric(stats, "gc.versions_pruned");
  db->PruneVersions(t);
  EXPECT_GE(Metric(db.get(), "gc.versions_pruned"), before);
}

}  // namespace
}  // namespace ssidb
