// Tests of the SIREAD predicate index (src/lock/siread_index.h): the
// striped structure itself (heterogeneous probes, ownership chains, node
// recycling), the SIREAD lifetime rules it now owns — entries survive
// commit (suspension, Fig 3.2 line 9) and are dropped by suspended-
// transaction cleanup (§3.3) — and the cross-structure conflict evidence:
// OnWriterSawSIReadHolder's overlap filter must still see post-commit
// readers. The concurrency tests run under the TSan CI job.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/encoding.h"
#include "src/common/inline_vec.h"
#include "src/db/db.h"
#include "src/lock/lock_manager.h"
#include "src/lock/siread_index.h"
#include "tests/test_util.h"

namespace ssidb {
namespace {

LockKeyView RowView(const std::string& key, TableId table = 1) {
  return MakeLockKeyView(table, LockKind::kRow, key);
}

// ---------------------------------------------------------------------------
// InlineVec (the conflict/newer-version buffer type).
// ---------------------------------------------------------------------------

TEST(InlineVecTest, StaysInlineUpToCapacityThenSpills) {
  InlineVec<TxnId, 4> v;
  for (TxnId i = 1; i <= 4; ++i) v.push_back(i);
  EXPECT_TRUE(v.is_inline());
  v.push_back(5);
  EXPECT_FALSE(v.is_inline());
  ASSERT_EQ(v.size(), 5u);
  for (TxnId i = 1; i <= 5; ++i) EXPECT_EQ(v[i - 1], i);
}

TEST(InlineVecTest, ClearKeepsSpilledCapacity) {
  InlineVec<TxnId, 2> v;
  for (TxnId i = 0; i < 10; ++i) v.push_back(i);
  const size_t cap = v.capacity();
  v.clear();
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.capacity(), cap);  // Reused buffers stay allocation-free.
}

TEST(InlineVecTest, CopyAndMovePreserveElements) {
  InlineVec<TxnId, 2> v;
  for (TxnId i = 0; i < 6; ++i) v.push_back(i);
  InlineVec<TxnId, 2> copy(v);
  ASSERT_EQ(copy.size(), 6u);
  EXPECT_EQ(copy[5], 5u);
  InlineVec<TxnId, 2> moved(std::move(v));
  ASSERT_EQ(moved.size(), 6u);
  EXPECT_EQ(moved[0], 0u);
  EXPECT_TRUE(v.empty());  // NOLINT: moved-from is valid-but-empty here.
}

TEST(InlineVecTest, UnorderedEraseIsConstantTime) {
  InlineVec<int, 4> v;
  for (int i = 0; i < 4; ++i) v.push_back(i);
  v.unordered_erase(1);
  ASSERT_EQ(v.size(), 3u);
  // 1 was replaced by the last element.
  EXPECT_EQ(v[1], 3);
}

// ---------------------------------------------------------------------------
// SIReadIndex structure.
// ---------------------------------------------------------------------------

TEST(SIReadIndexTest, PublishHoldsRelease) {
  SIReadIndex idx;
  idx.Publish(1, RowView("a"));
  EXPECT_TRUE(idx.Holds(1, RowView("a")));
  EXPECT_FALSE(idx.Holds(2, RowView("a")));
  EXPECT_TRUE(idx.HoldsAny(1));
  EXPECT_EQ(idx.GrantCount(), 1u);
  idx.ReleaseAll(1);
  EXPECT_FALSE(idx.Holds(1, RowView("a")));
  EXPECT_FALSE(idx.HoldsAny(1));
  EXPECT_EQ(idx.GrantCount(), 0u);
  EXPECT_EQ(idx.EntryCount(), 0u);
}

TEST(SIReadIndexTest, PublishIsIdempotent) {
  SIReadIndex idx;
  idx.Publish(1, RowView("a"));
  idx.Publish(1, RowView("a"));
  EXPECT_EQ(idx.GrantCount(), 1u);
  idx.ReleaseAll(1);
  EXPECT_EQ(idx.GrantCount(), 0u);
}

TEST(SIReadIndexTest, TableAndKindPartitionTheKeySpace) {
  // Same bytes, different (table, kind): distinct entries.
  SIReadIndex idx;
  idx.Publish(1, MakeLockKeyView(1, LockKind::kRow, "k"));
  idx.Publish(2, MakeLockKeyView(2, LockKind::kRow, "k"));
  idx.Publish(3, MakeLockKeyView(1, LockKind::kGap, "k"));
  EXPECT_EQ(idx.EntryCount(), 3u);
  EXPECT_TRUE(idx.Holds(1, MakeLockKeyView(1, LockKind::kRow, "k")));
  EXPECT_FALSE(idx.Holds(1, MakeLockKeyView(2, LockKind::kRow, "k")));
  EXPECT_FALSE(idx.Holds(1, MakeLockKeyView(1, LockKind::kGap, "k")));
}

TEST(SIReadIndexTest, CollectHoldersExcludesSelfAndClearsNothing) {
  SIReadIndex idx;
  idx.Publish(1, RowView("a"));
  idx.Publish(2, RowView("a"));
  idx.Publish(3, RowView("a"));
  SIReadIndex::ConflictBuf buf;
  idx.CollectHolders(2, RowView("a"), &buf);
  ASSERT_EQ(buf.size(), 2u);
  for (TxnId t : buf) EXPECT_NE(t, 2u);
  // Append semantics: a second collect adds to the buffer.
  idx.CollectHolders(0, RowView("a"), &buf);
  EXPECT_EQ(buf.size(), 5u);
}

TEST(SIReadIndexTest, EraseOwnDropsOnlyThatKey) {
  // §3.7.3 upgrade: the writer's own SIREAD on the written key vanishes,
  // everything else it holds stays.
  SIReadIndex idx;
  idx.Publish(1, RowView("a"));
  idx.Publish(1, RowView("b"));
  idx.Publish(2, RowView("a"));
  idx.EraseOwn(1, RowView("a"));
  EXPECT_FALSE(idx.Holds(1, RowView("a")));
  EXPECT_TRUE(idx.Holds(2, RowView("a")));
  EXPECT_TRUE(idx.Holds(1, RowView("b")));
  EXPECT_TRUE(idx.HoldsAny(1));
  EXPECT_EQ(idx.GrantCount(), 2u);
  // Erasing a key never published is a no-op.
  idx.EraseOwn(1, RowView("zzz"));
  EXPECT_EQ(idx.GrantCount(), 2u);
}

TEST(SIReadIndexTest, ManyKeysGrowBucketsAndReleaseInOHeld) {
  SIReadIndex idx;
  constexpr int kKeys = 5000;
  for (int i = 0; i < kKeys; ++i) {
    idx.Publish(7, MakeLockKeyView(1, LockKind::kRow, EncodeU64Key(i)));
  }
  EXPECT_EQ(idx.GrantCount(), static_cast<size_t>(kKeys));
  EXPECT_EQ(idx.EntryCount(), static_cast<size_t>(kKeys));
  for (int i = 0; i < kKeys; ++i) {
    EXPECT_TRUE(idx.Holds(7, MakeLockKeyView(1, LockKind::kRow,
                                             EncodeU64Key(i))));
  }
  idx.ReleaseAll(7);
  EXPECT_EQ(idx.GrantCount(), 0u);
  EXPECT_EQ(idx.EntryCount(), 0u);
}

TEST(SIReadIndexTest, RecycledEntriesServeNewKeys) {
  // Release pushes entry/link nodes onto free lists; the next publish
  // reuses them (steady-state zero allocation is inspected, here we only
  // verify correctness across recycling).
  SIReadIndex idx;
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 100; ++i) {
      idx.Publish(10 + round,
                  MakeLockKeyView(1, LockKind::kRow, EncodeU64Key(i * 31)));
    }
    EXPECT_EQ(idx.EntryCount(), 100u);
    idx.ReleaseAll(10 + round);
    EXPECT_EQ(idx.EntryCount(), 0u);
    EXPECT_EQ(idx.GrantCount(), 0u);
  }
}

TEST(SIReadIndexTest, ManyOwnersOnOneHotKey) {
  // The owner list spills past its inline capacity and keeps reporting
  // every holder (the §3.3 retained-reader population on a hot key).
  SIReadIndex idx;
  constexpr TxnId kOwners = 100;
  for (TxnId t = 1; t <= kOwners; ++t) idx.Publish(t, RowView("hot"));
  SIReadIndex::ConflictBuf buf;
  idx.CollectHolders(0, RowView("hot"), &buf);
  EXPECT_EQ(buf.size(), static_cast<size_t>(kOwners));
  for (TxnId t = 1; t <= kOwners; ++t) idx.ReleaseAll(t);
  EXPECT_EQ(idx.EntryCount(), 0u);
}

TEST(SIReadIndexTest, ConcurrentPublishProbeRelease) {
  // TSan target: hammer a small keyspace with publishers, writers probing
  // holders, and releases. Invariant: the index drains to empty.
  SIReadIndex idx;
  constexpr int kThreads = 8;
  constexpr int kIters = 300;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&idx, t] {
      for (int i = 0; i < kIters; ++i) {
        const TxnId id = static_cast<TxnId>(t * kIters + i + 1);
        const std::string key = EncodeU64Key(i % 7);
        const LockKeyView v = MakeLockKeyView(1, LockKind::kRow, key);
        idx.Publish(id, v);
        SIReadIndex::ConflictBuf buf;
        idx.CollectHolders(id, v, &buf);
        if (i % 3 == 0) idx.EraseOwn(id, v);
        idx.ReleaseAll(id);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(idx.GrantCount(), 0u);
  EXPECT_EQ(idx.EntryCount(), 0u);
}

// ---------------------------------------------------------------------------
// SIREAD lifetime through the engine (suspension and cleanup, §3.3).
// ---------------------------------------------------------------------------

TEST(SIReadLifetimeTest, EntriesSurviveCommitWhileOverlapped) {
  // Fig 3.2 line 9: commit keeps the SIREAD entries; the suspended
  // transaction stays visible to the index until cleanup.
  DBOptions opts;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(opts, &db).ok());
  TableId table = 0;
  ASSERT_TRUE(db->CreateTable("t", &table).ok());
  {
    auto setup = db->Begin({IsolationLevel::kSnapshot});
    ASSERT_TRUE(setup->Insert(table, "k", "v").ok());
    ASSERT_TRUE(setup->Commit().ok());
  }

  auto keeper = db->Begin({IsolationLevel::kSerializableSSI});
  std::string v;
  keeper->Get(table, "k", &v);  // Assigns keeper's snapshot.
  // Watermark past the keeper's snapshot: a read-only commit's timestamp
  // is the watermark, and retention requires it to exceed the snapshot.
  BumpWatermark(db.get(), table);

  auto reader = db->Begin({IsolationLevel::kSerializableSSI});
  ASSERT_TRUE(reader->Get(table, "k", &v).ok());
  const TxnId reader_id = reader->id();
  const SIReadIndex* idx = db->lock_manager()->siread_index();
  EXPECT_TRUE(idx->Holds(reader_id, MakeLockKeyView(table, LockKind::kRow,
                                                    "k")));
  ASSERT_TRUE(reader->Commit().ok());

  // Retained past commit: the keeper overlaps the reader.
  EXPECT_TRUE(db->lock_manager()->HoldsAnySIRead(reader_id));
  EXPECT_GE(Metric(db.get(), "engine.suspended_txns"), 1u);

  // Once no overlap remains, the next cleanup sweep drops the entries.
  ASSERT_TRUE(keeper->Commit().ok());
  auto pulse = db->Begin({IsolationLevel::kSnapshot});
  pulse->Get(table, "k", &v);
  ASSERT_TRUE(pulse->Commit().ok());
  EXPECT_FALSE(db->lock_manager()->HoldsAnySIRead(reader_id));
  EXPECT_EQ(Metric(db.get(), "engine.suspended_txns"), 0u);
}

TEST(SIReadLifetimeTest, AbortDropsEntriesImmediately) {
  // Aborted transactions never participate in conflicts: ReleaseAll
  // clears the index with no suspension.
  DBOptions opts;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(opts, &db).ok());
  TableId table = 0;
  ASSERT_TRUE(db->CreateTable("t", &table).ok());
  auto reader = db->Begin({IsolationLevel::kSerializableSSI});
  std::string v;
  reader->Get(table, "k", &v);  // NotFound still publishes the SIREAD.
  EXPECT_TRUE(db->lock_manager()->HoldsAnySIRead(reader->id()));
  ASSERT_TRUE(reader->Abort().ok());
  EXPECT_FALSE(db->lock_manager()->HoldsAnySIRead(reader->id()));
}

TEST(SIReadLifetimeTest, WriterSeesPostCommitReaderThroughIndex) {
  // The Fig 3.5 overlap filter ("rl.owner has not committed or
  // commit(rl.owner) > begin(T)") applied to evidence coming from the
  // index: a reader that committed *after* the writer's snapshot was
  // taken still produces the rw-antidependency.
  DBOptions opts;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(opts, &db).ok());
  TableId table = 0;
  ASSERT_TRUE(db->CreateTable("t", &table).ok());
  {
    auto setup = db->Begin({IsolationLevel::kSnapshot});
    ASSERT_TRUE(setup->Insert(table, "k", "v").ok());
    ASSERT_TRUE(setup->Commit().ok());
  }

  auto keeper = db->Begin({IsolationLevel::kSerializableSSI});
  std::string v;
  keeper->Get(table, "other", &v);  // Keeps the reader suspended later.

  auto writer = db->Begin({IsolationLevel::kSerializableSSI});
  writer->Get(table, "other", &v);  // Snapshot before the reader commits.
  // Watermark past the writer's snapshot: commit(reader) > begin(writer),
  // the Fig 3.5 overlap the test is about.
  BumpWatermark(db.get(), table);

  auto reader = db->Begin({IsolationLevel::kSerializableSSI});
  ASSERT_TRUE(reader->Get(table, "k", &v).ok());
  const TxnId reader_id = reader->id();
  ASSERT_TRUE(reader->Commit().ok());
  EXPECT_TRUE(db->lock_manager()->HoldsAnySIRead(reader_id));

  // The writer's EXCLUSIVE acquisition probes the index, finds the
  // suspended reader, and the tracker records reader -> writer.
  ASSERT_TRUE(writer->Put(table, "k", "w").ok());
  auto writer_state = db->txn_manager()->Find(writer->id());
  ASSERT_NE(writer_state, nullptr);
  {
    std::lock_guard<std::mutex> latch(writer_state->ssi_mu);
    EXPECT_TRUE(writer_state->in_ref.IsSet());
  }
  writer->Abort();
  keeper->Abort();
}

TEST(SIReadLifetimeTest, NonOverlappingCommittedReaderIsFiltered) {
  // Complement of the above: a reader that committed before the writer's
  // snapshot does not overlap — evidence is filtered, no edge recorded.
  DBOptions opts;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(opts, &db).ok());
  TableId table = 0;
  ASSERT_TRUE(db->CreateTable("t", &table).ok());
  {
    auto setup = db->Begin({IsolationLevel::kSnapshot});
    ASSERT_TRUE(setup->Insert(table, "k", "v").ok());
    ASSERT_TRUE(setup->Commit().ok());
  }

  auto keeper = db->Begin({IsolationLevel::kSerializableSSI});
  std::string v;
  keeper->Get(table, "other", &v);
  // Keep the keeper genuinely overlapping the reader's commit.
  BumpWatermark(db.get(), table);

  auto reader = db->Begin({IsolationLevel::kSerializableSSI});
  ASSERT_TRUE(reader->Get(table, "k", &v).ok());
  const TxnId reader_id = reader->id();
  ASSERT_TRUE(reader->Commit().ok());
  EXPECT_TRUE(db->lock_manager()->HoldsAnySIRead(reader_id));

  // Writer begins after the reader committed: no overlap.
  auto writer = db->Begin({IsolationLevel::kSerializableSSI});
  ASSERT_TRUE(writer->Put(table, "k", "w").ok());
  auto writer_state = db->txn_manager()->Find(writer->id());
  ASSERT_NE(writer_state, nullptr);
  {
    std::lock_guard<std::mutex> latch(writer_state->ssi_mu);
    EXPECT_FALSE(writer_state->in_ref.IsSet());
  }
  writer->Abort();
  keeper->Abort();
}

TEST(SIReadLifetimeTest, ConcurrentReadersAndCleanupDrain) {
  // TSan target at the engine level: read-mostly SSI traffic with
  // overlapping lifetimes; afterwards everything must drain.
  DBOptions opts;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(opts, &db).ok());
  TableId table = 0;
  ASSERT_TRUE(db->CreateTable("t", &table).ok());
  {
    auto setup = db->Begin({IsolationLevel::kSnapshot});
    for (int i = 0; i < 64; ++i) {
      ASSERT_TRUE(setup->Insert(table, EncodeU64Key(i), "v").ok());
    }
    ASSERT_TRUE(setup->Commit().ok());
  }
  constexpr int kThreads = 4;
  constexpr int kIters = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&db, table, t] {
      std::string v;
      for (int i = 0; i < kIters; ++i) {
        auto txn = db->Begin({IsolationLevel::kSerializableSSI});
        txn->Get(table, EncodeU64Key((t * 13 + i) % 64), &v);
        if (i % 10 == 0) {
          txn->Put(table, EncodeU64Key((t * 7 + i) % 64), "w");
        }
        txn->Commit();  // Unsafe/conflict aborts are fine.
      }
    });
  }
  for (auto& th : threads) th.join();
  // Final pulses retire every suspended transaction.
  for (int i = 0; i < 2; ++i) {
    auto pulse = db->Begin({IsolationLevel::kSnapshot});
    std::string v;
    pulse->Get(table, EncodeU64Key(0), &v);
    ASSERT_TRUE(pulse->Commit().ok());
  }
  EXPECT_EQ(Metric(db.get(), "engine.suspended_txns"), 0u);
  EXPECT_EQ(db->lock_manager()->siread_index()->GrantCount(), 0u);
  EXPECT_EQ(Metric(db.get(), "lock.grants"), 0u);
}

}  // namespace
}  // namespace ssidb
