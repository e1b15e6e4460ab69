// Tests of the SIREAD predicate index (src/lock/siread_index.h): the
// striped structure itself (heterogeneous probes, ownership chains, node
// recycling), the SIREAD lifetime rules it now owns — entries survive
// commit (suspension, Fig 3.2 line 9) and are dropped by suspended-
// transaction cleanup (§3.3) — and the cross-structure conflict evidence:
// OnWriterSawSIReadHolder's overlap filter must still see post-commit
// readers — and the range SIREADs of SSI scans: stabbing probes,
// coalescing, release and retention. The concurrency tests run under the
// TSan CI job.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/common/encoding.h"
#include "src/common/inline_vec.h"
#include "src/common/random.h"
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
// Range SIREADs (the predicate locks of SSI scans).
// ---------------------------------------------------------------------------

/// Range holders covering `key` on `table`, as a set.
std::set<TxnId> RangeHolders(const SIReadIndex& idx, TableId table,
                             const std::string& key, TxnId self = 0) {
  SIReadIndex::ConflictBuf buf;
  idx.CollectRangeHolders(self, table, key, &buf);
  return std::set<TxnId>(buf.begin(), buf.end());
}

TEST(SIReadRangeTest, StabbingProbeFindsOnlyCoveringRanges) {
  SIReadIndex idx;
  idx.PublishRange(1, 1, "b", "d");
  // Both bounds are inclusive.
  for (const char* key : {"b", "c", "d", "bzz", "c\xff"}) {
    EXPECT_EQ(RangeHolders(idx, 1, key), std::set<TxnId>{1}) << key;
  }
  for (const char* key : {"a", "azz", "d\x01", "e", ""}) {
    EXPECT_TRUE(RangeHolders(idx, 1, key).empty()) << key;
  }
  // Same bytes on another table: not covered.
  EXPECT_TRUE(RangeHolders(idx, 2, "c").empty());
  // No point entry was created, and a point probe sees nothing.
  EXPECT_FALSE(idx.Holds(1, RowView("c")));
  SIReadIndex::ConflictBuf buf;
  idx.CollectHolders(0, RowView("c"), &buf);
  EXPECT_TRUE(buf.empty());
}

TEST(SIReadRangeTest, WritersOwnRangeIsExcluded) {
  SIReadIndex idx;
  idx.PublishRange(1, 1, "a", "m");
  idx.PublishRange(2, 1, "f", "z");
  EXPECT_EQ(RangeHolders(idx, 1, "g", /*self=*/1), std::set<TxnId>{2});
  EXPECT_EQ(RangeHolders(idx, 1, "g", /*self=*/2), std::set<TxnId>{1});
  EXPECT_TRUE(RangeHolders(idx, 1, "b", /*self=*/1).empty());
  EXPECT_EQ(RangeHolders(idx, 1, "g", /*self=*/3), (std::set<TxnId>{1, 2}));
}

TEST(SIReadRangeTest, AdjacentScansOfOneTransactionCoalesce) {
  SIReadIndex idx;
  // A chunked scan: each chunk starts at the successor the last one saw.
  idx.PublishRange(1, 1, EncodeU64Key(0), EncodeU64Key(255));
  idx.NoteRangeSuccessor(1, 1, EncodeU64Key(255), EncodeU64Key(256));
  idx.PublishRange(1, 1, EncodeU64Key(256), EncodeU64Key(511));
  idx.NoteRangeSuccessor(1, 1, EncodeU64Key(511), EncodeU64Key(600));
  EXPECT_EQ(idx.RangeCount(), 1u);
  EXPECT_EQ(idx.GrantCount(), 1u);
  // The previous successor gap (511, 600) was covered: a chunk starting
  // inside it coalesces and the range now spans it.
  idx.PublishRange(1, 1, EncodeU64Key(550), EncodeU64Key(700));
  EXPECT_EQ(idx.RangeCount(), 1u);
  for (uint64_t k : {0, 255, 256, 530, 700}) {
    EXPECT_EQ(RangeHolders(idx, 1, EncodeU64Key(k)), std::set<TxnId>{1}) << k;
  }
  // A scan inside the range, or overlapping its lower end, coalesces too.
  idx.PublishRange(1, 1, EncodeU64Key(10), EncodeU64Key(20));
  idx.PublishRange(1, 1, "", EncodeU64Key(5));
  EXPECT_EQ(idx.RangeCount(), 1u);
  EXPECT_EQ(RangeHolders(idx, 1, ""), std::set<TxnId>{1});
  // A scan starting above the recorded successor does not: the gap
  // between was never read.
  idx.NoteRangeSuccessor(1, 1, EncodeU64Key(700), EncodeU64Key(701));
  idx.PublishRange(1, 1, EncodeU64Key(800), EncodeU64Key(900));
  EXPECT_EQ(idx.RangeCount(), 2u);
  EXPECT_TRUE(RangeHolders(idx, 1, EncodeU64Key(750)).empty());
  // Past the supremum every later scan coalesces.
  idx.NoteRangeSuccessor(1, 1, EncodeU64Key(900), std::nullopt);
  idx.PublishRange(1, 1, EncodeU64Key(5000), EncodeU64Key(6000));
  EXPECT_EQ(idx.RangeCount(), 2u);
  EXPECT_EQ(RangeHolders(idx, 1, EncodeU64Key(3000)), std::set<TxnId>{1});
  idx.ReleaseAll(1);
  EXPECT_EQ(idx.RangeCount(), 0u);
  EXPECT_EQ(idx.GrantCount(), 0u);
}

TEST(SIReadRangeTest, OtherTransactionsAndTablesDoNotCoalesce) {
  SIReadIndex idx;
  idx.PublishRange(1, 1, "a", "c");
  idx.NoteRangeSuccessor(1, 1, "c", std::string("d"));
  idx.PublishRange(2, 1, "d", "f");  // Another transaction.
  idx.PublishRange(1, 2, "d", "f");  // Another table.
  EXPECT_EQ(idx.RangeCount(), 3u);
  EXPECT_EQ(RangeHolders(idx, 1, "e"), std::set<TxnId>{2});
  EXPECT_EQ(RangeHolders(idx, 2, "e"), std::set<TxnId>{1});
  EXPECT_EQ(RangeHolders(idx, 1, "b"), std::set<TxnId>{1});
  idx.ReleaseAll(2);
  EXPECT_EQ(idx.RangeCount(), 2u);
  EXPECT_TRUE(RangeHolders(idx, 1, "e").empty());
}

TEST(SIReadRangeTest, ReleaseHoldsAnyAndCountsIncludeRanges) {
  SIReadIndex idx;
  idx.PublishRange(1, 1, "a", "c");
  EXPECT_TRUE(idx.HoldsAny(1));
  EXPECT_EQ(idx.GrantCount(), 1u);
  EXPECT_EQ(idx.EntryCount(), 1u);
  idx.Publish(1, RowView("x"));
  idx.PublishRange(1, 2, "a", "c");
  EXPECT_EQ(idx.GrantCount(), 3u);
  EXPECT_EQ(idx.EntryCount(), 3u);
  EXPECT_EQ(idx.RangeCount(), 2u);
  // Erasing the only point entry keeps the transaction's ranges.
  idx.EraseOwn(1, RowView("x"));
  EXPECT_TRUE(idx.HoldsAny(1));
  EXPECT_EQ(idx.GrantCount(), 2u);
  idx.ReleaseAll(1);
  EXPECT_FALSE(idx.HoldsAny(1));
  EXPECT_EQ(idx.GrantCount(), 0u);
  EXPECT_EQ(idx.EntryCount(), 0u);
  EXPECT_EQ(idx.RangeCount(), 0u);
  EXPECT_TRUE(RangeHolders(idx, 1, "b").empty());
  // Recycled range nodes serve new ranges.
  idx.PublishRange(2, 1, "m", "n");
  EXPECT_EQ(RangeHolders(idx, 1, "m"), std::set<TxnId>{2});
}

TEST(SIReadRangeTest, StabsAgreeWithBruteForceAcrossManyRanges) {
  // The interval treap against a linear scan: many owners, overlapping
  // ranges on a few tables that share stripes, stabs before and after
  // half the owners release.
  SIReadIndex idx;
  struct Published {
    TxnId owner;
    TableId table;
    uint64_t lo, hi;
  };
  std::vector<Published> ranges;
  Random rng(7);
  for (TxnId owner = 1; owner <= 400; ++owner) {
    const TableId table = 1 + static_cast<TableId>(rng.Uniform(2)) * 64;
    const uint64_t lo = rng.Uniform(10000);
    const uint64_t hi = lo + rng.Uniform(500);
    idx.PublishRange(owner, table, EncodeU64Key(lo), EncodeU64Key(hi));
    ranges.push_back({owner, table, lo, hi});
  }
  auto check = [&](const char* phase) {
    for (int i = 0; i < 500; ++i) {
      const TableId table = 1 + static_cast<TableId>(rng.Uniform(2)) * 64;
      const uint64_t key = rng.Uniform(10600);
      std::multiset<TxnId> want;
      for (const Published& p : ranges) {
        if (p.table == table && p.lo <= key && key <= p.hi) {
          want.insert(p.owner);
        }
      }
      SIReadIndex::ConflictBuf buf;
      idx.CollectRangeHolders(0, table, EncodeU64Key(key), &buf);
      EXPECT_EQ(std::multiset<TxnId>(buf.begin(), buf.end()), want)
          << phase << " key " << key;
    }
  };
  check("all published");
  for (TxnId owner = 1; owner <= 400; owner += 2) idx.ReleaseAll(owner);
  ranges.erase(std::remove_if(ranges.begin(), ranges.end(),
                              [](const Published& p) {
                                return p.owner % 2 == 1;
                              }),
               ranges.end());
  EXPECT_EQ(idx.RangeCount(), ranges.size());
  check("half released");
}

TEST(SIReadRangeTest, ConcurrentPublishStabRelease) {
  // TSan target: scanners publish (and coalesce) ranges while writers
  // stab the same table and owners release. The index drains to empty.
  SIReadIndex idx;
  constexpr int kThreads = 6;
  constexpr int kIters = 300;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&idx, t] {
      for (int i = 0; i < kIters; ++i) {
        const TxnId id = static_cast<TxnId>(t * kIters + i + 1);
        const uint64_t lo = static_cast<uint64_t>((i * 7) % 50);
        idx.PublishRange(id, 1, EncodeU64Key(lo), EncodeU64Key(lo + 9));
        idx.NoteRangeSuccessor(id, 1, EncodeU64Key(lo + 9),
                               EncodeU64Key(lo + 10));
        idx.PublishRange(id, 1, EncodeU64Key(lo + 10), EncodeU64Key(lo + 19));
        SIReadIndex::ConflictBuf buf;
        idx.CollectRangeHolders(id, 1, EncodeU64Key(lo + 5), &buf);
        idx.ReleaseAll(id);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(idx.GrantCount(), 0u);
  EXPECT_EQ(idx.RangeCount(), 0u);
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
  // "k" has a chain: its SIREAD lives there, not in the index.
  const VersionChain* chain = db->table(table)->Find("k");
  EXPECT_TRUE(chain->HoldsSIRead(reader_id));
  EXPECT_FALSE(db->lock_manager()->siread_index()->Holds(
      reader_id, MakeLockKeyView(table, LockKind::kRow, "k")));
  ASSERT_TRUE(reader->Commit().ok());

  // Retained past commit: the keeper overlaps the reader.
  EXPECT_TRUE(chain->HoldsSIRead(reader_id));
  EXPECT_GE(Metric(db.get(), "engine.suspended_txns"), 1u);
  EXPECT_GE(Metric(db.get(), "siread.entries"), 1u);

  // Once no overlap remains, the next cleanup sweep drops the entries.
  ASSERT_TRUE(keeper->Commit().ok());
  auto pulse = db->Begin({IsolationLevel::kSnapshot});
  pulse->Get(table, "k", &v);
  ASSERT_TRUE(pulse->Commit().ok());
  EXPECT_FALSE(chain->HoldsSIRead(reader_id));
  EXPECT_EQ(Metric(db.get(), "engine.suspended_txns"), 0u);
  EXPECT_EQ(Metric(db.get(), "siread.entries"), 0u);
}

TEST(SIReadLifetimeTest, RangesSurviveCommitWhileOverlapped) {
  // The scan's range SIREAD is retained like a point entry: a writer that
  // overlaps the committed scanner still finds it and records the edge,
  // and cleanup drops it once the overlap ends.
  DBOptions opts;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(opts, &db).ok());
  TableId table = 0;
  ASSERT_TRUE(db->CreateTable("t", &table).ok());
  {
    auto setup = db->Begin({IsolationLevel::kSnapshot});
    ASSERT_TRUE(setup->Insert(table, "k1", "v").ok());
    ASSERT_TRUE(setup->Insert(table, "k5", "v").ok());
    ASSERT_TRUE(setup->Commit().ok());
  }

  auto keeper = db->Begin({IsolationLevel::kSerializableSSI});
  std::string v;
  keeper->Get(table, "other", &v);  // Keeps the scanner suspended later.
  auto writer = db->Begin({IsolationLevel::kSerializableSSI});
  writer->Get(table, "other", &v);  // Snapshot before the scanner commits.
  BumpWatermark(db.get(), table);

  auto scanner = db->Begin({IsolationLevel::kSerializableSSI});
  ASSERT_TRUE(scanner->Scan(table, "k", "k9", [](Slice, Slice) {
    return true;
  }).ok());
  const TxnId scanner_id = scanner->id();
  const SIReadIndex* idx = db->lock_manager()->siread_index();
  EXPECT_EQ(idx->RangeCount(), 1u);
  EXPECT_EQ(Metric(db.get(), "siread.ranges"), 1u);
  ASSERT_TRUE(scanner->Commit().ok());

  // Retained past commit: the keeper and the writer overlap the scanner.
  EXPECT_TRUE(db->lock_manager()->HoldsAnySIRead(scanner_id));
  EXPECT_EQ(idx->RangeCount(), 1u);

  // An insert into the scanned range, between the rows the scan saw,
  // stabs the retained range: scanner -> writer.
  ASSERT_TRUE(writer->Insert(table, "k3", "w").ok());
  auto writer_state = db->txn_manager()->Find(writer->id());
  ASSERT_NE(writer_state, nullptr);
  {
    std::lock_guard<std::mutex> latch(writer_state->ssi_mu);
    EXPECT_TRUE(writer_state->in_ref.IsSet());
  }
  writer->Abort();

  ASSERT_TRUE(keeper->Commit().ok());
  auto pulse = db->Begin({IsolationLevel::kSnapshot});
  pulse->Get(table, "k1", &v);
  ASSERT_TRUE(pulse->Commit().ok());
  EXPECT_FALSE(db->lock_manager()->HoldsAnySIRead(scanner_id));
  EXPECT_EQ(idx->RangeCount(), 0u);
  EXPECT_EQ(Metric(db.get(), "siread.ranges"), 0u);
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

TEST(SIReadLifetimeTest, WriterSeesPostCommitReaderOnChain) {
  // The Fig 3.5 overlap filter ("rl.owner has not committed or
  // commit(rl.owner) > begin(T)") applied to evidence coming from the
  // key's chain: a reader that committed *after* the writer's snapshot was
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
  EXPECT_TRUE(db->table(table)->Find("k")->HoldsSIRead(reader_id));
  const std::weak_ptr<TxnState> reader_state =
      db->txn_manager()->Find(reader_id);
  ASSERT_FALSE(reader_state.expired());

  // The writer's owner claim collects the chain's SIREAD holders, finds
  // the suspended reader, and the tracker records reader -> writer.
  ASSERT_TRUE(writer->Put(table, "k", "w").ok());
  std::shared_ptr<TxnState> writer_state =
      db->txn_manager()->Find(writer->id());
  ASSERT_NE(writer_state, nullptr);
  {
    std::lock_guard<std::mutex> latch(writer_state->ssi_mu);
    EXPECT_TRUE(writer_state->in_ref.IsSet());
  }
  const std::weak_ptr<TxnState> writer_weak = writer_state;
  writer_state.reset();
  writer->Abort();
  keeper->Abort();

  // The edge made the two states point at each other. The writer's abort
  // and the reader's cleanup (nothing overlaps it now) unlink them, so
  // both are freed once the handles go.
  writer.reset();
  reader.reset();
  keeper.reset();
  EXPECT_TRUE(reader_state.expired());
  EXPECT_TRUE(writer_weak.expired());
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
  EXPECT_TRUE(db->table(table)->Find("k")->HoldsSIRead(reader_id));

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
