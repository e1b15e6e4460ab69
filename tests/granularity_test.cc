// Page-granularity (Berkeley DB mode, §4.1-§4.3) tests: page-level locks,
// page-level first-committer-wins, phantom safety without gap locks, and
// the §6.1.5 false-positive effect of coarse lock units.

#include <gtest/gtest.h>

#include <memory>

#include "src/common/encoding.h"
#include "src/common/random.h"
#include "src/db/db.h"
#include "src/sgt/mvsg.h"
#include "tests/test_util.h"

namespace ssidb {
namespace {

DBOptions PageOptions(uint32_t rows_per_page = 20) {
  DBOptions opts;
  opts.granularity = LockGranularity::kPage;
  opts.rows_per_page = rows_per_page;
  opts.record_history = true;
  opts.lock_timeout_ms = 1000;
  return opts;
}

struct Env {
  std::unique_ptr<DB> db;
  TableId table = 0;

  explicit Env(DBOptions opts) {
    EXPECT_TRUE(DB::Open(opts, &db).ok());
    EXPECT_TRUE(db->CreateTable("t", &table).ok());
  }

  void SeedRange(uint64_t n) {
    auto txn = db->Begin({IsolationLevel::kSnapshot});
    for (uint64_t i = 0; i < n; ++i) {
      ASSERT_TRUE(txn->Put(table, EncodeU64Key(i), "0").ok());
    }
    ASSERT_TRUE(txn->Commit().ok());
  }
};

TEST(PageGranularityTest, BasicCrudStillWorks) {
  Env env(PageOptions());
  env.SeedRange(100);
  auto txn = env.db->Begin({IsolationLevel::kSerializableSSI});
  std::string v;
  EXPECT_TRUE(txn->Get(env.table, EncodeU64Key(5), &v).ok());
  EXPECT_TRUE(txn->Put(env.table, EncodeU64Key(5), "1").ok());
  EXPECT_TRUE(txn->Commit().ok());
}

TEST(PageGranularityTest, SameKeyWritesStillConflict) {
  Env env(PageOptions());
  env.SeedRange(40);
  auto t1 = env.db->Begin({IsolationLevel::kSnapshot});
  auto t2 = env.db->Begin({IsolationLevel::kSnapshot});
  std::string v;
  ASSERT_TRUE(t1->Get(env.table, EncodeU64Key(0), &v).ok());
  ASSERT_TRUE(t2->Get(env.table, EncodeU64Key(0), &v).ok());
  ASSERT_TRUE(t1->Put(env.table, EncodeU64Key(0), "1").ok());
  ASSERT_TRUE(t1->Commit().ok());
  Status s = t2->Put(env.table, EncodeU64Key(0), "2");
  EXPECT_TRUE(s.IsUpdateConflict()) << s.ToString();
}

TEST(PageGranularityTest, DifferentKeysSamePageConflictUnderFCW) {
  // §4.2: Berkeley DB versions whole pages, so two transactions updating
  // *different* rows of one page violate page-level first-committer-wins —
  // a conflict row-level engines would not raise.
  Env env(PageOptions(/*rows_per_page=*/20));
  env.SeedRange(40);
  auto t1 = env.db->Begin({IsolationLevel::kSnapshot});
  auto t2 = env.db->Begin({IsolationLevel::kSnapshot});
  std::string v;
  // Pin both snapshots first (late-snapshot would otherwise rescue t2).
  ASSERT_TRUE(t1->Get(env.table, EncodeU64Key(30), &v).ok());
  ASSERT_TRUE(t2->Get(env.table, EncodeU64Key(30), &v).ok());
  // Keys 2 and 3 share page 0.
  ASSERT_TRUE(t1->Put(env.table, EncodeU64Key(2), "1").ok());
  ASSERT_TRUE(t1->Commit().ok());
  Status s = t2->Put(env.table, EncodeU64Key(3), "2");
  EXPECT_TRUE(s.IsUpdateConflict()) << s.ToString();
}

TEST(PageGranularityTest, DifferentPagesDoNotConflict) {
  Env env(PageOptions(/*rows_per_page=*/20));
  env.SeedRange(40);
  auto t1 = env.db->Begin({IsolationLevel::kSnapshot});
  auto t2 = env.db->Begin({IsolationLevel::kSnapshot});
  std::string v;
  ASSERT_TRUE(t1->Get(env.table, EncodeU64Key(0), &v).ok());
  ASSERT_TRUE(t2->Get(env.table, EncodeU64Key(0), &v).ok());
  ASSERT_TRUE(t1->Put(env.table, EncodeU64Key(2), "1").ok());   // Page 0.
  ASSERT_TRUE(t1->Commit().ok());
  EXPECT_TRUE(t2->Put(env.table, EncodeU64Key(25), "2").ok());  // Page 1.
  EXPECT_TRUE(t2->Commit().ok());
}

TEST(PageGranularityTest, WriteSkewStillPreventedUnderSSI) {
  Env env(PageOptions(/*rows_per_page=*/20));
  env.SeedRange(60);
  // x and y on different pages so this is a genuine rw-skew, not FCW.
  const std::string x = EncodeU64Key(0);   // Page 0.
  const std::string y = EncodeU64Key(30);  // Page 1.
  auto t1 = env.db->Begin({IsolationLevel::kSerializableSSI});
  auto t2 = env.db->Begin({IsolationLevel::kSerializableSSI});
  std::string v;
  Status s = t1->Get(env.table, x, &v);
  if (s.ok()) s = t1->Get(env.table, y, &v);
  if (s.ok()) s = t2->Get(env.table, x, &v);
  if (s.ok()) s = t2->Get(env.table, y, &v);
  if (s.ok()) s = t1->Put(env.table, x, "1");
  Status c1 = s.ok() ? t1->Commit() : s;
  Status w2 = t2->active() ? t2->Put(env.table, y, "1") : Status::Unsafe("");
  Status c2 = w2.ok() ? t2->Commit() : w2;
  EXPECT_NE(c1.ok(), c2.ok());
  EXPECT_TRUE(sgt::AnalyzeHistory(env.db->history()->Snapshot())
                  .serializable);
  if (t1->active()) t1->Abort();
  if (t2->active()) t2->Abort();
}

TEST(PageGranularityTest, PhantomPreventedWithoutGapLocks) {
  // §3.5: page locks subsume phantom protection — an insert into a scanned
  // range touches a page the scanner locked.
  Env env(PageOptions(/*rows_per_page=*/20));
  env.SeedRange(20);
  auto scanner = env.db->Begin({IsolationLevel::kSerializableSSI});
  auto inserter = env.db->Begin({IsolationLevel::kSerializableSSI});
  int count = 0;
  ASSERT_TRUE(scanner->Scan(env.table, EncodeU64Key(0), EncodeU64Key(9),
                            [&count](Slice, Slice) {
                              ++count;
                              return true;
                            })
                  .ok());
  EXPECT_EQ(count, 10);
  // Inserter adds a row into the scanned range (same page) and also reads
  // something the scanner writes, completing a dangerous structure.
  std::string v;
  Status s = inserter->Delete(env.table, EncodeU64Key(5));
  Status c2;
  if (s.ok()) {
    c2 = inserter->Commit();
  } else {
    c2 = s;
  }
  // Scanner re-verifies its predicate and writes: the page-level conflict
  // must be detected by SSI on one side.
  Status w = scanner->active() ? scanner->Put(env.table, EncodeU64Key(1), "9")
                               : Status::Unsafe("");
  Status c1 = w.ok() ? scanner->Commit() : w;
  EXPECT_FALSE(c1.ok() && c2.ok())
      << "c1=" << c1.ToString() << " c2=" << c2.ToString();
  if (scanner->active()) scanner->Abort();
  if (inserter->active()) inserter->Abort();
}

TEST(PageGranularityTest, ScanCoversEmptyInteriorPages) {
  // The phantom hole interval locking closes: a page-mode scan must lock
  // every page overlapping [lo, hi], including pages holding *no entry* —
  // an insert into an empty interior page is still a phantom. With only
  // entry-derived page locks, T2's insert into page 2 below touches no
  // page T1 locked, the T1->T2 rw-edge goes unrecorded, and both commits
  // succeed on a non-serializable history.
  Env env(PageOptions(/*rows_per_page=*/10));
  {
    // Pages 0 and 5 populated; pages 1-4 empty interior.
    auto seed = env.db->Begin({IsolationLevel::kSnapshot});
    for (uint64_t i = 0; i < 10; ++i) {
      ASSERT_TRUE(seed->Put(env.table, EncodeU64Key(i), "0").ok());
    }
    for (uint64_t i = 50; i < 60; ++i) {
      ASSERT_TRUE(seed->Put(env.table, EncodeU64Key(i), "0").ok());
    }
    ASSERT_TRUE(seed->Commit().ok());
  }
  auto t1 = env.db->Begin({IsolationLevel::kSerializableSSI});
  auto t2 = env.db->Begin({IsolationLevel::kSerializableSSI});
  std::string v;
  // T2 reads key 0, which T1 writes below: the T2->T1 rw-edge. The
  // T1->T2 edge is the scan-vs-insert phantom — detectable only through
  // the empty page 2's lock.
  ASSERT_TRUE(t2->Get(env.table, EncodeU64Key(0), &v).ok());
  int count = 0;
  ASSERT_TRUE(t1->Scan(env.table, EncodeU64Key(0), EncodeU64Key(59),
                       [&count](Slice, Slice) {
                         ++count;
                         return true;
                       })
                  .ok());
  EXPECT_EQ(count, 20);
  Status s = t2->Insert(env.table, EncodeU64Key(25), "x");  // Page 2.
  Status c2 = s.ok() ? t2->Commit() : s;
  Status w = t1->active() ? t1->Put(env.table, EncodeU64Key(0), "9")
                          : Status::Unsafe("marked");
  Status c1 = w.ok() ? t1->Commit() : w;
  EXPECT_FALSE(c1.ok() && c2.ok())
      << "c1=" << c1.ToString() << " c2=" << c2.ToString();
  EXPECT_TRUE(
      sgt::AnalyzeHistory(env.db->history()->Snapshot()).serializable);
  if (t1->active()) t1->Abort();
  if (t2->active()) t2->Abort();
}

TEST(PageGranularityTest, FalsePositivesFromPageSharingOnly) {
  // §6.1.5's claim isolated: a workload whose keys never collide at row
  // level but whose *pages* form a cross read/write pattern. Row-level SSI
  // commits everything; page-level SSI sees a dangerous structure and
  // aborts — pure false positives from lock-unit coarsening.
  auto run = [](LockGranularity granularity) {
    DBOptions opts;
    opts.granularity = granularity;
    opts.rows_per_page = 10;
    std::unique_ptr<DB> db;
    EXPECT_TRUE(DB::Open(opts, &db).ok());
    TableId table = 0;
    EXPECT_TRUE(db->CreateTable("t", &table).ok());
    {
      auto seed = db->Begin({IsolationLevel::kSnapshot});
      for (uint64_t i = 0; i < 20; ++i) {
        EXPECT_TRUE(seed->Put(table, EncodeU64Key(i), "0").ok());
      }
      EXPECT_TRUE(seed->Commit().ok());
    }
    // A reads key 0 (page 0) and writes key 10 (page 1);
    // B reads key 11 (page 1) and writes key 1 (page 0).
    // All four keys are distinct: no row-level conflict whatsoever. At
    // page level: A reads page0/writes page1, B reads page1/writes page0 —
    // the Fig 2.1 write-skew shape on pages.
    uint64_t aborts = 0;
    for (int round = 0; round < 50; ++round) {
      auto a = db->Begin({IsolationLevel::kSerializableSSI});
      auto b = db->Begin({IsolationLevel::kSerializableSSI});
      std::string v;
      Status s = a->Get(table, EncodeU64Key(0), &v);
      if (s.ok()) s = b->Get(table, EncodeU64Key(11), &v);
      if (s.ok()) s = a->Put(table, EncodeU64Key(10), "1");
      Status ca = s.ok() ? a->Commit() : s;
      Status wb = b->active() ? b->Put(table, EncodeU64Key(1), "1")
                              : Status::Unsafe("marked");
      Status cb = wb.ok() ? b->Commit() : wb;
      if (!ca.ok()) ++aborts;
      if (!cb.ok()) ++aborts;
      if (a->active()) a->Abort();
      if (b->active()) b->Abort();
    }
    return aborts;
  };
  EXPECT_EQ(run(LockGranularity::kRow), 0u);
  EXPECT_GT(run(LockGranularity::kPage), 0u);
}

TEST(PageGranularityTest, ScanLocksPagesNotRows) {
  Env env(PageOptions(/*rows_per_page=*/10));
  env.SeedRange(100);
  auto txn = env.db->Begin({IsolationLevel::kSerializableSSI});
  int count = 0;
  ASSERT_TRUE(txn->Scan(env.table, EncodeU64Key(0), EncodeU64Key(99),
                        [&count](Slice, Slice) {
                          ++count;
                          return true;
                        })
                  .ok());
  EXPECT_EQ(count, 100);
  // 100 rows over 10 pages: the lock table should hold ~10 page locks,
  // far fewer than 100 row locks (plus its own bookkeeping).
  EXPECT_LE(Metric(env.db.get(), "lock.grants"), 15u);
  txn->Commit();
}

}  // namespace
}  // namespace ssidb
