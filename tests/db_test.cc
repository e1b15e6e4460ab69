// Public API tests: table management, CRUD, scans, transaction lifecycle,
// snapshot visibility, first-committer-wins, and engine statistics —
// exercised at all three isolation levels where behaviour is shared.

#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <string>
#include <vector>

#include "src/db/db.h"
#include "tests/test_util.h"

namespace ssidb {
namespace {

std::unique_ptr<DB> OpenDB(DBOptions opts = {}) {
  std::unique_ptr<DB> db;
  Status s = DB::Open(opts, &db);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return db;
}

class DBBasicTest : public ::testing::TestWithParam<
                        std::tuple<IsolationLevel, LockGranularity>> {
 protected:
  void SetUp() override {
    DBOptions opts;
    opts.granularity = std::get<1>(GetParam());
    db_ = OpenDB(opts);
    ASSERT_TRUE(db_->CreateTable("t", &table_).ok());
  }

  std::unique_ptr<Transaction> Begin() {
    return db_->Begin({std::get<0>(GetParam())});
  }

  std::unique_ptr<DB> db_;
  TableId table_ = 0;
};

TEST_P(DBBasicTest, PutGetRoundTrip) {
  auto txn = Begin();
  EXPECT_TRUE(txn->Put(table_, "k", "v").ok());
  std::string v;
  EXPECT_TRUE(txn->Get(table_, "k", &v).ok());
  EXPECT_EQ(v, "v");
  EXPECT_TRUE(txn->Commit().ok());

  auto txn2 = Begin();
  EXPECT_TRUE(txn2->Get(table_, "k", &v).ok());
  EXPECT_EQ(v, "v");
  EXPECT_TRUE(txn2->Commit().ok());
}

TEST_P(DBBasicTest, GetMissingKeyIsNotFound) {
  auto txn = Begin();
  std::string v;
  EXPECT_TRUE(txn->Get(table_, "nope", &v).IsNotFound());
  EXPECT_TRUE(txn->Commit().ok());
}

TEST_P(DBBasicTest, InsertRejectsDuplicates) {
  auto txn = Begin();
  EXPECT_TRUE(txn->Insert(table_, "k", "v1").ok());
  EXPECT_TRUE(txn->Insert(table_, "k", "v2").IsDuplicateKey());
  EXPECT_TRUE(txn->Commit().ok());
  auto txn2 = Begin();
  EXPECT_TRUE(txn2->Insert(table_, "k", "v3").IsDuplicateKey());
  txn2->Abort();
}

TEST_P(DBBasicTest, DeleteHidesKeyAndReinsertRevivesIt) {
  {
    auto txn = Begin();
    ASSERT_TRUE(txn->Put(table_, "k", "v").ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  {
    auto txn = Begin();
    EXPECT_TRUE(txn->Delete(table_, "k").ok());
    std::string v;
    EXPECT_TRUE(txn->Get(table_, "k", &v).IsNotFound());
    ASSERT_TRUE(txn->Commit().ok());
  }
  {
    auto txn = Begin();
    std::string v;
    EXPECT_TRUE(txn->Get(table_, "k", &v).IsNotFound());
    EXPECT_TRUE(txn->Insert(table_, "k", "v2").ok());  // Tombstone revival.
    ASSERT_TRUE(txn->Commit().ok());
  }
  auto txn = Begin();
  std::string v;
  EXPECT_TRUE(txn->Get(table_, "k", &v).ok());
  EXPECT_EQ(v, "v2");
  txn->Abort();
}

TEST_P(DBBasicTest, DeleteMissingKeyIsNotFound) {
  auto txn = Begin();
  EXPECT_TRUE(txn->Delete(table_, "nope").IsNotFound());
  EXPECT_TRUE(txn->Commit().ok());
}

TEST_P(DBBasicTest, AbortDiscardsWrites) {
  {
    auto txn = Begin();
    ASSERT_TRUE(txn->Put(table_, "k", "doomed").ok());
    EXPECT_TRUE(txn->Abort().ok());
  }
  auto txn = Begin();
  std::string v;
  EXPECT_TRUE(txn->Get(table_, "k", &v).IsNotFound());
  txn->Abort();
}

TEST_P(DBBasicTest, OperationsAfterFinishAreRejected) {
  auto txn = Begin();
  ASSERT_TRUE(txn->Commit().ok());
  std::string v;
  EXPECT_TRUE(txn->Get(table_, "k", &v).IsTxnInvalid());
  EXPECT_TRUE(txn->Put(table_, "k", "v").IsTxnInvalid());
  EXPECT_TRUE(txn->Commit().IsTxnInvalid());
  EXPECT_FALSE(txn->active());
}

TEST_P(DBBasicTest, AbortIsIdempotent) {
  auto txn = Begin();
  EXPECT_TRUE(txn->Abort().ok());
  EXPECT_TRUE(txn->Abort().ok());
}

TEST_P(DBBasicTest, ScanVisitsRangeInOrder) {
  {
    auto txn = Begin();
    for (const char* k : {"b", "d", "a", "c", "e"}) {
      ASSERT_TRUE(txn->Put(table_, k, std::string("v") + k).ok());
    }
    ASSERT_TRUE(txn->Commit().ok());
  }
  auto txn = Begin();
  std::vector<std::string> keys;
  EXPECT_TRUE(txn->Scan(table_, "b", "d",
                        [&keys](Slice k, Slice v) {
                          EXPECT_EQ(v.ToString(), "v" + k.ToString());
                          keys.push_back(k.ToString());
                          return true;
                        })
                  .ok());
  EXPECT_EQ(keys, (std::vector<std::string>{"b", "c", "d"}));
  txn->Commit();
}

TEST_P(DBBasicTest, ScanSkipsTombstonesAndSeesOwnWrites) {
  {
    auto txn = Begin();
    for (const char* k : {"a", "b", "c"}) {
      ASSERT_TRUE(txn->Put(table_, k, "v").ok());
    }
    ASSERT_TRUE(txn->Commit().ok());
  }
  auto txn = Begin();
  ASSERT_TRUE(txn->Delete(table_, "b").ok());
  ASSERT_TRUE(txn->Put(table_, "d", "mine").ok());
  std::vector<std::string> keys;
  EXPECT_TRUE(txn->Scan(table_, "a", "z",
                        [&keys](Slice k, Slice) {
                          keys.push_back(k.ToString());
                          return true;
                        })
                  .ok());
  EXPECT_EQ(keys, (std::vector<std::string>{"a", "c", "d"}));
  txn->Abort();
}

TEST_P(DBBasicTest, ScanEarlyStop) {
  {
    auto txn = Begin();
    for (const char* k : {"a", "b", "c", "d"}) {
      ASSERT_TRUE(txn->Put(table_, k, "v").ok());
    }
    ASSERT_TRUE(txn->Commit().ok());
  }
  auto txn = Begin();
  int seen = 0;
  EXPECT_TRUE(txn->Scan(table_, "a", "z",
                        [&seen](Slice, Slice) { return ++seen < 2; })
                  .ok());
  EXPECT_EQ(seen, 2);
  txn->Commit();
}

TEST_P(DBBasicTest, MultipleTablesAreIndependent) {
  TableId t2 = 0;
  ASSERT_TRUE(db_->CreateTable("t2", &t2).ok());
  auto txn = Begin();
  ASSERT_TRUE(txn->Put(table_, "k", "v1").ok());
  ASSERT_TRUE(txn->Put(t2, "k", "v2").ok());
  ASSERT_TRUE(txn->Commit().ok());
  auto txn2 = Begin();
  std::string v;
  EXPECT_TRUE(txn2->Get(table_, "k", &v).ok());
  EXPECT_EQ(v, "v1");
  EXPECT_TRUE(txn2->Get(t2, "k", &v).ok());
  EXPECT_EQ(v, "v2");
  txn2->Commit();
}

TEST_P(DBBasicTest, UnknownTableIsInvalidArgument) {
  auto txn = Begin();
  std::string v;
  EXPECT_TRUE(txn->Get(9999, "k", &v).IsInvalidArgument());
  txn->Abort();
}

INSTANTIATE_TEST_SUITE_P(
    IsolationByGranularity, DBBasicTest,
    ::testing::Combine(::testing::Values(IsolationLevel::kSnapshot,
                                         IsolationLevel::kSerializableSSI,
                                         IsolationLevel::kSerializable2PL),
                       ::testing::Values(LockGranularity::kRow,
                                         LockGranularity::kPage)),
    [](const ::testing::TestParamInfo<
        std::tuple<IsolationLevel, LockGranularity>>& info) {
      std::string name;
      switch (std::get<0>(info.param)) {
        case IsolationLevel::kSnapshot: name = "SI"; break;
        case IsolationLevel::kSerializableSSI: name = "SSI"; break;
        case IsolationLevel::kSerializable2PL: name = "S2PL"; break;
      }
      name += std::get<1>(info.param) == LockGranularity::kRow ? "_Row"
                                                               : "_Page";
      return name;
    });

TEST(DBTest, CreateTableRejectsDuplicates) {
  auto db = OpenDB();
  TableId t = 0;
  ASSERT_TRUE(db->CreateTable("x", &t).ok());
  TableId t2 = 0;
  EXPECT_TRUE(db->CreateTable("x", &t2).IsInvalidArgument());
}

TEST(DBTest, FindTable) {
  auto db = OpenDB();
  TableId t = 0;
  ASSERT_TRUE(db->CreateTable("x", &t).ok());
  TableId found = 999;
  EXPECT_TRUE(db->FindTable("x", &found).ok());
  EXPECT_EQ(found, t);
  EXPECT_TRUE(db->FindTable("y", &found).IsNotFound());
}

TEST(DBTest, SnapshotReadersIgnoreLaterCommits) {
  auto db = OpenDB();
  TableId t = 0;
  ASSERT_TRUE(db->CreateTable("t", &t).ok());
  {
    auto w = db->Begin({IsolationLevel::kSnapshot});
    ASSERT_TRUE(w->Put(t, "k", "v1").ok());
    ASSERT_TRUE(w->Commit().ok());
  }
  auto reader = db->Begin({IsolationLevel::kSnapshot});
  std::string v;
  ASSERT_TRUE(reader->Get(t, "k", &v).ok());  // Pins the snapshot.
  EXPECT_EQ(v, "v1");
  {
    auto w = db->Begin({IsolationLevel::kSnapshot});
    ASSERT_TRUE(w->Put(t, "k", "v2").ok());
    ASSERT_TRUE(w->Commit().ok());
  }
  ASSERT_TRUE(reader->Get(t, "k", &v).ok());
  EXPECT_EQ(v, "v1");  // Still the snapshot value.
  reader->Commit();
  auto later = db->Begin({IsolationLevel::kSnapshot});
  ASSERT_TRUE(later->Get(t, "k", &v).ok());
  EXPECT_EQ(v, "v2");
  later->Commit();
}

TEST(DBTest, S2PLReadersSeeLatestCommitted) {
  auto db = OpenDB();
  TableId t = 0;
  ASSERT_TRUE(db->CreateTable("t", &t).ok());
  {
    auto w = db->Begin({IsolationLevel::kSnapshot});
    ASSERT_TRUE(w->Put(t, "k", "v1").ok());
    ASSERT_TRUE(w->Commit().ok());
  }
  auto reader = db->Begin({IsolationLevel::kSerializable2PL});
  std::string v;
  ASSERT_TRUE(reader->Get(t, "k", &v).ok());
  EXPECT_EQ(v, "v1");
  reader->Commit();
}

TEST(DBTest, FirstCommitterWinsOnConcurrentWrites) {
  // §2.5: two concurrent SI transactions writing the same item cannot both
  // commit. With write locks the second writer blocks, then aborts with
  // kUpdateConflict once the first commits (first-updater-wins flavour).
  DBOptions opts;
  opts.lock_timeout_ms = 500;
  auto db = OpenDB(opts);
  TableId t = 0;
  ASSERT_TRUE(db->CreateTable("t", &t).ok());
  {
    auto w = db->Begin({IsolationLevel::kSnapshot});
    ASSERT_TRUE(w->Put(t, "k", "v0").ok());
    ASSERT_TRUE(w->Commit().ok());
  }
  auto t1 = db->Begin({IsolationLevel::kSnapshot});
  auto t2 = db->Begin({IsolationLevel::kSnapshot});
  // Pin both snapshots before either writes.
  std::string v;
  ASSERT_TRUE(t1->Get(t, "k", &v).ok());
  ASSERT_TRUE(t2->Get(t, "k", &v).ok());
  ASSERT_TRUE(t1->Put(t, "k", "v1").ok());
  ASSERT_TRUE(t1->Commit().ok());
  Status s = t2->Put(t, "k", "v2");
  EXPECT_TRUE(s.IsUpdateConflict()) << s.ToString();
  EXPECT_FALSE(t2->active());  // Already rolled back.
}

TEST(DBTest, LateSnapshotAvoidsFCWForSingleStatementUpdates) {
  // §4.5: with late snapshot allocation, two back-to-back "increment"
  // transactions never abort: the second blocks on the lock, then reads
  // the first's result.
  auto db = OpenDB();
  TableId t = 0;
  ASSERT_TRUE(db->CreateTable("t", &t).ok());
  {
    auto w = db->Begin({IsolationLevel::kSnapshot});
    ASSERT_TRUE(w->Put(t, "k", "0").ok());
    ASSERT_TRUE(w->Commit().ok());
  }
  auto t1 = db->Begin({IsolationLevel::kSnapshot});
  // t1 writes first (acquiring the lock) but has not committed.
  ASSERT_TRUE(t1->Put(t, "k", "1").ok());
  auto t2 = db->Begin({IsolationLevel::kSnapshot});
  std::thread committer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_TRUE(t1->Commit().ok());
  });
  // t2's first statement blocks on the lock; once granted its snapshot is
  // chosen *after* t1's commit, so no FCW abort.
  Status s = t2->Put(t, "k", "2");
  committer.join();
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_TRUE(t2->Commit().ok());
  auto check = db->Begin();
  std::string v;
  ASSERT_TRUE(check->Get(t, "k", &v).ok());
  EXPECT_EQ(v, "2");
  check->Commit();
}

TEST(DBTest, EagerSnapshotTriggersFCWInSameScenario) {
  // Ablation of §4.5: with late_snapshot off, the blocked writer keeps its
  // earlier snapshot and must abort under first-committer-wins.
  DBOptions opts;
  opts.late_snapshot = false;
  auto db = OpenDB(opts);
  TableId t = 0;
  ASSERT_TRUE(db->CreateTable("t", &t).ok());
  {
    auto w = db->Begin({IsolationLevel::kSnapshot});
    ASSERT_TRUE(w->Put(t, "k", "0").ok());
    ASSERT_TRUE(w->Commit().ok());
  }
  auto t1 = db->Begin({IsolationLevel::kSnapshot});
  ASSERT_TRUE(t1->Put(t, "k", "1").ok());
  auto t2 = db->Begin({IsolationLevel::kSnapshot});
  std::thread committer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_TRUE(t1->Commit().ok());
  });
  Status s = t2->Put(t, "k", "2");
  committer.join();
  EXPECT_TRUE(s.IsUpdateConflict()) << s.ToString();
}

TEST(DBTest, StatsTrackCommitsAndLocks) {
  auto db = OpenDB();
  TableId t = 0;
  ASSERT_TRUE(db->CreateTable("t", &t).ok());
  auto txn = db->Begin({IsolationLevel::kSerializableSSI});
  ASSERT_TRUE(txn->Put(t, "k", "v").ok());
  const obs::MetricsSnapshot mid = db->metrics()->Collect();
  EXPECT_EQ(Metric(mid, "engine.active_txns"), 1u);
  EXPECT_GE(Metric(mid, "lock.grants"), 1u);
  ASSERT_TRUE(txn->Commit().ok());
  const obs::MetricsSnapshot after = db->metrics()->Collect();
  EXPECT_EQ(Metric(after, "engine.active_txns"), 0u);
  EXPECT_GE(Metric(after, "log.records"), 1u);
}

TEST(DBTest, SuspendedTransactionsAreCleanedUp) {
  // §3.3/§4.6.1: a committed SSI reader stays suspended while a concurrent
  // transaction lives, and is reclaimed once none overlaps.
  auto db = OpenDB();
  TableId t = 0;
  ASSERT_TRUE(db->CreateTable("t", &t).ok());
  {
    auto w = db->Begin({IsolationLevel::kSnapshot});
    ASSERT_TRUE(w->Put(t, "k", "v").ok());
    ASSERT_TRUE(w->Commit().ok());
  }
  auto overlapping = db->Begin({IsolationLevel::kSerializableSSI});
  std::string v;
  ASSERT_TRUE(overlapping->Get(t, "k", &v).ok());  // Pin a snapshot.
  // Watermark past that snapshot: suspension requires
  // commit(reader) > begin(overlapping).
  BumpWatermark(db.get(), t);

  auto reader = db->Begin({IsolationLevel::kSerializableSSI});
  ASSERT_TRUE(reader->Get(t, "k", &v).ok());
  ASSERT_TRUE(reader->Commit().ok());  // Holds SIREAD -> suspended.
  EXPECT_GE(Metric(db.get(), "engine.suspended_txns"), 1u);

  ASSERT_TRUE(overlapping->Commit().ok());
  // A fresh non-overlapping commit triggers the eager cleanup sweep.
  auto cleaner = db->Begin({IsolationLevel::kSerializableSSI});
  ASSERT_TRUE(cleaner->Get(t, "k", &v).ok());
  ASSERT_TRUE(cleaner->Commit().ok());
  auto cleaner2 = db->Begin({IsolationLevel::kSerializableSSI});
  ASSERT_TRUE(cleaner2->Get(t, "k", &v).ok());
  ASSERT_TRUE(cleaner2->Commit().ok());
  EXPECT_LE(Metric(db.get(), "engine.suspended_txns"), 2u);
}

TEST(DBTest, PruneVersionsReclaimsOldVersions) {
  auto db = OpenDB();
  TableId t = 0;
  ASSERT_TRUE(db->CreateTable("t", &t).ok());
  for (int i = 0; i < 5; ++i) {
    auto w = db->Begin({IsolationLevel::kSnapshot});
    ASSERT_TRUE(w->Put(t, "k", std::to_string(i)).ok());
    ASSERT_TRUE(w->Commit().ok());
  }
  // The background sweep (version_gc_interval_ms) may beat the manual
  // call to the reclaim; either way the chain ends at one version.
  db->PruneVersions(t);
  EXPECT_EQ(db->table(t)->Find("k")->size(), 1u);
  EXPECT_GT(Metric(db.get(), "gc.versions_pruned"), 0u);
  auto reader = db->Begin({IsolationLevel::kSnapshot});
  std::string v;
  ASSERT_TRUE(reader->Get(t, "k", &v).ok());
  EXPECT_EQ(v, "4");  // Latest survives.
  reader->Commit();
}

TEST(DBTest, OpenRejectsZeroRowsPerPage) {
  DBOptions opts;
  opts.rows_per_page = 0;
  std::unique_ptr<DB> db;
  EXPECT_TRUE(DB::Open(opts, &db).IsInvalidArgument());
}

TEST(DBTest, EmptyKeyWriteRejected) {
  auto db = OpenDB();
  TableId t = 0;
  ASSERT_TRUE(db->CreateTable("t", &t).ok());
  auto txn = db->Begin();
  EXPECT_TRUE(txn->Put(t, "", "v").IsInvalidArgument());
  EXPECT_TRUE(txn->Insert(t, "", "v").IsInvalidArgument());
  txn->Abort();
}

TEST(DBTest, ScanRejectsInvertedRange) {
  auto db = OpenDB();
  TableId t = 0;
  ASSERT_TRUE(db->CreateTable("t", &t).ok());
  auto txn = db->Begin();
  Status s = txn->Scan(t, "z", "a", [](Slice, Slice) { return true; });
  EXPECT_TRUE(s.IsInvalidArgument());
  txn->Abort();
}

TEST(DBTest, ScanOfEmptyTableSucceeds) {
  auto db = OpenDB();
  TableId t = 0;
  ASSERT_TRUE(db->CreateTable("t", &t).ok());
  for (IsolationLevel iso :
       {IsolationLevel::kSnapshot, IsolationLevel::kSerializableSSI,
        IsolationLevel::kSerializable2PL}) {
    auto txn = db->Begin({iso});
    int n = 0;
    EXPECT_TRUE(txn->Scan(t, "a", "z", [&n](Slice, Slice) {
      ++n;
      return true;
    }).ok());
    EXPECT_EQ(n, 0);
    EXPECT_TRUE(txn->Commit().ok());
  }
}

TEST(DBTest, LockTimeoutSurfacesAndAborts) {
  DBOptions opts;
  opts.lock_timeout_ms = 50;
  auto db = OpenDB(opts);
  TableId t = 0;
  ASSERT_TRUE(db->CreateTable("t", &t).ok());
  {
    auto seed = db->Begin({IsolationLevel::kSnapshot});
    ASSERT_TRUE(seed->Put(t, "k", "v").ok());
    ASSERT_TRUE(seed->Commit().ok());
  }
  auto holder = db->Begin({IsolationLevel::kSnapshot});
  ASSERT_TRUE(holder->Put(t, "k", "h").ok());
  auto waiter = db->Begin({IsolationLevel::kSnapshot});
  Status s = waiter->Put(t, "k", "w");
  EXPECT_TRUE(s.IsTimedOut()) << s.ToString();
  EXPECT_TRUE(s.IsAbort());          // Clients treat it as a retry.
  EXPECT_FALSE(waiter->active());    // Rolled back by the engine.
  EXPECT_TRUE(holder->Commit().ok());  // The holder is unaffected.
}

TEST(DBTest, DroppedTransactionAutoAborts) {
  auto db = OpenDB();
  TableId t = 0;
  ASSERT_TRUE(db->CreateTable("t", &t).ok());
  {
    auto txn = db->Begin({IsolationLevel::kSerializableSSI});
    ASSERT_TRUE(txn->Put(t, "k", "v").ok());
    // Destroyed without Commit/Abort: the destructor must roll back and
    // release every lock.
  }
  EXPECT_EQ(Metric(db.get(), "engine.active_txns"), 0u);
  EXPECT_EQ(Metric(db.get(), "lock.grants"), 0u);
  auto check = db->Begin();
  std::string v;
  EXPECT_TRUE(check->Get(t, "k", &v).IsNotFound());
  check->Commit();
}

TEST(DBTest, EmptyTransactionCommits) {
  auto db = OpenDB();
  for (IsolationLevel iso :
       {IsolationLevel::kSnapshot, IsolationLevel::kSerializableSSI,
        IsolationLevel::kSerializable2PL}) {
    auto txn = db->Begin({iso});
    EXPECT_TRUE(txn->Commit().ok());
  }
}

}  // namespace
}  // namespace ssidb
