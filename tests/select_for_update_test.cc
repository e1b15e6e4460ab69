// Tests for GetForUpdate — the paper's SELECT ... FOR UPDATE (§2.6.2):
// locking-read semantics, interaction with the §4.5 late snapshot, its use
// for promotion (making the write-skew pair safe at plain SI), and the
// PostgreSQL failure mode the paper documents (which our Oracle/InnoDB
// semantics must NOT exhibit).

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>

#include "src/db/db.h"
#include "src/sgt/mvsg.h"
#include "tests/test_util.h"

namespace ssidb {
namespace {

struct Env {
  std::unique_ptr<DB> db;
  TableId table = 0;

  explicit Env(DBOptions opts = {}) {
    opts.record_history = true;
    EXPECT_TRUE(DB::Open(opts, &db).ok());
    EXPECT_TRUE(db->CreateTable("t", &table).ok());
  }

  void Seed(Slice key, Slice value) {
    auto txn = db->Begin({IsolationLevel::kSnapshot});
    ASSERT_TRUE(txn->Put(table, key, value).ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
};

TEST(GetForUpdateTest, ReadsValueAndHoldsExclusiveLock) {
  Env env;
  env.Seed("k", "v");
  auto txn = env.db->Begin({IsolationLevel::kSnapshot});
  std::string v;
  ASSERT_TRUE(txn->GetForUpdate(env.table, "k", &v).ok());
  EXPECT_EQ(v, "v");
  // A concurrent writer now blocks (and times out under a short limit).
  DBOptions unused;
  auto writer = env.db->Begin({IsolationLevel::kSnapshot});
  std::thread release([&txn] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_TRUE(txn->Commit().ok());
  });
  const auto start = std::chrono::steady_clock::now();
  Status s = writer->Put(env.table, "k", "w");
  const auto waited = std::chrono::steady_clock::now() - start;
  release.join();
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_GE(waited, std::chrono::milliseconds(30));  // It really blocked.
  EXPECT_TRUE(writer->Commit().ok());
}

TEST(GetForUpdateTest, MissingKeyIsNotFoundButStillLocked) {
  Env env;
  auto txn = env.db->Begin({IsolationLevel::kSnapshot});
  std::string v;
  EXPECT_TRUE(txn->GetForUpdate(env.table, "nope", &v).IsNotFound());
  // The lock on the absent key is held: an insert by another transaction
  // must wait.
  DBOptions opts;
  opts.lock_timeout_ms = 100;
  // (Same engine; the timeout config is fixed at open, so use a thread.)
  auto inserter = env.db->Begin({IsolationLevel::kSnapshot});
  std::thread release([&txn] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    txn->Commit();
  });
  const auto start = std::chrono::steady_clock::now();
  Status s = inserter->Insert(env.table, "nope", "v");
  release.join();
  EXPECT_TRUE(s.ok());
  EXPECT_GE(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(30));
  inserter->Commit();
}

TEST(GetForUpdateTest, FirstStatementAlwaysSeesLatestCommitted) {
  // §4.5: lock before snapshot. Two increment transactions back-to-back
  // both succeed; the second reads the first's result.
  Env env;
  env.Seed("counter", "0");
  auto t1 = env.db->Begin({IsolationLevel::kSnapshot});
  std::string v;
  ASSERT_TRUE(t1->GetForUpdate(env.table, "counter", &v).ok());
  ASSERT_TRUE(t1->Put(env.table, "counter", std::to_string(std::stoi(v) + 1))
                  .ok());

  auto t2 = env.db->Begin({IsolationLevel::kSnapshot});
  std::thread commit1([&t1] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_TRUE(t1->Commit().ok());
  });
  Status s = t2->GetForUpdate(env.table, "counter", &v);  // Blocks on t1.
  commit1.join();
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(v, "1");  // Latest committed, not a stale snapshot.
  ASSERT_TRUE(
      t2->Put(env.table, "counter", std::to_string(std::stoi(v) + 1)).ok());
  ASSERT_TRUE(t2->Commit().ok());

  auto check = env.db->Begin({IsolationLevel::kSnapshot});
  ASSERT_TRUE(check->Get(env.table, "counter", &v).ok());
  EXPECT_EQ(v, "2");  // No lost update, no abort needed.
  check->Commit();
}

TEST(GetForUpdateTest, StaleSnapshotTriggersFCW) {
  // Mid-transaction GetForUpdate with an old snapshot must behave like a
  // write under first-committer-wins: abort, do not silently read past
  // the snapshot.
  Env env;
  env.Seed("a", "0");
  env.Seed("k", "0");
  auto txn = env.db->Begin({IsolationLevel::kSnapshot});
  std::string v;
  ASSERT_TRUE(txn->Get(env.table, "a", &v).ok());  // Pins the snapshot.
  {
    auto other = env.db->Begin({IsolationLevel::kSnapshot});
    ASSERT_TRUE(other->Put(env.table, "k", "9").ok());
    ASSERT_TRUE(other->Commit().ok());
  }
  Status s = txn->GetForUpdate(env.table, "k", &v);
  EXPECT_TRUE(s.IsUpdateConflict()) << s.ToString();
  EXPECT_FALSE(txn->active());
}

TEST(GetForUpdateTest, PromotionMakesWriteSkewSafeAtPlainSI) {
  // §2.6.2: replacing one side's read by a locking read removes the
  // vulnerable edge — the classic write-skew pair cannot both commit even
  // at plain SI, and (unlike PostgreSQL's SELECT FOR UPDATE, whose
  // interleaving the paper shows slipping through) our lock-first
  // semantics closes *every* interleaving.
  Env env;
  env.Seed("x", "50");
  env.Seed("y", "50");
  auto t1 = env.db->Begin({IsolationLevel::kSnapshot});
  auto t2 = env.db->Begin({IsolationLevel::kSnapshot});
  std::string v;
  // T1 uses the promoted read on y (the item T2 writes).
  ASSERT_TRUE(t1->Get(env.table, "x", &v).ok());
  ASSERT_TRUE(t1->GetForUpdate(env.table, "y", &v).ok());
  // T2 reads both (snapshot pinned before T1 commits) and writes y.
  Status r1 = t2->Get(env.table, "x", &v);
  ASSERT_TRUE(r1.ok());
  Status w1 = t1->Put(env.table, "x", "-20");
  ASSERT_TRUE(w1.ok());
  ASSERT_TRUE(t1->Commit().ok());
  // T2 now writes y: its snapshot predates T1's commit, and T1's promoted
  // lock on y forces the FCW check to fire.
  Status w2 = t2->Put(env.table, "y", "-30");
  Status c2 = w2.ok() ? t2->Commit() : w2;
  EXPECT_FALSE(c2.ok()) << c2.ToString();
  EXPECT_TRUE(
      sgt::AnalyzeHistory(env.db->history()->Snapshot()).serializable);
}

TEST(GetForUpdateTest, WorksUnderSSIAndS2PL) {
  for (IsolationLevel iso : {IsolationLevel::kSerializableSSI,
                             IsolationLevel::kSerializable2PL}) {
    Env env;
    env.Seed("k", "7");
    auto txn = env.db->Begin({iso});
    std::string v;
    ASSERT_TRUE(txn->GetForUpdate(env.table, "k", &v).ok());
    EXPECT_EQ(v, "7");
    ASSERT_TRUE(txn->Put(env.table, "k", "8").ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
}

TEST(GetForUpdateTest, SSIReadModifyWriteLeavesNoSIReadResidue) {
  // Under SSI a GetForUpdate acquires EXCLUSIVE directly, so the §3.7.3
  // upgrade concern does not arise: the transaction commits without any
  // retained SIREAD locks (no suspension needed).
  Env env;
  env.Seed("k", "1");
  auto txn = env.db->Begin({IsolationLevel::kSerializableSSI});
  std::string v;
  ASSERT_TRUE(txn->GetForUpdate(env.table, "k", &v).ok());
  ASSERT_TRUE(txn->Put(env.table, "k", "2").ok());
  ASSERT_TRUE(txn->Commit().ok());
  EXPECT_EQ(Metric(env.db.get(), "engine.suspended_txns"), 0u);
}

}  // namespace
}  // namespace ssidb
