// The read-only transaction anomaly under snapshot isolation (Fekete,
// O'Neil & O'Neil, "A read-only transaction anomaly under snapshot
// isolation"; the paper's §2.5.1 cites the dangerous-structure theorem it
// motivates). This is the scenario PostgreSQL's isolation suite tests as
// serializable-parallel.spec: a *read-only* third transaction turns an
// otherwise serializable pair into a non-serializable history, because its
// snapshot observes one of the writers but not the other.
//
// Schedule (batch deposit X->savings account Y, withdrawal from X):
//   T2 (withdrawal):  r(X)=0  r(Y)=0            w(X)=-11  commit
//   T1 (deposit):                r(Y)=0 w(Y)=20 commit
//   T3 (report):                     r(X)=0 r(Y)=20 commit
// Under SI all three commit; T3 printed {X=0, Y=20}, a state no serial
// order produces (if T1 before T2, the withdrawal would have seen the
// deposit and incurred no overdraft penalty; with T3 reporting Y=20 and
// X=0, T1 must precede T3 and T2 follow T3 — but T2 read Y=0, so T2
// precedes T1: a cycle). Under SSI the cycle manifests as T2 carrying
// in-conflict (from T3's read of X, which T2 overwrites) and out-conflict
// (to T1, whose new Y it ignored): T2 is a pivot and must abort (kUnsafe).
// Without T3's read, both permutations are serializable and SSI admits
// them — the paper's false-positive discussion (§3.4) notwithstanding,
// this particular pair commits because T2's out-partner structure never
// completes.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/db/db.h"
#include "tests/test_util.h"

namespace ssidb {
namespace {

class ROAnomalyTest : public ::testing::TestWithParam<ConflictTracking> {
 protected:
  void SetUp() override { OpenFreshEngine(); }

  /// Fresh engine with accounts X = Y = 0; callable again mid-test when a
  /// scenario needs a clean slate.
  void OpenFreshEngine() {
    DBOptions opts;
    opts.conflict_tracking = GetParam();
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(opts, &db).ok());
    db_ = std::move(db);
    ASSERT_TRUE(db_->CreateTable("bank_account", &table_).ok());
    auto seed = db_->Begin({IsolationLevel::kSnapshot});
    ASSERT_TRUE(seed->Insert(table_, "X", "0").ok());
    ASSERT_TRUE(seed->Insert(table_, "Y", "0").ok());
    ASSERT_TRUE(seed->Commit().ok());
  }

  std::unique_ptr<DB> db_;
  TableId table_ = 0;
};

/// Permutation 1 of the spec: without the read-only transaction's
/// snapshot, T1 and T2 are serializable (T2 before T1) and both commit —
/// under SI *and* SSI.
TEST_P(ROAnomalyTest, WithoutReaderBothWritersCommitUnderSSI) {
  bool first = true;
  for (IsolationLevel iso :
       {IsolationLevel::kSnapshot, IsolationLevel::kSerializableSSI}) {
    if (!first) OpenFreshEngine();  // Fresh engine per isolation level.
    first = false;
    auto t2 = db_->Begin({iso});
    auto t1 = db_->Begin({iso});
    std::string v;
    EXPECT_TRUE(t2->Get(table_, "X", &v).ok());
    EXPECT_TRUE(t2->Get(table_, "Y", &v).ok());
    EXPECT_TRUE(t1->Get(table_, "Y", &v).ok());
    EXPECT_TRUE(t1->Put(table_, "Y", "20").ok());
    EXPECT_TRUE(t1->Commit().ok());
    EXPECT_TRUE(t2->Put(table_, "X", "-11").ok());
    EXPECT_TRUE(t2->Commit().ok()) << "iso=" << static_cast<int>(iso);
  }
}

/// Permutation 2 under plain SI: the anomaly is *observed* — all three
/// transactions commit and the read-only report sees {X=0, Y=20}, which
/// no serial order of the committed transactions can produce.
TEST_P(ROAnomalyTest, AnomalyObservedUnderSI) {
  const TxnOptions si{IsolationLevel::kSnapshot};
  auto t2 = db_->Begin(si);
  auto t1 = db_->Begin(si);
  std::string v;
  ASSERT_TRUE(t2->Get(table_, "X", &v).ok());
  EXPECT_EQ(v, "0");
  ASSERT_TRUE(t2->Get(table_, "Y", &v).ok());
  EXPECT_EQ(v, "0");
  ASSERT_TRUE(t1->Get(table_, "Y", &v).ok());
  ASSERT_TRUE(t1->Put(table_, "Y", "20").ok());
  ASSERT_TRUE(t1->Commit().ok());

  auto t3 = db_->Begin(si);
  std::string x3, y3;
  ASSERT_TRUE(t3->Get(table_, "X", &x3).ok());
  ASSERT_TRUE(t3->Get(table_, "Y", &y3).ok());
  ASSERT_TRUE(t3->Commit().ok());
  EXPECT_EQ(x3, "0");   // T2's withdrawal invisible...
  EXPECT_EQ(y3, "20");  // ...but T1's deposit observed: the anomaly.

  ASSERT_TRUE(t2->Put(table_, "X", "-11").ok());
  EXPECT_TRUE(t2->Commit().ok());  // SI admits the non-serializable run.
}

/// Permutation 2 under SSI: once the read-only transaction observes T1's
/// deposit and T2 then overwrites what it read, T2 is a pivot with both
/// an in- and an out-conflict whose out-partner committed first — the
/// dangerous structure. T2 aborts kUnsafe; the other two commit.
TEST_P(ROAnomalyTest, AnomalyPreventedUnderSSI) {
  const TxnOptions ssi{IsolationLevel::kSerializableSSI};
  auto t2 = db_->Begin(ssi);
  auto t1 = db_->Begin(ssi);
  std::string v;
  ASSERT_TRUE(t2->Get(table_, "X", &v).ok());
  ASSERT_TRUE(t2->Get(table_, "Y", &v).ok());
  ASSERT_TRUE(t1->Get(table_, "Y", &v).ok());
  ASSERT_TRUE(t1->Put(table_, "Y", "20").ok());
  ASSERT_TRUE(t1->Commit().ok());  // T2 -rw-> T1 recorded (Y).

  auto t3 = db_->Begin(ssi);
  std::string x3, y3;
  ASSERT_TRUE(t3->Get(table_, "X", &x3).ok());
  ASSERT_TRUE(t3->Get(table_, "Y", &y3).ok());
  EXPECT_EQ(y3, "20");
  ASSERT_TRUE(t3->Commit().ok());  // Read-only: never a pivot itself.

  // T2's write to X finds T3's retained SIREAD lock: T3 -rw-> T2 closes
  // the structure with T2 as pivot. The abort may fire here (§3.7.1
  // abort-early) or at commit; either way T2 ends kUnsafe.
  Status st = t2->Put(table_, "X", "-11");
  if (st.ok()) {
    st = t2->Commit();
  }
  EXPECT_TRUE(st.IsUnsafe()) << st.ToString();
  EXPECT_GE(Metric(db_.get(), "ssi.unsafe_aborts"), 1u);

  // The committed state is the serializable one: only the deposit.
  auto check = db_->Begin({IsolationLevel::kSnapshot});
  ASSERT_TRUE(check->Get(table_, "X", &v).ok());
  EXPECT_EQ(v, "0");
  ASSERT_TRUE(check->Get(table_, "Y", &v).ok());
  EXPECT_EQ(v, "20");
  ASSERT_TRUE(check->Commit().ok());
}

/// The retry the paper prescribes: after T2's unsafe abort, re-running the
/// withdrawal succeeds and produces a state equivalent to the serial order
/// T1, T3, T2.
TEST_P(ROAnomalyTest, AbortedWriterSucceedsOnRetry) {
  const TxnOptions ssi{IsolationLevel::kSerializableSSI};
  auto t2 = db_->Begin(ssi);
  auto t1 = db_->Begin(ssi);
  std::string v;
  ASSERT_TRUE(t2->Get(table_, "X", &v).ok());
  ASSERT_TRUE(t2->Get(table_, "Y", &v).ok());
  ASSERT_TRUE(t1->Put(table_, "Y", "20").ok());
  ASSERT_TRUE(t1->Commit().ok());
  auto t3 = db_->Begin(ssi);
  ASSERT_TRUE(t3->Get(table_, "X", &v).ok());
  ASSERT_TRUE(t3->Get(table_, "Y", &v).ok());
  ASSERT_TRUE(t3->Commit().ok());
  Status st = t2->Put(table_, "X", "-11");
  if (st.ok()) st = t2->Commit();
  ASSERT_TRUE(st.IsUnsafe());

  auto retry = db_->Begin(ssi);
  ASSERT_TRUE(retry->Get(table_, "X", &v).ok());
  ASSERT_TRUE(retry->Get(table_, "Y", &v).ok());
  EXPECT_EQ(v, "20");  // The retry sees the deposit: no anomaly.
  ASSERT_TRUE(retry->Put(table_, "X", "-1").ok());
  EXPECT_TRUE(retry->Commit().ok());
}

INSTANTIATE_TEST_SUITE_P(TrackingModes, ROAnomalyTest,
                         ::testing::Values(ConflictTracking::kFlags,
                                           ConflictTracking::kReferences),
                         [](const auto& info) {
                           return info.param == ConflictTracking::kFlags
                                      ? "Flags"
                                      : "References";
                         });

}  // namespace
}  // namespace ssidb
