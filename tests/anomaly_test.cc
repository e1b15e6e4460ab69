// The paper's anomaly catalogue as executable tests.
//
// Each test constructs a specific interleaving from Chapter 2/3 and checks
// the required outcome per isolation level: snapshot isolation admits the
// anomaly (that is the bug the paper fixes), Serializable SI and S2PL must
// prevent it — SSI by aborting one transaction with kUnsafe, S2PL by
// blocking/deadlocking.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "src/db/db.h"
#include "src/db/session.h"
#include "src/sgt/mvsg.h"
#include "tests/test_util.h"

namespace ssidb {
namespace {

struct Fixture {
  std::unique_ptr<DB> db;
  TableId table = 0;

  explicit Fixture(DBOptions opts = {}) {
    opts.record_history = true;
    EXPECT_TRUE(DB::Open(opts, &db).ok());
    EXPECT_TRUE(db->CreateTable("t", &table).ok());
  }

  void Seed(Slice key, Slice value) {
    auto txn = db->Begin({IsolationLevel::kSnapshot});
    ASSERT_TRUE(txn->Put(table, key, value).ok());
    ASSERT_TRUE(txn->Commit().ok());
  }

  int64_t GetInt(Slice key) {
    auto txn = db->Begin({IsolationLevel::kSnapshot});
    std::string v;
    EXPECT_TRUE(txn->Get(table, key, &v).ok());
    txn->Commit();
    return std::stoll(v);
  }

  bool HistorySerializable() {
    return sgt::AnalyzeHistory(db->history()->Snapshot()).serializable;
  }
};

/// Abort forensics captured from the write-skew pair before the
/// transaction handles die: the taxonomy checks assert each anomaly abort
/// maps to a *specific* reason (and partner), not just "aborted".
struct SkewForensics {
  TxnId id1 = 0, id2 = 0;
  AbortReason cause1 = AbortReason::kNone, cause2 = AbortReason::kNone;
  TxnId conflict1 = 0, conflict2 = 0;
};

bool IsSsiReason(AbortReason r) {
  return r == AbortReason::kSsiPivot || r == AbortReason::kSsiInSide ||
         r == AbortReason::kSsiOutSide;
}

/// Example 2 (§2.5.1): the bank write skew, constraint x + y > 0. Returns
/// the pair of commit statuses for (T1, T2) under `iso`.
std::pair<Status, Status> RunWriteSkew(Fixture* f, IsolationLevel iso,
                                       SkewForensics* fx = nullptr) {
  auto t1 = f->db->Begin({iso});
  auto t2 = f->db->Begin({iso});
  std::string v;
  // r1(x) r1(y) r2(x) r2(y) w1(x=-20) w2(y=-30) c1 c2
  Status s = t1->Get(f->table, "x", &v);
  if (s.ok()) s = t1->Get(f->table, "y", &v);
  if (s.ok()) s = t2->Get(f->table, "x", &v);
  if (s.ok()) s = t2->Get(f->table, "y", &v);
  if (s.ok()) s = t1->Put(f->table, "x", "-20");
  Status c1 = s.ok() ? t1->Commit() : s;
  if (s.ok()) s = t2->Put(f->table, "y", "-30");
  Status c2 = s.ok() ? t2->Commit() : s;
  if (t1->active()) t1->Abort();
  if (t2->active()) t2->Abort();
  if (fx != nullptr) {
    fx->id1 = t1->id();
    fx->id2 = t2->id();
    fx->cause1 = t1->abort_cause();
    fx->cause2 = t2->abort_cause();
    fx->conflict1 = t1->abort_conflict_txn();
    fx->conflict2 = t2->abort_conflict_txn();
  }
  return {c1, c2};
}

TEST(WriteSkewTest, SnapshotIsolationAdmitsIt) {
  Fixture f;
  f.Seed("x", "50");
  f.Seed("y", "50");
  auto [c1, c2] = RunWriteSkew(&f, IsolationLevel::kSnapshot);
  EXPECT_TRUE(c1.ok());
  EXPECT_TRUE(c2.ok());
  // The constraint x + y > 0 is violated: the anomaly the paper opens with.
  EXPECT_EQ(f.GetInt("x") + f.GetInt("y"), -50);
  // And the MVSG oracle confirms the execution was not serializable.
  EXPECT_FALSE(f.HistorySerializable());
}

TEST(WriteSkewTest, SerializableSSIPreventsIt) {
  Fixture f;
  f.Seed("x", "50");
  f.Seed("y", "50");
  SkewForensics fx;
  auto [c1, c2] = RunWriteSkew(&f, IsolationLevel::kSerializableSSI, &fx);
  // Exactly one transaction must fail, with the new unsafe error.
  EXPECT_NE(c1.ok(), c2.ok());
  const Status& failed = c1.ok() ? c2 : c1;
  EXPECT_TRUE(failed.IsUnsafe()) << failed.ToString();
  EXPECT_GT(f.GetInt("x") + f.GetInt("y"), 0);  // Constraint preserved.
  EXPECT_TRUE(f.HistorySerializable());
  EXPECT_EQ(Metric(f.db.get(), "ssi.unsafe_aborts"), 1u);
  // Taxonomy: the victim is classified to its role in the dangerous
  // structure (both transactions are pivots here, so any SSI reason is
  // legitimate depending on where detection fired), the recorded
  // conflicting transaction is its partner, and the survivor carries no
  // cause at all.
  const AbortReason victim = c1.ok() ? fx.cause2 : fx.cause1;
  EXPECT_TRUE(IsSsiReason(victim)) << AbortReasonName(victim);
  const TxnId conflict = c1.ok() ? fx.conflict2 : fx.conflict1;
  if (conflict != 0) {
    EXPECT_EQ(conflict, c1.ok() ? fx.id1 : fx.id2);
  }
  EXPECT_EQ(c1.ok() ? fx.cause1 : fx.cause2, AbortReason::kNone);
  EXPECT_EQ(Metric(f.db.get(), AbortMetric(victim)), 1u);
}

TEST(WriteSkewTest, S2PLPreventsIt) {
  DBOptions opts;
  opts.lock_timeout_ms = 1000;
  Fixture f(opts);
  f.Seed("x", "50");
  f.Seed("y", "50");
  SkewForensics fx;
  auto [c1, c2] = RunWriteSkew(&f, IsolationLevel::kSerializable2PL, &fx);
  // Under S2PL the interleaving deadlocks (each writer waits on the
  // other's read lock): at most one commits.
  EXPECT_FALSE(c1.ok() && c2.ok());
  EXPECT_GT(f.GetInt("x") + f.GetInt("y"), 0);
  EXPECT_TRUE(f.HistorySerializable());
  // Taxonomy: the actual casualty is a lock-cycle abort (the program
  // shares one status chain, so the *other* transaction just gets rolled
  // back by the harness — kExplicit); neither side is an SSI reason.
  const auto is_lock_cycle = [](AbortReason r) {
    return r == AbortReason::kDeadlock || r == AbortReason::kLockTimeout;
  };
  EXPECT_TRUE(is_lock_cycle(fx.cause1) || is_lock_cycle(fx.cause2))
      << AbortReasonName(fx.cause1) << "/" << AbortReasonName(fx.cause2);
  EXPECT_FALSE(IsSsiReason(fx.cause1)) << AbortReasonName(fx.cause1);
  EXPECT_FALSE(IsSsiReason(fx.cause2)) << AbortReasonName(fx.cause2);
}

/// Example 1 (§1.2): doctors on call. The constraint (>= 1 doctor on duty
/// per shift) is checked by predicate read inside each transaction.
TEST(DoctorsOnCallTest, SSIPreventsBothGoingToReserve) {
  Fixture f;
  f.Seed("doc1", "onduty");
  f.Seed("doc2", "onduty");
  auto t1 = f.db->Begin({IsolationLevel::kSerializableSSI});
  auto t2 = f.db->Begin({IsolationLevel::kSerializableSSI});

  // Count doctors on duty; the predicate read itself may be unsafe-aborted
  // by SSI, which is a legitimate way to prevent the anomaly.
  auto on_duty_count = [&](Transaction* txn, Status* scan_status) {
    int count = 0;
    *scan_status = txn->Scan(f.table, "doc1", "doc9",
                             [&count](Slice, Slice v) {
                               if (v == Slice("onduty")) ++count;
                               return true;
                             });
    return count;
  };

  Status s1 = t1->Put(f.table, "doc1", "reserve");
  Status s2 = t2->Put(f.table, "doc2", "reserve");
  Status c1 = s1, c2 = s2;
  if (c1.ok()) {
    Status scan;
    const int on_duty = on_duty_count(t1.get(), &scan);
    c1 = !scan.ok() ? scan
                    : (on_duty >= 1 ? t1->Commit()
                                    : Status::InvalidArgument("constraint"));
  }
  if (c2.ok() && t2->active()) {
    // t2 checks the constraint on its own snapshot — it still sees doc1 on
    // duty — and would also commit under SI. SSI must intervene, either at
    // the predicate read or at commit.
    Status scan;
    const int on_duty = on_duty_count(t2.get(), &scan);
    c2 = !scan.ok() ? scan
                    : (on_duty >= 1 ? t2->Commit()
                                    : Status::InvalidArgument("constraint"));
  } else if (c2.ok()) {
    c2 = Status::Unsafe("marked for abort before constraint check");
  }
  EXPECT_FALSE(c1.ok() && c2.ok());
  int final_on_duty = 0;
  auto check = f.db->Begin({IsolationLevel::kSnapshot});
  check->Scan(f.table, "doc1", "doc9", [&](Slice, Slice v) {
    if (v == Slice("onduty")) ++final_on_duty;
    return true;
  });
  check->Commit();
  EXPECT_GE(final_on_duty, 1);  // The invariant survived.
  if (t1->active()) t1->Abort();
  if (t2->active()) t2->Abort();
}

TEST(DoctorsOnCallTest, SnapshotIsolationViolatesTheInvariant) {
  Fixture f;
  f.Seed("doc1", "onduty");
  f.Seed("doc2", "onduty");
  auto t1 = f.db->Begin({IsolationLevel::kSnapshot});
  auto t2 = f.db->Begin({IsolationLevel::kSnapshot});
  auto on_duty = [&](Transaction* txn) {
    int count = 0;
    EXPECT_TRUE(txn->Scan(f.table, "doc1", "doc9",
                          [&count](Slice, Slice v) {
                            if (v == Slice("onduty")) ++count;
                            return true;
                          })
                    .ok());
    return count;
  };
  ASSERT_TRUE(t1->Put(f.table, "doc1", "reserve").ok());
  ASSERT_TRUE(t2->Put(f.table, "doc2", "reserve").ok());
  EXPECT_GE(on_duty(t1.get()), 1);
  EXPECT_GE(on_duty(t2.get()), 1);
  EXPECT_TRUE(t1->Commit().ok());
  EXPECT_TRUE(t2->Commit().ok());  // Both commit: write skew.
  auto check = f.db->Begin({IsolationLevel::kSnapshot});
  int final_on_duty = 0;
  check->Scan(f.table, "doc1", "doc9", [&](Slice, Slice v) {
    if (v == Slice("onduty")) ++final_on_duty;
    return true;
  });
  check->Commit();
  EXPECT_EQ(final_on_duty, 0);  // Nobody on duty: the corruption.
}

/// Example 3 (§2.5.1, Fekete et al. 2004): the read-only anomaly.
///   Tpivot: r(y) w(x)    Tout: w(y) w(z)    Tin: r(x) r(z)
/// Interleaved as Fig 2.3(a): Tout commits first, then Tin reads a state
/// (new z, old x) that no serial order can produce.
TEST(ReadOnlyAnomalyTest, SnapshotIsolationAdmitsIt) {
  Fixture f;
  f.Seed("x", "0");
  f.Seed("y", "0");
  f.Seed("z", "0");
  auto pivot = f.db->Begin({IsolationLevel::kSnapshot});
  auto out = f.db->Begin({IsolationLevel::kSnapshot});
  std::string v;
  ASSERT_TRUE(pivot->Get(f.table, "y", &v).ok());  // rpivot(y): pin snapshot.
  ASSERT_TRUE(out->Put(f.table, "y", "1").ok());
  ASSERT_TRUE(out->Put(f.table, "z", "1").ok());
  ASSERT_TRUE(out->Commit().ok());
  // Tin starts after Tout committed: sees new z but (soon) old x.
  auto in = f.db->Begin({IsolationLevel::kSnapshot});
  ASSERT_TRUE(in->Get(f.table, "x", &v).ok());
  EXPECT_EQ(v, "0");
  ASSERT_TRUE(in->Get(f.table, "z", &v).ok());
  EXPECT_EQ(v, "1");
  ASSERT_TRUE(in->Commit().ok());
  ASSERT_TRUE(pivot->Put(f.table, "x", "1").ok());
  ASSERT_TRUE(pivot->Commit().ok());
  EXPECT_FALSE(f.HistorySerializable());  // The oracle sees the cycle.
}

TEST(ReadOnlyAnomalyTest, SerializableSSIPreventsIt) {
  Fixture f;
  f.Seed("x", "0");
  f.Seed("y", "0");
  f.Seed("z", "0");
  auto pivot = f.db->Begin({IsolationLevel::kSerializableSSI});
  auto out = f.db->Begin({IsolationLevel::kSerializableSSI});
  std::string v;
  Status s = pivot->Get(f.table, "y", &v);
  ASSERT_TRUE(s.ok());
  s = out->Put(f.table, "y", "1");
  ASSERT_TRUE(s.ok()) << s.ToString();
  s = out->Put(f.table, "z", "1");
  ASSERT_TRUE(s.ok());
  Status c_out = out->Commit();
  ASSERT_TRUE(c_out.ok()) << c_out.ToString();  // Tout commits first — fine.

  auto in = f.db->Begin({IsolationLevel::kSerializableSSI});
  Status r1 = in->Get(f.table, "x", &v);
  Status r2 = r1.ok() ? in->Get(f.table, "z", &v) : r1;
  Status c_in = r2.ok() ? in->Commit() : r2;
  Status w_pivot =
      pivot->active() ? pivot->Put(f.table, "x", "1") : Status::Unsafe("");
  Status c_pivot = w_pivot.ok() ? pivot->Commit() : w_pivot;

  // At least one of the three must have aborted with unsafe...
  EXPECT_FALSE(c_in.ok() && c_pivot.ok())
      << "in=" << c_in.ToString() << " pivot=" << c_pivot.ToString();
  EXPECT_TRUE(f.HistorySerializable());
  // ...and whichever went down is classified to a structural SSI reason.
  if (!c_in.ok()) {
    EXPECT_TRUE(IsSsiReason(in->abort_cause()))
        << AbortReasonName(in->abort_cause());
  }
  if (!c_pivot.ok()) {
    EXPECT_TRUE(IsSsiReason(pivot->abort_cause()))
        << AbortReasonName(pivot->abort_cause());
  }
  if (pivot->active()) pivot->Abort();
  if (in->active()) in->Abort();
}

/// §2.5.2/§3.5: phantom write skew. Two transactions each count the rows
/// matching a predicate and insert a row that changes the other's count.
/// Record-level SIREAD locks alone cannot see this; the range SIREAD must.
TEST(PhantomTest, SSIDetectsInsertPhantomConflict) {
  Fixture f;
  f.Seed("a1", "1");  // One existing row in each range.
  f.Seed("b1", "1");
  auto t1 = f.db->Begin({IsolationLevel::kSerializableSSI});
  auto t2 = f.db->Begin({IsolationLevel::kSerializableSSI});
  // T1 counts range b*, T2 counts range a*; then each inserts into the
  // range the other counted.
  int count1 = 0;
  Status s = t1->Scan(f.table, "b", "b~", [&count1](Slice, Slice) {
    ++count1;
    return true;
  });
  ASSERT_TRUE(s.ok());
  int count2 = 0;
  s = t2->Scan(f.table, "a", "a~", [&count2](Slice, Slice) {
    ++count2;
    return true;
  });
  ASSERT_TRUE(s.ok());
  Status i1 = t1->Insert(f.table, "a2", "1");
  Status i2 = t2->Insert(f.table, "b2", "1");
  Status c1 = i1.ok() ? t1->Commit() : i1;
  Status c2 = i2.ok() ? t2->Commit() : i2;
  EXPECT_FALSE(c1.ok() && c2.ok())
      << "c1=" << c1.ToString() << " c2=" << c2.ToString();
  // A phantom casualty is still an SSI-structure abort in the taxonomy
  // (the range SIREAD just supplied the rw-edge).
  if (!c1.ok()) {
    EXPECT_TRUE(IsSsiReason(t1->abort_cause()))
        << AbortReasonName(t1->abort_cause());
  }
  if (!c2.ok()) {
    EXPECT_TRUE(IsSsiReason(t2->abort_cause()))
        << AbortReasonName(t2->abort_cause());
  }
  if (t1->active()) t1->Abort();
  if (t2->active()) t2->Abort();
}

TEST(PhantomTest, SnapshotIsolationAdmitsInsertPhantomSkew) {
  Fixture f;
  f.Seed("a1", "1");
  f.Seed("b1", "1");
  auto t1 = f.db->Begin({IsolationLevel::kSnapshot});
  auto t2 = f.db->Begin({IsolationLevel::kSnapshot});
  int count = 0;
  ASSERT_TRUE(t1->Scan(f.table, "b", "b~", [&count](Slice, Slice) {
    ++count;
    return true;
  }).ok());
  ASSERT_TRUE(t2->Scan(f.table, "a", "a~", [&count](Slice, Slice) {
    ++count;
    return true;
  }).ok());
  ASSERT_TRUE(t1->Insert(f.table, "a2", "1").ok());
  ASSERT_TRUE(t2->Insert(f.table, "b2", "1").ok());
  EXPECT_TRUE(t1->Commit().ok());
  EXPECT_TRUE(t2->Commit().ok());
  EXPECT_FALSE(f.HistorySerializable());
}

TEST(PhantomTest, DeletedRowStillConflictsViaTombstone) {
  // §3.5: a predicate read that sees a row deleted by a concurrent
  // transaction detects the conflict through the tombstone version.
  Fixture f;
  f.Seed("a1", "1");
  f.Seed("a2", "1");
  auto deleter = f.db->Begin({IsolationLevel::kSerializableSSI});
  auto scanner = f.db->Begin({IsolationLevel::kSerializableSSI});
  std::string v;
  ASSERT_TRUE(scanner->Get(f.table, "a1", &v).ok());  // Pin snapshot.
  ASSERT_TRUE(deleter->Delete(f.table, "a2").ok());
  // Deleter also reads something scanner will write -> pivot shape.
  ASSERT_TRUE(deleter->Get(f.table, "a1", &v).ok());
  ASSERT_TRUE(deleter->Commit().ok());
  // Scanner's predicate read ignores the tombstone (snapshot) but must
  // register the rw-conflict; writing a1 then makes scanner a pivot ->
  // somebody aborts.
  int count = 0;
  Status s = scanner->Scan(f.table, "a", "a~", [&count](Slice, Slice) {
    ++count;
    return true;
  });
  if (s.ok()) {
    EXPECT_EQ(count, 2);  // Snapshot still sees both rows.
    s = scanner->Put(f.table, "a1", "2");
  }
  Status c = s.ok() ? scanner->Commit() : s;
  EXPECT_TRUE(c.IsUnsafe()) << c.ToString();
  EXPECT_TRUE(IsSsiReason(scanner->abort_cause()))
      << AbortReasonName(scanner->abort_cause());
}

// ---------------------------------------------------------------------------
// Range SIREAD phantoms (lock_manager.h): a row-granularity SSI scan
// publishes one range SIREAD, and an insert stabs the ranges of its table
// after its chain exists. Driven through one Session, so each interleaving
// is exact.
// ---------------------------------------------------------------------------

/// Whether `id` has recorded an outgoing / incoming rw-antidependency, in
/// either tracking representation.
bool HasRwEdge(DB* db, TxnId id, bool outgoing) {
  std::shared_ptr<TxnState> state = db->txn_manager()->Find(id);
  if (state == nullptr) return false;
  std::lock_guard<std::mutex> latch(state->ssi_mu);
  return outgoing ? state->out_conflict_flag || state->out_ref.IsSet()
                  : state->in_conflict_flag || state->in_ref.IsSet();
}

/// (scan before insert, scanner commits first, tracking mode).
class RangePhantomTest
    : public ::testing::TestWithParam<std::tuple<bool, bool, ConflictTracking>> {
};

TEST_P(RangePhantomTest, PhantomEdgeAbortsThePivot) {
  const auto [scan_first, scanner_commits_first, tracking] = GetParam();
  DBOptions opts;
  opts.conflict_tracking = tracking;
  Fixture f(opts);
  f.Seed("a1", "1");
  f.Seed("a5", "1");
  f.Seed("y", "0");
  std::unique_ptr<Session> session = f.db->CreateSession();
  const TxnHandle scanner = session->Begin({IsolationLevel::kSerializableSSI});
  const TxnHandle inserter =
      session->Begin({IsolationLevel::kSerializableSSI});
  const TxnId scanner_id = session->id(scanner);
  const TxnId inserter_id = session->id(inserter);
  // The inserter reads y, which the scanner later writes: inserter ->
  // scanner. The phantom supplies scanner -> inserter, closing the cycle.
  std::string v;
  ASSERT_TRUE(session->Get(inserter, f.table, "y", &v).ok());
  ASSERT_TRUE(session->Get(scanner, f.table, "y", &v).ok());

  int rows = 0;
  auto scan = [&] {
    return session->Scan(scanner, f.table, "a", "a~", [&rows](Slice, Slice) {
      ++rows;
      return true;
    });
  };
  // "a3" falls between the two rows the scan sees: no row or gap SIREAD
  // of the scanner names it.
  if (scan_first) {
    ASSERT_TRUE(scan().ok());
    ASSERT_TRUE(session->Insert(inserter, f.table, "a3", "1").ok());
  } else {
    ASSERT_TRUE(session->Insert(inserter, f.table, "a3", "1").ok());
    ASSERT_TRUE(scan().ok());
  }
  EXPECT_EQ(rows, 2);  // The uncommitted insert is not in the snapshot.
  EXPECT_TRUE(HasRwEdge(f.db.get(), scanner_id, /*outgoing=*/true));
  EXPECT_TRUE(HasRwEdge(f.db.get(), inserter_id, /*outgoing=*/false));

  Status scanner_st = session->Put(scanner, f.table, "y", "1");
  Status inserter_st;
  const TxnHandle first = scanner_commits_first ? scanner : inserter;
  const TxnHandle second = scanner_commits_first ? inserter : scanner;
  Status& first_st = scanner_commits_first ? scanner_st : inserter_st;
  Status& second_st = scanner_commits_first ? inserter_st : scanner_st;
  if (first_st.ok()) first_st = session->Commit(first);
  if (second_st.ok()) second_st = session->Commit(second);
  session->Abort(scanner);
  session->Abort(inserter);

  // Both transactions are pivots of the cycle; exactly one survives, and
  // the other went down as an SSI structure abort.
  EXPECT_NE(scanner_st.ok(), inserter_st.ok())
      << "scanner=" << scanner_st.ToString()
      << " inserter=" << inserter_st.ToString();
  const Status& failed = scanner_st.ok() ? inserter_st : scanner_st;
  EXPECT_TRUE(failed.IsUnsafe()) << failed.ToString();
  EXPECT_TRUE(f.HistorySerializable());
}

INSTANTIATE_TEST_SUITE_P(
    OrdersAndModes, RangePhantomTest,
    ::testing::Combine(::testing::Bool(), ::testing::Bool(),
                       ::testing::Values(ConflictTracking::kFlags,
                                         ConflictTracking::kReferences)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) ? "ScanFirst"
                                                 : "InsertFirst") +
             (std::get<1>(info.param) ? "ScannerCommitsFirst"
                                      : "InserterCommitsFirst") +
             (std::get<2>(info.param) == ConflictTracking::kFlags
                  ? "Flags"
                  : "References");
    });

TEST(RangeSIReadEdgeTest, InsertAboveHiBelowSuccessorMakesNoEdge) {
  // The scan of [a, a~] sees a1 and, above hi, the successor c1. Next-key
  // locking held the gap below c1, so inserting b used to make an edge;
  // the range covers exactly [a, a~] and does not.
  Fixture f;
  f.Seed("a1", "1");
  f.Seed("c1", "1");
  std::unique_ptr<Session> session = f.db->CreateSession();
  const TxnHandle scanner = session->Begin({IsolationLevel::kSerializableSSI});
  const TxnHandle inserter =
      session->Begin({IsolationLevel::kSerializableSSI});
  const TxnId scanner_id = session->id(scanner);
  const TxnId inserter_id = session->id(inserter);
  std::string v;
  ASSERT_TRUE(session->Get(inserter, f.table, "c1", &v).ok());
  ASSERT_TRUE(
      session->Scan(scanner, f.table, "a", "a~", [](Slice, Slice) {
        return true;
      }).ok());
  ASSERT_TRUE(session->Insert(inserter, f.table, "b", "1").ok());
  EXPECT_FALSE(HasRwEdge(f.db.get(), scanner_id, /*outgoing=*/true));
  EXPECT_FALSE(HasRwEdge(f.db.get(), inserter_id, /*outgoing=*/false));
  // Inside [lo, hi] it still does.
  ASSERT_TRUE(session->Insert(inserter, f.table, "a2", "1").ok());
  EXPECT_TRUE(HasRwEdge(f.db.get(), scanner_id, /*outgoing=*/true));
  EXPECT_TRUE(HasRwEdge(f.db.get(), inserter_id, /*outgoing=*/false));
  EXPECT_TRUE(session->Commit(scanner).ok());
  EXPECT_TRUE(session->Commit(inserter).ok());
  EXPECT_TRUE(f.HistorySerializable());
}

TEST(RangeSIReadEdgeTest, InsertFirstAboveHiBelowSuccessorMakesNoEdge) {
  // The same gap with the insert first. b's insert-intention lock sits on
  // the gap below c1. Three scans outside b: [a, a~] (whose successor is
  // now b), the empty [b5, b9] (whose successor is c1) and [c, c~] (whose
  // first entry is c1). Scans probe rows only, so none of them makes an
  // edge; a gap probe would flag the last two.
  Fixture f;
  f.Seed("a1", "1");
  f.Seed("c1", "1");
  std::unique_ptr<Session> session = f.db->CreateSession();
  const TxnHandle inserter =
      session->Begin({IsolationLevel::kSerializableSSI});
  const TxnId inserter_id = session->id(inserter);
  std::string v;
  ASSERT_TRUE(session->Get(inserter, f.table, "c1", &v).ok());
  ASSERT_TRUE(session->Insert(inserter, f.table, "b", "1").ok());
  std::vector<TxnHandle> scanners;
  for (const auto& [lo, hi, want] :
       {std::tuple<const char*, const char*, int>{"a", "a~", 1},
        {"b5", "b9", 0},
        {"c", "c~", 1}}) {
    const TxnHandle scanner =
        session->Begin({IsolationLevel::kSerializableSSI});
    scanners.push_back(scanner);
    int rows = 0;
    ASSERT_TRUE(
        session->Scan(scanner, f.table, lo, hi, [&rows](Slice, Slice) {
          ++rows;
          return true;
        }).ok());
    EXPECT_EQ(rows, want) << lo;
    EXPECT_FALSE(HasRwEdge(f.db.get(), session->id(scanner),
                           /*outgoing=*/true))
        << lo;
  }
  EXPECT_FALSE(HasRwEdge(f.db.get(), inserter_id, /*outgoing=*/false));
  for (const TxnHandle scanner : scanners) {
    EXPECT_TRUE(session->Commit(scanner).ok());
  }
  EXPECT_TRUE(session->Commit(inserter).ok());
  EXPECT_TRUE(f.HistorySerializable());
}

TEST(RangeSIReadEdgeTest, GetForUpdateInsideTheRangeMakesTheEdge) {
  // A locking read is treated like an update (§2.6.2): its identity
  // version is a write into the scanned predicate, so it stabs the range.
  Fixture f;
  f.Seed("a1", "1");
  f.Seed("a5", "1");
  std::unique_ptr<Session> session = f.db->CreateSession();
  const TxnHandle scanner = session->Begin({IsolationLevel::kSerializableSSI});
  const TxnHandle locker = session->Begin({IsolationLevel::kSerializableSSI});
  const TxnId scanner_id = session->id(scanner);
  const TxnId locker_id = session->id(locker);
  std::string v;
  ASSERT_TRUE(session->Get(locker, f.table, "zz", &v).IsNotFound());
  ASSERT_TRUE(
      session->Scan(scanner, f.table, "a", "a~", [](Slice, Slice) {
        return true;
      }).ok());
  ASSERT_TRUE(session->GetForUpdate(locker, f.table, "a5", &v).ok());
  EXPECT_TRUE(HasRwEdge(f.db.get(), scanner_id, /*outgoing=*/true));
  EXPECT_TRUE(HasRwEdge(f.db.get(), locker_id, /*outgoing=*/false));
  EXPECT_TRUE(session->Commit(scanner).ok());
  EXPECT_TRUE(session->Commit(locker).ok());
  EXPECT_TRUE(f.HistorySerializable());
}

/// §3.8: queries at plain SI mixed with updates at Serializable SI. The
/// updates stay serializable among themselves; queries never abort.
TEST(MixedQueryTest, SIQueriesNeverAbortAndUpdatesStaySerializable) {
  Fixture f;
  f.Seed("x", "50");
  f.Seed("y", "50");
  // The write-skew pair at SSI, with a concurrent SI query in the middle.
  auto t1 = f.db->Begin({IsolationLevel::kSerializableSSI});
  auto t2 = f.db->Begin({IsolationLevel::kSerializableSSI});
  auto query = f.db->Begin({IsolationLevel::kSnapshot});
  std::string v;
  ASSERT_TRUE(query->Get(f.table, "x", &v).ok());
  ASSERT_TRUE(query->Get(f.table, "y", &v).ok());
  Status s = t1->Get(f.table, "x", &v);
  if (s.ok()) s = t1->Get(f.table, "y", &v);
  if (s.ok()) s = t2->Get(f.table, "x", &v);
  if (s.ok()) s = t2->Get(f.table, "y", &v);
  if (s.ok()) s = t1->Put(f.table, "x", "-20");
  Status c1 = s.ok() ? t1->Commit() : s;
  Status w2 = t2->active() ? t2->Put(f.table, "y", "-30") : Status::Unsafe("");
  Status c2 = w2.ok() ? t2->Commit() : w2;
  EXPECT_NE(c1.ok(), c2.ok());            // Updates: still protected.
  EXPECT_TRUE(query->Commit().ok());      // Query: never aborted.
  EXPECT_GT(f.GetInt("x") + f.GetInt("y"), 0);
  if (t1->active()) t1->Abort();
  if (t2->active()) t2->Abort();
}

/// Fig 3.8 (§3.6): a dangerous-looking structure that is actually
/// serializable because Tin committed before Tout. The precise
/// (kReferences) tracker must let all three commit; the basic flags
/// tracker aborts the pivot — the false positive the paper measures.
std::tuple<Status, Status, Status> RunFig38(
    Fixture* f, AbortReason* pivot_cause = nullptr) {
  const IsolationLevel iso = IsolationLevel::kSerializableSSI;
  auto in = f->db->Begin({iso});
  auto pivot = f->db->Begin({iso});
  std::string v;
  // rin(x) rin(z); cin  — Tin commits before Tout even begins writing.
  Status s = in->Get(f->table, "x", &v);
  if (s.ok()) s = in->Get(f->table, "z", &v);
  if (s.ok()) s = pivot->Get(f->table, "y", &v);  // rpivot(y)
  // Advance the watermark past the pivot's snapshot before Tin's
  // read-only commit: its commit timestamp is the watermark, and the
  // figure needs Tin concurrent with the pivot (cin > begin(pivot)).
  f->Seed("fig38_bump", "1");
  Status c_in = s.ok() ? in->Commit() : s;

  auto out = f->db->Begin({iso});
  if (s.ok()) s = out->Put(f->table, "y", "1");  // wout(y): pivot rw-> out
  if (s.ok()) s = out->Put(f->table, "z", "1");
  Status c_out = s.ok() ? out->Commit() : s;

  Status w = pivot->active() ? pivot->Put(f->table, "x", "1")
                             : Status::Unsafe("marked");
  Status c_pivot = w.ok() ? pivot->Commit() : w;
  if (in->active()) in->Abort();
  if (out->active()) out->Abort();
  if (pivot->active()) pivot->Abort();
  if (pivot_cause != nullptr) *pivot_cause = pivot->abort_cause();
  return {c_in, c_pivot, c_out};
}

TEST(FalsePositiveTest, ReferencesModeCommitsFig38) {
  DBOptions opts;
  opts.conflict_tracking = ConflictTracking::kReferences;
  Fixture f(opts);
  f.Seed("x", "0");
  f.Seed("y", "0");
  f.Seed("z", "0");
  AbortReason pivot_cause = AbortReason::kExplicit;
  auto [c_in, c_pivot, c_out] = RunFig38(&f, &pivot_cause);
  EXPECT_TRUE(c_in.ok()) << c_in.ToString();
  EXPECT_TRUE(c_out.ok()) << c_out.ToString();
  // The payoff of §3.6: no false-positive abort of the pivot.
  EXPECT_TRUE(c_pivot.ok()) << c_pivot.ToString();
  EXPECT_EQ(pivot_cause, AbortReason::kNone);  // Committed clean.
  EXPECT_TRUE(f.HistorySerializable());
}

TEST(FalsePositiveTest, FlagsModeAbortsFig38Pivot) {
  DBOptions opts;
  opts.conflict_tracking = ConflictTracking::kFlags;
  Fixture f(opts);
  f.Seed("x", "0");
  f.Seed("y", "0");
  f.Seed("z", "0");
  AbortReason pivot_cause = AbortReason::kNone;
  auto [c_in, c_pivot, c_out] = RunFig38(&f, &pivot_cause);
  EXPECT_TRUE(c_in.ok());
  EXPECT_TRUE(c_out.ok());
  // The basic algorithm cannot tell this apart from a real cycle.
  EXPECT_TRUE(c_pivot.IsUnsafe()) << c_pivot.ToString();
  // And the taxonomy records exactly where it fell: the flags-mode commit
  // check saw in- and out-conflict on the committer — a pivot abort.
  EXPECT_EQ(pivot_cause, AbortReason::kSsiPivot)
      << AbortReasonName(pivot_cause);
  EXPECT_TRUE(f.HistorySerializable());  // It was serializable all along.
}

/// §3.7.1 abort-early: with the option on, the doomed transaction fails at
/// the *operation* that completes the dangerous structure, not at commit.
TEST(AbortEarlyTest, OperationFailsBeforeCommit) {
  DBOptions opts;
  opts.abort_early = true;
  Fixture f(opts);
  f.Seed("x", "50");
  f.Seed("y", "50");
  auto t1 = f.db->Begin({IsolationLevel::kSerializableSSI});
  auto t2 = f.db->Begin({IsolationLevel::kSerializableSSI});
  std::string v;
  ASSERT_TRUE(t1->Get(f.table, "x", &v).ok());
  ASSERT_TRUE(t1->Get(f.table, "y", &v).ok());
  ASSERT_TRUE(t2->Get(f.table, "x", &v).ok());
  ASSERT_TRUE(t2->Get(f.table, "y", &v).ok());
  ASSERT_TRUE(t1->Put(f.table, "x", "-20").ok());
  ASSERT_TRUE(t1->Commit().ok());
  // t2's write gives t2 in+out conflicts; abort-early fires here.
  Status s = t2->Put(f.table, "y", "-30");
  Status c = s.ok() ? t2->Commit() : s;
  EXPECT_TRUE(c.IsUnsafe());
  EXPECT_TRUE(s.IsUnsafe()) << "expected early abort at the write, got "
                            << s.ToString();
  // Early or not, the abort is classified to its structural role.
  EXPECT_TRUE(IsSsiReason(t2->abort_cause()))
      << AbortReasonName(t2->abort_cause());
}

/// §3.7.2 victim selection: kYoungest aborts the younger transaction
/// instead of the pivot when both are still abortable.
TEST(VictimPolicyTest, YoungestPolicyChoosesYoungerTransaction) {
  DBOptions opts;
  opts.victim_policy = VictimPolicy::kYoungest;
  opts.conflict_tracking = ConflictTracking::kFlags;
  Fixture f(opts);
  f.Seed("x", "50");
  f.Seed("y", "50");
  // Older transaction becomes the pivot; the younger counterpart should be
  // sacrificed under kYoungest.
  auto older = f.db->Begin({IsolationLevel::kSerializableSSI});
  std::string v;
  ASSERT_TRUE(older->Get(f.table, "x", &v).ok());   // in-edge target later
  auto younger = f.db->Begin({IsolationLevel::kSerializableSSI});
  ASSERT_TRUE(younger->Get(f.table, "y", &v).ok());
  // younger reads y; older writes y => younger rw-> older (older gets in).
  ASSERT_TRUE(older->Put(f.table, "y", "1").ok());
  // older reads x... already done; younger writes x => older rw-> younger.
  Status s = younger->Put(f.table, "x", "1");
  // The dangerous structure (pivot = older) is complete at this write.
  // With kYoungest, the younger transaction should be the victim.
  Status c_young = s.ok() ? younger->Commit() : s;
  Status c_old = older->active() ? older->Commit() : Status::Unsafe("");
  EXPECT_NE(c_young.ok(), c_old.ok());
  EXPECT_FALSE(c_young.ok());  // Younger was chosen.
  EXPECT_TRUE(c_old.ok()) << c_old.ToString();
  // The sacrificed side is still taxonomy-classified, and the recorded
  // conflict partner is the surviving pivot.
  EXPECT_TRUE(IsSsiReason(younger->abort_cause()))
      << AbortReasonName(younger->abort_cause());
  if (younger->abort_conflict_txn() != 0) {
    EXPECT_EQ(younger->abort_conflict_txn(), older->id());
  }
  if (older->active()) older->Abort();
  if (younger->active()) younger->Abort();
}

// ---- Tiny-pool re-runs (storage tier, §2.5.1 under memory pressure) ----
//
// The write-skew programs again, but with a disk tier whose buffer pool is
// a handful of frames and with every seeded chain spilled to a run before
// the racing transactions start — so the programs' reads routinely fault
// through the pool mid-interleaving. The isolation verdicts must be
// IDENTICAL to the memory-only runs above: spilling is invisible to SSI
// certification, because a version is only spilled once its commit
// timestamp is at or below the prune horizon, hence at or below every
// active snapshot — it can never be the newer version an rw-conflict is
// made of.

DBOptions TinyPoolOptions(const std::string& dir) {
  DBOptions opts;
  opts.buffer_pool_bytes = 1 << 14;  // 4 frames of 4 KiB.
  opts.run_page_bytes = 4096;
  opts.data_dir = dir;
  return opts;
}

/// Holds the run directory; a base class so it outlives Fixture's DB.
struct TinyPoolDir {
  ScratchDir dir;
};

struct TinyPoolFixture : TinyPoolDir, Fixture {
  TinyPoolFixture() : Fixture(TinyPoolOptions(dir.path)) {}

  /// Evict every seeded chain (two sweeps: clear clock bits, then spill).
  size_t SpillSeeds() {
    db->SpillChains(table);
    return db->SpillChains(table);
  }
};

TEST(WriteSkewTinyPoolTest, SnapshotIsolationStillAdmitsIt) {
  TinyPoolFixture f;
  f.Seed("x", "50");
  f.Seed("y", "50");
  ASSERT_EQ(f.SpillSeeds(), 2u);
  auto [c1, c2] = RunWriteSkew(&f, IsolationLevel::kSnapshot);
  EXPECT_TRUE(c1.ok());
  EXPECT_TRUE(c2.ok());
  EXPECT_EQ(f.GetInt("x") + f.GetInt("y"), -50);
  EXPECT_FALSE(f.HistorySerializable());
  EXPECT_GT(Metric(f.db.get(), "tier.faulted_chains"), 0u)
      << "the program must actually have read through the disk tier";
}

TEST(WriteSkewTinyPoolTest, SSIVerdictUnchangedByFaulting) {
  TinyPoolFixture f;
  f.Seed("x", "50");
  f.Seed("y", "50");
  ASSERT_EQ(f.SpillSeeds(), 2u);
  SkewForensics fx;
  auto [c1, c2] = RunWriteSkew(&f, IsolationLevel::kSerializableSSI, &fx);
  // Same verdict as the memory-only run: exactly one aborts, kUnsafe.
  EXPECT_NE(c1.ok(), c2.ok());
  const Status& failed = c1.ok() ? c2 : c1;
  EXPECT_TRUE(failed.IsUnsafe()) << failed.ToString();
  EXPECT_GT(f.GetInt("x") + f.GetInt("y"), 0);
  EXPECT_TRUE(f.HistorySerializable());
  EXPECT_EQ(Metric(f.db.get(), "ssi.unsafe_aborts"), 1u);
  EXPECT_GT(Metric(f.db.get(), "tier.faulted_chains"), 0u);
  // Faulting through the disk tier must not blur the classification.
  const AbortReason victim = c1.ok() ? fx.cause2 : fx.cause1;
  EXPECT_TRUE(IsSsiReason(victim)) << AbortReasonName(victim);
}

TEST(WriteSkewTinyPoolTest, S2PLVerdictUnchangedByFaulting) {
  ScratchDir dir;
  DBOptions opts = TinyPoolOptions(dir.path);
  opts.lock_timeout_ms = 1000;
  Fixture f(opts);
  f.Seed("x", "50");
  f.Seed("y", "50");
  f.db->SpillChains(f.table);
  ASSERT_EQ(f.db->SpillChains(f.table), 2u);
  auto [c1, c2] = RunWriteSkew(&f, IsolationLevel::kSerializable2PL);
  EXPECT_FALSE(c1.ok() && c2.ok());
  EXPECT_GT(f.GetInt("x") + f.GetInt("y"), 0);
  EXPECT_TRUE(f.HistorySerializable());
  EXPECT_GT(Metric(f.db.get(), "tier.faulted_chains"), 0u);
}

TEST(WriteSkewTinyPoolTest, DoctorsOnCallPredicateReadsFaultSpilledRows) {
  // The doctors-on-call write skew driven through Scan: predicate reads
  // must surface spilled rows (a fault mid-scan), and SSI must still
  // prevent both doctors leaving.
  TinyPoolFixture f;
  f.Seed("doc1", "onduty");
  f.Seed("doc2", "onduty");
  ASSERT_EQ(f.SpillSeeds(), 2u);

  auto t1 = f.db->Begin({IsolationLevel::kSerializableSSI});
  auto t2 = f.db->Begin({IsolationLevel::kSerializableSSI});
  auto on_duty_count = [&](Transaction* txn, Status* scan_status) {
    int count = 0;
    *scan_status = txn->Scan(f.table, "doc1", "doc9",
                             [&count](Slice, Slice v) {
                               if (v == Slice("onduty")) ++count;
                               return true;
                             });
    return count;
  };

  Status s1 = t1->Put(f.table, "doc1", "reserve");
  Status s2 = t2->Put(f.table, "doc2", "reserve");
  Status c1 = s1, c2 = s2;
  if (c1.ok()) {
    Status scan;
    const int on_duty = on_duty_count(t1.get(), &scan);
    c1 = !scan.ok() ? scan
                    : (on_duty >= 1 ? t1->Commit()
                                    : Status::InvalidArgument("constraint"));
  }
  if (c2.ok()) {
    Status scan;
    const int on_duty = on_duty_count(t2.get(), &scan);
    c2 = !scan.ok() ? scan
                    : (on_duty >= 1 ? t2->Commit()
                                    : Status::InvalidArgument("constraint"));
  }
  if (t1->active()) t1->Abort();
  if (t2->active()) t2->Abort();

  // Identical outcome to the memory-only DoctorsOnCallTest: at most one
  // doctor actually leaves, and the execution stays serializable.
  EXPECT_FALSE(c1.ok() && c2.ok());
  int reserve = 0;
  {
    auto check = f.db->Begin({IsolationLevel::kSnapshot});
    std::string v;
    if (check->Get(f.table, "doc1", &v).ok() && v == "reserve") ++reserve;
    if (check->Get(f.table, "doc2", &v).ok() && v == "reserve") ++reserve;
    check->Commit();
  }
  EXPECT_LE(reserve, 1);
  EXPECT_TRUE(f.HistorySerializable());
  EXPECT_GT(Metric(f.db.get(), "tier.faulted_chains"), 0u);
}

/// First-committer-wins (§2.2): a lost update attempt under plain SI is
/// not an anomaly SSI needs — FCW handles it — but it is an abort, and the
/// taxonomy must name it precisely (kFcwRow, not any SSI reason).
TEST(AbortTaxonomyTest, FirstCommitterWinsClassifiesFcwRow) {
  Fixture f;
  f.Seed("k", "0");
  auto t1 = f.db->Begin({IsolationLevel::kSnapshot});
  auto t2 = f.db->Begin({IsolationLevel::kSnapshot});
  // Pin t2's snapshot before t1 commits (snapshots are assigned lazily at
  // the first operation; without this read t2 would simply see t1's
  // version and not conflict at all).
  std::string v;
  ASSERT_TRUE(t2->Get(f.table, "k", &v).ok());
  ASSERT_TRUE(t1->Put(f.table, "k", "1").ok());
  ASSERT_TRUE(t1->Commit().ok());
  // t2's snapshot predates t1's commit: its write must fail FCW.
  Status s = t2->Put(f.table, "k", "2");
  Status c = s.ok() ? t2->Commit() : s;
  EXPECT_TRUE(c.IsUpdateConflict()) << c.ToString();
  EXPECT_EQ(t2->abort_cause(), AbortReason::kFcwRow)
      << AbortReasonName(t2->abort_cause());
  if (t2->active()) t2->Abort();
  const obs::MetricsSnapshot stats = f.db->metrics()->Collect();
  EXPECT_EQ(Metric(stats, AbortMetric(AbortReason::kFcwRow)), 1u);
  EXPECT_EQ(Metric(stats, AbortMetric(AbortReason::kSsiPivot)), 0u);
}

/// An application rollback maps to kExplicit — the taxonomy's catch-all
/// for aborts the engine did not initiate.
TEST(AbortTaxonomyTest, ExplicitRollbackClassifiesExplicit) {
  Fixture f;
  auto txn = f.db->Begin({IsolationLevel::kSerializableSSI});
  ASSERT_TRUE(txn->Put(f.table, "k", "v").ok());
  txn->Abort();
  EXPECT_EQ(txn->abort_cause(), AbortReason::kExplicit);
  EXPECT_EQ(Metric(f.db.get(), AbortMetric(AbortReason::kExplicit)), 1u);
}

}  // namespace
}  // namespace ssidb
