// Concurrency stress tests: many threads, random operations, invariants
// checked at the end. These are the property-based complement to the
// deterministic interleavings of interleaving_test.cc: serializability is
// validated with the MVSG oracle over full recorded histories, and
// domain invariants (conservation of money, constraint maintenance) are
// validated against the final state.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "src/common/encoding.h"
#include "src/common/random.h"
#include "src/db/db.h"
#include "src/sgt/mvsg.h"
#include "tests/test_util.h"

namespace ssidb {
namespace {

int64_t DecodeI64(Slice v) {
  size_t off = 0;
  int64_t out = 0;
  GetI64(v, &off, &out);
  return out;
}

std::string EncodeI64(int64_t v) {
  std::string s;
  PutI64(&s, v);
  return s;
}

/// Money-transfer stress: N accounts, random transfers; the total is
/// invariant under any serializable execution. SI would also conserve the
/// total here (transfers write both accounts, so FCW protects them) — the
/// point of this test is crash-free concurrency and lost-update freedom.
class TransferStressTest : public ::testing::TestWithParam<IsolationLevel> {};

TEST_P(TransferStressTest, TotalConserved) {
  DBOptions opts;
  opts.lock_timeout_ms = 5000;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(opts, &db).ok());
  TableId table = 0;
  ASSERT_TRUE(db->CreateTable("accounts", &table).ok());
  constexpr uint64_t kAccounts = 20;
  constexpr int64_t kInitial = 1000;
  {
    auto seed = db->Begin({IsolationLevel::kSnapshot});
    for (uint64_t i = 0; i < kAccounts; ++i) {
      ASSERT_TRUE(
          seed->Insert(table, EncodeU64Key(i), EncodeI64(kInitial)).ok());
    }
    ASSERT_TRUE(seed->Commit().ok());
  }

  constexpr int kThreads = 4;
  constexpr int kOps = 100;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Random rng(31 + t);
      for (int i = 0; i < kOps; ++i) {
        const uint64_t from = rng.Uniform(kAccounts);
        uint64_t to = rng.Uniform(kAccounts);
        if (to == from) to = (to + 1) % kAccounts;
        const int64_t amount = rng.UniformRange(1, 50);
        auto txn = db->Begin({GetParam()});
        std::string v;
        Status s = txn->Get(table, EncodeU64Key(from), &v);
        const int64_t from_balance = s.ok() ? DecodeI64(v) : 0;
        if (s.ok()) s = txn->Get(table, EncodeU64Key(to), &v);
        const int64_t to_balance = s.ok() ? DecodeI64(v) : 0;
        if (s.ok()) {
          s = txn->Put(table, EncodeU64Key(from),
                       EncodeI64(from_balance - amount));
        }
        if (s.ok()) {
          s = txn->Put(table, EncodeU64Key(to),
                       EncodeI64(to_balance + amount));
        }
        if (s.ok()) {
          txn->Commit();
        } else if (txn->active()) {
          txn->Abort();
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  auto check = db->Begin({IsolationLevel::kSnapshot});
  int64_t total = 0;
  ASSERT_TRUE(check->Scan(table, EncodeU64Key(0), EncodeU64Key(UINT64_MAX),
                          [&total](Slice, Slice v) {
                            total += DecodeI64(v);
                            return true;
                          })
                  .ok());
  check->Commit();
  EXPECT_EQ(total, static_cast<int64_t>(kAccounts) * kInitial);
  EXPECT_EQ(Metric(db.get(), "engine.active_txns"), 0u);
  EXPECT_EQ(Metric(db.get(), "lock.grants"), 0u);  // Everything released.
}

INSTANTIATE_TEST_SUITE_P(
    AllIsolationLevels, TransferStressTest,
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

/// Write-skew stress: pairs of items related by the constraint
/// a + b >= 0; each transaction reads both and decrements one. Under SSI
/// and S2PL the constraint must hold at the end; under SI it breaks (which
/// we *assert*, to prove the workload has teeth).
class SkewStressTest : public ::testing::TestWithParam<IsolationLevel> {
 protected:
  /// Returns the number of constraint-violating pairs after the run.
  int Run(IsolationLevel iso) {
    DBOptions opts;
    opts.lock_timeout_ms = 5000;
    std::unique_ptr<DB> db;
    EXPECT_TRUE(DB::Open(opts, &db).ok());
    TableId table = 0;
    EXPECT_TRUE(db->CreateTable("t", &table).ok());
    constexpr uint64_t kPairs = 10;
    {
      auto seed = db->Begin({IsolationLevel::kSnapshot});
      for (uint64_t i = 0; i < 2 * kPairs; ++i) {
        EXPECT_TRUE(seed->Insert(table, EncodeU64Key(i), EncodeI64(1)).ok());
      }
      EXPECT_TRUE(seed->Commit().ok());
    }
    constexpr int kThreads = 4;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        Random rng(101 + t);
        for (int i = 0; i < 300; ++i) {
          const uint64_t pair = rng.Uniform(kPairs);
          const uint64_t a = 2 * pair;
          const uint64_t b = a + 1;
          auto txn = db->Begin({iso});
          if (rng.Bernoulli(0.3)) {
            // Refill: reset the pair to (1, 0) so the racy sum==1 state
            // keeps recurring. Blind writes; conflicts resolve via FCW.
            Status s = txn->Put(table, EncodeU64Key(a), EncodeI64(1));
            if (s.ok()) s = txn->Put(table, EncodeU64Key(b), EncodeI64(0));
            if (s.ok()) {
              txn->Commit();
            } else if (txn->active()) {
              txn->Abort();
            }
            continue;
          }
          const uint64_t victim = rng.Bernoulli(0.5) ? a : b;
          std::string va, vb;
          Status s = txn->Get(table, EncodeU64Key(a), &va);
          if (s.ok()) s = txn->Get(table, EncodeU64Key(b), &vb);
          // Widen the read->write window so concurrent transactions
          // genuinely interleave even on a single core.
          std::this_thread::sleep_for(std::chrono::microseconds(200));
          if (s.ok()) {
            // Decrement one side only if the pair sum stays >= 0.
            if (DecodeI64(va) + DecodeI64(vb) >= 1) {
              s = txn->Put(table, EncodeU64Key(victim),
                           EncodeI64((victim == a ? DecodeI64(va)
                                                  : DecodeI64(vb)) -
                                     1));
              if (s.ok()) s = txn->Commit();
            } else {
              txn->Abort();
              continue;
            }
          }
          if (!s.ok() && txn->active()) txn->Abort();
        }
      });
    }
    for (auto& t : threads) t.join();

    int violations = 0;
    auto check = db->Begin({IsolationLevel::kSnapshot});
    for (uint64_t pair = 0; pair < kPairs; ++pair) {
      std::string va, vb;
      EXPECT_TRUE(check->Get(table, EncodeU64Key(2 * pair), &va).ok());
      EXPECT_TRUE(check->Get(table, EncodeU64Key(2 * pair + 1), &vb).ok());
      if (DecodeI64(va) + DecodeI64(vb) < 0) ++violations;
    }
    check->Commit();
    return violations;
  }
};

TEST_F(SkewStressTest, SSIMaintainsConstraint) {
  EXPECT_EQ(Run(IsolationLevel::kSerializableSSI), 0);
}

TEST_F(SkewStressTest, S2PLMaintainsConstraint) {
  EXPECT_EQ(Run(IsolationLevel::kSerializable2PL), 0);
}

TEST_F(SkewStressTest, SnapshotIsolationViolatesConstraintDeterministic) {
  // The same decrement-if-sum-positive programs, with the race forced by a
  // barrier: from pair state (1, 0), both transactions read sum == 1, then
  // each decrements a different element. SI commits both (write skew) and
  // the constraint a + b >= 0 breaks — deterministically, proving the
  // stress workload above has teeth.
  DBOptions opts;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(opts, &db).ok());
  TableId table = 0;
  ASSERT_TRUE(db->CreateTable("t", &table).ok());
  {
    auto seed = db->Begin({IsolationLevel::kSnapshot});
    ASSERT_TRUE(seed->Insert(table, EncodeU64Key(0), EncodeI64(1)).ok());
    ASSERT_TRUE(seed->Insert(table, EncodeU64Key(1), EncodeI64(0)).ok());
    ASSERT_TRUE(seed->Commit().ok());
  }
  auto t1 = db->Begin({IsolationLevel::kSnapshot});
  auto t2 = db->Begin({IsolationLevel::kSnapshot});
  auto read_pair = [&](Transaction* txn, int64_t* sum) {
    std::string va, vb;
    Status s = txn->Get(table, EncodeU64Key(0), &va);
    if (s.ok()) s = txn->Get(table, EncodeU64Key(1), &vb);
    if (s.ok()) *sum = DecodeI64(va) + DecodeI64(vb);
    return s;
  };
  int64_t sum1 = 0, sum2 = 0;
  ASSERT_TRUE(read_pair(t1.get(), &sum1).ok());  // Barrier point: both
  ASSERT_TRUE(read_pair(t2.get(), &sum2).ok());  // read before any write.
  ASSERT_EQ(sum1, 1);
  ASSERT_EQ(sum2, 1);
  ASSERT_TRUE(t1->Put(table, EncodeU64Key(0), EncodeI64(0)).ok());
  ASSERT_TRUE(t2->Put(table, EncodeU64Key(1), EncodeI64(-1)).ok());
  EXPECT_TRUE(t1->Commit().ok());
  EXPECT_TRUE(t2->Commit().ok());  // SI admits the skew.

  auto check = db->Begin({IsolationLevel::kSnapshot});
  std::string va, vb;
  ASSERT_TRUE(check->Get(table, EncodeU64Key(0), &va).ok());
  ASSERT_TRUE(check->Get(table, EncodeU64Key(1), &vb).ok());
  check->Commit();
  EXPECT_LT(DecodeI64(va) + DecodeI64(vb), 0);  // Constraint violated.
}

/// Full-history stress: random point ops + scans, history recorded, MVSG
/// oracle at the end. The strongest end-to-end property we can check.
class HistoryOracleStressTest
    : public ::testing::TestWithParam<IsolationLevel> {};

TEST_P(HistoryOracleStressTest, CommittedHistoryIsSerializable) {
  DBOptions opts;
  opts.record_history = true;
  opts.lock_timeout_ms = 5000;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(opts, &db).ok());
  TableId table = 0;
  ASSERT_TRUE(db->CreateTable("t", &table).ok());
  {
    auto seed = db->Begin({IsolationLevel::kSnapshot});
    for (uint64_t i = 0; i < 10; ++i) {
      ASSERT_TRUE(seed->Insert(table, EncodeU64Key(i), EncodeI64(0)).ok());
    }
    ASSERT_TRUE(seed->Commit().ok());
  }
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Random rng(11 + t);
      for (int i = 0; i < 80; ++i) {
        auto txn = db->Begin({GetParam()});
        Status s;
        const int ops = 1 + static_cast<int>(rng.Uniform(3));
        for (int o = 0; o < ops && s.ok(); ++o) {
          const uint64_t k = rng.Uniform(12);  // Includes missing keys.
          switch (rng.Uniform(4)) {
            case 0: {
              std::string v;
              s = txn->Get(table, EncodeU64Key(k), &v);
              if (s.IsNotFound()) s = Status::OK();
              break;
            }
            case 1:
              s = txn->Put(table, EncodeU64Key(k), EncodeI64(i));
              break;
            case 2: {
              s = txn->Delete(table, EncodeU64Key(k));
              if (s.IsNotFound()) s = Status::OK();
              break;
            }
            case 3: {
              const uint64_t lo = rng.Uniform(10);
              s = txn->Scan(table, EncodeU64Key(lo), EncodeU64Key(lo + 3),
                            [](Slice, Slice) { return true; });
              break;
            }
          }
        }
        if (s.ok()) {
          txn->Commit();
        } else if (txn->active()) {
          txn->Abort();
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  auto result = sgt::AnalyzeHistory(db->history()->Snapshot());
  EXPECT_TRUE(result.serializable)
      << sgt::DescribeResult(result);
  EXPECT_GT(result.committed_txns, 50u);  // The stress did real work.
}

INSTANTIATE_TEST_SUITE_P(
    SerializableLevels, HistoryOracleStressTest,
    ::testing::Values(IsolationLevel::kSerializableSSI,
                      IsolationLevel::kSerializable2PL),
    [](const ::testing::TestParamInfo<IsolationLevel>& info) {
      return info.param == IsolationLevel::kSerializableSSI ? "SSI" : "S2PL";
    });

/// Phantom-heavy oracle stress: sparse seeded keys, and SSI transactions
/// that count a window of keys and then insert into the gaps of windows
/// other threads are scanning — the predicate write skew of §2.5.2. Each
/// insert races some scan's range SIREAD publication (R1 against W3 in
/// lock_manager.h) in either order, and the MVSG oracle checks every
/// predicate rw edge of the committed history.
class PhantomOracleStressTest
    : public ::testing::TestWithParam<ConflictTracking> {};

TEST_P(PhantomOracleStressTest, CommittedHistoryIsSerializable) {
  DBOptions opts;
  opts.record_history = true;
  opts.conflict_tracking = GetParam();
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(opts, &db).ok());
  TableId table = 0;
  ASSERT_TRUE(db->CreateTable("t", &table).ok());
  // Keys in [0, kSpace); one seeded every kStride, so a kWindow-wide scan
  // sees two rows and 126 empty gap keys.
  constexpr uint64_t kSpace = 2048;
  constexpr uint64_t kStride = 64;
  constexpr uint64_t kWindow = 128;
  {
    auto seed = db->Begin({IsolationLevel::kSnapshot});
    for (uint64_t k = 0; k < kSpace; k += kStride) {
      ASSERT_TRUE(seed->Insert(table, EncodeU64Key(k), EncodeI64(0)).ok());
    }
    ASSERT_TRUE(seed->Commit().ok());
  }
  constexpr int kThreads = 4;
  constexpr int kTxnsPerThread = 400;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Random rng(101 + t);
      auto gap_key = [&rng](uint64_t lo) {
        uint64_t k;
        do {
          k = lo + rng.Uniform(kWindow);
        } while (k % kStride == 0);
        return EncodeU64Key(k);
      };
      for (int i = 0; i < kTxnsPerThread; ++i) {
        auto txn = db->Begin({IsolationLevel::kSerializableSSI});
        const uint64_t scanned = rng.Uniform(kSpace / kWindow) * kWindow;
        int64_t count = 0;
        Status s = txn->Scan(table, EncodeU64Key(scanned),
                             EncodeU64Key(scanned + kWindow - 1),
                             [&count](Slice, Slice) {
                               ++count;
                               return true;
                             });
        // Insert into a gap of the next window (two times in three) or of
        // our own, so one thread's inserts land in windows others count.
        const uint64_t target =
            (scanned + (rng.Uniform(3) == 0 ? 0 : kWindow)) % kSpace;
        if (s.ok()) {
          s = txn->Insert(table, gap_key(target), EncodeI64(count));
          if (s.IsDuplicateKey()) s = Status::OK();
        }
        if (s.ok() && rng.Uniform(4) == 0) {
          // Now and then update or delete a row of the target window.
          const std::string row = EncodeU64Key(target);
          s = rng.Uniform(2) == 0 ? txn->Put(table, row, EncodeI64(count))
                                  : txn->Delete(table, gap_key(target));
          if (s.IsNotFound()) s = Status::OK();
        }
        if (s.ok()) {
          txn->Commit();
        } else if (txn->active()) {
          txn->Abort();
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  auto result = sgt::AnalyzeHistory(db->history()->Snapshot());
  EXPECT_TRUE(result.serializable) << sgt::DescribeResult(result);
  EXPECT_GT(result.committed_txns, 800u);  // The stress did real work.
}

INSTANTIATE_TEST_SUITE_P(
    TrackingModes, PhantomOracleStressTest,
    ::testing::Values(ConflictTracking::kFlags, ConflictTracking::kReferences),
    [](const ::testing::TestParamInfo<ConflictTracking>& info) {
      return info.param == ConflictTracking::kFlags ? "Flags" : "References";
    });

/// Mixed-isolation stress (§3.8): SSI updates + SI read-only queries. The
/// update sub-history must stay serializable.
TEST(MixedIsolationStressTest, UpdateSubHistorySerializable) {
  DBOptions opts;
  opts.record_history = true;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(opts, &db).ok());
  TableId table = 0;
  ASSERT_TRUE(db->CreateTable("t", &table).ok());
  {
    auto seed = db->Begin({IsolationLevel::kSnapshot});
    for (uint64_t i = 0; i < 8; ++i) {
      ASSERT_TRUE(seed->Insert(table, EncodeU64Key(i), EncodeI64(1)).ok());
    }
    ASSERT_TRUE(seed->Commit().ok());
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    // Updaters at SSI.
    threads.emplace_back([&, t] {
      Random rng(61 + t);
      for (int i = 0; i < 100; ++i) {
        auto txn = db->Begin({IsolationLevel::kSerializableSSI});
        const uint64_t a = rng.Uniform(8);
        const uint64_t b = (a + 1 + rng.Uniform(6)) % 8;
        std::string v;
        Status s = txn->Get(table, EncodeU64Key(a), &v);
        if (s.ok()) s = txn->Put(table, EncodeU64Key(b), EncodeI64(i));
        if (s.ok()) {
          txn->Commit();
        } else if (txn->active()) {
          txn->Abort();
        }
      }
    });
    // Queries at plain SI: never abort.
    threads.emplace_back([&, t] {
      Random rng(81 + t);
      for (int i = 0; i < 100; ++i) {
        auto txn = db->Begin({IsolationLevel::kSnapshot});
        Status s = txn->Scan(table, EncodeU64Key(0), EncodeU64Key(7),
                             [](Slice, Slice) { return true; });
        EXPECT_TRUE(s.ok()) << s.ToString();
        EXPECT_TRUE(txn->Commit().ok());
      }
    });
  }
  for (auto& t : threads) t.join();

  // Filter the history to the SSI updates (queries recorded no writes, so
  // dropping them cannot hide update-only cycles; we analyze the full
  // history too, which may legitimately be non-serializable, §3.8).
  auto ops = db->history()->Snapshot();
  std::vector<sgt::HistoryOp> update_ops;
  std::set<TxnId> writers;
  for (const auto& op : ops) {
    if (op.type == sgt::OpType::kWrite) writers.insert(op.txn);
  }
  for (const auto& op : ops) {
    if (writers.count(op.txn) > 0) update_ops.push_back(op);
  }
  EXPECT_TRUE(sgt::AnalyzeHistory(update_ops).serializable);
}

}  // namespace
}  // namespace ssidb
