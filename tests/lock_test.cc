// Unit tests for the lock manager: mode compatibility, the non-blocking
// SIREAD mode and its rw-conflict evidence on page keys (both acquisition
// orders, §3.2), deadlock detection (immediate and periodic), timeouts,
// the SIREAD retention/cleanup lifecycle hooks, the race of range SIREADs
// against a writer's owner claim on a chain, and the row locks that live
// on version chains (version.h), driven through the DB.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "src/common/encoding.h"
#include "src/common/random.h"
#include "src/db/db.h"
#include "src/lock/lock_manager.h"
#include "src/sgt/mvsg.h"
#include "src/storage/version.h"
#include "tests/test_util.h"

namespace ssidb {
namespace {

LockKey Row(const std::string& key, TableId table = 1) {
  return LockKey{table, LockKind::kRow, key};
}

LockKey Gap(const std::string& key, TableId table = 1) {
  return LockKey{table, LockKind::kGap, key};
}

// SIREAD and EXCLUSIVE meet in this table only on non-row keys: a row key
// here is an absent key, whose evidence travels through its chain.
LockKey Page(const std::string& key, TableId table = 1) {
  return LockKey{table, LockKind::kPage, key};
}

LockManager::Config FastConfig() {
  LockManager::Config c;
  c.lock_timeout_ms = 200;
  return c;
}

TEST(LockManagerTest, SharedLocksAreCompatible) {
  LockManager lm(FastConfig());
  EXPECT_TRUE(lm.Acquire(1, Row("a"), LockMode::kShared).status.ok());
  EXPECT_TRUE(lm.Acquire(2, Row("a"), LockMode::kShared).status.ok());
  EXPECT_TRUE(lm.Holds(1, Row("a"), LockMode::kShared));
  EXPECT_TRUE(lm.Holds(2, Row("a"), LockMode::kShared));
}

TEST(LockManagerTest, ExclusiveBlocksSharedUntilRelease) {
  LockManager lm(FastConfig());
  ASSERT_TRUE(lm.Acquire(1, Row("a"), LockMode::kExclusive).status.ok());
  std::atomic<bool> granted{false};
  std::thread t([&] {
    Status s = lm.Acquire(2, Row("a"), LockMode::kShared).status;
    if (s.ok()) granted.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(granted.load());  // Still blocked.
  lm.ReleaseAll(1);
  t.join();
  EXPECT_TRUE(granted.load());
}

TEST(LockManagerTest, ExclusiveConflictsWithExclusive) {
  LockManager lm(FastConfig());
  ASSERT_TRUE(lm.Acquire(1, Row("a"), LockMode::kExclusive).status.ok());
  // Second requester times out (200ms config).
  Status s = lm.Acquire(2, Row("a"), LockMode::kExclusive).status;
  EXPECT_TRUE(s.IsTimedOut());
}

TEST(LockManagerTest, SIReadNeverBlocksAgainstExclusive) {
  LockManager lm(FastConfig());
  ASSERT_TRUE(lm.Acquire(1, Page("a"), LockMode::kExclusive).status.ok());
  const auto start = std::chrono::steady_clock::now();
  AcquireResult r = lm.Acquire(2, Page("a"), LockMode::kSIRead);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_TRUE(r.status.ok());
  EXPECT_LT(elapsed, std::chrono::milliseconds(50));
  // Fig 3.4 line 3: the SIREAD acquisition reports the exclusive holder.
  ASSERT_EQ(r.rw_conflicts.size(), 1u);
  EXPECT_EQ(r.rw_conflicts[0], 1u);
}

TEST(LockManagerTest, ExclusiveDoesNotBlockOnSIRead) {
  LockManager lm(FastConfig());
  ASSERT_TRUE(lm.Acquire(1, Page("a"), LockMode::kSIRead).status.ok());
  AcquireResult r = lm.Acquire(2, Page("a"), LockMode::kExclusive);
  EXPECT_TRUE(r.status.ok());
  // Fig 3.5 line 4: the exclusive acquisition reports SIREAD holders.
  ASSERT_EQ(r.rw_conflicts.size(), 1u);
  EXPECT_EQ(r.rw_conflicts[0], 1u);
}

TEST(LockManagerTest, SIReadCoexistsWithShared) {
  LockManager lm(FastConfig());
  EXPECT_TRUE(lm.Acquire(1, Page("a"), LockMode::kShared).status.ok());
  AcquireResult r = lm.Acquire(2, Page("a"), LockMode::kSIRead);
  EXPECT_TRUE(r.status.ok());
  EXPECT_TRUE(r.rw_conflicts.empty());  // S and SIREAD are both reads.
}

TEST(LockManagerTest, MultipleSIReadHoldersAllReported) {
  LockManager lm(FastConfig());
  ASSERT_TRUE(lm.Acquire(1, Page("a"), LockMode::kSIRead).status.ok());
  ASSERT_TRUE(lm.Acquire(2, Page("a"), LockMode::kSIRead).status.ok());
  AcquireResult r = lm.Acquire(3, Page("a"), LockMode::kExclusive);
  EXPECT_TRUE(r.status.ok());
  EXPECT_EQ(r.rw_conflicts.size(), 2u);
}

TEST(LockManagerTest, OwnSIReadNotReportedAsConflict) {
  LockManager lm(FastConfig());
  ASSERT_TRUE(lm.Acquire(1, Page("a"), LockMode::kSIRead).status.ok());
  AcquireResult r = lm.Acquire(1, Page("a"), LockMode::kExclusive);
  EXPECT_TRUE(r.status.ok());
  EXPECT_TRUE(r.rw_conflicts.empty());
}

TEST(LockManagerTest, UpgradeDropsOwnSIReadWhenConfigured) {
  // §3.7.3: EXCLUSIVE replaces the transaction's own SIREAD.
  LockManager::Config cfg = FastConfig();
  cfg.upgrade_siread_locks = true;
  LockManager lm(cfg);
  ASSERT_TRUE(lm.Acquire(1, Page("a"), LockMode::kSIRead).status.ok());
  ASSERT_TRUE(lm.Acquire(1, Page("a"), LockMode::kExclusive).status.ok());
  EXPECT_FALSE(lm.Holds(1, Page("a"), LockMode::kSIRead));
  EXPECT_TRUE(lm.Holds(1, Page("a"), LockMode::kExclusive));
  EXPECT_FALSE(lm.HoldsAnySIRead(1));
}

TEST(LockManagerTest, UpgradeKeepsSIReadWhenDisabled) {
  LockManager::Config cfg = FastConfig();
  cfg.upgrade_siread_locks = false;
  LockManager lm(cfg);
  ASSERT_TRUE(lm.Acquire(1, Page("a"), LockMode::kSIRead).status.ok());
  ASSERT_TRUE(lm.Acquire(1, Page("a"), LockMode::kExclusive).status.ok());
  EXPECT_TRUE(lm.Holds(1, Page("a"), LockMode::kSIRead));
  EXPECT_TRUE(lm.Holds(1, Page("a"), LockMode::kExclusive));
}

TEST(LockManagerTest, SharedUpgradesToExclusiveWhenAlone) {
  LockManager lm(FastConfig());
  ASSERT_TRUE(lm.Acquire(1, Row("a"), LockMode::kShared).status.ok());
  EXPECT_TRUE(lm.Acquire(1, Row("a"), LockMode::kExclusive).status.ok());
  EXPECT_TRUE(lm.Holds(1, Row("a"), LockMode::kExclusive));
}

TEST(LockManagerTest, ReacquireHeldModeIsNoOp) {
  LockManager lm(FastConfig());
  ASSERT_TRUE(lm.Acquire(1, Row("a"), LockMode::kExclusive).status.ok());
  EXPECT_TRUE(lm.Acquire(1, Row("a"), LockMode::kExclusive).status.ok());
  EXPECT_EQ(lm.GrantCount(), 1u);
}

TEST(LockManagerTest, ReleaseAllFreesEveryKey) {
  LockManager lm(FastConfig());
  ASSERT_TRUE(lm.Acquire(1, Row("a"), LockMode::kExclusive).status.ok());
  ASSERT_TRUE(lm.Acquire(1, Row("b"), LockMode::kShared).status.ok());
  ASSERT_TRUE(lm.Acquire(1, Gap("c"), LockMode::kSIRead).status.ok());
  EXPECT_EQ(lm.GrantCount(), 3u);
  lm.ReleaseAll(1);
  EXPECT_EQ(lm.GrantCount(), 0u);
  EXPECT_FALSE(lm.Holds(1, Row("a"), LockMode::kExclusive));
  // Freed for others immediately.
  EXPECT_TRUE(lm.Acquire(2, Row("a"), LockMode::kExclusive).status.ok());
}

TEST(LockManagerTest, ReleaseAllExceptSIReadKeepsOnlySIRead) {
  // Fig 3.2 line 9: commit drops S/X but retains SIREAD for suspension.
  LockManager lm(FastConfig());
  ASSERT_TRUE(lm.Acquire(1, Row("a"), LockMode::kExclusive).status.ok());
  ASSERT_TRUE(lm.Acquire(1, Row("b"), LockMode::kSIRead).status.ok());
  lm.ReleaseAllExceptSIRead(1);
  EXPECT_FALSE(lm.Holds(1, Row("a"), LockMode::kExclusive));
  EXPECT_TRUE(lm.Holds(1, Row("b"), LockMode::kSIRead));
  EXPECT_TRUE(lm.HoldsAnySIRead(1));
  lm.ReleaseAll(1);  // Suspended-cleanup path.
  EXPECT_FALSE(lm.HoldsAnySIRead(1));
}

TEST(LockManagerTest, RetainedSIReadStillReportsConflicts) {
  // A suspended (committed) transaction's SIREAD must keep producing
  // rw-evidence for later writers (§3.3).
  LockManager lm(FastConfig());
  ASSERT_TRUE(lm.Acquire(1, Page("a"), LockMode::kSIRead).status.ok());
  lm.ReleaseAllExceptSIRead(1);
  AcquireResult r = lm.Acquire(2, Page("a"), LockMode::kExclusive);
  EXPECT_TRUE(r.status.ok());
  ASSERT_EQ(r.rw_conflicts.size(), 1u);
  EXPECT_EQ(r.rw_conflicts[0], 1u);
}

TEST(LockManagerTest, GapAndRowLocksOnSameKeyDoNotInteract) {
  // §2.5.2: a gap lock on x is logically a different key than x itself.
  LockManager lm(FastConfig());
  ASSERT_TRUE(lm.Acquire(1, Row("a"), LockMode::kExclusive).status.ok());
  EXPECT_TRUE(lm.Acquire(2, Gap("a"), LockMode::kExclusive).status.ok());
  EXPECT_TRUE(lm.Acquire(3, Gap("a"), LockMode::kSIRead).status.ok());
}

TEST(LockManagerTest, InsertIntentionGapLocksDoNotBlockEachOther) {
  // §2.5.2 InnoDB gap semantics: two inserts into the same gap both take
  // EXCLUSIVE gap locks and must not serialize against each other.
  LockManager lm(FastConfig());
  ASSERT_TRUE(lm.Acquire(1, Gap("m"), LockMode::kExclusive).status.ok());
  const auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(lm.Acquire(2, Gap("m"), LockMode::kExclusive).status.ok());
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(50));
}

TEST(LockManagerTest, SharedGapLockBlocksInsertIntention) {
  // An S2PL scanner's shared gap lock must block concurrent inserts into
  // the protected gap (phantom prevention).
  LockManager lm(FastConfig());
  ASSERT_TRUE(lm.Acquire(1, Gap("m"), LockMode::kShared).status.ok());
  Status s = lm.Acquire(2, Gap("m"), LockMode::kExclusive).status;
  EXPECT_TRUE(s.IsTimedOut()) << s.ToString();
  // And symmetrically: a scanner blocks behind a pending insert.
  LockManager lm2(FastConfig());
  ASSERT_TRUE(lm2.Acquire(1, Gap("m"), LockMode::kExclusive).status.ok());
  Status s2 = lm2.Acquire(2, Gap("m"), LockMode::kShared).status;
  EXPECT_TRUE(s2.IsTimedOut()) << s2.ToString();
}

TEST(LockManagerTest, SIReadGapLockDetectsInsertWithoutBlocking) {
  // A gap SIREAD neither blocks nor is blocked by an insert's gap
  // EXCLUSIVE — but the coexistence is reported both ways (Figs 3.6/3.7).
  // (Row-granularity SSI scans now publish one range SIREAD instead; the
  // lock-table API keeps kSIRead for every key kind.)
  LockManager lm(FastConfig());
  ASSERT_TRUE(lm.Acquire(1, Gap("m"), LockMode::kSIRead).status.ok());
  AcquireResult insert = lm.Acquire(2, Gap("m"), LockMode::kExclusive);
  EXPECT_TRUE(insert.status.ok());
  ASSERT_EQ(insert.rw_conflicts.size(), 1u);
  EXPECT_EQ(insert.rw_conflicts[0], 1u);

  AcquireResult scan = lm.Acquire(3, Gap("m"), LockMode::kSIRead);
  EXPECT_TRUE(scan.status.ok());
  ASSERT_EQ(scan.rw_conflicts.size(), 1u);
  EXPECT_EQ(scan.rw_conflicts[0], 2u);
}

TEST(LockManagerTest, SupremumGapBehavesLikeGap) {
  LockManager lm(FastConfig());
  const LockKey sup{1, LockKind::kSupremum, ""};
  ASSERT_TRUE(lm.Acquire(1, sup, LockMode::kExclusive).status.ok());
  EXPECT_TRUE(lm.Acquire(2, sup, LockMode::kExclusive).status.ok());
  Status s = lm.Acquire(3, sup, LockMode::kShared).status;
  EXPECT_TRUE(s.IsTimedOut());
}

TEST(LockManagerTest, TablesPartitionTheKeySpace) {
  LockManager lm(FastConfig());
  ASSERT_TRUE(lm.Acquire(1, Row("a", 1), LockMode::kExclusive).status.ok());
  EXPECT_TRUE(lm.Acquire(2, Row("a", 2), LockMode::kExclusive).status.ok());
}

TEST(LockManagerTest, ImmediateDeadlockDetection) {
  LockManager lm(FastConfig());
  ASSERT_TRUE(lm.Acquire(1, Row("a"), LockMode::kExclusive).status.ok());
  ASSERT_TRUE(lm.Acquire(2, Row("b"), LockMode::kExclusive).status.ok());

  // T1 blocks on b; T2 then requests a, closing the cycle: T2 must get an
  // immediate kDeadlock while T1 eventually acquires b.
  auto f1 = std::async(std::launch::async, [&] {
    return lm.Acquire(1, Row("b"), LockMode::kExclusive).status;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  Status s2 = lm.Acquire(2, Row("a"), LockMode::kExclusive).status;
  EXPECT_TRUE(s2.IsDeadlock()) << s2.ToString();
  lm.ReleaseAll(2);
  Status s1 = f1.get();
  EXPECT_TRUE(s1.ok()) << s1.ToString();
  EXPECT_GE(lm.deadlocks_detected(), 1u);
}

TEST(LockManagerTest, PeriodicDeadlockDetectorBreaksCycle) {
  LockManager::Config cfg;
  cfg.deadlock_policy = DeadlockPolicy::kPeriodic;
  cfg.deadlock_scan_interval_ms = 20;
  cfg.lock_timeout_ms = 3000;
  LockManager lm(cfg);
  ASSERT_TRUE(lm.Acquire(1, Row("a"), LockMode::kExclusive).status.ok());
  ASSERT_TRUE(lm.Acquire(2, Row("b"), LockMode::kExclusive).status.ok());

  // Each client aborts (releases everything) when chosen as the victim, as
  // a real transaction would, unblocking the survivor.
  auto run = [&lm](TxnId id, const LockKey& second) {
    Status s = lm.Acquire(id, second, LockMode::kExclusive).status;
    if (!s.ok()) lm.ReleaseAll(id);
    return s;
  };
  auto f1 = std::async(std::launch::async, run, 1, Row("b"));
  auto f2 = std::async(std::launch::async, run, 2, Row("a"));
  Status s1 = f1.get();
  Status s2 = f2.get();
  // Exactly one of the two is the victim; the other acquires and finishes.
  EXPECT_NE(s1.IsDeadlock(), s2.IsDeadlock())
      << "s1=" << s1.ToString() << " s2=" << s2.ToString();
  EXPECT_TRUE(s1.ok() || s2.ok());
  EXPECT_GE(lm.deadlocks_detected(), 1u);
  lm.ReleaseAll(1);
  lm.ReleaseAll(2);
}

TEST(LockManagerTest, WaitCounterIncrements) {
  LockManager lm(FastConfig());
  ASSERT_TRUE(lm.Acquire(1, Row("a"), LockMode::kExclusive).status.ok());
  std::thread t([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    lm.ReleaseAll(1);
  });
  EXPECT_TRUE(lm.Acquire(2, Row("a"), LockMode::kExclusive).status.ok());
  t.join();
  EXPECT_GE(lm.waits(), 1u);
}

TEST(LockManagerTest, ManyTransactionsStress) {
  // Hammer a few keys from many threads; the invariant is no lost grants
  // and an empty table at the end.
  LockManager::Config cfg;
  cfg.lock_timeout_ms = 5000;
  LockManager lm(cfg);
  constexpr int kThreads = 8;
  constexpr int kIters = 200;
  std::atomic<int> deadlocks{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const TxnId id = static_cast<TxnId>(t * kIters + i + 1);
        const std::string k1 = std::string(1, 'a' + (i % 3));
        const std::string k2 = std::string(1, 'a' + ((i + t) % 3));
        Status s = lm.Acquire(id, Row(k1), LockMode::kExclusive).status;
        if (s.ok() && k2 != k1) {
          s = lm.Acquire(id, Row(k2), LockMode::kExclusive).status;
        }
        if (s.IsDeadlock()) deadlocks.fetch_add(1);
        lm.ReleaseAll(id);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(lm.GrantCount(), 0u);
}

/// Runs `reader` and `writer` against fresh state `kRounds` times, the
/// two released at once each round, and returns how many rounds neither
/// side saw the other.
template <typename Reset, typename Reader, typename Writer>
int RaceRounds(int rounds, Reset reset, Reader reader, Writer writer) {
  std::atomic<int> ready{0};
  std::atomic<int> round{-1};
  std::vector<char> reader_saw(rounds), writer_saw(rounds);
  auto wait_round = [&round](int r) {
    while (round.load(std::memory_order_acquire) != r) {
      std::this_thread::yield();
    }
  };
  std::thread rt([&] {
    for (int r = 0; r < rounds; ++r) {
      wait_round(r);
      reader_saw[r] = reader(r);
      ready.fetch_add(1);
    }
  });
  std::thread wt([&] {
    for (int r = 0; r < rounds; ++r) {
      wait_round(r);
      writer_saw[r] = writer(r);
      ready.fetch_add(1);
    }
  });
  int missed = 0;
  for (int r = 0; r < rounds; ++r) {
    round.store(r, std::memory_order_release);
    while (ready.load() != 2 * (r + 1)) std::this_thread::yield();
    reset(r);
  }
  rt.join();
  wt.join();
  for (int r = 0; r < rounds; ++r) {
    if (!reader_saw[r] && !writer_saw[r]) ++missed;
  }
  return missed;
}

TEST(ChainLockTest, PointSIReadAndOwnerClaimNeverMissEachOther) {
  // §3.2 on one latch: a reader's SIREAD-plus-owner-check and a writer's
  // claim-plus-SIREAD-collection are critical sections on the same chain
  // latch, so in every round at least one side reports the other.
  constexpr int kRounds = 2000;
  VersionChain chain;
  RowLockDelta delta;
  const int missed = RaceRounds(
      kRounds,
      [&](int r) {
        chain.ReleaseHolder(static_cast<TxnId>(2 * r + 1), &delta);
        chain.ReleaseOwner(static_cast<TxnId>(2 * r + 2), &delta);
      },
      [&](int r) {
        RowLockDelta d;
        const ReadResult rr =
            chain.LockedRead(static_cast<TxnId>(2 * r + 1),
                             RowLockMode::kSIRead, kMaxTimestamp, nullptr,
                             nullptr, &d);
        return rr.writer != 0;
      },
      [&](int r) {
        RowLockDelta d;
        RowLockWait wait;
        TxnIdBuf readers;
        bool newly = false;
        EXPECT_TRUE(chain.ClaimOwner(static_cast<TxnId>(2 * r + 2), true,
                                     &readers, &wait, &d, &newly));
        return !readers.empty();
      });
  EXPECT_EQ(missed, 0);
  EXPECT_EQ(chain.owner(), 0u);
}

TEST(ChainLockTest, RangeSIReadAndOwnerClaimNeverMissEachOther) {
  // The range argument (lock_manager.h): a scanner publishes its range
  // and then probes the row's chain for an owner (R1, R3); a writer claims
  // the chain and then stabs the ranges (W1, W3). In every round at least
  // one side must report the other.
  constexpr int kRounds = 2000;
  LockManager lm(FastConfig());
  VersionChain chain;
  RowLockDelta delta;
  const std::string lo = EncodeU64Key(10);
  const std::string hi = EncodeU64Key(20);
  const std::string key = EncodeU64Key(15);
  const int missed = RaceRounds(
      kRounds,
      [&](int r) {
        chain.ReleaseOwner(static_cast<TxnId>(2 * r + 2), &delta);
        lm.ReleaseAll(static_cast<TxnId>(2 * r + 1));
      },
      [&](int r) {
        const TxnId id = static_cast<TxnId>(2 * r + 1);
        lm.siread_index()->PublishRange(id, 1, lo, hi);
        RowLockDelta d;
        const ReadResult rr = chain.LockedRead(
            id, RowLockMode::kProbe, kMaxTimestamp, nullptr, nullptr, &d);
        return rr.writer != 0;
      },
      [&](int r) {
        const TxnId id = static_cast<TxnId>(2 * r + 2);
        RowLockDelta d;
        RowLockWait wait;
        bool newly = false;
        EXPECT_TRUE(chain.ClaimOwner(id, true, nullptr, &wait, &d, &newly));
        RwConflicts readers;
        lm.siread_index()->CollectRangeHolders(id, 1, key, &readers);
        return !readers.empty();
      });
  EXPECT_EQ(missed, 0);
  EXPECT_EQ(lm.GrantCount(), 0u);
}

TEST(ChainLockTest, HolderSetGrowsShrinksAndCountsExactly) {
  VersionChain chain;
  RowLockDelta delta;
  for (TxnId t = 1; t <= 20; ++t) {
    const ReadResult rr = chain.LockedRead(t, RowLockMode::kSIRead, 1,
                                           nullptr, nullptr, &delta);
    EXPECT_TRUE(rr.lock_added);
  }
  // Re-reads do not add a second holder.
  EXPECT_FALSE(chain.LockedRead(7, RowLockMode::kSIRead, 1, nullptr, nullptr,
                                &delta)
                   .lock_added);
  EXPECT_EQ(delta.sireads, 20);
  EXPECT_EQ(delta.siread_keys, 1);
  for (TxnId t = 1; t <= 20; ++t) {
    EXPECT_TRUE(chain.HoldsSIRead(t));
    chain.ReleaseHolder(t, &delta);
    EXPECT_FALSE(chain.HoldsSIRead(t));
  }
  EXPECT_EQ(delta.sireads, 0);
  EXPECT_EQ(delta.siread_keys, 0);
}

// ---------------------------------------------------------------------------
// Row locks on version chains, through the DB.
// ---------------------------------------------------------------------------

class RowLockTest : public ::testing::Test {
 protected:
  void Open(const DBOptions& opts) {
    ASSERT_TRUE(DB::Open(opts, &db_).ok());
    ASSERT_TRUE(db_->CreateTable("t", &table_).ok());
    auto setup = db_->Begin({IsolationLevel::kSnapshot});
    for (const char* k : {"a", "b", "c", "d"}) {
      ASSERT_TRUE(setup->Insert(table_, k, "0").ok());
    }
    ASSERT_TRUE(setup->Commit().ok());
  }
  void SetUp() override {
    DBOptions opts;
    opts.lock_timeout_ms = 5000;
    Open(opts);
  }
  std::unique_ptr<Transaction> Begin(IsolationLevel iso) {
    return db_->Begin({iso});
  }
  uint64_t Metric(std::string_view name) {
    return ::ssidb::Metric(db_.get(), name);
  }
  VersionChain* Chain(const std::string& key) {
    return db_->table(table_)->Find(key);
  }
  bool HasInEdge(const Transaction& t) {
    TxnState* state =
        db_->txn_manager()->FindLatched(t.id(), /*floor=*/0);
    if (state == nullptr) return false;
    std::lock_guard<std::mutex> latch(state->ssi_mu, std::adopt_lock);
    return state->in_ref.IsSet() || state->in_conflict_flag;
  }

  std::unique_ptr<DB> db_;
  TableId table_ = 0;
};

TEST_F(RowLockTest, S2PLReaderBlocksSIWriterAndTheReverse) {
  std::string v;
  // A shared lock on the chain holds an SI writer off until commit.
  auto reader = Begin(IsolationLevel::kSerializable2PL);
  ASSERT_TRUE(reader->Get(table_, "a", &v).ok());
  auto writer = Begin(IsolationLevel::kSnapshot);
  auto put = std::async(std::launch::async, [&] {
    return writer->Put(table_, "a", "w");
  });
  EXPECT_EQ(put.wait_for(std::chrono::milliseconds(50)),
            std::future_status::timeout);
  ASSERT_TRUE(reader->Commit().ok());
  ASSERT_TRUE(put.get().ok());

  // And the owner holds a later S2PL reader off until it commits; the
  // reader then reads the committed value.
  auto late_reader = Begin(IsolationLevel::kSerializable2PL);
  auto get = std::async(std::launch::async, [&] {
    return late_reader->Get(table_, "a", &v);
  });
  EXPECT_EQ(get.wait_for(std::chrono::milliseconds(50)),
            std::future_status::timeout);
  ASSERT_TRUE(writer->Commit().ok());
  ASSERT_TRUE(get.get().ok());
  EXPECT_EQ(v, "w");
  ASSERT_TRUE(late_reader->Commit().ok());
  EXPECT_GE(Metric("lock.waits"), 2u);
  EXPECT_EQ(Metric("lock.grants"), 0u);
}

TEST_F(RowLockTest, SIWriterWaitsForOwnerThenFcwAbortsNamingIt) {
  std::string v;
  auto first = Begin(IsolationLevel::kSnapshot);
  ASSERT_TRUE(first->Put(table_, "a", "1").ok());
  auto second = Begin(IsolationLevel::kSnapshot);
  ASSERT_TRUE(second->Get(table_, "b", &v).ok());  // Snapshot before commit.
  auto put = std::async(std::launch::async, [&] {
    return second->Put(table_, "a", "2");
  });
  EXPECT_EQ(put.wait_for(std::chrono::milliseconds(50)),
            std::future_status::timeout);
  ASSERT_TRUE(first->Commit().ok());
  const Status st = put.get();
  EXPECT_TRUE(st.IsUpdateConflict()) << st.ToString();
  EXPECT_EQ(second->abort_cause(), AbortReason::kFcwRow);
  // The FCW check names the committed writer.
  EXPECT_EQ(second->abort_conflict_txn(), first->id());
}

TEST_F(RowLockTest, SIWriterProceedsWhenOwnerAborts) {
  std::string v;
  auto first = Begin(IsolationLevel::kSnapshot);
  ASSERT_TRUE(first->Put(table_, "a", "1").ok());
  auto second = Begin(IsolationLevel::kSnapshot);
  ASSERT_TRUE(second->Get(table_, "b", &v).ok());
  auto put = std::async(std::launch::async, [&] {
    return second->Put(table_, "a", "2");
  });
  EXPECT_EQ(put.wait_for(std::chrono::milliseconds(50)),
            std::future_status::timeout);
  ASSERT_TRUE(first->Abort().ok());
  ASSERT_TRUE(put.get().ok());
  ASSERT_TRUE(second->Commit().ok());
  auto check = Begin(IsolationLevel::kSnapshot);
  ASSERT_TRUE(check->Get(table_, "a", &v).ok());
  EXPECT_EQ(v, "2");
}

TEST_F(RowLockTest, ImmediateDetectionBreaksTwoWriterCycle) {
  auto t1 = Begin(IsolationLevel::kSnapshot);
  auto t2 = Begin(IsolationLevel::kSnapshot);
  ASSERT_TRUE(t1->Put(table_, "a", "1").ok());
  ASSERT_TRUE(t2->Put(table_, "b", "2").ok());
  auto blocked = std::async(std::launch::async, [&] {
    return t1->Put(table_, "b", "1");
  });
  EXPECT_EQ(blocked.wait_for(std::chrono::milliseconds(50)),
            std::future_status::timeout);
  // Closing the cycle fails the requester at once.
  const Status st = t2->Put(table_, "a", "2");
  EXPECT_TRUE(st.IsDeadlock()) << st.ToString();
  EXPECT_EQ(t2->abort_cause(), AbortReason::kDeadlock);
  ASSERT_TRUE(blocked.get().ok());
  ASSERT_TRUE(t1->Commit().ok());
  EXPECT_GE(Metric("lock.deadlocks"), 1u);
}

TEST_F(RowLockTest, PeriodicDetectorBreaksTwoWriterCycle) {
  DBOptions opts;
  opts.deadlock_policy = DeadlockPolicy::kPeriodic;
  opts.deadlock_scan_interval_ms = 20;
  opts.lock_timeout_ms = 10000;
  db_.reset();
  Open(opts);
  auto t1 = Begin(IsolationLevel::kSnapshot);
  auto t2 = Begin(IsolationLevel::kSnapshot);
  ASSERT_TRUE(t1->Put(table_, "a", "1").ok());
  ASSERT_TRUE(t2->Put(table_, "b", "2").ok());
  auto f1 = std::async(std::launch::async, [&] {
    return t1->Put(table_, "b", "1");
  });
  auto f2 = std::async(std::launch::async, [&] {
    return t2->Put(table_, "a", "2");
  });
  const Status s1 = f1.get();
  const Status s2 = f2.get();
  // Exactly one victim (the younger); the survivor acquires.
  EXPECT_NE(s1.IsDeadlock(), s2.IsDeadlock())
      << "s1=" << s1.ToString() << " s2=" << s2.ToString();
  EXPECT_TRUE(s2.IsDeadlock());
  EXPECT_TRUE(s1.ok());
  ASSERT_TRUE(t1->Commit().ok());
  EXPECT_GE(Metric("lock.deadlocks"), 1u);
}

TEST_F(RowLockTest, LockTimeoutIsHonoured) {
  DBOptions opts;
  opts.lock_timeout_ms = 100;
  db_.reset();
  Open(opts);
  auto owner = Begin(IsolationLevel::kSnapshot);
  ASSERT_TRUE(owner->Put(table_, "a", "1").ok());
  auto waiter = Begin(IsolationLevel::kSnapshot);
  const auto start = std::chrono::steady_clock::now();
  const Status st = waiter->Put(table_, "a", "2");
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_TRUE(st.IsTimedOut()) << st.ToString();
  EXPECT_EQ(waiter->abort_cause(), AbortReason::kLockTimeout);
  EXPECT_GE(elapsed, std::chrono::milliseconds(100));
  EXPECT_LT(elapsed, std::chrono::milliseconds(5000));
  ASSERT_TRUE(owner->Commit().ok());
}

TEST_F(RowLockTest, AbsentKeyReaderFoundByInsertAndLaterUpdate) {
  // An SSI read of a key without a chain lives in the index; the insert
  // that creates the chain carries it onto the chain, so both the insert
  // and a later update by a third concurrent transaction find the reader.
  std::string v;
  auto reader = Begin(IsolationLevel::kSerializableSSI);
  ASSERT_TRUE(reader->Get(table_, "x", &v).IsNotFound());
  auto inserter = Begin(IsolationLevel::kSerializableSSI);
  ASSERT_TRUE(inserter->Insert(table_, "x", "1").ok());
  EXPECT_TRUE(HasInEdge(*inserter));
  ASSERT_NE(Chain("x"), nullptr);
  EXPECT_TRUE(Chain("x")->HoldsSIRead(reader->id()));
  ASSERT_TRUE(inserter->Commit().ok());
  // A third transaction, concurrent with the still-active reader, updates
  // the key: the carried SIREAD is on the chain it claims.
  auto third = Begin(IsolationLevel::kSerializableSSI);
  ASSERT_TRUE(third->Put(table_, "x", "2").ok());
  EXPECT_TRUE(HasInEdge(*third));
  ASSERT_TRUE(third->Abort().ok());
  ASSERT_TRUE(reader->Commit().ok());
}

TEST_F(RowLockTest, ReadsAfterForeignWritesAreEvidence) {
  // Write skew whose reads come after the other side's write: only the
  // owner check inside the read step (Fig 3.4 line 3) sees the writers,
  // since neither write found a SIREAD to collect. SSI must refuse one.
  std::string v;
  auto t1 = Begin(IsolationLevel::kSerializableSSI);
  auto t2 = Begin(IsolationLevel::kSerializableSSI);
  ASSERT_TRUE(t1->Put(table_, "a", "1").ok());
  ASSERT_TRUE(t2->Put(table_, "b", "1").ok());
  const Status r1 = t1->Get(table_, "b", &v);
  const Status r2 = r1.ok() ? t2->Get(table_, "a", &v) : Status::OK();
  int committed = 0;
  if (r1.ok() && t1->Commit().ok()) ++committed;
  if (r2.ok() && t2->active() && t2->Commit().ok()) ++committed;
  EXPECT_LE(committed, 1);
}

TEST_F(RowLockTest, MixWithoutInsertsLeavesNoRowEntries) {
  // A sibench-style mix (point reads and increments of existing keys,
  // some transactions open at once, a long reader keeping SIREADs
  // retained): every row lock and point SIREAD lives on a chain, none in
  // the lock table or the SIREAD index's key stripes.
  std::string v;
  auto keeper = Begin(IsolationLevel::kSerializableSSI);
  ASSERT_TRUE(keeper->Get(table_, "d", &v).ok());
  Random rng(7);
  const char* keys[] = {"a", "b", "c", "d"};
  std::vector<std::unique_ptr<Transaction>> open;
  for (int i = 0; i < 200; ++i) {
    auto t = Begin(IsolationLevel::kSerializableSSI);
    Status st = t->Get(table_, keys[rng.Uniform(4)], &v);
    if (st.ok()) st = t->Get(table_, keys[rng.Uniform(4)], &v);
    // One writer per batch: open transactions on one thread must not wait
    // for each other.
    if (st.ok() && open.empty()) st = t->Put(table_, keys[rng.Uniform(4)], "v");
    if (st.ok()) open.push_back(std::move(t));
    if (open.size() == 4) {
      EXPECT_EQ(db_->lock_manager()->RowEntryCount(), 0u);
      EXPECT_EQ(db_->lock_manager()->siread_index()->PointEntryCount(), 0u);
      EXPECT_GT(Metric("siread.entries"), 0u);
      EXPECT_GT(Metric("lock.grants"), 0u);
      for (auto& o : open) o->Commit();
      open.clear();
    }
  }
  for (auto& o : open) o->Commit();
  EXPECT_EQ(db_->lock_manager()->RowEntryCount(), 0u);
  EXPECT_EQ(db_->lock_manager()->siread_index()->PointEntryCount(), 0u);
  ASSERT_TRUE(keeper->Commit().ok());
  // A writing pulse: a reader whose edge partner was still active when it
  // committed is freed, with its SIREADs, one writing commit later
  // (txn_manager.h, "TxnState lifetime").
  auto pulse = Begin(IsolationLevel::kSnapshot);
  ASSERT_TRUE(pulse->Put(table_, "a", "v").ok());
  ASSERT_TRUE(pulse->Commit().ok());
  EXPECT_EQ(Metric("lock.grants"), 0u);
  EXPECT_EQ(Metric("siread.entries"), 0u);
}

class RowLockOracleTest : public ::testing::TestWithParam<ConflictTracking> {};

TEST_P(RowLockOracleTest, FourKeyReaderWriterRaceIsSerializable) {
  // Readers and writers race on four keys from several threads, so every
  // read step meets owner claims in both orders; the MVSG oracle checks
  // every committed history.
  DBOptions opts;
  opts.record_history = true;
  opts.conflict_tracking = GetParam();
  opts.lock_timeout_ms = 5000;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(opts, &db).ok());
  TableId table = 0;
  ASSERT_TRUE(db->CreateTable("t", &table).ok());
  {
    auto seed = db->Begin({IsolationLevel::kSnapshot});
    for (uint64_t k = 0; k < 4; ++k) {
      ASSERT_TRUE(seed->Insert(table, EncodeU64Key(k), "0").ok());
    }
    ASSERT_TRUE(seed->Commit().ok());
  }
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int th = 0; th < kThreads; ++th) {
    threads.emplace_back([&, th] {
      Random rng(31 + th);
      for (int i = 0; i < 300; ++i) {
        auto txn = db->Begin({IsolationLevel::kSerializableSSI});
        std::string v;
        Status s = txn->Get(table, EncodeU64Key(rng.Uniform(4)), &v);
        if (s.ok()) s = txn->Get(table, EncodeU64Key(rng.Uniform(4)), &v);
        if (s.ok() && rng.Uniform(2) == 0) {
          s = txn->Put(table, EncodeU64Key(rng.Uniform(4)), std::to_string(i));
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
  EXPECT_GT(result.committed_txns, 200u);
}

INSTANTIATE_TEST_SUITE_P(
    TrackingModes, RowLockOracleTest,
    ::testing::Values(ConflictTracking::kFlags, ConflictTracking::kReferences),
    [](const ::testing::TestParamInfo<ConflictTracking>& info) {
      return info.param == ConflictTracking::kFlags ? "Flags" : "References";
    });

}  // namespace
}  // namespace ssidb
