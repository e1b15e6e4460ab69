// Unit tests for the lock manager: mode compatibility, the non-blocking
// SIREAD mode and its rw-conflict evidence (both acquisition orders, §3.2),
// deadlock detection (immediate and periodic), timeouts, the SIREAD
// retention/cleanup lifecycle hooks, and the publish-then-probe race of
// range SIREADs against a writer's grant.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "src/common/encoding.h"
#include "src/lock/lock_manager.h"

namespace ssidb {
namespace {

LockKey Row(const std::string& key, TableId table = 1) {
  return LockKey{table, LockKind::kRow, key};
}

LockKey Gap(const std::string& key, TableId table = 1) {
  return LockKey{table, LockKind::kGap, key};
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
  ASSERT_TRUE(lm.Acquire(1, Row("a"), LockMode::kExclusive).status.ok());
  const auto start = std::chrono::steady_clock::now();
  AcquireResult r = lm.Acquire(2, Row("a"), LockMode::kSIRead);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_TRUE(r.status.ok());
  EXPECT_LT(elapsed, std::chrono::milliseconds(50));
  // Fig 3.4 line 3: the SIREAD acquisition reports the exclusive holder.
  ASSERT_EQ(r.rw_conflicts.size(), 1u);
  EXPECT_EQ(r.rw_conflicts[0], 1u);
}

TEST(LockManagerTest, ExclusiveDoesNotBlockOnSIRead) {
  LockManager lm(FastConfig());
  ASSERT_TRUE(lm.Acquire(1, Row("a"), LockMode::kSIRead).status.ok());
  AcquireResult r = lm.Acquire(2, Row("a"), LockMode::kExclusive);
  EXPECT_TRUE(r.status.ok());
  // Fig 3.5 line 4: the exclusive acquisition reports SIREAD holders.
  ASSERT_EQ(r.rw_conflicts.size(), 1u);
  EXPECT_EQ(r.rw_conflicts[0], 1u);
}

TEST(LockManagerTest, SIReadCoexistsWithShared) {
  LockManager lm(FastConfig());
  EXPECT_TRUE(lm.Acquire(1, Row("a"), LockMode::kShared).status.ok());
  AcquireResult r = lm.Acquire(2, Row("a"), LockMode::kSIRead);
  EXPECT_TRUE(r.status.ok());
  EXPECT_TRUE(r.rw_conflicts.empty());  // S and SIREAD are both reads.
}

TEST(LockManagerTest, MultipleSIReadHoldersAllReported) {
  LockManager lm(FastConfig());
  ASSERT_TRUE(lm.Acquire(1, Row("a"), LockMode::kSIRead).status.ok());
  ASSERT_TRUE(lm.Acquire(2, Row("a"), LockMode::kSIRead).status.ok());
  AcquireResult r = lm.Acquire(3, Row("a"), LockMode::kExclusive);
  EXPECT_TRUE(r.status.ok());
  EXPECT_EQ(r.rw_conflicts.size(), 2u);
}

TEST(LockManagerTest, OwnSIReadNotReportedAsConflict) {
  LockManager lm(FastConfig());
  ASSERT_TRUE(lm.Acquire(1, Row("a"), LockMode::kSIRead).status.ok());
  AcquireResult r = lm.Acquire(1, Row("a"), LockMode::kExclusive);
  EXPECT_TRUE(r.status.ok());
  EXPECT_TRUE(r.rw_conflicts.empty());
}

TEST(LockManagerTest, UpgradeDropsOwnSIReadWhenConfigured) {
  // §3.7.3: EXCLUSIVE replaces the transaction's own SIREAD.
  LockManager::Config cfg = FastConfig();
  cfg.upgrade_siread_locks = true;
  LockManager lm(cfg);
  ASSERT_TRUE(lm.Acquire(1, Row("a"), LockMode::kSIRead).status.ok());
  ASSERT_TRUE(lm.Acquire(1, Row("a"), LockMode::kExclusive).status.ok());
  EXPECT_FALSE(lm.Holds(1, Row("a"), LockMode::kSIRead));
  EXPECT_TRUE(lm.Holds(1, Row("a"), LockMode::kExclusive));
  EXPECT_FALSE(lm.HoldsAnySIRead(1));
}

TEST(LockManagerTest, UpgradeKeepsSIReadWhenDisabled) {
  LockManager::Config cfg = FastConfig();
  cfg.upgrade_siread_locks = false;
  LockManager lm(cfg);
  ASSERT_TRUE(lm.Acquire(1, Row("a"), LockMode::kSIRead).status.ok());
  ASSERT_TRUE(lm.Acquire(1, Row("a"), LockMode::kExclusive).status.ok());
  EXPECT_TRUE(lm.Holds(1, Row("a"), LockMode::kSIRead));
  EXPECT_TRUE(lm.Holds(1, Row("a"), LockMode::kExclusive));
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
  ASSERT_TRUE(lm.Acquire(1, Row("a"), LockMode::kSIRead).status.ok());
  lm.ReleaseAllExceptSIRead(1);
  AcquireResult r = lm.Acquire(2, Row("a"), LockMode::kExclusive);
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

TEST(LockManagerTest, RangeSIReadAndExclusiveGrantNeverMissEachOther) {
  // The §3.2 argument for ranges (lock_manager.h): a scanner publishes its
  // range and then probes the row's EXCLUSIVE holders; a writer grants
  // EXCLUSIVE on the row and then stabs the ranges. Run both at once many
  // times: in every round at least one side must report the other.
  LockManager lm(FastConfig());
  constexpr int kRounds = 2000;
  const std::string lo = EncodeU64Key(10);
  const std::string hi = EncodeU64Key(20);
  const std::string key = EncodeU64Key(15);
  std::atomic<int> ready{0};
  std::atomic<int> round{-1};
  std::vector<char> reader_saw(kRounds), writer_saw(kRounds);
  auto wait_round = [&round](int r) {
    while (round.load(std::memory_order_acquire) != r) {
      std::this_thread::yield();
    }
  };
  std::thread reader([&] {
    for (int r = 0; r < kRounds; ++r) {
      wait_round(r);
      const TxnId id = static_cast<TxnId>(2 * r + 1);
      lm.siread_index()->PublishRange(id, 1, lo, hi);
      RwConflicts writers;
      lm.CollectExclusiveHolders(id, MakeLockKeyView(1, LockKind::kRow, key),
                                 &writers);
      reader_saw[r] = !writers.empty();
      ready.fetch_add(1);
    }
  });
  std::thread writer([&] {
    for (int r = 0; r < kRounds; ++r) {
      wait_round(r);
      const TxnId id = static_cast<TxnId>(2 * r + 2);
      EXPECT_TRUE(lm.Acquire(id, Row(key), LockMode::kExclusive).status.ok());
      RwConflicts readers;
      lm.siread_index()->CollectRangeHolders(id, 1, key, &readers);
      writer_saw[r] = !readers.empty();
      ready.fetch_add(1);
    }
  });
  for (int r = 0; r < kRounds; ++r) {
    round.store(r, std::memory_order_release);
    while (ready.load() != 2 * (r + 1)) std::this_thread::yield();
    lm.ReleaseAll(static_cast<TxnId>(2 * r + 1));
    lm.ReleaseAll(static_cast<TxnId>(2 * r + 2));
  }
  reader.join();
  writer.join();
  for (int r = 0; r < kRounds; ++r) {
    EXPECT_TRUE(reader_saw[r] || writer_saw[r]) << "round " << r;
  }
  EXPECT_EQ(lm.GrantCount(), 0u);
}

}  // namespace
}  // namespace ssidb
