// Direct unit tests for the transaction manager and the commit pipeline:
// lifecycle, timestamps, snapshot allocation (§4.5), suspension and eager
// cleanup (§3.3/§4.6.1), page-level first-committer-wins bookkeeping
// (§4.2), the commit-slot ring (wraparound, backpressure, watermark
// safety), and the sharded registry's min-active maintenance.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/lock/lock_manager.h"
#include "src/ssi/conflict_tracker.h"
#include "src/storage/catalog.h"
#include "src/txn/commit_ring.h"
#include "src/txn/executor.h"
#include "src/txn/log_manager.h"
#include "src/txn/txn_manager.h"

namespace ssidb {
namespace {

// Nothing re-drives the commit ring (the publish rule, commit_ring.h), so
// a lost wakeup would hang a waiter for good. Waits in these tests carry a
// hard deadline instead, so such a bug fails the test.
constexpr auto kDeadline = std::chrono::seconds(30);

// One-shot flag that a completion sets from whichever thread drives the
// covering advance. Set() notifies under the mutex, so the waiter cannot
// return (and destroy the latch) while the setter is still inside it.
struct Latch {
  std::mutex mu;
  std::condition_variable cv;
  bool set = false;
  void Set() {
    std::lock_guard<std::mutex> guard(mu);
    set = true;
    cv.notify_all();
  }
  bool Wait() {
    std::unique_lock<std::mutex> guard(mu);
    return cv.wait_for(guard, kDeadline, [&] { return set; });
  }
};

class TxnManagerTest : public ::testing::Test {
 protected:
  explicit TxnManagerTest(DBOptions opts = {})
      : options_(opts),
        log_(options_.log),
        locks_(LockManager::Config{}),
        mgr_(options_, &locks_, &log_) {}

  Status CommitNoCheck(TxnState* txn, TxnOutcome* out = nullptr) {
    return mgr_.Commit(txn, nullptr, {}, out);
  }

  /// Commit with a synthetic write, so the commit allocates a commit-ring
  /// timestamp and advances the watermark (read-only commits carry the
  /// watermark itself as their timestamp).
  Status CommitWithWrite(TxnState* txn, TxnOutcome* out = nullptr) {
    auto chain = std::make_unique<VersionChain>();
    bool replaced = false;
    Version* v = chain->InstallUncommitted(txn->id, "v", false, &replaced);
    txn->write_set.push_back(
        TxnState::WriteRecord{0, "k", chain.get(), v, nullptr});
    chains_.push_back(std::move(chain));
    return CommitNoCheck(txn, out);
  }

  /// Commit through CommitAsync and report the state's final status, read
  /// inside `done` — the state is retired right after it. The fixture's
  /// log does not flush on commit, so `done` has run on return.
  Status CommitReadingStatus(TxnState* txn,
                             const TxnManager::CommitCheck& check,
                             TxnStatus* final_status) {
    Status verdict;
    mgr_.CommitAsync(txn, check, {}, [&, txn](Status st) {
      verdict = st;
      *final_status = txn->status.load();
    });
    return verdict;
  }

  /// Commit a throwaway writer: advances the stable watermark by one.
  void AdvanceWatermark() {
    auto t = mgr_.Begin(IsolationLevel::kSnapshot);
    mgr_.EnsureSnapshot(t);
    ASSERT_TRUE(CommitWithWrite(t).ok());
  }

  // Declared first: the manager prunes the chains its commits wrote, so
  // they must outlive it.
  std::vector<std::unique_ptr<VersionChain>> chains_;
  DBOptions options_;
  LogManager log_;
  LockManager locks_;
  TxnManager mgr_;
};

TEST_F(TxnManagerTest, BeginAssignsUniqueIds) {
  auto t1 = mgr_.Begin(IsolationLevel::kSerializableSSI);
  auto t2 = mgr_.Begin(IsolationLevel::kSerializableSSI);
  EXPECT_NE(t1->id, t2->id);
  EXPECT_EQ(mgr_.active_count(), 2u);
  mgr_.Abort(t1);
  mgr_.Abort(t2);
  EXPECT_EQ(mgr_.active_count(), 0u);
}

TEST_F(TxnManagerTest, LateSnapshotStartsUnassigned) {
  // §4.5: SI/SSI transactions defer their snapshot to the first statement.
  auto t = mgr_.Begin(IsolationLevel::kSerializableSSI);
  EXPECT_EQ(t->read_ts.load(), 0u);
  mgr_.EnsureSnapshot(t);
  EXPECT_GT(t->read_ts.load(), 0u);
  const Timestamp first = t->read_ts.load();
  mgr_.EnsureSnapshot(t);  // Idempotent.
  EXPECT_EQ(t->read_ts.load(), first);
  mgr_.Abort(t);
}

TEST_F(TxnManagerTest, S2PLGetsSnapshotImmediately) {
  auto t = mgr_.Begin(IsolationLevel::kSerializable2PL);
  EXPECT_GT(t->read_ts.load(), 0u);
  mgr_.Abort(t);
}

TEST_F(TxnManagerTest, WritingCommitsGetMonotonicTimestamps) {
  TxnOutcome o1, o2;
  auto t1 = mgr_.Begin(IsolationLevel::kSnapshot);
  mgr_.EnsureSnapshot(t1);
  ASSERT_TRUE(CommitWithWrite(t1, &o1).ok());
  auto t2 = mgr_.Begin(IsolationLevel::kSnapshot);
  mgr_.EnsureSnapshot(t2);
  ASSERT_TRUE(CommitWithWrite(t2, &o2).ok());
  EXPECT_GT(o1.commit_ts, 0u);
  EXPECT_GT(o2.commit_ts, o1.commit_ts);
  // Acknowledged commits are covered by the watermark.
  EXPECT_GE(mgr_.stable_ts(), o2.commit_ts);
}

TEST_F(TxnManagerTest, ReadOnlyCommitsCarryTheWatermark) {
  // A read-only commit publishes nothing: its commit timestamp is the
  // stable watermark — the snapshot boundary it read at — and it never
  // enters the commit ring.
  AdvanceWatermark();
  const Timestamp wm = mgr_.stable_ts();
  auto t = mgr_.Begin(IsolationLevel::kSnapshot);
  mgr_.EnsureSnapshot(t);
  TxnOutcome out;
  ASSERT_TRUE(CommitNoCheck(t, &out).ok());
  EXPECT_EQ(out.commit_ts, wm);
  EXPECT_EQ(mgr_.stable_ts(), wm);  // Watermark unmoved.
}

TEST_F(TxnManagerTest, CommitCheckFailureAborts) {
  auto t = mgr_.Begin(IsolationLevel::kSerializableSSI);
  mgr_.EnsureSnapshot(t);
  // The check is only consulted for transactions with recorded conflict
  // state (certification triage, txn_manager.h); give this one a pivot's
  // shape so the failing verdict actually runs.
  t->in_conflict_flag = true;
  t->out_conflict_flag = true;
  TxnStatus final_status = TxnStatus::kActive;
  Status st = CommitReadingStatus(
      t, [](TxnState*) { return Status::Unsafe("nope"); }, &final_status);
  EXPECT_TRUE(st.IsUnsafe());
  EXPECT_EQ(final_status, TxnStatus::kAborted);
  EXPECT_EQ(mgr_.active_count(), 0u);
  EXPECT_EQ(mgr_.abort_count(AbortReason::kExplicit), 1u);  // Unclassified.
  EXPECT_EQ(mgr_.commit_fastpath(), 0u);
}

TEST_F(TxnManagerTest, ConflictFreeSSICommitSkipsCertification) {
  // Certification triage class 2 (txn_manager.h): an SSI commit whose
  // conflict state is entirely clear under its own latch can be nobody's
  // partner, so the check hook is never consulted — even one that would
  // refuse the commit.
  auto t = mgr_.Begin(IsolationLevel::kSerializableSSI);
  mgr_.EnsureSnapshot(t);
  bool check_ran = false;
  TxnStatus final_status = TxnStatus::kActive;
  Status st = CommitReadingStatus(
      t,
      [&](TxnState*) {
        check_ran = true;
        return Status::Unsafe("must not run");
      },
      &final_status);
  EXPECT_TRUE(st.ok());
  EXPECT_FALSE(check_ran);
  EXPECT_EQ(final_status, TxnStatus::kCommitted);
  EXPECT_EQ(mgr_.commit_fastpath(), 1u);
  EXPECT_EQ(mgr_.commit_combined_txns(), 0u);
}

TEST_F(TxnManagerTest, AnyConflictStateForcesCertification) {
  // Triage class 3: one recorded edge — of either polarity, in either
  // representation — routes the commit through the certification stage.
  int checks_ran = 0;
  auto check = [&](TxnState*) {
    ++checks_ran;
    return Status::OK();
  };
  auto t1 = mgr_.Begin(IsolationLevel::kSerializableSSI);
  mgr_.EnsureSnapshot(t1);
  t1->out_conflict_flag = true;  // Basic (kFlags) representation.
  EXPECT_TRUE(mgr_.Commit(t1, check, {}).ok());
  auto t2 = mgr_.Begin(IsolationLevel::kSerializableSSI);
  mgr_.EnsureSnapshot(t2);
  t2->in_ref.SetSelf();  // Precise (kReferences) representation.
  EXPECT_TRUE(mgr_.Commit(t2, check, {}).ok());
  EXPECT_EQ(checks_ran, 2);
  EXPECT_EQ(mgr_.commit_fastpath(), 0u);
  EXPECT_EQ(mgr_.commit_combined_txns(), 2u);
  EXPECT_GE(mgr_.commit_combine_batches(), 1u);
  EXPECT_GE(mgr_.commit_max_batch(), 1u);
}

TEST_F(TxnManagerTest, MarkedForAbortHonouredAtCommit) {
  auto t = mgr_.Begin(IsolationLevel::kSerializableSSI);
  mgr_.EnsureSnapshot(t);
  t->marked_for_abort.store(true);
  t->abort_reason = Status::Unsafe("victim");
  TxnStatus final_status = TxnStatus::kActive;
  Status st = CommitReadingStatus(t, nullptr, &final_status);
  EXPECT_TRUE(st.IsUnsafe());
  EXPECT_EQ(final_status, TxnStatus::kAborted);
  EXPECT_EQ(mgr_.active_count(), 0u);
}

// A second finishing call on one state would read a retired state, so the
// guard is the executor's TxnCtx `finished` flag, not the manager.
TEST_F(TxnManagerTest, DoubleCommitRejected) {
  Catalog catalog;
  ConflictTracker tracker(options_, &mgr_);
  Executor exec(options_, &catalog, &mgr_, &locks_, &tracker, nullptr);
  Executor::TxnCtx ctx(mgr_.Begin(IsolationLevel::kSnapshot));
  ASSERT_TRUE(exec.Commit(ctx).ok());
  EXPECT_TRUE(exec.Commit(ctx).IsTxnInvalid());
  EXPECT_EQ(mgr_.active_count(), 0u);
}

TEST_F(TxnManagerTest, AbortIsIdempotent) {
  Catalog catalog;
  ConflictTracker tracker(options_, &mgr_);
  Executor exec(options_, &catalog, &mgr_, &locks_, &tracker, nullptr);
  Executor::TxnCtx ctx(mgr_.Begin(IsolationLevel::kSnapshot));
  EXPECT_TRUE(exec.Abort(ctx).ok());
  EXPECT_TRUE(exec.Abort(ctx).ok());  // No crash, no double-release.
  EXPECT_TRUE(ctx.finished);
  EXPECT_EQ(ctx.outcome.abort_cause, AbortReason::kExplicit);
  EXPECT_EQ(mgr_.abort_count(AbortReason::kExplicit), 1u);  // Counted once.
  EXPECT_EQ(mgr_.active_count(), 0u);
}

TEST_F(TxnManagerTest, SSICommitWithSIReadLocksSuspends) {
  // Fig 3.2 line 11: a committing SSI transaction holding SIREAD locks is
  // retained while a concurrent transaction overlaps it; once none does,
  // the next commit's sweep releases it.
  auto overlap = mgr_.Begin(IsolationLevel::kSerializableSSI);
  mgr_.EnsureSnapshot(overlap);
  // Watermark past overlap's snapshot: the reader's read-only commit
  // timestamp is the watermark, and retention requires
  // commit(reader) > begin(overlap).
  AdvanceWatermark();

  auto t = mgr_.Begin(IsolationLevel::kSerializableSSI);
  mgr_.EnsureSnapshot(t);
  const TxnId id = t->id;
  locks_.Acquire(id, LockKey{1, LockKind::kRow, "k"}, LockMode::kSIRead);
  ASSERT_TRUE(CommitNoCheck(t).ok());
  EXPECT_EQ(mgr_.suspended_count(), 1u);
  EXPECT_TRUE(locks_.HoldsAnySIRead(id));  // Locks retained.

  // The suspended transaction stays registered (conflict marking against
  // committed partners resolves it).
  EXPECT_TRUE(mgr_.IsRegistered(id));

  // Once the overlapping transaction finishes, the sweep releases it.
  ASSERT_TRUE(CommitNoCheck(overlap).ok());
  EXPECT_EQ(mgr_.suspended_count(), 0u);
  EXPECT_FALSE(locks_.HoldsAnySIRead(id));
  EXPECT_FALSE(mgr_.IsRegistered(id));
}

TEST_F(TxnManagerTest, ReadOnlyBypassStillRetiresSuspendedTxns) {
  // Read-only commits bypass the ring entirely; the suspended list must
  // still drain through them (their cleanup runs with the maintained
  // min-active, no watermark nudge required).
  auto overlap = mgr_.Begin(IsolationLevel::kSerializableSSI);
  mgr_.EnsureSnapshot(overlap);
  AdvanceWatermark();

  auto reader = mgr_.Begin(IsolationLevel::kSerializableSSI);
  mgr_.EnsureSnapshot(reader);
  const TxnId reader_id = reader->id;
  locks_.Acquire(reader_id, LockKey{1, LockKind::kRow, "k"},
                 LockMode::kSIRead);
  ASSERT_TRUE(CommitNoCheck(reader).ok());
  ASSERT_EQ(mgr_.suspended_count(), 1u);

  // The overlap commits read-only; its cleanup sweep must release the
  // suspended reader even though no ring slot was ever touched.
  ASSERT_TRUE(CommitNoCheck(overlap).ok());
  EXPECT_EQ(mgr_.suspended_count(), 0u);
  EXPECT_FALSE(locks_.HoldsAnySIRead(reader_id));
}

TEST_F(TxnManagerTest, NonSSICommitsAreNotRetained) {
  // SI/S2PL transactions never participate in SSI conflict tracking:
  // nothing resolves them after commit, so they skip the suspended list
  // and leave the registry at commit.
  auto overlap = mgr_.Begin(IsolationLevel::kSerializableSSI);
  mgr_.EnsureSnapshot(overlap);
  AdvanceWatermark();

  auto si = mgr_.Begin(IsolationLevel::kSnapshot);
  mgr_.EnsureSnapshot(si);
  const TxnId si_id = si->id;
  ASSERT_TRUE(CommitWithWrite(si).ok());
  EXPECT_EQ(mgr_.suspended_count(), 0u);
  EXPECT_FALSE(mgr_.IsRegistered(si_id));
  mgr_.Abort(overlap);
}

TEST_F(TxnManagerTest, CommitWithoutSIReadLocksDoesNotLingerForConflicts) {
  // A pure writer (SIREAD upgraded away) has no vulnerable reads; §3.4
  // argues it cannot be a pivot, so nothing requires long retention. We
  // only check its locks are fully released at commit.
  auto t = mgr_.Begin(IsolationLevel::kSerializableSSI);
  mgr_.EnsureSnapshot(t);
  locks_.Acquire(t->id, LockKey{1, LockKind::kRow, "k"},
                 LockMode::kExclusive);
  ASSERT_TRUE(CommitNoCheck(t).ok());
  EXPECT_EQ(locks_.GrantCount(), 0u);
}

TEST_F(TxnManagerTest, MinActiveReadTsTracksOldestSnapshot) {
  const Timestamp idle = mgr_.min_active_read_ts();
  auto t1 = mgr_.Begin(IsolationLevel::kSerializableSSI);
  mgr_.EnsureSnapshot(t1);
  const Timestamp t1_snap = t1->read_ts.load();
  EXPECT_GE(idle, 1u);
  EXPECT_LE(mgr_.min_active_read_ts(), t1_snap);

  auto t2 = mgr_.Begin(IsolationLevel::kSerializableSSI);
  mgr_.EnsureSnapshot(t2);
  EXPECT_LE(mgr_.min_active_read_ts(), t1_snap);  // Oldest still t1.
  mgr_.Abort(t1);
  EXPECT_GE(mgr_.min_active_read_ts(), t1_snap);  // Advanced past t1.
  mgr_.Abort(t2);
}

TEST_F(TxnManagerTest, MinActiveCorrectAcrossRegistryShards) {
  // Sequential ids land on consecutive registry shards; the maintained
  // minimum must stay exact as transactions with distinct snapshots begin
  // and finish across all of them — this is the sharded replacement for
  // the old global O(active) rescan.
  constexpr int kTxns = 64;  // Several laps around the default 16 shards.
  std::vector<TxnState*> txns;
  std::vector<Timestamp> snaps;
  for (int i = 0; i < kTxns; ++i) {
    auto t = mgr_.Begin(IsolationLevel::kSerializableSSI);
    mgr_.EnsureSnapshot(t);
    txns.push_back(t);
    snaps.push_back(t->read_ts.load());
    // Stagger snapshots: every 4th iteration a writer bumps the
    // watermark, so shards hold genuinely different minima.
    if (i % 4 == 3) AdvanceWatermark();
  }
  // Finish in an order that exercises per-shard recomputation: evens
  // forward (commit), odds backward (abort).
  for (int i = 0; i < kTxns; i += 2) {
    const Timestamp oldest_live = snaps[i];
    EXPECT_LE(mgr_.min_active_read_ts(), oldest_live);
    ASSERT_TRUE(CommitNoCheck(txns[i]).ok());
  }
  for (int i = kTxns - 1; i >= 1; i -= 2) {
    EXPECT_LE(mgr_.min_active_read_ts(), snaps[1]);
    mgr_.Abort(txns[i]);
  }
  // Registry empty: the minimum returns to the watermark.
  EXPECT_EQ(mgr_.active_count(), 0u);
  EXPECT_EQ(mgr_.min_active_read_ts(), mgr_.stable_ts());
}

TEST_F(TxnManagerTest, PageWriteBookkeeping) {
  const LockKey page{1, LockKind::kPage, "p0"};
  EXPECT_EQ(mgr_.PageLastWriteTs(page), 0u);

  auto t = mgr_.Begin(IsolationLevel::kSnapshot);
  mgr_.EnsureSnapshot(t);
  const TxnId id = t->id;
  t->page_writes.push_back(page);
  TxnOutcome out;
  ASSERT_TRUE(CommitNoCheck(t, &out).ok());

  Timestamp ts = 0;
  TxnId writer = 0;
  ASSERT_TRUE(mgr_.PageLastWrite(page, &ts, &writer));
  EXPECT_EQ(ts, out.commit_ts);
  EXPECT_EQ(writer, id);

  // A later writer supersedes the slot.
  auto t2 = mgr_.Begin(IsolationLevel::kSnapshot);
  mgr_.EnsureSnapshot(t2);
  const TxnId id2 = t2->id;
  t2->page_writes.push_back(page);
  ASSERT_TRUE(CommitNoCheck(t2).ok());
  ASSERT_TRUE(mgr_.PageLastWrite(page, &ts, &writer));
  EXPECT_EQ(writer, id2);
}

TEST_F(TxnManagerTest, AbortedPageWritesLeaveNoTrace) {
  const LockKey page{1, LockKind::kPage, "p1"};
  auto t = mgr_.Begin(IsolationLevel::kSnapshot);
  mgr_.EnsureSnapshot(t);
  t->page_writes.push_back(page);
  mgr_.Abort(t);
  EXPECT_EQ(mgr_.PageLastWriteTs(page), 0u);
}

TEST_F(TxnManagerTest, SuspendedChainCleanupInCommitOrder) {
  // Three overlapping SSI readers commit in order while a fourth keeps
  // them all alive; ending the fourth releases all three at once.
  auto keeper = mgr_.Begin(IsolationLevel::kSerializableSSI);
  mgr_.EnsureSnapshot(keeper);
  AdvanceWatermark();  // Readers' commit timestamps exceed keeper's snap.
  std::vector<TxnState*> readers;
  for (int i = 0; i < 3; ++i) {
    auto r = mgr_.Begin(IsolationLevel::kSerializableSSI);
    mgr_.EnsureSnapshot(r);
    locks_.Acquire(r->id, LockKey{1, LockKind::kRow, std::to_string(i)},
                   LockMode::kSIRead);
    readers.push_back(r);
  }
  for (auto& r : readers) ASSERT_TRUE(CommitNoCheck(r).ok());
  EXPECT_EQ(mgr_.suspended_count(), 3u);
  mgr_.Abort(keeper);  // Abort also sweeps.
  EXPECT_EQ(mgr_.suspended_count(), 0u);
  EXPECT_EQ(locks_.GrantCount(), 0u);
}

TEST_F(TxnManagerTest, EveryFinishedStateIsFreed) {
  // The engine.txn_states gauge counts TxnStates allocated and not yet
  // freed. A mix of SSI, SI and S2PL transactions — read-only and writing
  // commits, aborts with and without writes — overlaps, so the SSI commits
  // stay suspended for a while; once every transaction has ended and one
  // more cleanup ran, each state was retired and freed exactly once. A
  // finishing path that skips its retire leaves the gauge above zero.
  EXPECT_EQ(mgr_.live_states(), 0u);
  const IsolationLevel levels[] = {IsolationLevel::kSerializableSSI,
                                   IsolationLevel::kSnapshot,
                                   IsolationLevel::kSerializable2PL};
  std::vector<TxnState*> open;
  for (int i = 0; i < 12; ++i) {
    TxnState* t = mgr_.Begin(levels[i % 3]);
    mgr_.EnsureSnapshot(t);
    if (t->isolation == IsolationLevel::kSerializableSSI) {
      locks_.Acquire(t->id, LockKey{1, LockKind::kRow, std::to_string(i)},
                     LockMode::kSIRead);
    }
    open.push_back(t);
  }
  EXPECT_EQ(mgr_.live_states(), 12u);
  for (int i = 0; i < 12; ++i) {
    TxnState* t = open[i];
    switch (i % 4) {
      case 0:
        ASSERT_TRUE(CommitNoCheck(t).ok());
        break;
      case 1:
        ASSERT_TRUE(CommitWithWrite(t).ok());
        break;
      case 2:
        mgr_.Abort(t);
        break;
      case 3: {
        auto chain = std::make_unique<VersionChain>();
        bool replaced = false;
        Version* v = chain->InstallUncommitted(t->id, "v", false, &replaced);
        t->write_set.push_back(
            TxnState::WriteRecord{0, "k", chain.get(), v, nullptr});
        chains_.push_back(std::move(chain));
        mgr_.Abort(t);
        break;
      }
    }
  }
  EXPECT_EQ(mgr_.active_count(), 0u);
  AdvanceWatermark();  // One more transaction end: one more cleanup.
  EXPECT_EQ(mgr_.suspended_count(), 0u);
  EXPECT_EQ(mgr_.live_states(), 0u);
  EXPECT_EQ(locks_.GrantCount(), 0u);
}

TEST_F(TxnManagerTest, CheckpointFloorCapsPruneHorizon) {
  // BeginCheckpointSweep publishes the sweep watermark as a floor on
  // pruning; commits landing during the sweep may advance the watermark
  // and the min-active past it, but prune_horizon() must stay at or
  // below the returned watermark until the sweep ends.
  AdvanceWatermark();
  const Timestamp w = mgr_.BeginCheckpointSweep();
  EXPECT_EQ(w, mgr_.stable_ts());
  AdvanceWatermark();
  AdvanceWatermark();
  EXPECT_GT(mgr_.stable_ts(), w);
  EXPECT_GT(mgr_.min_active_read_ts(), w);
  EXPECT_LE(mgr_.prune_horizon(), w);
  mgr_.EndCheckpointSweep();
  EXPECT_GT(mgr_.prune_horizon(), w);
}

// ---------------------------------------------------------------------------
// Commit-ring property tests (tiny rings; the ring is the unit under
// test — TxnManager::Commit drives it with allocation/stamping fused, so
// the adversarial interleavings are constructed here directly).
// ---------------------------------------------------------------------------

TEST(CommitRingTest, WatermarkNeverPassesAnUnstampedSlot) {
  CommitRing ring(8);
  const Timestamp t1 = ring.Allocate();
  const Timestamp t2 = ring.Allocate();
  const Timestamp t3 = ring.Allocate();
  ASSERT_EQ(t2, t1 + 1);
  ASSERT_EQ(t3, t2 + 1);
  // Stamp out of order: t2 and t3 first. The watermark must hold below
  // t1 — it may never cover a commit whose versions are not stamped.
  ring.Publish(t2);
  ring.Publish(t3);
  EXPECT_EQ(ring.stable(), t1 - 1);
  ring.Publish(t1);
  EXPECT_EQ(ring.stable(), t3);
}

TEST(CommitRingTest, WraparoundPastManyLaps) {
  // 10 laps around a tiny ring, alternating in-order and out-of-order
  // publication of small in-flight windows.
  CommitRing ring(4);
  const uint64_t n = ring.slots();
  for (uint64_t lap = 0; lap < 10 * n; ++lap) {
    const Timestamp a = ring.Allocate();
    const Timestamp b = ring.Allocate();
    if (lap % 2 == 0) {
      ring.Publish(b);  // Out of order: watermark waits for a.
      EXPECT_EQ(ring.stable(), a - 1);
      ring.Publish(a);
    } else {
      ring.Publish(a);
      ring.Publish(b);
    }
    EXPECT_EQ(ring.stable(), b);
    bool fired = false;
    ring.OnCovered(b, [&] { fired = true; });
    EXPECT_TRUE(fired);  // Already covered: fires inline, never parks.
  }
  EXPECT_EQ(ring.full_stalls(), 0u);  // Window (2) never exceeded 4 slots.
}

TEST(CommitRingTest, RingFullBackpressureBlocksUntilCovered) {
  CommitRing ring(2);
  const uint64_t n = ring.slots();  // 2.
  // Allocate n + 1 timestamps: the last one's slot is still owned by the
  // first (uncovered) commit, so its Publish must stall.
  std::vector<Timestamp> ts;
  for (uint64_t i = 0; i < n + 1; ++i) ts.push_back(ring.Allocate());

  std::atomic<bool> published{false};
  std::thread straggler([&] {
    ring.Publish(ts.back());  // Parks: stable < ts.back() - n.
    published.store(true);
  });
  // Give the straggler time to park; the watermark must not have moved
  // and the publication must not have happened.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(published.load());
  EXPECT_EQ(ring.stable(), ts.front() - 1);

  // Covering the first commit frees the straggler's slot.
  ring.Publish(ts[0]);
  ring.Publish(ts[1]);
  straggler.join();
  EXPECT_TRUE(published.load());
  EXPECT_GE(ring.full_stalls(), 1u);
  EXPECT_EQ(ring.stable(), ts.back());
}

TEST(CommitRingTest, ConcurrentPublishersConvergeAndWake) {
  // Hammer a 2-slot ring from several threads, so publishers park on
  // ring-full backpressure; each thread then parks on a latch until its
  // own commit's coverage completion fires. Every allocation must end up
  // covered, the watermark must equal the clock at quiescence, and no
  // waiter may be left behind.
  CommitRing ring(2);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        const Timestamp ts = ring.Allocate();
        ring.Publish(ts);
        Latch covered;
        ring.OnCovered(ts, [&] { covered.Set(); });
        ASSERT_TRUE(covered.Wait()) << "completion lost for ts " << ts;
        ASSERT_GE(ring.stable(), ts);
      }
    });
  }
  for (auto& t : workers) t.join();
  EXPECT_EQ(ring.stable(), ring.clock());
  EXPECT_EQ(ring.clock(), 1u + kThreads * kPerThread);
  EXPECT_GE(ring.max_depth(), 1u);
}

TEST(CommitRingTest, AdvanceToJumpsClockAndWatermark) {
  CommitRing ring(8);
  ring.AdvanceTo(1000);
  EXPECT_EQ(ring.clock(), 1000u);
  EXPECT_EQ(ring.stable(), 1000u);
  ring.AdvanceTo(500);  // Monotonic: never moves backwards.
  EXPECT_EQ(ring.clock(), 1000u);
  const Timestamp next = ring.Allocate();
  EXPECT_EQ(next, 1001u);
  ring.Publish(next);
  EXPECT_EQ(ring.stable(), 1001u);
}

// ---------------------------------------------------------------------------
// Tiny-ring TxnManager integration: backpressure and wraparound through
// the real commit path.
// ---------------------------------------------------------------------------

class TinyRingTxnManagerTest : public TxnManagerTest {
 protected:
  static DBOptions TinyRingOptions() {
    DBOptions o;
    o.commit_ring_slots = 2;
    o.txn_registry_shards = 2;
    return o;
  }
  TinyRingTxnManagerTest() : TxnManagerTest(TinyRingOptions()) {}
};

TEST_F(TinyRingTxnManagerTest, ManyLapsOfWritingCommits) {
  // 64 sequential writing commits lap the 2-slot ring 32 times; every
  // commit must acknowledge covered and the watermark must track the
  // commit clock exactly.
  for (int i = 0; i < 64; ++i) {
    auto t = mgr_.Begin(IsolationLevel::kSnapshot);
    mgr_.EnsureSnapshot(t);
    TxnOutcome out;
    ASSERT_TRUE(CommitWithWrite(t, &out).ok());
    ASSERT_EQ(mgr_.stable_ts(), out.commit_ts);
  }
  EXPECT_EQ(mgr_.ring_full_stalls(), 0u);  // Sequential: window depth 1.
}

TEST_F(TinyRingTxnManagerTest, ConcurrentWritersSurviveBackpressure) {
  // 4 threads × 200 writing commits through a 2-slot ring: backpressure
  // and out-of-order stamping happen constantly; everything must drain.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 200;
  std::atomic<uint64_t> committed{0};
  // One chain list per worker, kept past the join: a later commit by any
  // thread may prune a chain another worker wrote.
  std::vector<std::vector<std::unique_ptr<VersionChain>>> chains(kThreads);
  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      std::vector<std::unique_ptr<VersionChain>>& local_chains = chains[w];
      for (int i = 0; i < kPerThread; ++i) {
        auto t = mgr_.Begin(IsolationLevel::kSnapshot);
        mgr_.EnsureSnapshot(t);
        auto chain = std::make_unique<VersionChain>();
        bool replaced = false;
        Version* v =
            chain->InstallUncommitted(t->id, "v", false, &replaced);
        t->write_set.push_back(
            TxnState::WriteRecord{0, "k", chain.get(), v, nullptr});
        local_chains.push_back(std::move(chain));
        ASSERT_TRUE(mgr_.Commit(t, nullptr, {}).ok());
        committed.fetch_add(1);
      }
    });
  }
  for (auto& t : workers) t.join();
  EXPECT_EQ(committed.load(), uint64_t{kThreads} * kPerThread);
  EXPECT_EQ(mgr_.active_count(), 0u);
  // Watermark caught up with every allocated commit timestamp.
  EXPECT_EQ(mgr_.stable_ts(), mgr_.clock_now());
}

TEST_F(TinyRingTxnManagerTest, PublishRuleCoversEveryCommitWithoutATick) {
  // Stress for the publish rule (commit_ring.h): no thread ever re-drives
  // a ring, so every acknowledgment must come from the publishers' own
  // drives. Four threads mix three kinds of commit:
  //   * on a bare 2-slot ring: Allocate, yield, Publish, yield, then an
  //     OnCovered completion (the yields widen the windows in which a
  //     driver's scan can miss a concurrent slot store);
  //   * on the 2-slot TxnManager: CommitAsync, acknowledged inline or by
  //     another publisher's drive;
  //   * on the same TxnManager: blocking Commit, which parks until then.
  // A lost wakeup would hang a worker for good, so a watchdog aborts the
  // run (failing the test) when the acknowledgments miss the deadline.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 3000;
  CommitRing ring(2);
  std::mutex mu;
  std::condition_variable cv;
  // Iteration i % 3 picks the kind: 0 ring, 1 async, 2 blocking.
  constexpr uint64_t kRingOps = kThreads * ((kPerThread + 2) / 3);
  constexpr uint64_t kAsyncOps = kThreads * ((kPerThread + 1) / 3);
  uint64_t ring_acks = 0;   // Guarded by mu.
  uint64_t async_acks = 0;  // Guarded by mu.
  bool finished = false;    // Guarded by mu.
  std::thread watchdog([&] {
    std::unique_lock<std::mutex> guard(mu);
    if (!cv.wait_for(guard, kDeadline, [&] { return finished; })) {
      std::fprintf(stderr,
                   "publish-rule stress: acknowledgments missing after the "
                   "deadline (ring %llu/%llu, async %llu/%llu)\n",
                   static_cast<unsigned long long>(ring_acks),
                   static_cast<unsigned long long>(kRingOps),
                   static_cast<unsigned long long>(async_acks),
                   static_cast<unsigned long long>(kAsyncOps));
      std::abort();
    }
  });
  const auto ack = [&](uint64_t* counter) {
    std::lock_guard<std::mutex> guard(mu);
    ++*counter;
    cv.notify_all();
  };
  // Chains outlive the workers: a deferred finalize may run on another
  // thread after its submitter moved on.
  std::vector<std::vector<std::unique_ptr<VersionChain>>> chains(kThreads);
  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      for (int i = 0; i < kPerThread; ++i) {
        if (i % 3 == 0) {
          const Timestamp ts = ring.Allocate();
          std::this_thread::yield();
          ring.Publish(ts);
          std::this_thread::yield();
          ring.OnCovered(ts, [&] { ack(&ring_acks); });
          continue;
        }
        auto t = mgr_.Begin(IsolationLevel::kSnapshot);
        mgr_.EnsureSnapshot(t);
        auto chain = std::make_unique<VersionChain>();
        bool replaced = false;
        Version* v = chain->InstallUncommitted(t->id, "v", false, &replaced);
        t->write_set.push_back(
            TxnState::WriteRecord{0, "k", chain.get(), v, nullptr});
        chains[w].push_back(std::move(chain));
        if (i % 3 == 1) {
          mgr_.CommitAsync(t, nullptr, {}, [&](Status st) {
            EXPECT_TRUE(st.ok());
            ack(&async_acks);
          });
        } else {
          EXPECT_TRUE(mgr_.Commit(t, nullptr, {}).ok());
        }
      }
    });
  }
  for (auto& t : workers) t.join();
  {
    // Every publisher has returned, and completions run on the drivers
    // inside Publish (or inline at registration), so all have fired.
    std::lock_guard<std::mutex> guard(mu);
    EXPECT_EQ(ring_acks, kRingOps);
    EXPECT_EQ(async_acks, kAsyncOps);
    finished = true;
  }
  cv.notify_all();
  watchdog.join();
  EXPECT_EQ(ring.stable(), ring.clock());
  EXPECT_EQ(mgr_.stable_ts(), mgr_.clock_now());
  EXPECT_EQ(mgr_.commits_inflight(), 0u);
  EXPECT_EQ(mgr_.active_count(), 0u);
}

}  // namespace
}  // namespace ssidb
