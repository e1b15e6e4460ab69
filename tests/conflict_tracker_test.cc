// Direct unit tests of the SSI conflict tracker (Ch. 3), below the DB
// layer: flag/reference state transitions, the dangerous-structure
// predicate in both representations, victim dispatch, and the overlap
// filters of Figs 3.4/3.5.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "src/lock/lock_manager.h"
#include "src/ssi/conflict_tracker.h"
#include "src/txn/log_manager.h"
#include "src/txn/txn_manager.h"

namespace ssidb {
namespace {

class TrackerTest : public ::testing::Test {
 protected:
  void Init(ConflictTracking tracking,
            VictimPolicy victim = VictimPolicy::kPivot,
            bool abort_early = true) {
    options_.conflict_tracking = tracking;
    options_.victim_policy = victim;
    options_.abort_early = abort_early;
    log_ = std::make_unique<LogManager>(options_.log);
    locks_ = std::make_unique<LockManager>(LockManager::Config{});
    mgr_ = std::make_unique<TxnManager>(options_, locks_.get(), log_.get());
    tracker_ = std::make_unique<ConflictTracker>(options_, mgr_.get());
  }

  TxnState* BeginSSI() {
    auto t = mgr_->Begin(IsolationLevel::kSerializableSSI);
    mgr_->EnsureSnapshot(t);
    return t;
  }

  Status Commit(TxnState* t, TxnOutcome* out = nullptr) {
    return mgr_->Commit(
        t, [this](TxnState* x) { return tracker_->CommitCheck(x); }, {},
        out);
  }

  /// Commit with a synthetic write so the commit allocates a ring
  /// timestamp. Read-only commits carry the watermark as their timestamp
  /// (and may tie); tests about commit *order* need distinct timestamps.
  Status CommitW(TxnState* t) {
    auto chain = std::make_unique<VersionChain>();
    bool replaced = false;
    Version* v = chain->InstallUncommitted(t->id, "v", false, &replaced);
    t->write_set.push_back(
        TxnState::WriteRecord{0, "k", chain.get(), v, nullptr});
    chains_.push_back(std::move(chain));
    return Commit(t);
  }

  /// Record the rw-antidependency reader -> writer via the lock-manager
  /// detection point (writer saw the reader's SIREAD).
  Status MarkRw(TxnState* reader, TxnState* writer) {
    return MarkRw(reader->id, writer);
  }
  /// The same, for a reader that may have finished (its state is not the
  /// test's to touch any more).
  Status MarkRw(TxnId reader_id, TxnState* writer) {
    return tracker_->OnWriterSawSIReadHolder(writer, reader_id);
  }

  /// Commit a throwaway SI writer: advances the watermark, and its end
  /// runs a cleanup pass.
  void AdvanceWatermark() {
    auto bump = mgr_->Begin(IsolationLevel::kSnapshot);
    mgr_->EnsureSnapshot(bump);
    ASSERT_TRUE(CommitW(bump).ok());
  }

  DBOptions options_;
  std::vector<std::unique_ptr<VersionChain>> chains_;
  std::unique_ptr<LogManager> log_;
  std::unique_ptr<LockManager> locks_;
  std::unique_ptr<TxnManager> mgr_;
  std::unique_ptr<ConflictTracker> tracker_;
};

TEST_F(TrackerTest, FlagsSingleEdgeDoesNotAbort) {
  Init(ConflictTracking::kFlags);
  auto r = BeginSSI();
  auto w = BeginSSI();
  EXPECT_TRUE(MarkRw(r, w).ok());
  EXPECT_TRUE(r->out_conflict_flag);
  EXPECT_TRUE(w->in_conflict_flag);
  EXPECT_TRUE(Commit(r).ok());
  EXPECT_TRUE(Commit(w).ok());
}

TEST_F(TrackerTest, FlagsPivotAbortsAtCommit) {
  Init(ConflictTracking::kFlags, VictimPolicy::kPivot,
       /*abort_early=*/false);
  auto in = BeginSSI();
  auto pivot = BeginSSI();
  auto out = BeginSSI();
  EXPECT_TRUE(MarkRw(in, pivot).ok());   // in -> pivot.
  EXPECT_TRUE(MarkRw(pivot, out).ok());  // pivot -> out.
  EXPECT_TRUE(pivot->in_conflict_flag);
  EXPECT_TRUE(pivot->out_conflict_flag);
  Status st = Commit(pivot);
  EXPECT_TRUE(st.IsUnsafe()) << st.ToString();
  EXPECT_TRUE(Commit(in).ok());
  EXPECT_TRUE(Commit(out).ok());
  EXPECT_EQ(tracker_->unsafe_aborts(), 1u);
}

TEST_F(TrackerTest, AbortEarlyFiresAtTheMarkingOperation) {
  Init(ConflictTracking::kFlags, VictimPolicy::kPivot, /*abort_early=*/true);
  auto in = BeginSSI();
  auto pivot = BeginSSI();
  auto out = BeginSSI();
  EXPECT_TRUE(MarkRw(in, pivot).ok());
  // The second edge completes the structure; pivot is the victim, but the
  // caller here is `out`'s thread... the call is made on behalf of the
  // *writer* (out): victim=pivot is not the caller, so the call succeeds
  // and the pivot is marked for asynchronous abort.
  EXPECT_TRUE(MarkRw(pivot, out).ok());
  EXPECT_TRUE(pivot->marked_for_abort.load());
  Status st = Commit(pivot);
  EXPECT_TRUE(st.IsUnsafe());
}

TEST_F(TrackerTest, VictimIsCallerWhenPivotCallsIn) {
  Init(ConflictTracking::kFlags);
  auto in = BeginSSI();
  auto pivot = BeginSSI();
  auto out = BeginSSI();
  // First the out-edge, then the pivot itself (as reader) detects the
  // in-edge: the pivot is the caller on the reader side of edge in->pivot?
  // No: in->pivot has reader=in, writer=pivot. To make the pivot the
  // caller we use the reader-side detection point for the pivot->out edge
  // after in->pivot already exists.
  EXPECT_TRUE(MarkRw(in, pivot).ok());
  Status st = tracker_->OnReaderSawExclusiveHolder(pivot, out->id);
  EXPECT_TRUE(st.IsUnsafe());  // The pivot (caller) must abort itself.
  EXPECT_FALSE(in->marked_for_abort.load());
  EXPECT_FALSE(out->marked_for_abort.load());
}

TEST_F(TrackerTest, ReferencesOutPartnerNotCommittedIsSafe) {
  Init(ConflictTracking::kReferences);
  auto in = BeginSSI();
  auto pivot = BeginSSI();
  auto out = BeginSSI();
  EXPECT_TRUE(MarkRw(in, pivot).ok());
  EXPECT_TRUE(MarkRw(pivot, out).ok());
  // §3.6: dangerous only if the out-partner committed first. It has not,
  // so the pivot commits fine — and that commit precedes out's commit,
  // making the structure permanently safe.
  EXPECT_TRUE(Commit(pivot).ok());
  EXPECT_TRUE(Commit(in).ok());
  EXPECT_TRUE(Commit(out).ok());
  EXPECT_EQ(tracker_->unsafe_aborts(), 0u);
}

TEST_F(TrackerTest, ReferencesOutCommittedFirstAborts) {
  Init(ConflictTracking::kReferences);
  auto in = BeginSSI();
  auto pivot = BeginSSI();
  auto out = BeginSSI();
  EXPECT_TRUE(MarkRw(in, pivot).ok());
  EXPECT_TRUE(MarkRw(pivot, out).ok());
  EXPECT_TRUE(Commit(out).ok());  // Out commits first: now dangerous.
  Status st = Commit(pivot);
  EXPECT_TRUE(st.IsUnsafe()) << st.ToString();
  EXPECT_TRUE(Commit(in).ok());
}

TEST_F(TrackerTest, ReferencesInCommittedBeforeOutIsSafe) {
  // The Fig 3.8 order: in commits, then out, then the pivot. out did not
  // commit before in, so there is no cycle and no abort. Both partners
  // commit with writes: the §3.6 test is about commit-timestamp order,
  // which only writing commits carry distinctly.
  Init(ConflictTracking::kReferences);
  auto in = BeginSSI();
  auto pivot = BeginSSI();
  auto out = BeginSSI();
  EXPECT_TRUE(MarkRw(in, pivot).ok());
  EXPECT_TRUE(CommitW(in).ok());
  EXPECT_TRUE(MarkRw(pivot, out).ok());
  EXPECT_TRUE(CommitW(out).ok());
  Status st = Commit(pivot);
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(tracker_->unsafe_aborts(), 0u);
}

TEST_F(TrackerTest, ReferencesMultipleOutPartnersDegradeConservatively) {
  // Two distinct out-partners collapse the reference to kSelf, which the
  // danger test treats as "may have committed first".
  Init(ConflictTracking::kReferences, VictimPolicy::kPivot,
       /*abort_early=*/false);
  auto in = BeginSSI();
  auto pivot = BeginSSI();
  auto out1 = BeginSSI();
  auto out2 = BeginSSI();
  EXPECT_TRUE(MarkRw(pivot, out1).ok());
  EXPECT_TRUE(MarkRw(pivot, out2).ok());
  EXPECT_TRUE(MarkRw(in, pivot).ok());
  EXPECT_EQ(pivot->out_ref.kind, ConflictRef::Kind::kSelf);
  Status st = Commit(pivot);
  EXPECT_TRUE(st.IsUnsafe()) << st.ToString();
  EXPECT_TRUE(Commit(in).ok());
  EXPECT_TRUE(Commit(out1).ok());
  EXPECT_TRUE(Commit(out2).ok());
}

TEST_F(TrackerTest, CommitTimePivotNamesItsOutPartner) {
  // The Fig 3.10 commit-time check: the out-partner committed first, and
  // the check's tidy collapses the ref to its commit time. The collapsed
  // ref keeps the partner's id, so the pivot's abort names it.
  Init(ConflictTracking::kReferences, VictimPolicy::kPivot,
       /*abort_early=*/false);
  auto in = BeginSSI();
  auto pivot = BeginSSI();
  auto out = BeginSSI();
  const TxnId out_id = out->id;
  EXPECT_TRUE(MarkRw(in, pivot).ok());
  EXPECT_TRUE(MarkRw(pivot, out).ok());
  EXPECT_TRUE(CommitW(out).ok());
  TxnOutcome outcome;
  EXPECT_TRUE(Commit(pivot, &outcome).IsUnsafe());
  EXPECT_EQ(outcome.abort_cause, AbortReason::kSsiPivot);
  EXPECT_NE(outcome.abort_conflict_txn, 0u);
  EXPECT_EQ(outcome.abort_conflict_txn, out_id);
  mgr_->Abort(in);
}

TEST_F(TrackerTest, AbortedPartnerEdgeVanishes) {
  Init(ConflictTracking::kReferences);
  auto in = BeginSSI();
  auto pivot = BeginSSI();
  auto out = BeginSSI();
  EXPECT_TRUE(MarkRw(in, pivot).ok());
  EXPECT_TRUE(MarkRw(pivot, out).ok());
  mgr_->Abort(out);  // The out-edge's partner disappears from the MVSG.
  EXPECT_TRUE(Commit(pivot).ok());
  EXPECT_TRUE(Commit(in).ok());
}

TEST_F(TrackerTest, NonParticipantsIgnored) {
  // SI and S2PL transactions are transparent to the tracker (§3.8).
  Init(ConflictTracking::kReferences);
  auto si = mgr_->Begin(IsolationLevel::kSnapshot);
  mgr_->EnsureSnapshot(si);
  auto ssi = BeginSSI();
  EXPECT_TRUE(
      tracker_->OnWriterSawSIReadHolder(ssi, si->id).ok());
  EXPECT_FALSE(ssi->in_ref.IsSet());
  EXPECT_TRUE(tracker_->MarkReadOfNewerVersion(si, ssi->id, 1).ok());
  EXPECT_FALSE(si->out_ref.IsSet());
  mgr_->Abort(si);
  mgr_->Abort(ssi);
}

TEST_F(TrackerTest, Fig35OverlapFilterSkipsNonOverlappingReader) {
  // Fig 3.5: "where rl.owner has not committed or commit(rl.owner) >
  // begin(T)". A reader that committed before the writer's snapshot does
  // not overlap: no conflict is recorded.
  Init(ConflictTracking::kReferences);
  auto reader = BeginSSI();
  const TxnId reader_id = reader->id;
  locks_->Acquire(reader_id, LockKey{1, LockKind::kRow, "k"},
                  LockMode::kSIRead);
  ASSERT_TRUE(Commit(reader).ok());  // Suspended, SIREAD retained.

  auto writer = BeginSSI();  // Snapshot after the reader's commit.
  EXPECT_TRUE(MarkRw(reader_id, writer).ok());
  EXPECT_FALSE(writer->in_ref.IsSet());
  mgr_->Abort(writer);
}

TEST_F(TrackerTest, CommittedSuspendedReaderStillConflictsWhenOverlapping) {
  Init(ConflictTracking::kReferences);
  auto keeper = BeginSSI();  // Makes the reader overlap something.
  auto reader = BeginSSI();
  const TxnId reader_id = reader->id;
  locks_->Acquire(reader_id, LockKey{1, LockKind::kRow, "k"},
                  LockMode::kSIRead);

  auto writer = BeginSSI();  // Overlaps the reader (begins before commit).
  // Advance the watermark past the writer's snapshot: the reader's
  // read-only commit timestamp is the watermark, and the Fig 3.5 filter
  // only records the edge when commit(reader) > begin(writer).
  AdvanceWatermark();
  ASSERT_TRUE(Commit(reader).ok());
  EXPECT_TRUE(MarkRw(reader_id, writer).ok());
  EXPECT_TRUE(writer->in_ref.IsSet());  // Conflict recorded.
  mgr_->Abort(writer);
  mgr_->Abort(keeper);
}

TEST_F(TrackerTest, YoungestPolicySparesThePivot) {
  Init(ConflictTracking::kFlags, VictimPolicy::kYoungest);
  auto pivot = BeginSSI();  // Older (smaller id).
  auto in = BeginSSI();
  auto out = BeginSSI();  // Youngest.
  EXPECT_TRUE(MarkRw(in, pivot).ok());
  // Completing edge, caller = out (writer side): victim should be the
  // younger endpoint of this edge — out itself — so the call returns
  // unsafe to the caller and the pivot survives.
  Status st = MarkRw(pivot, out);
  EXPECT_TRUE(st.IsUnsafe());
  EXPECT_FALSE(pivot->marked_for_abort.load());
  EXPECT_TRUE(Commit(pivot).ok());
  EXPECT_TRUE(Commit(in).ok());
}

TEST_F(TrackerTest, SelfConflictIgnored) {
  Init(ConflictTracking::kReferences);
  auto t = BeginSSI();
  EXPECT_TRUE(MarkRw(t, t).ok());
  EXPECT_FALSE(t->in_ref.IsSet());
  EXPECT_FALSE(t->out_ref.IsSet());
  EXPECT_TRUE(Commit(t).ok());
}

TEST_F(TrackerTest, UnknownPartnerIdIgnored) {
  // The creator of an old version may be long gone (cleaned up): marking
  // against it is a no-op (§3.4: a departed pure update cannot pivot).
  Init(ConflictTracking::kReferences);
  auto t = BeginSSI();
  EXPECT_TRUE(tracker_->MarkReadOfNewerVersion(t, 999999, 5).ok());
  EXPECT_FALSE(t->out_ref.IsSet());
  mgr_->Abort(t);
}

// ---------------------------------------------------------------------------
// TxnState lifetime (txn_manager.h): each test lets the reclaimer run
// between the access that records (or finds) a partner and the one that
// reads it again, and must stay clean under AddressSanitizer.
// ---------------------------------------------------------------------------

TEST_F(TrackerTest, LateSnapshotWriterKeepsItsPartnerAllocated) {
  // A writer marks conflicts before its late snapshot (§4.5) exists, so no
  // snapshot holds the horizon back — its pin, claimed when its first
  // statement starts (Executor::CheckUsable), does.
  Init(ConflictTracking::kReferences);
  auto reader = BeginSSI();
  const TxnId reader_id = reader->id;
  auto writer = mgr_->Begin(IsolationLevel::kSerializableSSI);
  mgr_->ClaimPin(writer);
  ASSERT_EQ(writer->read_ts.load(), 0u);
  ASSERT_TRUE(MarkRw(reader, writer).ok());  // writer.in_ref -> reader.
  ASSERT_TRUE(Commit(reader).ok());          // Suspended.
  AdvanceWatermark();  // Collect passes, the watermark past the reader.
  AdvanceWatermark();
  EXPECT_TRUE(mgr_->IsRegistered(reader_id));
  EXPECT_EQ(mgr_->suspended_count(), 1u);
  // The writer's commit check reads its in_ref partner again.
  mgr_->EnsureSnapshot(writer);
  EXPECT_TRUE(CommitW(writer).ok());
  AdvanceWatermark();  // One more transaction end collects the writer.
  EXPECT_FALSE(mgr_->IsRegistered(reader_id));
  EXPECT_EQ(mgr_->live_states(), 0u);
}

TEST_F(TrackerTest, PartnerPinnedAtTheClockKeepsAnAbortedOrReadOnlyPartner) {
  // An abort and a read-only commit allocate no timestamp, so an active
  // partner may be pinned at the very clock they retire at: with a ref
  // set they retire one past it (txn_manager.h, "TxnState lifetime" (2)).
  Init(ConflictTracking::kReferences);
  AdvanceWatermark();  // Nothing in flight: the watermark is the clock.
  auto w1 = BeginSSI();  // Both writers are pinned at the clock.
  auto w2 = BeginSSI();
  auto aborter = BeginSSI();
  auto reader = BeginSSI();
  ASSERT_TRUE(MarkRw(aborter, w1).ok());  // w1.in_ref -> aborter.
  ASSERT_TRUE(MarkRw(reader, w2).ok());   // w2.in_ref -> reader.
  mgr_->Abort(aborter);
  ASSERT_TRUE(Commit(reader).ok());  // Read-only.
  EXPECT_EQ(mgr_->live_states(), 4u);
  // The writers' commit checks read their in_ref partners again.
  EXPECT_TRUE(CommitW(w1).ok());
  EXPECT_TRUE(CommitW(w2).ok());
  AdvanceWatermark();
  EXPECT_EQ(mgr_->live_states(), 0u);
}

TEST_F(TrackerTest, PartnerAbortingAfterTheCommitOutlivesTheCommit) {
  // P commits with out_ref -> A while A is active. A's in side collapsed
  // to kSelf (two readers), so A's abort cannot find P; A must stay
  // allocated while a marker can still reach P and tidy P's ref to it.
  Init(ConflictTracking::kReferences, VictimPolicy::kPivot,
       /*abort_early=*/false);
  auto m = BeginSSI();  // Overlaps P; writes a key P read, at the end.
  auto p = BeginSSI();
  auto a = BeginSSI();
  auto q = BeginSSI();
  const TxnId p_id = p->id;
  ASSERT_TRUE(MarkRw(p, a).ok());  // P.out -> A.
  ASSERT_TRUE(MarkRw(q, a).ok());  // A.in: two partners.
  ASSERT_EQ(a->in_ref.kind, ConflictRef::Kind::kSelf);
  AdvanceWatermark();            // commit(P) > begin(M): they overlap.
  ASSERT_TRUE(Commit(p).ok());   // Suspended; out_ref still -> A.
  mgr_->Abort(a);
  mgr_->Abort(q);
  AdvanceWatermark();  // Collect passes with the watermark past A.
  // Nothing that finished after M began is freed while M is open: M, P,
  // A, Q and the two watermark bumps.
  EXPECT_EQ(mgr_->live_states(), 6u);
  EXPECT_TRUE(MarkRw(p_id, m).ok());  // Tidies P.out: reads A.
  EXPECT_TRUE(m->in_ref.IsSet());
  mgr_->Abort(m);
  AdvanceWatermark();
  EXPECT_EQ(mgr_->live_states(), 0u);
}

TEST_F(TrackerTest, NonOverlappingSuspendedReaderIsNeverHandedOut) {
  // A suspended reader that committed before a writer's snapshot is still
  // registered (an older transaction overlaps it) but may be collected
  // the moment that one ends: FindLatched drops it under the shard mutex,
  // before any dereference. A partner it does hand out is latched, and
  // the collect waits for that latch before it frees the state.
  Init(ConflictTracking::kReferences);
  auto keeper = BeginSSI();
  AdvanceWatermark();
  auto reader = BeginSSI();
  const TxnId reader_id = reader->id;
  ASSERT_TRUE(Commit(reader).ok());  // commit(reader) > begin(keeper).
  auto writer = BeginSSI();          // Snapshot after the reader's commit.
  ASSERT_TRUE(mgr_->IsRegistered(reader_id));
  EXPECT_EQ(mgr_->FindLatched(reader_id, writer->read_ts.load()), nullptr);
  EXPECT_TRUE(MarkRw(reader_id, writer).ok());
  EXPECT_FALSE(writer->in_ref.IsSet());

  TxnState* held = mgr_->FindLatched(reader_id, /*floor=*/0);
  ASSERT_NE(held, nullptr);
  std::atomic<bool> ended{false};
  std::thread ender([&] {
    mgr_->Abort(keeper);  // Its cleanup collects the reader.
    ended.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(ended.load());  // Waiting for the latch we hold.
  EXPECT_EQ(held->id, reader_id);
  held->ssi_mu.unlock();
  ender.join();
  EXPECT_FALSE(mgr_->IsRegistered(reader_id));
  mgr_->Abort(writer);
  EXPECT_EQ(mgr_->live_states(), 0u);
}

}  // namespace
}  // namespace ssidb
