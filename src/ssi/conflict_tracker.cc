#include "src/ssi/conflict_tracker.h"

#include <cassert>

namespace ssidb {

namespace {

/// Only Serializable SI transactions carry conflict state. SI queries mixed
/// into an SSI system (§3.8) and S2PL transactions are transparent to the
/// tracker.
bool Participates(const TxnState& txn) {
  return txn.isolation == IsolationLevel::kSerializableSSI;
}

/// The pairwise atomic block: the caller's and the partner's latches, in
/// ascending txn-id order (the deadlock-free total order all pairwise
/// markers agree on; a committing transaction holds only its own latch, so
/// no cycle can form). The partner is resolved by TxnManager::FindLatched,
/// which hands it over latched; `partner()` is null — and nothing is held
/// — when it is gone or cannot overlap a snapshot at or above `floor`.
class PairLatch {
 public:
  PairLatch(TxnManager* txns, TxnState* caller, TxnId partner_id,
            Timestamp floor)
      : caller_(caller) {
    if (caller->id < partner_id) {
      caller->ssi_mu.lock();
      partner_ = txns->FindLatched(partner_id, floor);
      if (partner_ == nullptr) caller->ssi_mu.unlock();
    } else {
      partner_ = txns->FindLatched(partner_id, floor);
      if (partner_ != nullptr) caller->ssi_mu.lock();
    }
  }
  ~PairLatch() {
    if (partner_ == nullptr) return;
    partner_->ssi_mu.unlock();
    caller_->ssi_mu.unlock();
  }
  PairLatch(const PairLatch&) = delete;
  PairLatch& operator=(const PairLatch&) = delete;

  TxnState* partner() const { return partner_; }

 private:
  TxnState* const caller_;
  TxnState* partner_ = nullptr;
};

/// The Fig 3.5 overlap floor of `txn`: its snapshot, or — before a late
/// snapshot (§4.5) exists — the watermark, which bounds it from below.
Timestamp OverlapFloor(const TxnState& txn, const TxnManager& txns) {
  const Timestamp begin = txn.read_ts.load(std::memory_order_acquire);
  return begin != 0 ? begin : txns.stable_ts();
}

}  // namespace

ConflictTracker::ConflictTracker(const DBOptions& options,
                                 TxnManager* txn_manager)
    : options_(options), txn_manager_(txn_manager) {}

void ConflictTracker::SetRefLocked(ConflictRef* ref, TxnState* partner) {
  ref->Tidy();
  switch (ref->kind) {
    case ConflictRef::Kind::kNone:
      ref->SetOther(partner, partner->id);
      break;
    case ConflictRef::Kind::kOther:
      if (ref->other != partner) ref->SetSelf();
      break;
    case ConflictRef::Kind::kCollapsed:
    case ConflictRef::Kind::kSelf:
      // A second, distinct conflict of this polarity: degrade to the
      // conservative multi-conflict representation (Fig 3.9 lines 11-12).
      ref->SetSelf();
      break;
  }
}

void ConflictTracker::SetEdgeLocked(TxnState* reader, TxnState* writer) {
  if (options_.conflict_tracking == ConflictTracking::kFlags) {
    reader->out_conflict_flag = true;
    writer->in_conflict_flag = true;
    return;
  }
  SetRefLocked(&reader->out_ref, writer);
  SetRefLocked(&writer->in_ref, reader);
}

ConflictTracker::EdgeTime ConflictTracker::EdgeTimeLocked(
    const ConflictRef& ref, Timestamp several) {
  switch (ref.kind) {
    case ConflictRef::Kind::kNone:
      return EdgeTime{};
    case ConflictRef::Kind::kSelf:
      // Several partners: 0 on the out side (some may have committed
      // arbitrarily early), +inf on the in side (some may still be
      // active) — see "Why kSelf reads as 0 on the out side".
      return EdgeTime{true, several};
    case ConflictRef::Kind::kCollapsed:
      return EdgeTime{true, ref.collapsed_cts};
    case ConflictRef::Kind::kOther: {
      // Keyed on the published commit timestamp, not the status flip: a
      // partner holding an edge to us is itself a certifying commit
      // (edges are bilateral, so it cannot take the conflict-free fast
      // path), which means its cts is published by the certification
      // stage in commit order relative to this check (commit_combiner.h)
      // and before its status store becomes visible — and once the cts
      // exists the partner commits unconditionally. Reading the status
      // instead could miss an out-partner that wins a smaller timestamp;
      // on the in side a stale "active" only errs toward kMaxTimestamp,
      // the conservative direction.
      const Timestamp cts =
          ref.other->commit_ts.load(std::memory_order_acquire);
      if (cts != 0) return EdgeTime{true, cts};
      const TxnStatus st = ref.other->status.load(std::memory_order_acquire);
      if (st == TxnStatus::kAborted) return EdgeTime{};  // Edge vanished.
      return EdgeTime{true, kMaxTimestamp};  // Not committed (yet).
    }
  }
  return EdgeTime{};
}

bool ConflictTracker::DangerousLocked(const TxnState& txn,
                                      bool committing_now) const {
  if (options_.conflict_tracking == ConflictTracking::kFlags) {
    return txn.in_conflict_flag && txn.out_conflict_flag;
  }
  const EdgeTime out = EdgeTimeLocked(txn.out_ref, /*several=*/0);
  if (!out.present || out.cts == kMaxTimestamp) {
    // No out-edge, or the out-partner has not committed: it cannot have
    // committed first of the structure (§3.6).
    return false;
  }
  const EdgeTime in = EdgeTimeLocked(txn.in_ref, kMaxTimestamp);
  if (!in.present) return false;
  const Timestamp own_cts =
      (committing_now || !txn.IsCommitted())
          ? kMaxTimestamp
          : txn.commit_ts.load(std::memory_order_acquire);
  // Fig 3.10 line 4: dangerous iff the out-partner committed no later than
  // the in-partner (and before the pivot itself).
  return out.cts <= in.cts && out.cts <= own_cts;
}

Status ConflictTracker::AbortVictimLocked(TxnState* caller, TxnState* pivot,
                                          TxnState* reader, TxnState* writer) {
  unsafe_aborts_.fetch_add(1, std::memory_order_relaxed);

  TxnState* counterpart = (pivot == reader) ? writer : reader;
  TxnState* victim = nullptr;
  if (!pivot->IsActive()) {
    // The pivot already committed; the only abortable member of the newly
    // completed structure is the other endpoint of this edge — which is
    // always the caller (§3.4: "the transaction responsible for the last
    // detected dependency will be aborted").
    victim = counterpart;
  } else {
    switch (options_.victim_policy) {
      case VictimPolicy::kPivot:
        victim = pivot;
        break;
      case VictimPolicy::kYoungest: {
        victim = pivot;
        if (counterpart->IsActive() && counterpart->id > pivot->id) {
          victim = counterpart;
        }
        break;
      }
    }
  }
  assert(victim != nullptr && victim->IsActive());
  // Forensics: classify the victim by its position in the dangerous
  // structure. The edge is reader ->rw-> writer; if the victim is the
  // pivot itself that is the classification, otherwise the victim is the
  // edge's other endpoint: with the pivot reading, the victim wrote the
  // pivot's out-edge (T_out); with the pivot writing, the victim read the
  // pivot's in-edge (T_in).
  TxnState* other = (victim == pivot) ? counterpart : pivot;
  const AbortReason why = (victim == pivot)     ? AbortReason::kSsiPivot
                          : (pivot == reader)   ? AbortReason::kSsiOutSide
                                                : AbortReason::kSsiInSide;
  victim->SetAbortCause(why, other->id);
  if (victim == caller) {
    return Status::Unsafe("dangerous structure: consecutive rw-conflicts");
  }
  // The reason must be written before the release store: the victim reads
  // it after an acquire load of marked_for_abort, with no common mutex.
  victim->abort_reason =
      Status::Unsafe("dangerous structure: chosen as victim");
  victim->marked_for_abort.store(true, std::memory_order_release);
  return Status::OK();
}

Status ConflictTracker::MarkLocked(TxnState* caller, TxnState* reader,
                                   TxnState* writer) {
  // §4.6: conflicts are not recorded against transactions already destined
  // to abort.
  for (const TxnState* t : {reader, writer}) {
    if (t->status.load(std::memory_order_acquire) == TxnStatus::kAborted ||
        t->marked_for_abort.load(std::memory_order_acquire)) {
      return Status::OK();
    }
  }

  const bool flags_mode =
      options_.conflict_tracking == ConflictTracking::kFlags;

  // Fig 3.3 (basic): a committed pivot can no longer abort itself; its
  // still-active counterpart must go instead.
  if (flags_mode) {
    if (writer->IsCommitted() && writer->out_conflict_flag) {
      unsafe_aborts_.fetch_add(1, std::memory_order_relaxed);
      assert(caller == reader);
      // The caller read into a committed pivot: it is the T_in side.
      caller->SetAbortCause(AbortReason::kSsiInSide, writer->id);
      return Status::Unsafe("committed pivot (writer) has out-conflict");
    }
    if (reader->IsCommitted() && reader->in_conflict_flag) {
      unsafe_aborts_.fetch_add(1, std::memory_order_relaxed);
      assert(caller == writer);
      // The caller wrote out of a committed pivot: it is the T_out side.
      caller->SetAbortCause(AbortReason::kSsiOutSide, reader->id);
      return Status::Unsafe("committed pivot (reader) has in-conflict");
    }
  }

  // Record the rw-antidependency reader -> writer — tentatively: §3.7.1
  // says conflicts are never recorded against transactions that will abort
  // because of them, so if the edge completes a dangerous structure we
  // abort the victim and roll the recording back (the victim's edges never
  // enter the MVSG, and the survivor must not carry a dead edge into its
  // own commit check).
  const bool saved_reader_out_flag = reader->out_conflict_flag;
  const bool saved_writer_in_flag = writer->in_conflict_flag;
  const ConflictRef saved_reader_out = reader->out_ref;
  const ConflictRef saved_writer_in = writer->in_ref;
  SetEdgeLocked(reader, writer);

  // Evaluate both endpoints as potential pivots. Committed pivots must be
  // resolved now (their own commit check already passed); active pivots are
  // resolved now only under the abort-early optimization (§3.7.1),
  // otherwise at their commit (Fig 3.2 / 3.10).
  for (TxnState* t : {reader, writer}) {
    if (t->IsActive() && !options_.abort_early) continue;
    if (t->marked_for_abort.load(std::memory_order_relaxed)) continue;
    if (DangerousLocked(*t, /*committing_now=*/false)) {
      reader->out_conflict_flag = saved_reader_out_flag;
      writer->in_conflict_flag = saved_writer_in_flag;
      reader->out_ref = saved_reader_out;
      writer->in_ref = saved_writer_in;
      return AbortVictimLocked(caller, t, reader, writer);
    }
  }
  return Status::OK();
}

Status ConflictTracker::MarkReadOfNewerVersion(TxnState* reader,
                                               TxnId creator_id,
                                               Timestamp creator_cts) {
  (void)creator_cts;
  if (!Participates(*reader) || creator_id == reader->id) return Status::OK();
  // creator_cts > reader's snapshot by construction, so they overlap.
  PairLatch latch(txn_manager_, reader, creator_id,
                  OverlapFloor(*reader, *txn_manager_));
  TxnState* creator = latch.partner();
  if (creator == nullptr || !Participates(*creator)) return Status::OK();
  return MarkLocked(reader, reader, creator);
}

Status ConflictTracker::OnReaderSawExclusiveHolder(TxnState* reader,
                                                   TxnId writer_id) {
  if (!Participates(*reader) || writer_id == reader->id) return Status::OK();
  // A holder that committed inside the reader's (eventual) snapshot is no
  // antidependency — the reader sees its version — and FindLatched skips
  // it before anything dereferences it.
  PairLatch latch(txn_manager_, reader, writer_id,
                  OverlapFloor(*reader, *txn_manager_));
  TxnState* writer = latch.partner();
  if (writer == nullptr || !Participates(*writer)) return Status::OK();
  return MarkLocked(reader, reader, writer);
}

Status ConflictTracker::OnWriterSawSIReadHolder(TxnState* writer,
                                                TxnId reader_id) {
  if (!Participates(*writer) || reader_id == writer->id) return Status::OK();
  // Fig 3.5: "where rl.owner has not committed or commit(rl.owner) >
  // begin(T)" — only overlapping readers matter, and FindLatched drops
  // the others under the registry shard mutex, before anything
  // dereferences them (a suspended reader that overlaps nothing active
  // may be collected at any moment). For a writer without a snapshot yet
  // (late allocation, §4.5), the eventual snapshot will be >= the
  // *current* stable watermark (monotonic), so a reader whose commit is
  // already below the watermark provably cannot overlap. A reader
  // committed above the watermark might still be invisible to the
  // writer's eventual snapshot, so its edge must be recorded (possibly a
  // false positive, never a missed conflict).
  PairLatch latch(txn_manager_, writer, reader_id,
                  OverlapFloor(*writer, *txn_manager_));
  TxnState* reader = latch.partner();
  if (reader == nullptr || !Participates(*reader)) return Status::OK();
  return MarkLocked(writer, reader, writer);
}

Status ConflictTracker::CommitCheck(TxnState* txn) {
  if (!Participates(*txn)) return Status::OK();
  if (options_.conflict_tracking == ConflictTracking::kFlags) {
    if (txn->in_conflict_flag && txn->out_conflict_flag) {
      unsafe_aborts_.fetch_add(1, std::memory_order_relaxed);
      txn->SetAbortCause(AbortReason::kSsiPivot, 0);
      return Status::Unsafe("pivot at commit: in- and out-conflict set");
    }
    return Status::OK();
  }
  txn->in_ref.Tidy();
  txn->out_ref.Tidy();
  if (DangerousLocked(*txn, /*committing_now=*/true)) {
    unsafe_aborts_.fetch_add(1, std::memory_order_relaxed);
    // The out-partner that committed first, when one is known (0 for
    // kSelf: several partners).
    txn->SetAbortCause(AbortReason::kSsiPivot, txn->out_ref.partner);
    return Status::Unsafe("pivot at commit: out-partner committed first");
  }
  return Status::OK();
}

}  // namespace ssidb
