// ConflictTracker: the Serializable Snapshot Isolation algorithm (Ch. 3).
//
// SSI lets ordinary snapshot isolation run, but records every
// rw-antidependency between concurrent transactions and aborts one
// transaction whenever a single transaction accumulates both an incoming
// and an outgoing antidependency — the pivot of the dangerous structure
// that Fekete et al.'s theorem proves is present in every non-serializable
// SI execution (Theorem 2, §2.5.1). Detection is conservative (no cycle
// tracing), so false positives are possible; the kReferences mode trims
// them using commit-time comparisons (§3.6).
//
// The tracker is invoked from the paper's two detection points:
//   * MarkReadOfNewerVersion - a read ignored a newer committed version
//     (Fig 3.4 lines 8-9);
//   * OnReaderSawExclusiveHolder / OnWriterSawSIReadHolder - the lock
//     manager observed SIREAD and EXCLUSIVE locks coexisting on one key,
//     in either acquisition order (Fig 3.4 line 3 / Fig 3.5 line 4).
// and from the commit path (TxnManager::CommitCheck):
//   * CommitCheck - Fig 3.2 lines 3-5 (kFlags) or Fig 3.10 (kReferences).
//
// Locking: the paper's atomic blocks (§3.2) were a single system mutex in
// the seed; they are now realized *pairwise*. Every mutation of conflict
// state locks the TxnState::ssi_mu latches of both edge endpoints in
// ascending txn-id order; the commit-time check runs under the committing
// transaction's own latch (TxnManager::Commit holds it around the
// CommitCheck hook and the committed transition). Marking therefore still
// serializes with the "mark T as committed" transition of either endpoint,
// closing the §3.2 race without a global lock. Third-party state (the
// commit timestamp/status of a previously recorded partner) is read
// through atomics; a partner committing concurrently is observed either
// before or after — both orders correspond to a legal global schedule of
// the seed's serialized marking. This mirrors the partitioned locking of
// the PostgreSQL SSI implementation (Ports & Grittner, VLDB 2012). The
// partner's latch is taken by TxnManager::FindLatched, which hands it over
// latched and so also keeps it allocated while it is used (txn_manager.h,
// "TxnState lifetime").
//
// Soundness note on kReferences (documented deviation, argued below): a
// transaction's dangerous structure is only lethal when its out-partner
// committed first among {in, pivot, out} (§3.6). We evaluate:
//   out side:  kOther(active) => not committed first; kOther/kCollapsed
//              (committed) => its commit time; kSelf => conservatively 0.
//   in side:   kOther(active)/kSelf => +inf; committed => commit time.
// Multi-conflict transactions therefore degrade to the basic-flag
// behaviour instead of adopting the thesis's literal self-commit-time
// rule, which can underestimate danger on the out side.
//
// Why kSelf reads as 0 on the out side. Fig 3.9 replaces a second
// out-partner by a self-reference, and Fig 3.10 then reads the pivot's own
// commit time as the out-partner's. Take an active pivot P with
// out-partners O1 and O2 (out = kSelf) and in-partner I: O1 commits at 10,
// I at 20, then P at 30. The literal rule compares 30 against 20 and finds
// no danger, yet O1 committed before both I and P — the Fig 3.8 structure
// that admits a cycle. The self time bounds the out-partners' commits from
// above where the test needs a lower bound, and without their identities
// the only sound one is 0. The in side needs an upper bound, so kSelf
// reads +inf there. Either way a kSelf side never looks safer than the
// basic algorithm's flags (Fig 3.2).

#ifndef SSIDB_SSI_CONFLICT_TRACKER_H_
#define SSIDB_SSI_CONFLICT_TRACKER_H_

#include "src/common/options.h"
#include "src/common/status.h"
#include "src/txn/txn_manager.h"

namespace ssidb {

class ConflictTracker {
 public:
  ConflictTracker(const DBOptions& options, TxnManager* txn_manager);

  /// A read by `reader` ignored a newer committed version created by
  /// `creator_id` (commit time `creator_cts` > reader's snapshot): an
  /// rw-antidependency reader -> creator. Returns kUnsafe if the *reader*
  /// must abort; other victims are marked asynchronously.
  Status MarkReadOfNewerVersion(TxnState* reader, TxnId creator_id,
                                Timestamp creator_cts);

  /// `reader`'s SIREAD acquisition found `writer_id` holding EXCLUSIVE on
  /// the same key (Fig 3.4 line 3). Returns kUnsafe if the reader must
  /// abort.
  Status OnReaderSawExclusiveHolder(TxnState* reader, TxnId writer_id);

  /// `writer`'s EXCLUSIVE acquisition found `reader_id` holding SIREAD on
  /// the same key (Fig 3.5 line 4). The overlap filter of Fig 3.5
  /// ("rl.owner has not committed or commit(rl.owner) > begin(T)") is
  /// applied here. Returns kUnsafe if the writer must abort.
  Status OnWriterSawSIReadHolder(TxnState* writer, TxnId reader_id);

  /// The commit-time dangerous-structure test; wire into
  /// TxnManager::Commit as the CommitCheck hook. The caller must hold
  /// txn->ssi_mu (TxnManager::Commit does). In kReferences mode this also
  /// collapses references to committed partners (the thesis's Fig 3.10
  /// lines 9-12).
  Status CommitCheck(TxnState* txn);

  /// Number of dangerous structures detected (aborts issued), for tests.
  uint64_t unsafe_aborts() const {
    return unsafe_aborts_.load(std::memory_order_relaxed);
  }

 private:
  /// Shared marking body. `caller` is the transaction executing on this
  /// thread; exactly one of reader/writer equals caller, and they differ.
  /// Caller must hold both endpoints' ssi_mu latches.
  Status MarkLocked(TxnState* caller, TxnState* reader, TxnState* writer);

  /// True if `txn` currently has both an in- and an out-conflict whose
  /// commit-time pattern is (or may be) dangerous. `committing_now` means
  /// the transaction is at its commit point (its own timestamp is later
  /// than every existing one).
  bool DangerousLocked(const TxnState& txn, bool committing_now) const;

  /// Effective commit time of an out-/in-conflict edge for the danger
  /// test; kMaxTimestamp when absent or not constraining.
  struct EdgeTime {
    bool present = false;
    Timestamp cts = kMaxTimestamp;  // kMaxTimestamp => not committed (yet)
  };
  /// `several` is the time a kSelf side reads as: 0 out, +inf in.
  static EdgeTime EdgeTimeLocked(const ConflictRef& ref, Timestamp several);

  /// Record the edge reader -> writer on both endpoints in the
  /// mode-appropriate representation.
  void SetEdgeLocked(TxnState* reader, TxnState* writer);
  /// One endpoint's side of an edge (kReferences): tidy, then point at
  /// `partner` or degrade to kSelf.
  static void SetRefLocked(ConflictRef* ref, TxnState* partner);

  /// Pick and dispatch the victim once `pivot` is dangerous. Returns
  /// kUnsafe if the victim is `caller`; otherwise marks the victim and
  /// returns OK.
  Status AbortVictimLocked(TxnState* caller, TxnState* pivot,
                           TxnState* reader, TxnState* writer);

  const DBOptions options_;
  TxnManager* const txn_manager_;
  std::atomic<uint64_t> unsafe_aborts_{0};
};

}  // namespace ssidb

#endif  // SSIDB_SSI_CONFLICT_TRACKER_H_
