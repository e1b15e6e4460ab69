// TxnState: the engine-internal transaction record.
//
// Mirrors the paper's transaction object: begin/commit timestamps, status,
// and the Serializable SI book-keeping — inConflict/outConflict as either
// booleans (Fig 3.1, basic algorithm) or transaction references
// (Fig 3.9/3.10, the precise variant). Conflict fields and the
// active→committed/aborted status transition are guarded by the
// per-transaction `ssi_mu` latch. The paper's global "atomic begin/end"
// blocks (§3.2/§4.4) are realized *pairwise*: conflict marking locks the
// latches of both endpoints in transaction-id order, and the commit-time
// dangerous-structure check runs under the committing transaction's own
// latch, so every marking serializes with every status transition it can
// observe — without a system-wide mutex (the PostgreSQL SSI partitioning
// strategy, Ports & Grittner VLDB 2012).
//
// A committed transaction that still holds SIREAD locks is *suspended*
// (§3.3): its TxnState stays registered so later conflicts can be detected,
// until no concurrent transaction remains.

#ifndef SSIDB_TXN_TRANSACTION_H_
#define SSIDB_TXN_TRANSACTION_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "src/common/abort_reason.h"
#include "src/common/inline_vec.h"
#include "src/common/options.h"
#include "src/common/status.h"
#include "src/lock/lock_key.h"
#include "src/storage/version.h"

namespace ssidb {

class Table;

enum class TxnStatus : uint8_t { kActive, kCommitted, kAborted };

struct TxnState;

/// inConflict/outConflict in the precise (kReferences) representation
/// (Fig 3.9/3.10).
///
/// kNone/kSelf play the thesis's NULL / self-pointer roles. Where the
/// thesis replaces references to committed partners by self-references at
/// commit time (to avoid dangling pointers after cleanup), we instead
/// *collapse* them: drop the shared_ptr and keep the partner's commit
/// timestamp (kCollapsed). This is strictly more precise than the thesis's
/// replacement (the real commit time survives) while still breaking
/// reference chains so memory stays bounded by the overlap window.
///
/// kSelf (multiple conflicts of one polarity) is evaluated conservatively:
/// as an out-conflict it means "some partner may have committed first"
/// (commit time 0); as an in-conflict it means "some partner may still be
/// active" (commit time +inf). See DESIGN.md for why the thesis's literal
/// self-commit-time evaluation can be unsound on the out side.
struct ConflictRef {
  enum class Kind : uint8_t { kNone, kSelf, kOther, kCollapsed };
  Kind kind = Kind::kNone;
  std::shared_ptr<TxnState> other;
  /// Partner commit timestamp; valid when kind == kCollapsed.
  Timestamp collapsed_cts = 0;

  bool IsSet() const { return kind != Kind::kNone; }
  void Clear() {
    kind = Kind::kNone;
    other.reset();
    collapsed_cts = 0;
  }
  void SetSelf() {
    kind = Kind::kSelf;
    other.reset();
  }
  void SetOther(std::shared_ptr<TxnState> t) {
    kind = Kind::kOther;
    other = std::move(t);
  }
  void Collapse(Timestamp cts) {
    kind = Kind::kCollapsed;
    other.reset();
    collapsed_cts = cts;
  }
};

struct TxnState {
  explicit TxnState(TxnId id_in, IsolationLevel iso)
      : id(id_in), isolation(iso) {}

  const TxnId id;
  const IsolationLevel isolation;

  /// Snapshot timestamp. 0 until assigned; with late_snapshot (§4.5) the
  /// assignment happens after the first statement's locks are granted.
  std::atomic<Timestamp> read_ts{0};

  /// 0 until commit. Writing commits: allocated from the commit ring —
  /// inside the flat-combining certification stage when the transaction
  /// has recorded conflict state (atomic-in-order with the
  /// dangerous-structure checks; commit_combiner.h), lock-free on the
  /// conflict-free fast path (txn_manager.h "Certification triage").
  /// Read-only commits: the stable watermark at commit (may tie with
  /// other read-only commits; see txn_manager.h).
  std::atomic<Timestamp> commit_ts{0};

  std::atomic<TxnStatus> status{TxnStatus::kActive};

  /// Set (under this transaction's ssi_mu) when another transaction's
  /// conflict processing selected this transaction as a victim; honoured at
  /// the next operation or at commit.
  std::atomic<bool> marked_for_abort{false};
  /// Why the mark was set; written before the release store of
  /// marked_for_abort, read only after an acquire load observes true.
  Status abort_reason;

  /// Abort forensics (abort_reason.h): the taxonomy class of this abort
  /// and, when the cause was an rw-antidependency, the conflicting
  /// transaction's id. First writer wins — the classification made at the
  /// decision site sticks; later generic fallbacks cannot overwrite it.
  /// TxnManager::AbortInternal reads these exactly once per abort.
  std::atomic<uint8_t> abort_cause{0};
  std::atomic<TxnId> abort_conflict_txn{0};

  /// Classify this abort (no-op if already classified).
  void SetAbortCause(AbortReason r, TxnId conflict) {
    uint8_t expected = 0;
    if (abort_cause.compare_exchange_strong(expected,
                                            static_cast<uint8_t>(r),
                                            std::memory_order_relaxed)) {
      if (conflict != 0) {
        abort_conflict_txn.store(conflict, std::memory_order_relaxed);
      }
    }
  }

  /// Per-transaction latch: guards the conflict state below and the
  /// active→committed/aborted transition of `status`. Lock ordering: when
  /// two transactions' latches are needed (pairwise conflict marking),
  /// acquire in ascending txn-id order; ssi_mu is acquired before the
  /// CommitCombiner's lock and the TxnManager's registry mutexes, never
  /// after — and the combiner never takes any latch (checks read partner
  /// state through atomics), so a combining committer holds only its own.
  std::mutex ssi_mu;

  // --- Serializable SI conflict state (guarded by ssi_mu). ---
  /// Basic algorithm (Fig 3.1): booleans.
  bool in_conflict_flag = false;
  bool out_conflict_flag = false;
  /// Precise algorithm (Fig 3.9): references. An edge's two refs point at
  /// each other (reader.out_ref and writer.in_ref), a shared_ptr cycle;
  /// TidyRefLocked collapses refs to finished partners, and the
  /// transaction manager drops a transaction's own refs once no later
  /// conflict can reach them (abort, suspended cleanup, teardown).
  ConflictRef in_ref;
  ConflictRef out_ref;

  void DropConflictRefs() {
    in_ref.Clear();
    out_ref.Clear();
  }

  /// True once the transaction was retired to the suspended-state epoch
  /// reclaimer (§3.3). Written by the committing thread just before
  /// Retire publishes the state (epoch.h slot handoff).
  bool suspended = false;

  // --- Write set (owned by the executing client thread). ---
  struct WriteRecord {
    TableId table;
    std::string key;
    VersionChain* chain;
    Version* version;
    /// The owning table, for commit-time shard hint maintenance
    /// (Table::NoteCommit). Tables live for the engine's lifetime.
    Table* table_ref = nullptr;
  };
  std::vector<WriteRecord> write_set;

  /// In kPage granularity, the page lock keys this transaction wrote;
  /// used for page-level first-committer-wins bookkeeping (§4.2).
  std::vector<LockKey> page_writes;

  /// Row locks held on version chains (row granularity, version.h), so
  /// that release is O(held): the chains this transaction owns, and those
  /// it holds a shared or SIREAD lock on. Appended by the executing
  /// thread; emptied by TxnManager — owners at commit or abort, shared
  /// locks at commit or abort, SIREADs at abort or by the suspended
  /// cleanup, which may run on another thread while the committing one
  /// still empties `owned_chains`.
  InlineVec<VersionChain*, 4> owned_chains;
  InlineVec<VersionChain*, 8> read_chains;

  bool IsActive() const { return status.load() == TxnStatus::kActive; }
  bool IsCommitted() const { return status.load() == TxnStatus::kCommitted; }

  /// The paper's begin(T) for overlap tests: the snapshot timestamp.
  Timestamp BeginTs() const { return read_ts.load(); }
};

}  // namespace ssidb

#endif  // SSIDB_TXN_TRANSACTION_H_
