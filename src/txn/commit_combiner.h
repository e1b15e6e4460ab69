// CommitCombiner: flat-combining SSI commit certification.
//
// The problem: the dangerous-structure check (Fig 3.2 / Fig 3.10) must be
// one atomic unit with commit-timestamp allocation across every certifying
// committer, or a pivot's check could observe its out-partner as "not
// committed" while that partner wins a *smaller* timestamp — the structure
// would go undetected. PR 5 provided that unit with a plain mutex
// (`window_mu_`, PostgreSQL's SerializableXactHashLock role); under
// contention N committers paid N serialized lock handoffs and N cache-miss
// storms on the same line. Flat combining keeps the serialization but
// amortizes the handoffs: committers publish a certification request into
// a topology-sized slot array; whichever committer acquires the combiner
// lock certifies EVERY pending request in one pass — one acquisition, one
// walk, N verdicts — and the rest just spin on their own (cache-local)
// slot until their verdict appears.
//
// Batch atomicity (why one combined pass equals N serial critical
// sections): the combiner processes requests strictly sequentially under
// one lock acquisition. Request i's check runs after requests processed
// before it in the pass have either allocated their commit timestamp
// (published with a release store the check's partner reads go through)
// or been refused — exactly the state a serial run with that arrival
// order would show — and before requests after it have touched anything.
// Timestamps are allocated in pass order, so a same-batch partner
// processed later holds a LARGER timestamp: "partner committed first"
// (the §3.6 commit-time comparison) can never be satisfied by a
// same-batch successor, just as it cannot be by a later serial committer.
// The full certification-order proof, including the conflict-free fast
// path that bypasses this stage entirely, lives in txn_manager.h.
//
// The combiner lock is a leaf: the combiner runs check functions that
// take NO locks (the ConflictTracker's commit check reads partner state
// through atomics and the caller-held latch only — see
// conflict_tracker.h), and requesters spin while holding only their own
// TxnState latch. ssi_mu -> combiner lock is therefore the only nesting,
// and only for the requester's own latch, which the combiner never takes.

#ifndef SSIDB_TXN_COMMIT_COMBINER_H_
#define SSIDB_TXN_COMMIT_COMBINER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>

#include "src/common/status.h"
#include "src/txn/commit_ring.h"
#include "src/txn/transaction.h"

namespace ssidb {

class CommitCombiner {
 public:
  /// The commit-time dangerous-structure check, run under the requesting
  /// transaction's ssi_mu (held across Certify) by whichever thread
  /// combines the request.
  using CheckFn = std::function<Status(TxnState*)>;

  /// `slots` bounds the number of concurrently-certifying committers
  /// served without waiting (rounded up to a power of two; 0 sizes from
  /// the core topology). `batching` = false degrades to a plain mutex
  /// (one request per acquisition) — the PR 5 semantics, kept as the
  /// reference engine for differential tests.
  CommitCombiner(CommitRing* ring, uint32_t slots, bool batching);

  CommitCombiner(const CommitCombiner&) = delete;
  CommitCombiner& operator=(const CommitCombiner&) = delete;

  /// Certify one commit: run `check` (may be empty) atomically-in-order
  /// with commit-timestamp allocation across all concurrent Certify
  /// calls. On success stores the allocated timestamp (write commits) or
  /// the stable watermark (read-only commits) into *commit_ts AND
  /// publishes it in txn->commit_ts (release). On failure returns the
  /// check's verdict and leaves txn->commit_ts untouched. The caller must
  /// hold txn->ssi_mu.
  Status Certify(TxnState* txn, const CheckFn& check, bool has_writes,
                 Timestamp* commit_ts);

  // --- Deterministic decomposition of Certify (tests). Production code
  // uses Certify; tests Post several requests, run one Combine, then
  // Harvest each verdict, which pins the batch composition exactly. ---

  /// Publish a request without combining; returns its slot index. `check`
  /// must stay valid until Harvest.
  size_t Post(TxnState* txn, const CheckFn* check, bool has_writes);
  /// Run one combining pass over all currently pending requests (blocks
  /// on the combiner lock). Requests are processed in slot-index order.
  /// Returns the number certified.
  size_t Combine();
  /// Collect the verdict of a completed request and free its slot.
  Status Harvest(size_t slot_index, Timestamp* commit_ts);

  // --- Counters (relaxed; registry contract). ---
  /// Combining passes that certified at least one request.
  uint64_t combine_batches() const {
    return batches_.load(std::memory_order_relaxed);
  }
  /// Requests certified by those passes (combined/batches = mean batch).
  uint64_t combined_txns() const {
    return combined_.load(std::memory_order_relaxed);
  }
  /// Largest single combining pass.
  uint64_t max_batch() const {
    return max_batch_.load(std::memory_order_relaxed);
  }

  uint64_t slots() const { return mask_ + 1; }
  bool batching() const { return batching_; }

 private:
  /// Slot protocol: kFree -CAS by requester-> kClaimed -(fields written,
  /// release)-> kPending -(combiner: verdict written, release)-> kDone
  /// -(requester harvests, release)-> kFree. The release/acquire pairs on
  /// `state` carry the request fields to the combiner and the verdict
  /// back; no other synchronization touches a slot.
  enum SlotState : uint32_t { kFree, kClaimed, kPending, kDone };

  struct alignas(64) Slot {
    std::atomic<uint32_t> state{kFree};
    TxnState* txn = nullptr;
    const CheckFn* check = nullptr;
    bool has_writes = false;
    Status verdict;
    Timestamp commit_ts = 0;
  };

  /// The combining pass body. Caller holds combine_mu_.
  size_t CombineLocked();

  CommitRing* const ring_;
  const uint64_t mask_;
  const bool batching_;
  const std::unique_ptr<Slot[]> slots_;

  /// The certification critical section. Never contended by fast-path
  /// committers (they bypass Certify entirely); requesters that find it
  /// held do not block on it — they spin on their own slot and retry
  /// try_lock, so the holder combines on their behalf.
  std::mutex combine_mu_;

  std::atomic<uint64_t> batches_{0};
  std::atomic<uint64_t> combined_{0};
  std::atomic<uint64_t> max_batch_{0};
};

}  // namespace ssidb

#endif  // SSIDB_TXN_COMMIT_COMBINER_H_
