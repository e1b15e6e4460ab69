// CommitRing: the lock-free commit pipeline — timestamp allocation, the
// commit-slot ring that orders version stamping against snapshot
// publication, and coverage completions for commit acknowledgment.
//
// The problem it solves: a commit stamps its versions *after* allocating
// its timestamp, so a snapshot taken from the raw clock could observe a
// half-stamped commit. The previous design kept a `std::set` of in-flight
// commit timestamps under a mutex and recomputed the stable watermark on
// every retire, waking every waiter through one condition variable with an
// unconditional notify_all. At high MPL that mutex + thundering herd *is*
// the commit pipeline. This structure replaces it:
//
//   * The commit clock is dedicated: every allocated timestamp belongs to
//     exactly one writing commit (transaction ids live in a separate id
//     counter). Consequently the timestamp sequence has no gaps, and
//     "which commits are still unstamped" needs no set — it is exactly the
//     suffix of timestamps whose ring slot is not yet stamped.
//   * Slots: `slot[ts % N]` is an atomic that the owner of `ts` stores
//     `ts` into once its versions are fully stamped. The stable watermark
//     advances by scanning consecutive stamped slots from the current
//     watermark and CAS-maxing it forward — every publisher drives the
//     scan; no lock, no notify-all.
//   * Slot reuse (the ring-full case): the owner of `ts` may overwrite
//     `slot[ts % N]` only once the watermark has covered the previous
//     occupant `ts - N` — i.e. `stable() >= ts - N`. Until then it parks
//     (bounded backpressure, counted in full_stalls) on one of the
//     waiter shards {mutex, condvar} keyed by `ts - N`; a successful
//     watermark advance from `s` to `e` wakes only the shards owning
//     timestamps in (s, e].
//
// Memory-ordering contract:
//   * The slot store, the scan's loads of the slots and of stable_, and
//     the watermark CAS are all seq_cst. A snapshot reader that observes
//     `stable() >= ts` therefore observes every version stamp (and every
//     storage-shard max-commit-ts hint) the owner of `ts` performed before
//     Publish, and the publish rule below has one total order to argue
//     in. On x86 the seq_cst slot store is one xchg; the loads stay movs.
//   * stable() loads are seq_cst: the checkpoint prune-floor protocol
//     (TxnManager::BeginCheckpointSweep) depends on a single total order
//     over watermark advances, floor publication and min-active
//     publication — see the proof sketch there. seq_cst loads cost the
//     same as acquire loads on x86 and the extra fence elsewhere is paid
//     on begin/commit paths, never per read.
//
// Liveness by construction (the publish rule): Publish stores its slot
// and then runs Drive on its own thread. Nothing else drives the scan and
// no timer re-drives it. Claim: once every timestamp <= T has published,
// those publishers' own drives leave stable() >= T. Let S be the single
// total order of seq_cst operations; a seq_cst load returns the last
// store to its location that precedes it in S. Call a Drive iteration
// *fresh* when all its loads follow, in S, every slot store of 1..T.
//   (1) The last publisher. The owner of the store that comes last in S
//       among those of 1..T runs Drive after it, so its iterations are
//       fresh. A fresh iteration that reads stable_ = s < T finds slots
//       s+1..T stamped (unless one was reused: case 3), scans to >= T
//       and CASes s -> end.
//   (2) A stale stable_ read makes the CAS fail. It fails only because
//       another driver's CAS raised stable_ after our load; we loop, and
//       the next iteration is fresh again. A driver whose CAS succeeds
//       always rescans, and that rescan follows its CAS in S. So the duty
//       to finish the scan stays with a fresh iteration until stable_ >=
//       T; every hand-off is a successful CAS that raises stable_, so
//       there are at most T of them.
//   (3) Ring-full reuse. A fresh scan can stop short at slot x <= T only
//       if x + kN already overwrote it. That owner's reuse check read
//       stable_ >= x (seq_cst) before its store, while the fresh
//       iteration read stable_ < x before its slot load; so the CAS that
//       raised stable_ to >= x follows the fresh stable_ read in S, the
//       rescan that CAS's driver runs is fresh, and it takes over the
//       duty as in (2). Reuse cannot wedge the ring either: the oldest
//       unpublished commit u has every predecessor published, so by
//       (1)-(2) stable_ reaches u - 1 >= u - N; u's reuse check passes,
//       or its park is woken by that advance (below), and u publishes.
// Hence every allocated timestamp is covered in finite time by drives
// Publish itself runs, and the two protocols below turn coverage into
// wakeups and callbacks.
//
// Missed-wakeup freedom (waiter vs driver): the waiter increments its
// shard's count (seq_cst) and only then checks the watermark; the driver
// CASes the watermark (seq_cst) and only then reads the count (seq_cst).
// In the seq_cst total order, a waiter that decided to sleep ordered its
// increment before the driver's CAS, so the driver's count read sees it
// and the driver notifies — taking the shard mutex first, so the notify
// cannot slip between the waiter's final predicate check and its sleep.
//
// Completions (asynchronous acknowledgment): the waiter registry doubles
// as a completion registry — OnCovered(ts, fn) parks {ts, fn} on the
// shard keyed by ts and the watermark-advance path drains every entry the
// advance covered, running callbacks outside all ring mutexes. Exactly
// the blocking-waiter protocol, with registration in place of parking:
// the registrant inserts under the shard mutex, bumps the shard's
// completion count (seq_cst), and only then re-checks the watermark; the
// driver CASes (seq_cst) and only then reads the count. If the driver's
// drain ran before the insert was visible, the registrant's re-check is
// ordered after the CAS in the seq_cst total order, sees coverage, and
// drains its own shard. Removal happens under the shard mutex, so every
// completion runs exactly once no matter how many drains race.

#ifndef SSIDB_TXN_COMMIT_RING_H_
#define SSIDB_TXN_COMMIT_RING_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "src/common/epoch.h"  // RoundUpPow2, TopologyShards
#include "src/obs/trace_ring.h"
#include "src/storage/version.h"

namespace ssidb {

class CommitRing {
 public:
  /// `slots` is rounded up to a power of two (minimum 2). Larger rings
  /// tolerate more concurrently-unstamped commits before backpressure.
  explicit CommitRing(uint64_t slots);

  CommitRing(const CommitRing&) = delete;
  CommitRing& operator=(const CommitRing&) = delete;

  /// Allocate the next commit timestamp: one fetch-add, callable lock-free
  /// (the conflict-free fast path and SI/S2PL writers allocate directly;
  /// certifying SSI committers allocate inside the CommitCombiner's pass,
  /// which orders allocation against the dangerous-structure checks).
  /// Every allocated timestamp MUST be published (allocation happens only
  /// after the commit decision is final).
  Timestamp Allocate();

  /// Declare `ts`'s versions fully stamped. May park briefly when the
  /// ring is full (see header comment); then drives the watermark forward
  /// on this thread (the publish rule).
  void Publish(Timestamp ts);

  /// Coverage completion: runs exactly once, after `stable() >= ts`. Fires
  /// on whichever thread drives the covering watermark advance (usually a
  /// later committer's Publish), or inline here when already covered.
  /// Callbacks run outside every ring mutex but on a shared commit-path
  /// thread: keep them short, and never block them on ring coverage.
  using Completion = std::function<void()>;

  /// Register `fn` against `ts` (see the completion protocol in the file
  /// header for the exactly-once + missed-drain argument).
  void OnCovered(Timestamp ts, Completion fn);

  /// The snapshot watermark: every commit with commit_ts <= stable() has
  /// fully stamped its versions.
  Timestamp stable() const {
    return stable_.load(std::memory_order_seq_cst);
  }

  /// Last allocated commit timestamp.
  Timestamp clock() const { return clock_.load(std::memory_order_relaxed); }

  /// Jump clock and watermark to at least `ts`. Quiescent use only
  /// (recovery at DB::Open, before any commit is in flight).
  void AdvanceTo(Timestamp ts);

  uint64_t slots() const { return mask_ + 1; }

  /// Number of waiter shards (power of two). Sized from the runtime core
  /// topology (TopologyShards, floored at the previous fixed 16): on big
  /// machines more completions and ring-full waiters park and wake without
  /// sharing a mutex/condvar line; small machines keep the old footprint.
  uint64_t waiter_shards() const { return waiter_mask_ + 1; }

  // --- Commit-pipeline counters (relaxed; registry contract). ---
  /// Waiter-shard notifications issued by watermark advances.
  uint64_t wakeups_issued() const {
    return wakeups_issued_.load(std::memory_order_relaxed);
  }
  /// Publishes that had to park because the ring was full.
  uint64_t full_stalls() const {
    return full_stalls_.load(std::memory_order_relaxed);
  }
  /// High-water mark of (allocated clock - watermark) observed at
  /// allocation: the deepest the in-flight commit window ever got.
  uint64_t max_depth() const {
    return max_depth_.load(std::memory_order_relaxed);
  }

  /// Hook the trace ring: ring-full stalls emit kRingStall events
  /// (payload = reuse floor, arg32 = ring size). Set once at DB::Open,
  /// before commits flow.
  void set_trace(obs::TraceRing* trace) { trace_ = trace; }

 private:
  struct WaiterShard;

  /// Advance the watermark over consecutive stamped slots, wake newly
  /// covered waiter shards and drain newly covered completions. Lock-free
  /// scan, run by Publish after its slot store (the publish rule).
  void Drive();
  /// Wake waiter shards owning timestamps in (from, to] and move that
  /// span's covered completions into `ready` (the caller runs them once
  /// every shard is notified, outside all ring mutexes).
  void WakeCovered(Timestamp from, Timestamp to,
                   std::vector<Completion>* ready);
  /// Move completions of `w` covered at `cover` into `ready`. Caller
  /// holds w.mu.
  void TakeCoveredLocked(WaiterShard* w, Timestamp cover,
                         std::vector<Completion>* ready);
  /// Drain one shard against the current watermark and run what matured
  /// (the registrant's self-drain in OnCovered's re-check path).
  void DrainShard(WaiterShard* w);
  /// Block until the watermark covers `ts` (ring-full backpressure).
  void WaitUntilCovered(Timestamp ts);

  /// One registered completion, homed on the shard keyed by its ts.
  struct PendingCompletion {
    Timestamp ts = 0;
    Completion fn;
  };

  struct alignas(64) WaiterShard {
    std::mutex mu;
    std::condition_variable cv;
    /// Parked-or-parking waiters; lets drivers skip the mutex when the
    /// shard is empty (the common case).
    std::atomic<uint32_t> count{0};
    /// Registered-not-yet-covered completions; mirrors completions.size()
    /// so drivers skip the mutex when none is parked here. seq_cst for the
    /// same missed-drain pairing as `count` (file header).
    std::atomic<uint32_t> comp_count{0};
    /// Guarded by mu. Unordered (a drain compares every entry's ts).
    std::vector<PendingCompletion> completions;
  };

  const uint64_t mask_;
  /// slot[ts & mask_] == ts  <=>  commit `ts` is fully stamped.
  const std::unique_ptr<std::atomic<Timestamp>[]> slots_;

  /// Commit clock: the last allocated commit timestamp.
  std::atomic<Timestamp> clock_{1};
  /// Watermark; trails the oldest unstamped commit.
  std::atomic<Timestamp> stable_{1};

  /// waiter_mask_ + 1 shards; waiters for ts park on ts & waiter_mask_.
  const uint64_t waiter_mask_;
  const std::unique_ptr<WaiterShard[]> waiters_;

  std::atomic<uint64_t> wakeups_issued_{0};
  std::atomic<uint64_t> full_stalls_{0};
  std::atomic<uint64_t> max_depth_{0};
  obs::TraceRing* trace_ = nullptr;
};

}  // namespace ssidb

#endif  // SSIDB_TXN_COMMIT_RING_H_
