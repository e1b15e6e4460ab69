// Lock manager (paper §2.2.1, §3.2, §3.5).
//
// Three modes:
//   kShared     - S2PL read locks; block and are blocked by kExclusive.
//   kExclusive  - write locks (all isolation levels).
//   kSIRead     - the paper's new mode: records that an SI transaction read
//                 an item. Never blocks and never delays anyone (Fig 3.4);
//                 its coexistence with kExclusive on one key is the signal
//                 of an rw-antidependency, which Acquire() reports to the
//                 caller from *both* acquisition orders so that the §3.2
//                 race cannot lose a conflict.
//
// SIREAD state does not live in the blocking lock table: it is kept in a
// dedicated read-optimized structure, the SIReadIndex (siread_index.h),
// because SIREAD traffic dominates the read path, never participates in
// blocking, and has different lifetime rules — SIREAD locks outlive their
// owner's commit (§3.3) and are dropped by suspended-transaction cleanup.
// The LockManager owns the index and keeps the historical API (kSIRead
// Acquire/Holds/HoldsAnySIRead/ReleaseAll) by delegation; hot paths use
// the allocation-free fast lane AcquireSIRead() instead.
//
// Cross-structure atomicity (the §3.2 race, Figs 3.4/3.5): with SIREAD
// and EXCLUSIVE state in two differently-latched structures, conflict
// evidence must still never be lost. Both sides follow publish-then-probe:
//
//   reader: (R1) publish SIREAD in the index   [index stripe mutex]
//           (R2) probe EXCLUSIVE holders here  [lock-table shard mutex]
//   writer: (W1) grant EXCLUSIVE here          [lock-table shard mutex]
//           (W2) probe SIREAD holders in index [index stripe mutex]
//
// Claim: the reader reports the writer, or the writer reports the reader
// (possibly both). Suppose the reader misses (R2 sees no EXCLUSIVE). Then
// R2's critical section on the shard mutex precedes W1's. By program
// order R1 precedes R2, and W1 precedes W2. So R1 happens-before W2
// through the chain R1 →(sb) R2-unlock →(sync) W1-lock →(sb) W2, and W2's
// probe of the index — a later critical section on the same stripe mutex
// — must observe the published SIREAD. Symmetrically, if the writer
// misses, the reader's probe observes the EXCLUSIVE grant. The only lost
// case would need both probes to precede both publishes, which
// publish-then-probe program order forbids.
//
// Range SIREADs (row-granularity SSI scans, §3.5). A Scan of [lo, hi] on
// table T publishes one range SIREAD, not a SIREAD per entry and gap, and
// writers stab the table's ranges with the row key
// (SIReadIndex::CollectRangeHolders). The steps are
//
//   reader R: (R1) publish range [lo, hi]        [range stripe mutex]
//             (R2) collect the chains in [lo, hi] [table shard latches]
//             (R3) probe EXCLUSIVE holders of (kRow, k) for each
//                  collected k                     [lock-table shard mutex]
//             (R4) read each chain at the snapshot, marking ignored newer
//                  committed versions (Fig 3.4 lines 8-9)
//   writer W of k in [lo, hi]:
//             (W1) grant EXCLUSIVE on (kRow, k)    [lock-table shard mutex]
//             (W2) insert only: grant the insert-intention EXCLUSIVE on
//                  the gap below next(k), then create k's chain
//                                                  [shard mutex, latches]
//             (W3) stab T's ranges with k         [range stripe mutex]
//             then install the version; commit stamps it before the
//             commit releases W1's lock.
//
// W3 runs after the statement's last exclusive grant and after k's chain
// is in the table's index. Claim: if R and W are concurrent (W's write is
// not in R's snapshot), R reports W or W reports R. Suppose R's steps
// report nothing. Three cases:
//
//   * Update (or delete) of an existing key: k's chain was in the index
//     before W1, so R2 collected k (or R2's latch critical section
//     preceded the chain's insertion, and R1 happens-before W3 through
//     that latch and W's index probe). R3 probed (kRow, k) and missed W1,
//     so either R3's shard critical section preceded W1's — then R1
//     →(sb) R3-unlock →(sync) W1-lock →(sb) W3, and W3 observes the range
//     — or W had already committed and released; its commit stamped the
//     version before that release, so R4 reads k, ignores the newer
//     version and marks the edge (unless R's callback stopped the scan
//     before k: then R never returned k, as with per-entry SIREADs).
//   * Insert whose chain does not exist at R2: R2's latch critical
//     section on k's shard precedes W2's chain insertion, so R1 →(sb)
//     R2-unlock →(sync) W2's insert →(sb) W3: W3 observes the range.
//   * Insert next to a concurrently committed neighbour k': a writer W'
//     inserted k' between W's next(k) lookup and R2, so the gap R saw
//     around k is bounded by k', not by the next(k) whose gap W2 locked,
//     and a gap lock taken by R could miss W. This is why W3 follows the
//     chain's creation rather than the gap grant: R2 either collects k
//     itself (first case: R3 probes (kRow, k) and R4 reads k) or precedes
//     its insertion (second case). Neighbours and gaps never enter the
//     argument.
//
// So R probes no gap, no successor and does not re-collect; S2PL needs
// its next-key locks and re-collect, SSI does not. A probe at W1 alone
// would lose a scan that publishes between W1 and the chain's creation:
// R2 misses k, and R3 sees no lock on any key R collected. R's range
// stays until R's cleanup (suspension, §3.3), like its point SIREADs. A
// range covers exactly [lo, hi], so a writer between hi and the scan's
// successor finds no reader there, whichever runs first — unless a later
// scan by the same transaction coalesced across that gap. Page
// granularity and S2PL keep their per-page and next-key locks.
//
// Keys carry a kind: row locks, gap locks (the InnoDB-style "gap before
// this key" used for phantom detection, §2.5.2), a per-table supremum gap,
// and page locks (Berkeley DB granularity). Locks of different kinds never
// interact.
//
// Deadlocks: a waits-for graph keyed by transaction id. kImmediate runs a
// DFS before each block (requester aborts on a cycle); kPeriodic models
// Berkeley DB's db_perf detector: a background thread scans every interval
// and kills the youngest transaction of each cycle (§6.1.3).

#ifndef SSIDB_LOCK_LOCK_MANAGER_H_
#define SSIDB_LOCK_LOCK_MANAGER_H_

#include <atomic>
#include <cassert>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/common/inline_vec.h"
#include "src/common/options.h"
#include "src/common/status.h"
#include "src/lock/lock_key.h"
#include "src/lock/siread_index.h"
#include "src/storage/table.h"
#include "src/storage/version.h"

namespace ssidb {

/// rw-antidependency evidence buffer: no allocation for up to 8 partners.
using RwConflicts = SIReadIndex::ConflictBuf;

/// Outcome of an Acquire call.
struct AcquireResult {
  /// kOk, kDeadlock (victim of immediate or periodic detection) or
  /// kTimedOut. SIREAD acquisition always succeeds.
  Status status;
  /// rw-antidependency evidence gathered at grant time (§3.2): acquiring
  /// kExclusive reports current kSIRead holders (Fig 3.5 line 4);
  /// acquiring kSIRead reports current kExclusive holders (Fig 3.4 line 3).
  RwConflicts rw_conflicts;
};

class LockManager {
 public:
  struct Config {
    DeadlockPolicy deadlock_policy = DeadlockPolicy::kImmediate;
    uint32_t deadlock_scan_interval_ms = 500;
    uint32_t lock_timeout_ms = 10000;
    /// §3.7.3: granting kExclusive drops the owner's own kSIRead lock on
    /// the same key.
    bool upgrade_siread_locks = true;
  };

  explicit LockManager(const Config& config);
  ~LockManager();

  LockManager(const LockManager&) = delete;
  LockManager& operator=(const LockManager&) = delete;

  /// Acquire `mode` on `key` for `txn`. Blocks for kShared/kExclusive when
  /// incompatible locks are granted to other transactions; never blocks for
  /// kSIRead (delegated to the SIReadIndex). Re-acquiring an already-held
  /// mode is a no-op (returns any current conflict evidence again).
  /// Holding kShared and requesting kExclusive upgrades once other holders
  /// drain.
  AcquireResult Acquire(TxnId txn, const LockKey& key, LockMode mode);

  /// SSI read-path fast lane: publish `txn`'s SIREAD on (table, kind, key)
  /// and append the current EXCLUSIVE holders to `rw_out` (Fig 3.4
  /// line 3), in the publish-then-probe order the §3.2 argument above
  /// requires. Never blocks; performs no heap allocation on the warm
  /// no-conflict path (see the SIReadIndex contract) — in particular the
  /// key travels as a Slice end to end.
  void AcquireSIRead(TxnId txn, TableId table, LockKind kind, Slice key,
                     RwConflicts* rw_out);

  /// Release every lock `txn` holds — blocking locks *and* SIREAD entries
  /// (abort of any transaction, and cleanup of suspended ones).
  void ReleaseAll(TxnId txn);

  /// Release `txn`'s blocking (kShared/kExclusive) locks but keep its
  /// SIREAD entries (commit of a transaction that must stay suspended,
  /// Fig 3.2 line 9). With SIREAD state in its own index this touches
  /// only the blocking lock table.
  void ReleaseAllExceptSIRead(TxnId txn);

  /// True if `txn` currently holds at least one kSIRead lock (commit-time
  /// suspension test, Fig 3.2 line 11). One hash lookup in the index.
  bool HoldsAnySIRead(TxnId txn) const;

  /// True if `txn` holds `mode` on `key` (tests).
  bool Holds(TxnId txn, const LockKey& key, LockMode mode) const;

  /// Append the EXCLUSIVE holders of `key` other than `self` to `out`: the
  /// probe half of AcquireSIRead, on its own for a scan whose range
  /// SIREAD is already published (R3 above). Heterogeneous probe: no
  /// owning key is materialized.
  void CollectExclusiveHolders(TxnId self, const LockKeyView& key,
                               RwConflicts* out) const;

  /// Total number of (txn, key, mode-bit) grants — blocking table plus
  /// SIREAD index. Maintained as relaxed atomic counters at grant/release
  /// time, so stats sampling never touches the shard mutexes.
  size_t GrantCount() const {
    return static_cast<size_t>(
               grant_count_.load(std::memory_order_relaxed)) +
           sireads_.GrantCount();
  }

  /// The SIREAD predicate index. The transaction manager drives suspended
  /// cleanup against it directly; tests and benchmarks may probe it.
  SIReadIndex* siread_index() { return &sireads_; }
  const SIReadIndex* siread_index() const { return &sireads_; }

  /// Counters for the benchmark reports.
  uint64_t deadlocks_detected() const {
    return deadlocks_detected_.load(std::memory_order_relaxed);
  }
  uint64_t waits() const { return waits_.load(std::memory_order_relaxed); }

 private:
  struct LockEntry {
    /// owner -> bitmask of LockMode bits granted (kShared/kExclusive only;
    /// SIREAD lives in the SIReadIndex).
    std::unordered_map<TxnId, uint8_t> holders;
  };

  struct Shard {
    mutable std::mutex mu;
    std::condition_variable cv;
    std::unordered_map<LockKey, LockEntry, LockKeyHash, LockKeyEq> entries;
    /// Per-transaction list of keys with at least one grant in this shard.
    std::unordered_map<TxnId, std::vector<LockKey>> held;
  };

  /// Striped registry of which shards a transaction has (possibly)
  /// acquired blocking locks in, so ReleaseAll visits only those shards
  /// instead of sweeping all 64. A shard bit is set *before* the
  /// acquisition attempt, so a granted lock always has its bit visible to
  /// any later release; spurious bits (failed acquisitions) only cost a
  /// wasted shard visit.
  struct TouchStripe {
    mutable std::mutex mu;
    std::unordered_map<TxnId, uint64_t> shard_masks;
  };

  static constexpr size_t kNumShards = 64;
  static constexpr size_t kNumTouchStripes = 64;
  static_assert(kNumShards <= 64, "shard mask is a uint64_t");

  Shard& ShardFor(const LockKey& key) {
    // key.Hash() is cached: shard routing and the entries-map probe of one
    // acquisition hash the key bytes exactly once.
    return shards_[key.Hash() % kNumShards];
  }
  const Shard& ShardFor(const LockKey& key) const {
    return shards_[key.Hash() % kNumShards];
  }

  static size_t TouchStripeOf(TxnId txn) {
    return (txn * 0x9E3779B97F4A7C15ULL >> 32) % kNumTouchStripes;
  }
  void MarkShardTouched(TxnId txn, size_t shard_idx);
  /// Remove and return the touched-shard mask (0 if never touched).
  uint64_t TakeTouchedShards(TxnId txn);

  /// Owners (other than txn) whose granted bits block `mode` on a key of
  /// the given kind (gap keys use insert-intention compatibility).
  static void CollectBlockers(const LockEntry& entry, TxnId txn,
                              LockMode mode, LockKind kind,
                              std::vector<TxnId>* blockers);

  /// Record/clear the waits-for edge set of a blocked transaction.
  void SetWaits(TxnId txn, const std::vector<TxnId>& blockers);
  void ClearWaits(TxnId txn);

  /// DFS from `start` through waits-for edges; true if `start` is on a
  /// cycle. Caller holds graph_mu_.
  bool OnCycleLocked(TxnId start) const;

  /// Periodic detector body.
  void DetectorLoop();
  void KillCyclesLocked();

  /// Drop every grant `txn` holds in `shard`. Caller holds shard.mu.
  void ReleaseLocked(Shard& shard, TxnId txn);
  /// Release blocking locks only (shared by ReleaseAll and
  /// ReleaseAllExceptSIRead).
  void ReleaseBlocking(TxnId txn);

  /// Decrement grant_count_ by `n` with the not-below-zero contract:
  /// every decrement corresponds to previously counted grants, asserted
  /// in debug builds.
  void SubGrants(uint64_t n) {
    const uint64_t prev = grant_count_.fetch_sub(n, std::memory_order_relaxed);
    assert(prev >= n && "grant_count_ underflow");
    (void)prev;
  }

  const Config config_;

  Shard shards_[kNumShards];
  TouchStripe touch_stripes_[kNumTouchStripes];
  SIReadIndex sireads_;

  mutable std::mutex graph_mu_;
  std::unordered_map<TxnId, std::vector<TxnId>> waits_for_;
  std::unordered_set<TxnId> killed_;

  std::atomic<uint64_t> deadlocks_detected_{0};
  std::atomic<uint64_t> waits_{0};
  /// Live blocking-table grants. Unsigned with an explicit
  /// decrement-not-below-zero contract (SubGrants).
  std::atomic<uint64_t> grant_count_{0};

  std::atomic<bool> stop_{false};
  std::thread detector_;
};

}  // namespace ssidb

#endif  // SSIDB_LOCK_LOCK_MANAGER_H_
