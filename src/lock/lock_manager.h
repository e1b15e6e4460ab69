// Lock manager (paper §2.2.1, §3.2, §3.5).
//
// Modes: kShared (S2PL reads; blocks and is blocked by kExclusive),
// kExclusive (writes, every isolation level) and kSIRead, the paper's new
// mode: it never blocks anyone (Fig 3.4), and its meeting with kExclusive
// on one item is the rw-antidependency both sides report.
//
// One meeting point per key. Under row granularity a key with a version
// chain keeps its row locks on the chain, under the chain's latch
// (version.h): owner, S2PL shared holders, SSI SIREAD holders. A read
// step (SIREAD, owner check, snapshot read) and a write step (owner claim,
// SIREAD collection) are critical sections on that one latch, so
// whichever runs second sees the first. This table keeps gap, supremum
// and page keys, absent-key rows (an S2PL shared lock on a key without a
// chain, the exclusive lock a write of such a key takes before it creates
// the chain; version.h, "Absent keys"), the waits-for graph shared by
// table and chain waits, the deadlock detector, and the stripes chain
// waits park on. The SIReadIndex it owns keeps SIREADs of absent keys and
// pages, and scan ranges.
//
// Page keys keep SIREAD (index) and EXCLUSIVE (here) apart, and Acquire
// orders both sides publish-then-probe: a kSIRead publishes, then
// collects EXCLUSIVE holders; a kExclusive grants, then collects SIREAD
// holders. A probe that misses ran before the other side's publication,
// so the other side's probe sees it.
//
// Range SIREADs (row-granularity SSI scans, §3.5). A Scan of [lo, hi] on
// table T publishes one range SIREAD, and writers stab T's ranges:
//
//   reader R: (R1) publish range [lo, hi]          [range stripe mutex]
//             (R2) collect the chains in [lo, hi]  [table shard latches]
//             (R3) per collected k, one latched step on k's chain: report
//                  a foreign owner, read at the snapshot, mark ignored
//                  newer versions (Fig 3.4 lines 8-9)  [chain latch]
//   writer W of k: (W1) claim k's owner            [chain latch]
//                  (an insert first takes its absent-key and
//                  insert-intention gap locks and creates k's chain)
//             (W3) stab T's ranges with k          [range stripe mutex]
//             then install; commit stamps the version before it clears
//             the owner.
//
// Claim: if R and W are concurrent, R reports W or W reports R. Suppose
// R reports nothing.
//   * k's chain existed at R2, so R2 collected it. R3 saw no owner, so
//     either R3's critical section preceded W1's — then R1 →(sb)
//     R3-unlock →(sync) W1-lock →(sb) W3 and W3 sees the range — or W had
//     committed and cleared the owner after stamping, and R3 read the
//     newer version and marked the edge (unless R's callback stopped
//     before k: Scan then still probes the owners of the rows it skipped).
//   * k's chain did not exist at R2: R2's shard critical section precedes
//     the chain's insertion, so R1 →(sb) R2-unlock →(sync) the insert
//     →(sb) W3, and W3 sees the range.
// Neighbours and gaps never enter the argument, which is why W3 follows
// the chain's creation rather than the gap grant, and why R probes no gap
// or successor and does not re-collect (S2PL still needs its next-key
// locks and re-collect). A range covers exactly [lo, hi] and lives until
// R's cleanup (§3.3), unless a later scan by R coalesced it further.
//
// Key kinds: rows, gaps (the InnoDB-style gap below a key, §2.5.2), a
// per-table supremum gap and pages (§4.1); kinds never interact.
// Deadlocks: kImmediate runs a DFS before each block (the requester
// aborts on a cycle); kPeriodic models Berkeley DB's detector, a thread
// that kills the youngest member of each cycle every interval (§6.1.3).

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
  /// rw evidence gathered at grant time on non-row keys: kExclusive
  /// reports kSIRead holders (Fig 3.5 line 4), kSIRead reports kExclusive
  /// holders (Fig 3.4 line 3).
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

  /// Release every lock `txn` holds in this table and the SIREAD index
  /// (abort, and cleanup of suspended transactions). Chain locks are
  /// released from the transaction's own lists (TxnManager).
  void ReleaseAll(TxnId txn) {
    ReleaseAllExceptSIRead(txn);
    sireads_.ReleaseAll(txn);
  }

  /// Release `txn`'s kShared/kExclusive locks in this table but keep its
  /// SIREADs (commit of an SSI transaction, Fig 3.2 line 9).
  void ReleaseAllExceptSIRead(TxnId txn);

  /// True if `txn` holds a SIREAD in the index (absent keys, pages,
  /// ranges). One hash lookup.
  bool HoldsAnySIRead(TxnId txn) const { return sireads_.HoldsAny(txn); }

  /// True if `txn` holds `mode` on `key` in this table or the index
  /// (tests).
  bool Holds(TxnId txn, const LockKey& key, LockMode mode) const;

  // --- Chain waits (row locks on version chains, version.h) ---

  /// The generation of the parking stripe `chain` maps to; a blocked
  /// chain step records it under the chain latch (RowLockWait::gen).
  const std::atomic<uint64_t>* ChainWaitGen(const VersionChain* chain) {
    return &ChainStripeOf(chain).gen;
  }

  /// Park `txn`, whose step on `chain` blocked on `wait->blockers`:
  /// register its waits-for edges (EnterWait), then sleep until the
  /// stripe's generation moves past `wait->seen_gen` (kOk: retry the step)
  /// or lock_timeout_ms passes. The first call counts in lock.waits.
  Status WaitOnChain(TxnId txn, const VersionChain* chain,
                     RowLockWait* wait);

  /// A request that waited was granted: drop its waits-for edges.
  void EndChainWait(TxnId txn, const RowLockWait& wait) {
    if (wait.counted) ClearWaits(txn);
  }

  /// Wake the requests parked on `chain`'s stripe (a release whose chain
  /// recorded a waiter).
  void WakeChain(const VersionChain* chain) { Wake(ChainStripeOf(chain)); }

  /// Apply lock-count changes made by chain steps to the gauges.
  void Account(const RowLockDelta& delta) {
    if (delta.locks != 0) {
      chain_locks_.fetch_add(delta.locks, std::memory_order_relaxed);
    }
    if (delta.sireads != 0 || delta.siread_keys != 0) {
      sireads_.AccountChains(delta.sireads, delta.siread_keys);
    }
  }

  /// Live (txn, key, mode) grants in this table, the index and on chains,
  /// from relaxed counters (sampling touches no mutex).
  size_t GrantCount() const {
    const int64_t chain = chain_locks_.load(std::memory_order_relaxed);
    return static_cast<size_t>(
               grant_count_.load(std::memory_order_relaxed)) +
           sireads_.GrantCount() + sireads_.ChainGrantCount() +
           static_cast<size_t>(chain > 0 ? chain : 0);
  }

  /// Row-kind entries in the lock table: absent-key locks only (tests).
  size_t RowEntryCount() const;

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

  /// Which shards a transaction may hold locks in, so ReleaseAll visits
  /// only those. The bit is set before the acquisition attempt; a
  /// spurious bit only costs a wasted visit.
  struct TouchStripe {
    mutable std::mutex mu;
    std::unordered_map<TxnId, uint64_t> shard_masks;
  };

  static constexpr size_t kNumShards = 64;
  static constexpr size_t kNumTouchStripes = 64;
  static_assert(kNumShards <= 64, "shard mask is a uint64_t");

  const Shard& ShardFor(const LockKey& key) const {
    return shards_[key.Hash() % kNumShards];
  }

  static size_t TouchStripeOf(TxnId txn) {
    return (txn * 0x9E3779B97F4A7C15ULL >> 32) % kNumTouchStripes;
  }
  void MarkShardTouched(TxnId txn, size_t shard_idx);
  /// Remove and return the touched-shard mask (0 if never touched).
  uint64_t TakeTouchedShards(TxnId txn);

  /// Parking stripes for chain waits, keyed by chain address. `gen` moves
  /// under `mu` on every wake; a waiter sleeps while it equals the value
  /// its blocked step read under the chain latch.
  struct ChainStripe {
    std::mutex mu;
    std::condition_variable cv;
    std::atomic<uint64_t> gen{0};
  };
  static constexpr size_t kNumChainStripes = 64;
  ChainStripe& ChainStripeOf(const VersionChain* chain) {
    const auto a = reinterpret_cast<uintptr_t>(chain);
    return chain_stripes_[(a >> 6) * 0x9E3779B97F4A7C15ULL >> 58];
  }

  /// Move the stripe's generation and wake its sleepers.
  void Wake(ChainStripe& stripe);

  /// Register `txn`'s waits-for edges; a cycle (kImmediate) or a detector
  /// kill returns kDeadlock with the edges cleared.
  Status EnterWait(TxnId txn, const TxnId* blockers, size_t n);

  /// Owners (other than txn) whose granted bits block `mode` on a key of
  /// the given kind (gap keys use insert-intention compatibility).
  static void CollectBlockers(const LockEntry& entry, TxnId txn,
                              LockMode mode, LockKind kind,
                              std::vector<TxnId>* blockers);

  /// Clear the waits-for edge set of a transaction that stopped waiting.
  void ClearWaits(TxnId txn);

  /// DFS from `start` through waits-for edges; true if `start` is on a
  /// cycle. Caller holds graph_mu_.
  bool OnCycleLocked(TxnId start) const;

  /// Periodic detector body.
  void DetectorLoop();
  void KillCyclesLocked();

  /// Drop every grant `txn` holds in `shard`. Caller holds shard.mu.
  void ReleaseLocked(Shard& shard, TxnId txn);

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
  ChainStripe chain_stripes_[kNumChainStripes];
  SIReadIndex sireads_;

  mutable std::mutex graph_mu_;
  std::unordered_map<TxnId, std::vector<TxnId>> waits_for_;
  std::unordered_set<TxnId> killed_;

  std::atomic<uint64_t> deadlocks_detected_{0};
  std::atomic<uint64_t> waits_{0};
  /// Live table grants (SubGrants asserts they never go below zero), and
  /// chain owners plus shared holders (signed: a release may be accounted
  /// before a concurrent grant's increment lands).
  std::atomic<uint64_t> grant_count_{0};
  std::atomic<int64_t> chain_locks_{0};

  std::atomic<bool> stop_{false};
  std::thread detector_;
};

}  // namespace ssidb

#endif  // SSIDB_LOCK_LOCK_MANAGER_H_
