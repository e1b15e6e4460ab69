// Multiversion record storage (paper §2.4, §2.5).
//
// Each key maps to a VersionChain: a latched, newest-first linked list of
// Versions. A version is uncommitted until its creator stamps a commit
// timestamp (before publishing its commit-ring slot), at which point it
// becomes atomically visible to snapshots taken at or after that
// timestamp. Deletes install tombstone versions (§3.5) so that the key keeps
// its slot in the index and the gap-lock keyspace stays stable.
//
// Row locks live on the chain (row granularity). Beside its versions a
// chain records, under the same latch, the key's exclusive owner (every
// isolation level), its S2PL shared holders and its SSI SIREAD holders.
// So the paper's meeting of a SIREAD and a write lock on one item (§3.2,
// Figs 3.4/3.5) is mutual exclusion on one latch:
//
//   * an SSI read records its SIREAD, reports a foreign owner as rw
//     evidence (Fig 3.4 line 3) and reads its snapshot in one latched
//     step (LockedRead);
//   * a write claims the owner, drops its own SIREAD (§3.7.3) and collects
//     the SIREAD holders (Fig 3.5 line 4) in one latched step
//     (ClaimOwner), and later runs first-committer-wins and installs its
//     version in another (CheckAndInstall).
//
// Whichever step takes the latch second sees the first. The chain never
// calls another subsystem under its latch, with one exception below:
// conflict marking, snapshot allocation, waits-for bookkeeping and parking
// all run in the caller between steps. A conflicting request (X against X
// or S, S against X) registers itself as a waiter and returns; the caller
// parks in the lock manager and retries. A release reports whether the
// chain recorded a waiter, and only then is a wake-up sent.
//
// Absent keys. A read never creates a chain, so a key without one keeps
// its SIREADs in the SIReadIndex key stripes and its S2PL shared locks in
// the lock table. Chains are created only by writes, under the
// insert-intention gap lock. The hand-over is a publish-then-probe pair:
//
//   reader R of k: (R1) publish in the index   (R2) re-probe the point index
//   chain creation: (C1) the chain enters the point index
//                   (C2) the chain's first SSI write step probes the index
//
// If R2 misses the chain, R1 precedes C1 and hence C2, so C2 sees R's
// entry and carries it onto the chain (CarryOnce: the index is probed
// under the chain latch, so no step on the chain can run between the
// probe and the adoption, and the carried entry is marked so that R's
// release also leaves the chain). If R2 finds the chain, R moves its
// SIREAD onto the chain itself. Either way every SSI writer of k, each of
// which runs its claim after C2, finds R on the chain. S2PL shared locks
// on absent keys need no carrying: a creator first takes the key's
// exclusive lock in the lock table, so no chain appears while such a
// reader holds its lock there, and a reader that re-probes after its
// lock-table grant and finds the chain takes the chain's shared lock too.

#ifndef SSIDB_STORAGE_VERSION_H_
#define SSIDB_STORAGE_VERSION_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/inline_vec.h"
#include "src/common/slice.h"

namespace ssidb {

/// Transaction ids and commit/read timestamps are separate counter
/// domains (ids name transactions; timestamps order snapshots and
/// commits — see txn_manager.h) and are never compared across domains.
/// 0 is never a valid id or commit timestamp.
using TxnId = uint64_t;
using Timestamp = uint64_t;

inline constexpr Timestamp kMaxTimestamp = UINT64_MAX;

/// One version of one record. Immutable after commit except for pruning.
struct Version {
  explicit Version(TxnId creator) : creator_txn_id(creator) {}

  /// The transaction that produced this version (Fig 3.4's
  /// xNew.creator). Used to resolve the owner for rw-conflict marking.
  TxnId creator_txn_id;

  /// 0 while uncommitted; the creator's commit timestamp afterwards.
  /// Stamped by the committing transaction before its commit-ring slot is
  /// published, read by concurrent visibility checks.
  std::atomic<Timestamp> commit_ts{0};

  /// True for delete markers.
  bool tombstone = false;

  std::string value;

  /// Next older version, or nullptr.
  Version* older = nullptr;
};

/// A newer committed version that a read ignored: evidence of an
/// rw-antidependency from the reader to the creator (§3.2, Fig 3.4 lines
/// 8-9).
struct NewerVersionInfo {
  TxnId creator_txn_id;
  Timestamp commit_ts;
};

/// Result of a snapshot read against one chain.
struct ReadResult {
  /// True if a version was visible and is not a tombstone.
  bool found = false;
  /// True if the visible version is the reader's own uncommitted write.
  bool own_write = false;
  /// Commit timestamp of the version the read observed (including a
  /// tombstone); 0 if it was the reader's own write or nothing was
  /// visible. Feeds the MVSG history oracle's wr/rw edges.
  Timestamp version_cts = 0;
  /// Committed versions newer than the one read (possibly all of them, if
  /// nothing was visible). The SSI layer marks conflicts with each creator
  /// that overlaps the reader. Inline storage: the common chain depths
  /// report no allocation.
  InlineVec<NewerVersionInfo, 4> newer;
  /// Nothing was visible AND the chain's cold suffix lives in a run file:
  /// the caller must fault the chain back (Table::FaultChain) and retry
  /// the read. Never set alongside a visible answer — a spilled version's
  /// commit_ts is at or below the prune horizon, hence at or below every
  /// active snapshot, so any resident visible version is the correct
  /// (newer) answer and the spilled one is unreachable.
  bool evicted = false;

  // Row-lock outcome of VersionChain::LockedRead.
  /// The requested shared lock conflicts with a foreign owner: nothing was
  /// read and the request is registered as a waiter (see RowLockWait).
  bool blocked = false;
  /// The lock step recorded a new holder for the reader (its TxnState must
  /// list the chain so that release is O(held)).
  bool lock_added = false;
  /// A foreign owner the read saw (kProbe/kSIRead): rw-antidependency
  /// evidence from the reader to it (Fig 3.4 line 3). 0 if none.
  TxnId writer = 0;
};

/// Transaction ids reported by a lock step without allocation.
using TxnIdBuf = InlineVec<TxnId, 8>;

/// Row-lock modes of a read step on a chain.
enum class RowLockMode : uint8_t {
  kNone,    ///< Plain read: no lock, no evidence (SI).
  kProbe,   ///< Report a foreign owner only (SSI scan rows: the range
            ///< SIREAD covers the key).
  kSIRead,  ///< Record an SSI SIREAD and report a foreign owner.
  kShared,  ///< S2PL shared lock: waits for a foreign owner.
};

/// The caller's side of one row-lock request on one chain, kept across the
/// retries of that request. A step that finds a conflict fills `blockers`,
/// counts itself as the chain's waiter and records the parking stripe's
/// generation (`gen`, read under the latch); the caller parks until the
/// generation moves (LockManager::WaitOnChain) and retries. The next step
/// on the chain with this wait (or StopWaiting) uncounts it.
struct RowLockWait {
  const std::atomic<uint64_t>* gen = nullptr;
  uint64_t seen_gen = 0;
  bool waiting = false;
  TxnIdBuf blockers;
  /// Lock-manager bookkeeping: set once the request waited (lock.waits
  /// counts it once) and its deadline.
  bool counted = false;
  int64_t deadline_ns = 0;
};

/// Lock-count changes made by chain lock steps, for the lock.grants and
/// siread.entries gauges (LockManager::Account).
struct RowLockDelta {
  int64_t locks = 0;        ///< Owners and shared holders.
  int64_t sireads = 0;      ///< SIREAD holders.
  int64_t siread_keys = 0;  ///< Chains with at least one SIREAD holder.

  bool empty() const { return locks == 0 && sireads == 0 && siread_keys == 0; }
};

/// What CheckAndInstall verifies before it installs.
enum class WriteCheck : uint8_t {
  kNone,         ///< Upsert.
  kMustBeAbsent, ///< Insert: no visible version (else DuplicateKey).
  kMustExist,    ///< Delete: a visible version (else NotFound).
  kCopyIfFound,  ///< GetForUpdate: read, and install a copy of the visible
                 ///< value unless it is the writer's own.
};

/// Outcome of VersionChain::CheckAndInstall.
struct WriteResult {
  /// First-committer-wins failed: a version committed after `fcw_since`;
  /// `fcw_creator` created the newest one. Nothing was installed.
  bool fcw_conflict = false;
  TxnId fcw_creator = 0;
  /// The check needs the spilled anchor: fault it in and retry.
  bool evicted = false;
  /// A visible non-tombstone version exists at read_ts (checked kinds).
  bool found = false;
  bool own_write = false;
  Timestamp version_cts = 0;
  /// The installed version (nullptr: nothing installed) and whether it
  /// overwrote the writer's earlier uncommitted version.
  Version* version = nullptr;
  bool replaced_own = false;
};

/// The chain latch: a 4-byte mutex over one futex word (0 free, 1 held,
/// 2 held with sleepers). A std::mutex is 40 bytes; with this latch a
/// chain and its row-lock state (owner and two inline holders) fit the 64
/// bytes the chain alone took with a std::mutex. Critical sections are
/// short and call no other subsystem, so a contended acquire spins briefly
/// before it sleeps.
class ChainLatch {
 public:
  void lock() {
    uint32_t c = 0;
    if (state_.compare_exchange_strong(c, 1, std::memory_order_acquire)) {
      return;
    }
    for (int spin = 0; spin < 64; ++spin) {
      c = 0;
      if (state_.load(std::memory_order_relaxed) == 0 &&
          state_.compare_exchange_weak(c, 1, std::memory_order_acquire)) {
        return;
      }
#if defined(__x86_64__)
      __builtin_ia32_pause();
#endif
    }
    while (state_.exchange(2, std::memory_order_acquire) != 0) {
      state_.wait(2, std::memory_order_relaxed);
    }
  }
  void unlock() {
    if (state_.exchange(0, std::memory_order_release) == 2) {
      state_.notify_one();
    }
  }

 private:
  std::atomic<uint32_t> state_{0};
};

/// The version list for a single key. All operations latch the chain; the
/// latch is never held while calling into other subsystems.
class VersionChain {
 public:
  VersionChain() = default;
  ~VersionChain();

  VersionChain(const VersionChain&) = delete;
  VersionChain& operator=(const VersionChain&) = delete;

  /// Snapshot read: return the newest version with commit_ts <= read_ts,
  /// or the reader's own uncommitted version if it has one. Collects the
  /// creators of newer committed versions into result.newer. Pass
  /// read_ts == kMaxTimestamp for locking (S2PL) reads of the latest
  /// committed state.
  ReadResult Read(TxnId reader, Timestamp read_ts, std::string* value);

  /// Install (or overwrite) writer's uncommitted version at the head.
  /// Returns the version pointer for commit-time stamping, and sets
  /// *replaced_own if the writer already had an uncommitted version here
  /// (so callers do not double-register the chain in the write set).
  Version* InstallUncommitted(TxnId writer, Slice value, bool tombstone,
                              bool* replaced_own);

  /// Roll back: remove writer's uncommitted head version, if present.
  void RemoveUncommitted(TxnId writer);

  /// Recovery bulk load: install an already-committed version (creator 0,
  /// the reserved "recovered" id) carrying its original commit timestamp,
  /// freeing the versions it supersedes — after Open every snapshot is at
  /// or past the recovered maximum, so the chain keeps one version.
  /// Idempotent when replay proceeds in commit-timestamp order: a chain
  /// whose newest committed version is at or past `commit_ts` is left
  /// untouched, so replaying the same WAL twice cannot duplicate or
  /// reorder versions. Only for quiescent chains (DB::Open recovery).
  void InstallRecovered(Timestamp commit_ts, Slice value, bool tombstone);

  /// First-committer-wins check (§2.5): true if some committed version has
  /// commit_ts > since; *creator (if non-null) then names the newest one's
  /// creator. Must be called while holding the write lock on the key so no
  /// new committed version can appear concurrently.
  bool HasCommittedVersionAfter(Timestamp since, TxnId* creator = nullptr);

  /// True if the newest committed version exists and is not a tombstone;
  /// used by Insert duplicate checks. Also reports that newest commit ts.
  bool LatestCommitted(Timestamp* commit_ts, bool* tombstone);

  /// Drop versions that no active snapshot can reach: everything strictly
  /// older than the newest committed version with commit_ts <= min_read_ts.
  /// Returns the number of versions freed. Called by the commit pipeline
  /// once the prune horizon passes a commit that wrote this chain.
  size_t Prune(Timestamp min_read_ts);

  /// Number of versions currently in the chain (test/introspection).
  size_t size() const;

  // --- Row locks (row granularity; see the file header) ---
  //
  // Each step below is one latched critical section. `wait` may be null
  // for modes that cannot block; `delta` accumulates lock-count changes.

  /// Read under a row lock: record `mode` for `reader` (kSIRead, kShared),
  /// report a foreign owner (kProbe, kSIRead) in result.writer, then read
  /// as Read() does. kShared against a foreign owner blocks instead:
  /// result.blocked, nothing read.
  ReadResult LockedRead(TxnId reader, RowLockMode mode, Timestamp read_ts,
                        std::string* value, RowLockWait* wait,
                        RowLockDelta* delta);

  /// Claim the exclusive owner for `writer`. Blocks (returns false, waiter
  /// registered in `wait`) against a foreign owner or foreign shared
  /// holders. On a grant: drops the writer's own SIREAD if
  /// `drop_own_siread` (§3.7.3), appends the other SIREAD holders to
  /// `sireaders` if non-null (Fig 3.5 line 4), and sets *newly_owned when
  /// the writer did not own the chain before.
  bool ClaimOwner(TxnId writer, bool drop_own_siread, TxnIdBuf* sireaders,
                  RowLockWait* wait, RowLockDelta* delta, bool* newly_owned);

  /// The owner's write step: first-committer-wins against `fcw_since`
  /// (kMaxTimestamp skips it), then `check` at `read_ts`, then install
  /// `value` (or, for kCopyIfFound, a copy of the visible value, which
  /// *read_value receives) as the writer's uncommitted version.
  WriteResult CheckAndInstall(TxnId writer, Timestamp fcw_since,
                              Timestamp read_ts, WriteCheck check,
                              Slice value, bool tombstone,
                              std::string* read_value);

  /// Clear `txn`'s ownership (after commit stamped its version, or after
  /// abort removed it). Returns true if a waiter must be woken.
  bool ReleaseOwner(TxnId txn, RowLockDelta* delta);

  /// Drop `txn`'s shared or SIREAD lock. Returns true if a waiter must be
  /// woken (a shared lock left and the chain records a waiter).
  bool ReleaseHolder(TxnId txn, RowLockDelta* delta);

  /// Uncount a request that stops waiting without retrying (abort on
  /// deadlock or timeout).
  void StopWaiting(RowLockWait* wait);

  /// True once the key's index SIREAD holders were carried onto the chain.
  bool carried() const { return carried_.load(std::memory_order_acquire); }

  /// The first SSI write step's carry-over (file header). Under the latch,
  /// unless already carried: `collect(TxnIdBuf*)` probes the index for the
  /// key's SIREAD holders (and marks the entry carried), and each becomes
  /// a SIREAD holder of the chain.
  template <typename Collect>
  void CarryOnce(Collect&& collect, RowLockDelta* delta) {
    std::lock_guard<ChainLatch> guard(latch_);
    if (carried_.load(std::memory_order_relaxed)) return;
    TxnIdBuf readers;
    collect(&readers);
    for (TxnId r : readers) AddSIReadLocked(r, delta);
    carried_.store(true, std::memory_order_release);
  }

  // Introspection (tests).
  TxnId owner() const;
  bool HoldsSIRead(TxnId txn) const;

  // --- Disk spill / fault protocol (storage tier; see storage_tier.h) ---
  //
  // A chain is "evicted" when its versions have been freed and its anchor
  // (newest committed version at spill time) lives durably in a run file.
  // spilled_cts_ records the anchor's commit timestamp and only grows —
  // it names the newest version that is durable in SOME live run, whether
  // or not the chain is currently resident. Invariant maintained by the
  // spiller: a version is only spilled when its commit_ts <= the prune
  // horizon, so it is invisible to FCW races and at-or-below every active
  // snapshot; and every resident version is newer than spilled_cts_ (new
  // installs commit past the horizon), so FaultInstall's tail append is
  // always order-correct.

  /// What a spill sweep (Table::SpillShards) should do with this chain.
  enum class SpillAction {
    kSkip,     ///< Hot, uncommitted, too new, or empty — leave resident.
    kDropNow,  ///< Anchor already durable in a run: versions freed inline.
    kWrite,    ///< Anchor copied out; caller writes a run then CommitSpill.
  };

  /// Phase A of the two-phase spill. Cold test: skips (clearing the
  /// accessed bit — second-chance) if the chain was touched since the last
  /// probe, has an uncommitted head, or its newest committed version is
  /// newer than `horizon` or larger than `max_value_bytes`. If the anchor's
  /// commit_ts equals spilled_cts_ it is already durable and the chain is
  /// evicted inline (kDropNow). Otherwise copies the anchor out for the
  /// caller to persist (kWrite). A hybrid chain — evicted but carrying
  /// resident versions installed by an upsert that never faulted the old
  /// anchor in — re-spills the same way: its newest committed version
  /// becomes the new anchor and shadows the stale run entry.
  SpillAction SpillProbe(Timestamp horizon, uint64_t max_value_bytes,
                         std::string* value, Timestamp* commit_ts,
                         bool* tombstone);

  /// Phase B: called after the run holding the anchor (commit_ts `cts`) is
  /// durable. Re-verifies under the latch that the chain is still exactly
  /// as probed (same newest committed cts, no uncommitted head, not
  /// touched); if so frees all versions and marks the chain evicted.
  /// Either way records cts as durable (spilled_cts_), so a skipped
  /// commit retries as kDropNow next sweep. Returns true if evicted.
  bool CommitSpill(Timestamp cts);

  /// Fault the spilled anchor back in (tier lookup result). No-op if the
  /// chain is no longer evicted (lost race with another faulter). The
  /// version is appended at the TAIL: residents installed since eviction
  /// committed past the horizon, hence past `cts`.
  void FaultInstall(Timestamp cts, Slice value, bool tombstone);

  /// Recovery (single-threaded, quiescent): a run holds `cts` for this
  /// key. If the WAL/checkpoint replay already installed a version at or
  /// past `cts`, the resident copy wins and the run entry is just recorded
  /// as durable; otherwise the chain is emptied and marked evicted so the
  /// run stays its home (no RAM cost on open).
  void SetEvictedRecovered(Timestamp cts);

  /// True if the chain is currently evicted (test/introspection).
  bool evicted() const;

 private:
  /// The shared and SIREAD holders of a chain: two inline, more in a heap
  /// array that lives until the set empties. A holder is
  /// (txn << 1) | shared. Arrays of the first heap size come from a small
  /// per-thread cache, so steady-state lock traffic does not allocate.
  class Holders {
   public:
    Holders() = default;
    ~Holders();
    Holders(const Holders&) = delete;
    Holders& operator=(const Holders&) = delete;

    static uint64_t Make(TxnId txn, bool shared) {
      return (txn << 1) | (shared ? 1 : 0);
    }
    static TxnId Txn(uint64_t h) { return h >> 1; }
    static bool Shared(uint64_t h) { return (h & 1) != 0; }

    bool Contains(uint64_t h) const;
    /// False if already present.
    bool Add(uint64_t h);
    /// False if absent.
    bool Remove(uint64_t h);
    template <typename Fn>
    void ForEach(Fn&& fn) const {
      const uint64_t* d = data();
      for (uint32_t i = 0; i < size_; ++i) fn(d[i]);
    }

   private:
    static constexpr uint32_t kInline = 2;
    const uint64_t* data() const { return cap_ == kInline ? inline_ : heap_; }
    uint64_t* data() { return cap_ == kInline ? inline_ : heap_; }

    uint32_t size_ = 0;
    uint32_t cap_ = kInline;
    union {
      uint64_t inline_[kInline];
      uint64_t* heap_;
    };
  };

  /// Free every version in the chain. Caller holds latch_.
  void FreeAllLocked();
  /// Read body shared by Read and LockedRead. Caller holds latch_.
  void ReadLocked(TxnId reader, Timestamp read_ts, std::string* value,
                  ReadResult* result);
  /// Head install shared by InstallUncommitted and CheckAndInstall.
  Version* InstallLocked(TxnId writer, Slice value, bool tombstone,
                         bool* replaced_own);
  bool AnySIReadLocked() const;
  /// Record a SIREAD holder, counting it in `delta`. Caller holds latch_.
  bool AddSIReadLocked(TxnId txn, RowLockDelta* delta);
  /// Register a blocked request as a waiter. Caller holds latch_.
  void BlockLocked(RowLockWait* wait);
  /// The request stopped waiting (it retries). Caller holds latch_.
  void UnwaitLocked(RowLockWait* wait);

  mutable ChainLatch latch_;
  /// Row-lock state, under latch_ (carried_ is also read without it).
  uint32_t waiters_ = 0;
  Version* newest_ = nullptr;
  /// Spill state, all under latch_. accessed_ is the clock bit: set by
  /// Read and InstallUncommitted, cleared by SpillProbe.
  bool evicted_ = false;
  bool accessed_ = false;
  std::atomic<bool> carried_{false};
  Timestamp spilled_cts_ = 0;
  TxnId owner_ = 0;
  Holders holders_;
};

static_assert(sizeof(VersionChain) <= 64,
              "a chain with its row locks keeps the 64 bytes of a chain "
              "without them");

}  // namespace ssidb

#endif  // SSIDB_STORAGE_VERSION_H_
