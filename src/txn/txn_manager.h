// TxnManager: transaction lifecycle, timestamps, suspension and cleanup.
//
// The seed faithfully mirrored the paper's single "system mutex" (§3.2's
// atomic blocks; §4.4's InnoDB kernel mutex): every begin, snapshot and
// commit-timestamp assignment, and conflict-flag mutation serialized
// through one lock — the bottleneck the paper itself observes bounds
// InnoDB's scalability (§6.4). PR 1 split that mutex; PR 5 narrowed the
// remainder to one commit-window mutex (PostgreSQL's
// SerializableXactHashLock role); this layer now has NO global mutex on
// the commit path at all:
//
//   * Timestamps: two lock-free counters. Transaction ids come from
//     `id_clock_`; commit timestamps from the CommitRing's dedicated
//     commit clock. Splitting the domains is what makes the commit
//     pipeline ring-indexable: every commit timestamp belongs to exactly
//     one writing commit, so "which commits are unstamped" is a gap-free
//     suffix — no set, no mutex (see commit_ring.h). The two domains are
//     never compared: overlap and visibility tests all use read/commit
//     timestamps (commit domain); ids only name transactions.
//   * Certification (the dangerous-structure check made atomic with
//     commit-timestamp publication) runs in a flat-combining stage
//     (commit_combiner.h): committers that need it publish a request and
//     one combiner-of-the-moment certifies the whole batch under a single
//     lock acquisition. Committers that provably don't need it skip the
//     stage entirely and allocate lock-free — see "Certification triage"
//     below for the soundness argument.
//   * Snapshot consistency: commits publish their versions *before*
//     becoming visible to new snapshots via the CommitRing's stable
//     watermark. A committing transaction allocates its timestamp (in
//     certification order for certifying commits; lock-free otherwise),
//     stamps its versions, then publishes its ring slot; the watermark
//     advances by a lock-free scan of consecutive stamped slots, and
//     snapshots read the watermark — a snapshot can never observe a
//     half-stamped commit. Retiring and waiting take no lock;
//     acknowledgment waits park on sharded condvars keyed by commit
//     timestamp and are woken only when the watermark actually covers
//     them (no thundering herd).
//   * Registry: the transaction table and active set are sharded by
//     transaction id; the shard count follows the runtime core topology
//     (DBOptions::txn_registry_shards = 0) instead of a fixed constant.
//     Begin / first statement / commit / abort touch one shard, `Find`
//     probes one shard. `min_active_read_ts` is maintained from per-shard
//     cached minima, aggregated lock-free (see PublishMinActive) instead
//     of an O(active) rescan under a global lock.
//   * SSI conflict state: per-TxnState latches (TxnState::ssi_mu),
//     acquired pairwise in txn-id order by the ConflictTracker; the
//     commit-time dangerous-structure check runs under the committing
//     transaction's own latch (see transaction.h).
//
// Certification triage (who must enter the combiner, and why skipping it
// is sound). The check and commit-timestamp publication must be atomic
// across certifying committers or a pivot's check could observe its
// out-partner as "not committed" while that partner wins a *smaller*
// timestamp — an undetected dangerous structure. Under its own ssi_mu a
// committer classifies itself:
//
//   1. No check hook (SI/S2PL): the transaction records no
//      rw-antidependency edges and the ConflictTracker filters it out of
//      every partner's state (Participates()), so no concurrent check's
//      verdict mentions it. Its timestamp allocation is invisible to
//      certification — lock-free ring_.Allocate().
//   2. SSI with ALL conflict state clear (both flags false and both
//      references kNone, read under its own latch): edges are recorded
//      bilaterally under pairwise latches (conflict_tracker.h), so "we
//      have no edge" implies "no partner has an edge to us" at this
//      instant, and any edge recorded later happens-after our latch
//      releases — by which time our committed status and timestamp are
//      published together, exactly what a later serial certification
//      would observe. A transaction with no edge can neither be a pivot
//      nor complete a partner's structure — fast path, lock-free
//      allocation.
//   3. SSI with ANY conflict state: a partner's in-flight certification
//      may reason about our commit time; ordering our allocation against
//      their check requires the combiner. This is the only class that
//      enters the certification stage.
//
// Batch atomicity (why one combined pass == N serial critical sections):
// the combiner holds one lock and processes requests strictly in slot
// order; request i's check runs after every earlier request's verdict and
// timestamp are final and before any later request's exist — a serial
// schedule with that arrival order. Same-batch successors hold LARGER
// timestamps, so the §3.6 "out-partner committed first" comparison is
// decided identically to the serial run. And a certifying committer still
// holds its ssi_mu across the whole stage, so markings serialize against
// the check + status transition exactly as before (transaction.h). The
// per-pass details live in commit_combiner.h.
//
// Committed SSI transactions are not forgotten immediately: their TxnState
// remains registered (the paper's *suspended* state, §3.3) until no active
// transaction overlaps them, at which point their retained SIREAD locks
// are released and the state is dropped — the eager cleanup of the InnoDB
// prototype (§4.6.1). The retained states park in an epoch reclaimer
// keyed by commit timestamp (src/common/epoch.h): retiring is one
// per-thread slot touch instead of an ordered-multimap insert under a
// global mutex, and the "nothing to release" case stays lock-free. SI and
// S2PL transactions never participate in SSI conflict tracking (nothing
// ever resolves them after commit), so they are deregistered at commit
// and skip suspension entirely.
//
// Version reclamation rides the same trigger. A writing commit at
// commit_ts supersedes the previous version of each key it wrote, and
// that version becomes garbage once the prune horizon reaches commit_ts
// (from then on every snapshot sees this commit's version or a newer
// one). So FinalizeCoveredStep retires the write set's chain pointers
// into a second epoch reclaimer at commit_ts, next to the suspended
// state, and CleanupSuspended collects it at prune_horizon() and prunes
// each collected chain at that horizon. Cost is O(chains written), not
// O(table), and no thread wakes on a timer. Why this is correct:
//
//   * Pruning at any horizon is safe. VersionChain::Prune(h) keeps the
//     newest committed version at or below h and everything newer, and
//     prune_horizon() never exceeds an active snapshot or an in-progress
//     checkpoint sweep's watermark (the floor below). The epoch only says
//     when a prune pays; it guards nothing.
//   * Liveness follows from the reclaimer's rule: every retire is
//     followed by a collect (CleanupSuspended ends every commit — read-only
//     ones included — and every abort), and a collect may lag a retire by
//     a beat but never leads it (epoch.h). When the last transaction ends,
//     its collect runs at a horizon past every covered commit, unless a
//     checkpoint sweep holds the floor; the next transaction end after
//     EndCheckpointSweep then collects the rest. So once every
//     transaction has ended, no chain keeps a superseded version.
//   * Raw chain pointers are safe: a table never erases a key, so a
//     chain lives as long as its table, and DB destroys its catalog after
//     this manager, whose reclaimer may still hold uncollected pointers.
//
// Read-only commits (nothing to stamp) bypass the ring: their commit
// timestamp is the current stable watermark — they are "committed at" the
// snapshot boundary they already read at. Timestamps of distinct read-only
// commits may therefore collide (the epoch reclaimer permits duplicate
// epochs); a read-only commit never blocks on, and never blocks, the
// watermark.
//
// Submit/finalize split (asynchronous commit): a commit's verdict is final
// at stamp-publish, long before the fsync-bound acknowledgment, so the
// pipeline is cut there. CommitAsync runs the *submit* half on the calling
// thread — triage/certify, status transition, version stamping, WAL
// append, ring publication — and registers the *finalize* half as a
// CommitRing coverage completion: registry departure, SSI suspension and
// min-active publication once the watermark covers the commit
// (FinalizeCovered), then a LogManager flush subscription whose firing
// releases locks, records the ack histograms and runs the client callback
// (FinalizeAcked). The WAL append deliberately
// moves BEFORE ring publication: records reach the log buffer at submit,
// so a deep async pipeline batches into one fsync instead of one
// per blocked thread. That ordering is admissible because WAL durability
// order only needs to respect dependency order, and a reader of commit A's
// writes began after A's coverage — hence after A's append — so its own
// record lands at a higher LSN and prefix-durable flushes can never keep
// the dependent while dropping A. Lock release keeps the §4.5 invariant
// (below) because it stays strictly after coverage in FinalizeAcked; the
// early_lock_release knob moves it to FinalizeCovered (after coverage,
// before the flush — InnoDB's original §4.4 ordering). Blocking Commit()
// is a thin wrapper: submit + park until `done`. Nothing re-drives the
// pipeline on a timer: every publisher drives the watermark itself, and
// the publish rule in commit_ring.h proves that this alone covers every
// commit, so every completion and every parked Commit() is reached.

#ifndef SSIDB_TXN_TXN_MANAGER_H_
#define SSIDB_TXN_TXN_MANAGER_H_

#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/common/epoch.h"
#include "src/common/options.h"
#include "src/common/status.h"
#include "src/lock/lock_manager.h"
#include "src/obs/metrics.h"
#include "src/obs/trace_ring.h"
#include "src/txn/commit_combiner.h"
#include "src/txn/commit_ring.h"
#include "src/txn/log_manager.h"
#include "src/txn/transaction.h"

namespace ssidb {

class TxnManager {
 public:
  TxnManager(const DBOptions& options, LockManager* lock_manager,
             LogManager* log_manager);

  /// Quiesces the log (joins its group-commit flusher, if one runs)
  /// before teardown: an acknowledged async commit's pipeline tail (flush
  /// subscription -> FinalizeAcked -> cleanup) runs on
  /// the flusher thread and may still be touching this object after the
  /// client saw its `done` fire — the destructor must not race it.
  ~TxnManager();

  /// Start a transaction. S2PL transactions get their begin timestamp
  /// immediately; SI/SSI transactions defer it when late_snapshot is set
  /// (§4.5) until EnsureSnapshot. The transaction id is a lock-free
  /// fetch-add; only registration takes the (sharded) registry mutex.
  std::shared_ptr<TxnState> Begin(IsolationLevel isolation);

  /// Assign the read snapshot if not yet assigned. Called by the operation
  /// layer *after* the first statement's locks are granted, implementing
  /// the §4.5 optimization that lets single-statement updates never abort
  /// under first-committer-wins. The snapshot is the stable watermark (all
  /// commits at or below it are fully stamped).
  void EnsureSnapshot(TxnState* txn);

  /// Hook run under the committing transaction's ssi_mu latch, just
  /// before the commit timestamp is assigned (Fig 3.2 lines 3-5 /
  /// Fig 3.10 lines 3-6, provided by the SSI tracker). Consulted ONLY for
  /// transactions with recorded conflict state — a conflict-free SSI
  /// commit takes the fast path and never calls it (see the certification
  /// triage argument in the file header). When it does run, it runs
  /// inside the flat-combining certification stage, atomically-in-order
  /// with every other certifying commit's check and timestamp.
  using CommitCheck = std::function<Status(TxnState*)>;

  /// Commit acknowledgment callback: fires exactly once with the commit's
  /// final status — OK; the abort cause if certification (or a pending
  /// abort mark) killed the transaction during submit; kIOError if the
  /// commit stands in memory but its log flush failed (visible, not
  /// durable). Runs on an internal thread: whichever commit thread drives
  /// the covering watermark advance, or the thread whose log drain covers
  /// the commit when it waits on a flush — the group-commit flusher with
  /// fsync, a committing thread without — or inline in CommitAsync for
  /// commits acknowledged at submit. It runs with no engine mutex held (a
  /// draining committer still holds its own transaction's row locks), but
  /// on a shared pipeline thread — keep it short, and do not submit new
  /// transactions from inside it (signal the owning worker instead).
  using CommitCallback = std::function<void(Status)>;

  /// Commit, blocking: a thin wrapper over CommitAsync that parks until
  /// the completion pipeline acknowledges — submit and finalize share one
  /// code path with the asynchronous form (differentially tested).
  /// `redo` is the transaction's per-key redo, captured by the executor;
  /// it lands in the commit's WAL record so recovery can reinstall the
  /// write set. Returns kIOError if the commit succeeded in memory but its
  /// log flush failed (durable mode).
  Status Commit(const std::shared_ptr<TxnState>& txn,
                const CommitCheck& check, std::vector<RedoEntry> redo);

  /// Commit, asynchronous: submit on the calling thread, acknowledge via
  /// `done`. The submit half — certification triage (flat combiner or
  /// fast path), version stamping, WAL append, ring publication — runs
  /// here, so when CommitAsync returns the verdict is final and the
  /// commit is ordered; only watermark coverage and the group-commit
  /// flush complete off-thread (the finalize half, driven by the
  /// CommitRing completion registry and the LogManager flush
  /// subscriptions). It never waits on an fsync: without wal_fsync the
  /// WAL append may write() the log buffer on this thread, with it the
  /// flusher syncs. A certification failure aborts and fires `done` with
  /// the cause before returning. Ring-full backpressure may briefly park
  /// the submitting thread: commit_ring_slots bounds the in-flight
  /// window, so an async client can keep at most that many unacknowledged
  /// commits open.
  void CommitAsync(const std::shared_ptr<TxnState>& txn,
                   const CommitCheck& check, std::vector<RedoEntry> redo,
                   CommitCallback done);

  /// Abort: roll back installed versions, release all locks (including
  /// SIREAD — aborted transactions never participate in conflicts), drop
  /// registration.
  void Abort(const std::shared_ptr<TxnState>& txn);

  /// Resolve a transaction id to its state, if still registered (active,
  /// or committed-SSI-and-suspended). Thread-safe (one registry shard
  /// probed); the returned shared_ptr keeps the state alive past
  /// deregistration. Committed SI/S2PL transactions are not resolvable —
  /// nothing in the engine asks for them (the conflict tracker filters to
  /// SSI participants before use).
  std::shared_ptr<TxnState> Find(TxnId id) const;

  /// Oldest snapshot among active transactions (stable watermark if none);
  /// versions older than this are unreachable (prune threshold).
  /// Maintained as a monotonic CAS-max of lock-free aggregates over the
  /// registry shards' cached minima (see PublishMinActive).
  Timestamp min_active_read_ts() const {
    return min_active_read_ts_.load(std::memory_order_seq_cst);
  }

  /// Enter a checkpoint sweep: publishes the sweep watermark as a floor on
  /// version pruning and returns it. The watermark now advances lock-free,
  /// so floor publication cannot ride a mutex; instead the floor is
  /// store/re-read confirmed: publish the floor at the observed watermark,
  /// re-read the watermark, and repeat until it did not move past the
  /// floor (see BeginCheckpointSweep for the seq_cst ordering argument
  /// that makes prune_horizon() airtight). Sweeps are serialized by the
  /// caller (DB::checkpoint_write_mu_).
  Timestamp BeginCheckpointSweep();
  /// Leave the sweep: lifts the floor.
  void EndCheckpointSweep();

  /// Horizon for version pruning: min_active_read_ts capped by an
  /// in-progress checkpoint sweep's watermark. Without the cap, a pruner
  /// whose horizon ran past the sweep watermark W could delete a key's
  /// newest version <= W (because a newer one exists) before the sweep
  /// reads that chain — silently dropping a committed key from the
  /// checkpoint whose cut claims to cover it. Why the cap is race-free: every
  /// watermark advance, floor store, and min-active store/load involved is
  /// seq_cst, so they have one total order S. BeginCheckpointSweep returns
  /// W only after a floor(W) store F followed by a watermark load that
  /// still read W — hence any advance C past W is ordered after F in S. A
  /// min_active value above W can only come from an aggregate whose
  /// watermark load saw > W (ordered after C, hence after F), so a pruner
  /// that reads such a value reads the floor afterwards and sees F's W.
  /// And a sweep that begins after a horizon was computed has W' >= that
  /// horizon (the watermark is monotonic and min_active never exceeds it).
  Timestamp prune_horizon() const {
    const Timestamp min = min_active_read_ts();
    const Timestamp floor =
        checkpoint_floor_.load(std::memory_order_seq_cst);
    return min < floor ? min : floor;
  }

  /// Current commit-domain time: the last allocated commit timestamp.
  /// (S2PL reads latest-committed state; the history oracle records their
  /// scans at this bound.)
  Timestamp clock_now() const { return ring_.clock(); }

  /// Recovery hook (DB::Open, before any transaction begins): advance the
  /// commit clock and the stable watermark to at least `ts`, so every new
  /// transaction gets a snapshot that covers — and every new commit a
  /// timestamp above — all recovered commit timestamps.
  void AdvanceClockTo(Timestamp ts);

  /// The snapshot watermark: every commit with commit_ts <= stable_ts() has
  /// fully stamped its versions. New snapshots read at this timestamp.
  Timestamp stable_ts() const { return ring_.stable(); }

  /// Page-granularity first-committer-wins (§4.2): the commit timestamp of
  /// the last committed write to a page lock unit. Returns 0 if never
  /// written. Thread-safe.
  Timestamp PageLastWriteTs(const LockKey& page_key) const;

  /// As above, but also reports the committing transaction — the "creator"
  /// of the newest page version, needed to mark the rw-conflict when a
  /// page-granularity read ignores it (§4.2 + Fig 3.4 lines 8-9). Returns
  /// false if the page was never written.
  bool PageLastWrite(const LockKey& page_key, Timestamp* ts, TxnId* txn) const;

  size_t active_count() const;
  size_t suspended_count() const;

  /// Versions freed by the commit-driven prune (the gc.versions_pruned
  /// counter; see "Version reclamation" in the file header).
  uint64_t versions_pruned() const {
    return versions_pruned_.load(std::memory_order_relaxed);
  }

  /// Live entries in the page first-committer-wins map (kPage mode; 0
  /// otherwise). Bounded: CleanupSuspended periodically erases entries at
  /// or below min_active_read_ts.
  size_t page_write_entries() const;
  /// Total page-FCW entries reclaimed by those sweeps.
  uint64_t page_entries_pruned() const;

  // --- Commit-pipeline counters (registry commit.*). ---
  /// Blocking Commit() calls that parked on their completion (the
  /// wrapper's sync waiter). Ring-full parks count in ring_full_stalls().
  uint64_t commit_waits() const {
    return ack_parks_.load(std::memory_order_relaxed);
  }
  /// Waiter-shard notifications issued by watermark advances.
  uint64_t commit_wakeups() const { return ring_.wakeups_issued(); }
  /// Commits that stalled on a full commit-slot ring.
  uint64_t ring_full_stalls() const { return ring_.full_stalls(); }
  /// Deepest observed in-flight commit window (allocated - stable).
  uint64_t max_commit_window_depth() const { return ring_.max_depth(); }
  /// Commit-ack waiter shards (topology-sized; tests assert the sizing).
  uint64_t commit_waiter_shards() const { return ring_.waiter_shards(); }
  /// Combining passes that certified at least one commit.
  uint64_t commit_combine_batches() const {
    return combiner_.combine_batches();
  }
  /// Commits certified by those passes.
  uint64_t commit_combined_txns() const { return combiner_.combined_txns(); }
  /// Largest single combining pass.
  uint64_t commit_max_batch() const { return combiner_.max_batch(); }
  /// SSI commits that skipped certification (conflict-free fast path).
  uint64_t commit_fastpath() const {
    return fastpath_commits_.load(std::memory_order_relaxed);
  }
  /// Writing commits submitted but not yet acknowledged (published to the
  /// ring, completion not yet fired) — the live async pipeline depth.
  uint64_t commits_inflight() const {
    return commits_inflight_.load(std::memory_order_relaxed);
  }

  /// Aborts whose TxnState carried this taxonomy class (abort_reason.h).
  /// Counted exactly once per abort, in AbortInternal; an unclassified
  /// abort counts as kExplicit.
  uint64_t abort_count(AbortReason r) const {
    return abort_counts_[static_cast<size_t>(r)].load(
        std::memory_order_relaxed);
  }

  /// Register the commit-pipeline stage histograms and hook the trace ring
  /// (abort + ring-stall events). Called once by the DB façade, before any
  /// transaction begins.
  void RegisterMetrics(obs::MetricsRegistry* registry, obs::TraceRing* trace);

  /// Degraded mode: once the WAL reports an unrecoverable I/O failure
  /// (LogManager::SetIOErrorCallback fires), every subsequent writing
  /// commit fails fast with kIOError before certification or timestamp
  /// allocation — nothing new may claim durability. Read-only transactions
  /// keep committing. One-way for the process lifetime; a restart against
  /// healthy storage clears it.
  void EnterReadOnly() {
    read_only_.store(true, std::memory_order_release);
  }
  bool read_only() const {
    return read_only_.load(std::memory_order_acquire);
  }

  const DBOptions& options() const { return options_; }
  LockManager* lock_manager() { return lock_manager_; }

 private:
  struct alignas(64) RegistryShard {
    mutable std::mutex mu;
    /// Registered transactions homed here: active, plus committed SSI
    /// transactions retained for conflict resolution (§3.3).
    std::unordered_map<TxnId, std::shared_ptr<TxnState>> txns;
    std::unordered_set<TxnState*> active;
    /// Exact min over the assigned read_ts of `active` members
    /// (kMaxTimestamp when none is assigned) — except for the bounded
    /// instant inside ClaimSnapshotLocked where a pre-claim holds it one
    /// watermark step low. Maintained under `mu`: assignments store
    /// min(previous, snapshot), removals of the minimum holder recompute;
    /// read lock-free by PublishMinActive.
    std::atomic<Timestamp> min_read_ts{kMaxTimestamp};
  };

  RegistryShard& ShardFor(TxnId id) const {
    return shards_[id & shard_mask_];
  }

  /// Recompute shard.min_read_ts from its members — but only when the
  /// departing transaction's snapshot could have been the cached minimum.
  /// The cache is exact (see RegistryShard::min_read_ts), so a departing
  /// read_ts above it cannot change the minimum and the O(active) rescan
  /// is skipped; an unassigned snapshot (0) never constrained it. Caller
  /// holds shard.mu.
  static void NoteDepartureLocked(RegistryShard* shard,
                                  Timestamp departed_read_ts);

  /// Assign a snapshot: pre-claim the shard minimum at a watermark lower
  /// bound, take the snapshot from a second watermark read (the
  /// claim-then-read protocol that keeps PublishMinActive's lock-free
  /// aggregate from overshooting a registrant paused mid-registration —
  /// see the implementation comment), then settle the cache at the exact
  /// min(previous, snapshot). Caller holds shard->mu.
  Timestamp ClaimSnapshotLocked(RegistryShard* shard);

  /// Aggregate the per-shard minima (floored at the stable watermark) and
  /// CAS-max the result into min_active_read_ts_. Lock-free. Safe against
  /// concurrent registration via the claim-then-read protocol
  /// (ClaimSnapshotLocked): an aggregate that misses a registrant's
  /// pre-claim is ordered before that registrant's snapshot-defining
  /// watermark read, so the snapshot is >= the aggregate's base; one it
  /// sees bounds the aggregate directly. The true minimum is monotonic
  /// (snapshots are watermark-based and the watermark is monotonic), so
  /// CAS-max converges on it. Called after removals and watermark-raising
  /// events; registrations never need it (they cannot raise the minimum).
  void PublishMinActive();

  /// Abort body shared by Abort() and failed commits. The caller must NOT
  /// hold the transaction's ssi_mu latch.
  void AbortInternal(const std::shared_ptr<TxnState>& txn);

  /// Per-commit state that travels from submit to acknowledgment.
  /// Ownership is linear — exactly one stage (submit, coverage completion,
  /// flush subscription) holds the record at a time — so the deferred path
  /// passes a raw heap pointer between std::function stages (a raw pointer
  /// is trivially copyable and fits the small-buffer store, so the
  /// hand-offs never allocate), and a commit whose whole pipeline runs
  /// inline on the submitting thread lives on its stack and never touches
  /// the heap. FinalizeAcked frees heap instances (`heap` flag) at the
  /// same point the old shared_ptr release sat: after `done` is extracted,
  /// before it fires.
  struct AsyncCommit {
    TxnManager* mgr = nullptr;
    std::shared_ptr<TxnState> txn;
    CommitCallback done;
    Timestamp commit_ts = 0;
    /// True for deferred commits (new'd at the OnCovered hand-off).
    bool heap = false;
    /// 0 = nothing appended (read-only commit): no flush subscription.
    Lsn lsn = 0;
    /// Sampled stage timing (obs::SampleTick at submit; the flag travels
    /// so every stage of a sampled commit records, across threads).
    bool sampled = false;
    uint64_t t_entry = 0;    ///< CommitAsync entry (ack lag + total).
    uint64_t t_publish = 0;  ///< Ring publication (watermark stage).
    uint64_t t_flush = 0;    ///< Flush-subscription start (fsync stage).
  };

  /// Finalize, first half — runs once the watermark covers commit_ts
  /// (CommitRing completion; inline at submit for read-only commits and
  /// for writes covered at publish in the non-durable regime): registry
  /// departure, SSI suspension, then the acknowledgment whenever the
  /// flush ack is unconditional. Returns true when the commit was fully
  /// acknowledged; false when the caller must subscribe it to the
  /// group-commit flusher (FinalizeCovered does exactly that).
  bool FinalizeCoveredStep(AsyncCommit* ac);
  /// FinalizeCoveredStep + the flush subscription, for deferred (heap)
  /// commits arriving from the ring's completion registry.
  void FinalizeCovered(AsyncCommit* ac);
  /// Finalize, second half — the acknowledgment: stage/ack histograms,
  /// the client callback and cleanup. Frees heap instances.
  void FinalizeAcked(AsyncCommit* ac, Status flush_status);
  /// Post-commit lock release: SSI keeps SIREAD locks (Fig 3.2 line 9).
  void ReleaseCommitLocks(TxnState* txn);

  /// Release suspended transactions no longer overlapping anything active,
  /// and prune the chains of commits the prune horizon has passed. Fast
  /// path: one atomic compare inside each epoch reclaimer (oldest retired
  /// commit_ts vs the horizon) — no lock when nothing can be released.
  void CleanupSuspended();

  const DBOptions options_;
  LockManager* const lock_manager_;
  LogManager* const log_manager_;

  /// Transaction ids. Lock-free; a separate domain from commit timestamps
  /// (see file header).
  std::atomic<Timestamp> id_clock_{1};

  /// The commit pipeline: commit clock, slot ring, watermark, parking.
  CommitRing ring_;

  /// The certification stage (file header: certification triage / batch
  /// atomicity). Only SSI commits with recorded conflict state enter it;
  /// everything else allocates straight from ring_.
  CommitCombiner combiner_;

  /// SSI commits that skipped certification (triage class 2).
  std::atomic<uint64_t> fastpath_commits_{0};

  /// Degraded (read-only) mode flag — see EnterReadOnly().
  std::atomic<bool> read_only_{false};

  /// Writing commits published but not yet acknowledged (commit.inflight).
  std::atomic<uint64_t> commits_inflight_{0};
  /// Blocking Commit() wrappers that parked on their completion.
  std::atomic<uint64_t> ack_parks_{0};

  // --- Observability (src/obs). Stage timing is sampled 1-in-N per
  // thread (DBOptions::metrics_sample_period); a sampled commit records
  // every stage it executes, so per-stage counts stay comparable. ---
  obs::Histogram certify_ns_;        // Begin of submit -> timestamp final.
  obs::Histogram stamp_publish_ns_;  // Version stamping -> ring publish.
  obs::Histogram watermark_ns_;      // Ring publish -> watermark coverage.
  obs::Histogram wal_append_ns_;     // Encoding into the log buffer, plus
                                     // the inline drain (write(), acks it
                                     // covers) when there is no fsync.
  obs::Histogram fsync_wait_ns_;     // Group-commit flush wait.
  obs::Histogram total_ns_;          // Submit entry -> acknowledgment.
  obs::Histogram ack_lag_ns_;        // Ring publication (submit complete)
                                     // -> `done` fired: how long an async
                                     // client's submitted commit dangles
                                     // before acknowledgment (coverage +
                                     // group-commit flush). Writes only.
  const uint32_t sample_mask_;
  /// Per-reason abort counts (the registry's abort.<reason> counters).
  std::atomic<uint64_t> abort_counts_[kAbortReasonCount] = {};
  obs::TraceRing* trace_ = nullptr;

  std::atomic<Timestamp> min_active_read_ts_{1};
  /// Prune floor of the in-progress checkpoint sweep (kMaxTimestamp when
  /// none). Written by Begin/EndCheckpointSweep.
  std::atomic<Timestamp> checkpoint_floor_{kMaxTimestamp};

  const uint64_t shard_mask_;
  const std::unique_ptr<RegistryShard[]> shards_;
  /// Exact live-transaction count (a per-shard sum would not be a
  /// coherent cut; the registry promises individually coherent counters).
  std::atomic<size_t> active_count_{0};

  /// Committed, retained SSI transactions, keyed by commit timestamp
  /// (duplicates allowed: read-only commit timestamps may collide).
  /// Collected by CleanupSuspended once min_active_read_ts passes them.
  EpochReclaimer<std::shared_ptr<TxnState>> suspended_;

  /// Each chain a writing commit wrote, keyed by its commit timestamp
  /// (one 16-byte entry per chain). Collected by CleanupSuspended once
  /// prune_horizon() passes it, and pruned at that horizon (file header).
  EpochReclaimer<VersionChain*> written_chains_;
  std::atomic<uint64_t> versions_pruned_{0};

  /// Page-level FCW bookkeeping (kPage granularity only), sharded by lock
  /// key hash: page commits from disjoint pages touch disjoint mutexes.
  struct PageWrite {
    Timestamp ts = 0;
    TxnId txn = 0;
  };
  struct alignas(64) PageShard {
    mutable std::mutex mu;
    std::unordered_map<LockKey, PageWrite, LockKeyHash> writes;
  };
  PageShard& PageShardFor(const LockKey& key) const {
    return page_shards_[LockKeyHash{}(key) & page_shard_mask_];
  }
  const uint64_t page_shard_mask_;
  const std::unique_ptr<PageShard[]> page_shards_;
  /// Live entries across all page shards (page_write_entries must be one
  /// coherent counter, not a per-shard sum).
  std::atomic<size_t> page_entries_{0};
  /// Cleanup invocations since start; every kPageSweepPeriod-th sweeps the
  /// shards.
  std::atomic<uint64_t> page_sweep_tick_{0};
  std::atomic<uint64_t> page_entries_pruned_{0};
};

}  // namespace ssidb

#endif  // SSIDB_TXN_TXN_MANAGER_H_
