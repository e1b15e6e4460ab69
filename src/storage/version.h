// Multiversion record storage (paper §2.4, §2.5).
//
// Each key maps to a VersionChain: a latched, newest-first linked list of
// Versions. A version is uncommitted until its creator stamps a commit
// timestamp (before publishing its commit-ring slot), at which point it
// becomes atomically visible to snapshots taken at or after that
// timestamp. Deletes install tombstone versions (§3.5) so that the key keeps
// its slot in the index and the gap-lock keyspace stays stable.

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
  /// commit_ts > since. Must be called while holding the write lock on the
  /// key so no new committed version can appear concurrently.
  bool HasCommittedVersionAfter(Timestamp since);

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
  /// Free every version in the chain. Caller holds latch_.
  void FreeAllLocked();

  mutable std::mutex latch_;
  Version* newest_ = nullptr;
  /// Spill state, all under latch_. accessed_ is the clock bit: set by
  /// Read and InstallUncommitted, cleared by SpillProbe.
  bool evicted_ = false;
  bool accessed_ = false;
  Timestamp spilled_cts_ = 0;
};

}  // namespace ssidb

#endif  // SSIDB_STORAGE_VERSION_H_
