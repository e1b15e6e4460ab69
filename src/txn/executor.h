// Executor: the operation protocols of the three concurrency-control
// modes, extracted from the DB monolith.
//
// Every operation follows the paper's modified pseudocode:
//   read   - Fig 3.4: SIREAD lock, probe EXCLUSIVE holders, snapshot read,
//            mark conflicts with creators of ignored newer versions.
//   write  - Fig 3.5: EXCLUSIVE lock, probe SIREAD holders, then the
//            first-committer-wins check and version install.
//   scan   - Fig 3.6: the modified read applied to every index entry in
//            range plus phantom detection — one range SIREAD under
//            row-granularity SSI, next-key (gap) locks under S2PL.
//   insert/delete - Fig 3.7: gap EXCLUSIVE on next(key) plus the write;
//            SSI writers then probe the table's range SIREADs.
//   commit - Fig 3.2/3.10 via the ConflictTracker hook.
//
// Under row granularity a key's row locks live on its version chain
// (version.h): a read's lock, its owner check and its snapshot read are
// one latched step (LockedRead), a write's owner claim and SIREAD
// collection another (ClaimOwner), its first-committer-wins check and
// install a third (CheckAndInstall). Conflict marking, snapshots, range
// probes and lock waits run between the steps, in the order the paper's
// pseudocode gives. Keys without a chain, gaps and pages use the lock
// table and the SIREAD index (lock_manager.h).
//
// S2PL uses the same code paths with blocking shared/exclusive locks and
// latest-committed reads; SI takes no read locks at all.
//
// The executor is a stateless per-engine service over the lower layers
// (catalog/storage, lock manager, transaction manager, SSI tracker,
// history oracle) — it does not know the DB façade. Per-transaction
// client-side state travels in a TxnCtx owned by the façade's Transaction
// handle; one TxnCtx is driven by a single thread.

#ifndef SSIDB_TXN_EXECUTOR_H_
#define SSIDB_TXN_EXECUTOR_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "src/common/options.h"
#include "src/common/slice.h"
#include "src/common/status.h"
#include "src/lock/lock_manager.h"
#include "src/obs/metrics.h"
#include "src/obs/trace_ring.h"
#include "src/sgt/history.h"
#include "src/ssi/conflict_tracker.h"
#include "src/storage/catalog.h"
#include "src/txn/txn_manager.h"

namespace ssidb {

/// Predicate-read callback: receives each visible key/value; returning
/// false stops the iteration early (locks already taken are kept).
using ScanCallback = std::function<bool(Slice key, Slice value)>;

class Executor {
 public:
  /// Client-side transaction context: the engine state handle plus the
  /// single-threaded bookkeeping the public Transaction object carries.
  struct TxnCtx {
    explicit TxnCtx(TxnState* s)
        : state(s), id(s->id), isolation(s->isolation) {}
    /// Owned by the transaction manager; null once finished (the finishing
    /// call retires it).
    TxnState* state;
    const TxnId id;
    const IsolationLevel isolation;
    /// What the client may still ask once finished (blocking Commit and
    /// Abort fill it).
    TxnOutcome outcome;
    bool finished = false;
    void Finished() {
      finished = true;
      state = nullptr;
    }
    bool history_begin_recorded = false;
    /// Scratch lock keys, reused across operations so the blocking-lock
    /// path never constructs a fresh LockKey (the std::string buffers are
    /// recycled). One TxnCtx is driven by a single thread, so reuse is
    /// race-free. scratch_row_key holds the row/page key of the current
    /// operation; scratch_gap_key the gap key (they can be live at once
    /// on the insert path).
    LockKey scratch_row_key;
    LockKey scratch_gap_key;
  };

  /// `history` may be null (DBOptions::record_history unset).
  Executor(const DBOptions& options, Catalog* catalog, TxnManager* txns,
           LockManager* locks, ConflictTracker* tracker,
           sgt::HistoryRecorder* history);

  Status Get(TxnCtx& txn, TableId table, Slice key, std::string* value);
  Status GetForUpdate(TxnCtx& txn, TableId table, Slice key,
                      std::string* value);
  Status Put(TxnCtx& txn, TableId table, Slice key, Slice value);
  Status Insert(TxnCtx& txn, TableId table, Slice key, Slice value);
  Status Delete(TxnCtx& txn, TableId table, Slice key);
  Status Scan(TxnCtx& txn, TableId table, Slice lo, Slice hi,
              const ScanCallback& fn);
  Status Commit(TxnCtx& txn);

  /// Asynchronous Commit: submit on the calling thread (certification,
  /// version stamping, WAL append — the same TxnManager path Commit takes)
  /// and return with the commit in flight; `done(status)` runs exactly
  /// once when it is acknowledged (watermark coverage plus, for writers,
  /// the covering log flush). The TxnCtx is finished at submit — it may be
  /// destroyed as soon as this returns; the engine-side state the
  /// acknowledgment needs travels in the callback. `done` runs on
  /// whichever thread drives the completion (the group-commit flusher,
  /// another committer's watermark advance, or this thread inline) and
  /// must not touch the TxnCtx. An abort verdict also arrives through
  /// `done`; it may fire before this returns.
  void CommitAsync(TxnCtx& txn, TxnManager::CommitCallback done);

  Status Abort(TxnCtx& txn);

  /// Register the read-latency split (hit vs storage-tier fault) and hook
  /// the trace ring for kFault events. Called once by the DB façade.
  void RegisterMetrics(obs::MetricsRegistry* registry, obs::TraceRing* trace);

 private:
  /// Pre-flight for every operation: reject finished transactions, honour
  /// an asynchronous victim mark (§3.7.2) by aborting now, and claim the
  /// transaction's horizon pin if it has none yet.
  Status CheckUsable(TxnCtx& txn);

  /// Assign the read snapshot if still unassigned, per the §4.5 rule
  /// (after the first statement's locks), and record history Begin once.
  void EnsureSnapshot(TxnCtx& txn);

  /// Abort and return `cause` (the paper's "abort as soon as the problem
  /// is discovered", §3.7.1).
  Status AbortWith(TxnCtx& txn, const Status& cause);

  /// The commit-time check for `state`: the tracker's, for SSI only.
  TxnManager::CommitCheck CheckFor(const TxnState& state) const;

  /// Fill txn.scratch_row_key with the lock key of a row operation under
  /// the configured granularity — the row itself (kRow) or its page
  /// bucket (kPage, §4.1) — and return it. Computed once per operation;
  /// under kPage the same key is reused by the §4.2 page-conflict check
  /// in ReadChainAndMark instead of being re-encoded.
  const LockKey& RowLockKeyInto(TxnCtx& txn, TableId table, Slice key) const;
  /// Fill txn.scratch_gap_key with the gap key protecting the open
  /// interval below `next_key`; nullopt means the table's supremum gap
  /// (Fig 3.6/3.7).
  const LockKey& GapLockKeyInto(TxnCtx& txn, TableId table,
                                const std::optional<std::string>& next_key)
      const;

  /// True when `state`'s scans publish range SIREADs and its writes probe
  /// them: SSI at row granularity (see lock_manager.h).
  bool UsesRangeSIReads(const TxnState& state) const {
    return state.isolation == IsolationLevel::kSerializableSSI &&
           options_.granularity == LockGranularity::kRow;
  }

  /// Route rw-conflict evidence to the SSI tracker — `others` hold
  /// EXCLUSIVE on what this transaction read (`reader_side`, Fig 3.4
  /// line 3) or SIREAD on what it writes (Fig 3.5 line 4) — then honour an
  /// asynchronous victim mark. Aborts this transaction on unsafe.
  Status MarkConflicts(TxnCtx& txn, const RwConflicts& others,
                       bool reader_side);

  /// Acquire `mode` on `lk` in the lock table (gap, page and absent-key
  /// row locks) and route any rw-conflict evidence to the SSI tracker
  /// (Fig 3.4 line 3 for kSIRead, Fig 3.5 line 4 for kExclusive). Aborts
  /// this transaction on deadlock/timeout/unsafe and returns the cause.
  Status AcquireAndMark(TxnCtx& txn, const LockKey& lk, LockMode mode);

  /// A write's owner grant on `chain`, waiting as long as it conflicts,
  /// then rw marking with the SIREAD holders it collected (Fig 3.5 line
  /// 4). An SSI writer first carries the key's absent-key SIREADs onto
  /// the chain (version.h). Aborts on deadlock/timeout/unsafe.
  Status ClaimRow(TxnCtx& txn, TableId table, Slice key, VersionChain* chain);

  /// Park after a chain step blocked (LockManager::WaitOnChain). kOk means
  /// retry the step; otherwise the transaction is aborted with the cause.
  Status ParkOnChain(TxnCtx& txn, VersionChain* chain, RowLockWait* wait);

  /// A writer's predicate check: mark rw-conflicts with the owners of the
  /// range SIREADs on `table` covering `key`.
  Status ProbeRangeReadersAndMark(TxnCtx& txn, TableId table, Slice key);

  /// The paper's modified read applied to one chain: one latched step
  /// takes the row lock `mode` and snapshot-reads (or reads the latest
  /// committed version for S2PL); then rw-conflicts are marked with a
  /// foreign owner (Fig 3.4 line 3) and with creators of ignored newer
  /// versions (Fig 3.4 lines 8-9). A blocked kShared step returns with
  /// out->blocked for the caller to park. `page_lk` is the operation's
  /// page lock key, required (non-null) when granularity is kPage and the
  /// caller is an SSI transaction — the §4.2 page-conflict check consults
  /// it instead of recomputing the page key.
  Status ReadChainAndMark(TxnCtx& txn, const LockKey* page_lk,
                          VersionChain* chain, RowLockMode mode,
                          RowLockWait* wait, std::string* value,
                          ReadResult* out);

  /// ReadChainAndMark plus lock waits and the storage-tier fault path:
  /// when the read reports an evicted chain (nothing resident visible but
  /// the cold anchor lives in a run file), fault the anchor back through
  /// the buffer pool and retry. Memory-only engines never set `evicted`,
  /// so the hot path is a single extra branch. Conflict re-marking across
  /// retries is idempotent. Aborts on tier I/O failure or retry
  /// exhaustion. Times the read into read.hit_ns or read.fault_ns.
  Status ReadChainFaulting(TxnCtx& txn, Table* t, Slice key,
                           const LockKey* page_lk, VersionChain* chain,
                           RowLockMode mode, std::string* value,
                           ReadResult* out);

  /// The owner's CheckAndInstall, faulting the chain back while the check
  /// needs its spilled anchor. A first-committer-wins failure aborts
  /// naming the newer version's creator.
  Status InstallFaulting(TxnCtx& txn, Table* t, Slice key,
                         VersionChain* chain, WriteCheck check, Slice value,
                         bool tombstone, std::string* read_value,
                         WriteResult* out);

  /// Page-granularity first-committer-wins (§2.5/§4.2): the chain, then
  /// the page write table. Call with the page lock held and the snapshot
  /// assigned. (Row granularity checks inside CheckAndInstall.)
  Status CheckPageFirstCommitterWins(TxnCtx& txn, VersionChain* chain,
                                     const LockKey& page_lk);

  /// Row-lock mode of a point read by `state` under the configured
  /// granularity: SSI kSIRead, S2PL kShared, SI and page mode kNone.
  RowLockMode ReadLockMode(const TxnState& state) const;

  /// Shared body of Put/Insert/Delete.
  enum class WriteKind { kUpsert, kInsert, kDelete };
  Status WriteImpl(TxnCtx& txn, TableId table, Slice key, Slice value,
                   WriteKind kind);

  const DBOptions options_;
  Catalog* const catalog_;
  TxnManager* const txns_;
  LockManager* const locks_;
  ConflictTracker* const tracker_;
  sgt::HistoryRecorder* const history_;

  /// Read-path latency, split by whether the chain had to be faulted back
  /// from the storage tier. Hits are sampled (metrics_sample_period);
  /// faults are always timed — the I/O dwarfs the clock reads.
  obs::Histogram read_hit_ns_;
  obs::Histogram read_fault_ns_;
  const uint32_t sample_mask_;
  obs::TraceRing* trace_ = nullptr;
};

}  // namespace ssidb

#endif  // SSIDB_TXN_EXECUTOR_H_
