// Public API of ssidb: an embedded, in-memory, multiversion transactional
// key-value engine whose concurrency control runs in the three modes the
// paper evaluates — strict two-phase locking (S2PL), snapshot isolation
// (SI), and the paper's contribution, Serializable Snapshot Isolation (SSI).
//
//   ssidb::DBOptions opts;
//   std::unique_ptr<ssidb::DB> db;
//   ssidb::DB::Open(opts, &db);
//   ssidb::TableId accounts;
//   db->CreateTable("accounts", &accounts);
//   auto txn = db->Begin({.isolation = ssidb::IsolationLevel::kSerializableSSI});
//   std::string v;
//   ssidb::Status s = txn->Get(accounts, "alice", &v);
//   s = txn->Put(accounts, "alice", "42");
//   s = txn->Commit();   // may fail kUnsafe / kUpdateConflict / kDeadlock
//
// A Transaction is used by a single thread. Any operation returning a
// status for which Status::IsAbort() is true has already rolled the
// transaction back; the caller simply retries with a fresh transaction
// (every benchmark in Chapter 6 follows this retry discipline).
//
// DB is a thin façade: it owns the subsystems (catalog/storage, lock
// manager, transaction manager, SSI tracker, log, history oracle) and
// wires them into an Executor; all operation protocols live in
// src/txn/executor.{h,cc} (see ARCHITECTURE.md for the layer diagram).

#ifndef SSIDB_DB_DB_H_
#define SSIDB_DB_DB_H_

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "src/common/abort_reason.h"
#include "src/common/options.h"
#include "src/common/slice.h"
#include "src/common/status.h"
#include "src/lock/lock_manager.h"
#include "src/obs/exporter.h"
#include "src/obs/metrics.h"
#include "src/obs/trace_ring.h"
#include "src/recovery/recovery.h"
#include "src/sgt/history.h"
#include "src/ssi/conflict_tracker.h"
#include "src/storage/catalog.h"
#include "src/storage/storage_tier.h"
#include "src/storage/table.h"
#include "src/txn/executor.h"
#include "src/txn/log_manager.h"
#include "src/txn/txn_manager.h"

namespace ssidb {

class DB;
class Session;  // src/db/session.h

/// A single client transaction. Obtained from DB::Begin; one thread only.
class Transaction {
 public:
  ~Transaction();

  Transaction(const Transaction&) = delete;
  Transaction& operator=(const Transaction&) = delete;

  /// Point read. kNotFound if the key has no visible, live version.
  /// Under S2PL/SSI the read also locks the *absence* of the key, so later
  /// inserts of `key` by concurrent transactions conflict.
  Status Get(TableId table, Slice key, std::string* value);

  /// Locking read — the paper's SELECT ... FOR UPDATE (§2.6.2), with the
  /// Oracle/InnoDB semantics the paper endorses for promotion: acquires
  /// the EXCLUSIVE lock *before* the snapshot is chosen (§4.5), then
  /// applies the first-committer-wins check, so a transaction whose first
  /// statement is GetForUpdate always reads the latest committed value and
  /// a later conflicting writer cannot slip between read and write.
  /// Returns kUpdateConflict if a version newer than this transaction's
  /// snapshot has already committed (the unsafe-promotion case the paper
  /// shows PostgreSQL admits, §2.6.2).
  Status GetForUpdate(TableId table, Slice key, std::string* value);

  /// Upsert: update the key if its index entry exists, insert otherwise
  /// (the insert path takes the Fig 3.7 gap lock).
  Status Put(TableId table, Slice key, Slice value);

  /// Insert; kDuplicateKey if a live version is already committed or the
  /// transaction itself already wrote the key.
  Status Insert(TableId table, Slice key, Slice value);

  /// Delete by installing a tombstone version (§3.5). kNotFound if no
  /// visible live version exists.
  Status Delete(TableId table, Slice key);

  /// Predicate read over the inclusive range [lo, hi] (Fig 3.6's scanRead
  /// applied to every index entry in range). `fn` receives each visible
  /// key/value; returning false stops the iteration early (locks already
  /// taken are kept). Keys are visited in ascending order.
  using ScanCallback = ssidb::ScanCallback;
  Status Scan(TableId table, Slice lo, Slice hi, const ScanCallback& fn);

  /// Commit. For SSI transactions runs the dangerous-structure check
  /// (Fig 3.2 / Fig 3.10) atomically with the committed transition; on
  /// kUnsafe the transaction has been rolled back. Waits for the group
  /// commit flush when LogOptions::flush_on_commit is set.
  Status Commit();

  /// Roll back. Idempotent; safe after a failed operation.
  Status Abort();

  TxnId id() const { return ctx_.id; }
  IsolationLevel isolation() const { return ctx_.isolation; }
  /// The transaction's snapshot timestamp (0 before late allocation, §4.5).
  Timestamp snapshot_ts() const { return Outcome().snapshot_ts; }
  /// Commit timestamp (0 unless committed).
  Timestamp commit_ts() const { return Outcome().commit_ts; }
  bool active() const { return !ctx_.finished; }
  /// Abort forensics: why this transaction aborted (kNone while active or
  /// after a successful commit; abort_reason.h taxonomy otherwise).
  AbortReason abort_cause() const { return Outcome().abort_cause; }
  /// The conflicting transaction recorded with the cause, when the abort
  /// came from an rw-antidependency (0 otherwise).
  TxnId abort_conflict_txn() const { return Outcome().abort_conflict_txn; }

 private:
  friend class DB;
  Transaction(Executor* executor, TxnState* state);

  /// Live while active; the copy taken at finish afterwards (the state is
  /// retired then).
  TxnOutcome Outcome() const {
    return ctx_.finished ? ctx_.outcome : ctx_.state->Outcome();
  }

  Executor* const executor_;
  Executor::TxnCtx ctx_;
};

class DB {
 public:
  /// Open the engine. With LogOptions::wal_dir unset this is a fresh
  /// in-memory database and never fails. With wal_dir set, Open first runs
  /// crash recovery against the directory — reads the checkpoint manifest,
  /// replays the WAL segments past its watermark (tolerating a torn tail
  /// record) and opens the runs — so every previously flushed commit is
  /// visible again with its original commit timestamp. Fails with
  /// kCorruption/kIOError when the directory's durable state is damaged
  /// beyond a torn tail (a damaged run included), and with
  /// kInvalidArgument when it holds checkpoint images of the older
  /// base/delta format and no manifest.
  static Status Open(const DBOptions& options, std::unique_ptr<DB>* db);

  ~DB();

  DB(const DB&) = delete;
  DB& operator=(const DB&) = delete;

  /// Create a table. kInvalidArgument on duplicate name. In durable mode
  /// the creation is logged (and, under flush_on_commit, flushed) so the
  /// table — and the id its commit records refer to — survives a crash.
  Status CreateTable(const std::string& name, TableId* id);
  /// Look up a table id by name. kNotFound if absent. After a recovered
  /// Open, this is how clients rebind ids for pre-crash tables.
  Status FindTable(const std::string& name, TableId* id) const;

  std::unique_ptr<Transaction> Begin(const TxnOptions& options = {});

  /// Create a session: handle-keyed ownership of many open transactions,
  /// the multiplexing alternative to one Transaction object per in-flight
  /// transaction (src/db/session.h — include it to use the result). The
  /// session must not outlive the DB.
  std::unique_ptr<Session> CreateSession();
  /// Sessions currently alive (created, not yet destroyed).
  size_t sessions_open() const {
    return sessions_open_.load(std::memory_order_relaxed);
  }

  /// Checkpoint committed state at the current stable watermark (durable
  /// mode only; kInvalidArgument otherwise): per table, a run generation
  /// (Table::WriteGeneration) holding what committed since the table's
  /// last generation (cold storage shards are skipped via their
  /// max-commit-ts hints), then the
  /// manifest (manifest.h) naming the watermark and the tables. Runs
  /// concurrently with transactions — the sweep holds one storage-shard
  /// latch at a time and never blocks the commit path. A call that finds
  /// nothing committed since the previous checkpoint returns OK without
  /// writing. Afterwards the sealed WAL segments the manifest covers are
  /// garbage-collected from per-segment metadata counters alone — no
  /// segment is ever re-read from disk — and each table that gained a run
  /// is compacted once it has run_compaction_min_runs of them.
  Status Checkpoint();

  /// What recovery found at Open (zeroed for in-memory engines).
  const recovery::RecoveryStats& recovery_stats() const {
    return recovery_stats_;
  }

  /// Degraded (read-only) mode: set when the WAL writer reports an
  /// unrecoverable I/O failure (fsync or append). Reads and read-only
  /// commits keep serving from memory; writing commits fail fast with
  /// kIOError before certification; checkpoints, spills and compactions
  /// halt. One-way for the process lifetime — reopen against healthy
  /// storage to clear it. Surfaced as the db.read_only gauge.
  bool read_only() const {
    return read_only_.load(std::memory_order_acquire);
  }

  const DBOptions& options() const { return options_; }

  /// Render a full metrics snapshot — every registered counter, gauge and
  /// histogram (commit stages, read hit/fault split, pool I/O, abort
  /// taxonomy) — as a single JSON line or Prometheus text.
  std::string DumpMetrics(
      obs::MetricsFormat format = obs::MetricsFormat::kJson);

  /// Dump the in-memory trace ring (aborts, ring stalls, tier faults,
  /// checkpoints) to `path`, one timestamp-sorted text line per event.
  Status DumpTrace(const std::string& path) const;

  /// The metrics registry: the engine's one stats surface. Tests read a
  /// Collect() snapshot by name, benches print its window Delta, and the
  /// eventual network front-end serves it from /metrics.
  obs::MetricsRegistry* metrics() { return &metrics_; }
  obs::TraceRing* trace_ring() { return &trace_; }

  /// The §3.1.1 after-the-fact history oracle; non-null only when
  /// DBOptions::record_history was set.
  sgt::HistoryRecorder* history() { return history_.get(); }

  /// One spill over `table` at the current prune horizon: a run
  /// generation writes the chains committed since the table's last one
  /// (Table::WriteGeneration, no manifest), then an eviction pass frees
  /// the cold chains a generation has written, with no I/O, then the
  /// table's runs are merged once run_compaction_min_runs have
  /// accumulated. Chains touched since the previous pass only have their
  /// clock bit cleared — call twice to evict a chain that was just
  /// written. Nothing spills on its own: the caller decides when. Returns
  /// chains evicted; 0 when the DB has no tier, a zero-byte pool ("spill
  /// nothing") or is read-only.
  size_t SpillChains(TableId table);

  // Internal subsystem access (tests, benchmarks).
  TxnManager* txn_manager() { return txn_manager_.get(); }
  LockManager* lock_manager() { return lock_manager_.get(); }
  ConflictTracker* conflict_tracker() { return tracker_.get(); }
  Catalog* catalog() { return &catalog_; }
  Table* table(TableId id) { return catalog_.table(id); }
  /// Disk tier: present in every durable engine, and in a memory-only one
  /// that sets data_dir and a pool; nullptr otherwise.
  StorageTier* storage_tier() { return tier_.get(); }

 private:
  friend class Session;  // Sessions wire directly to executor_/txn_manager_.
  explicit DB(const DBOptions& options);

  /// Rebuild state from wal_dir and the runs (Open calls this before the
  /// first Begin) and advance the clock past every recovered commit
  /// timestamp.
  Status RecoverOnOpen();
  /// Start/stop the background checkpointer (checkpoint_interval_ms).
  void StartCheckpointer();
  void StopCheckpointer();
  /// Hook every subsystem's histograms into metrics_ and register callback
  /// readers over the existing flat counters (recording cost unchanged:
  /// the registry only adds names at collection time).
  void RegisterAllMetrics();
  /// Start/stop the background metrics dumper (metrics_dump_interval_ms +
  /// metrics_dump_path): appends one DumpMetrics() JSON line per tick.
  void StartMetricsDumper();
  void StopMetricsDumper();
  /// The LogManager I/O-failure callback target: flip the DB-wide
  /// read-only gate (first caller wins), tell the TxnManager to fail
  /// writing commits fast, and trace the transition.
  void EnterReadOnlyMode(const Status& cause);

  const DBOptions options_;
  /// Observability primitives. Declared before every subsystem (destroyed
  /// after them): subsystems hold raw pointers to the trace ring, and the
  /// registry holds pointers to subsystem-owned histograms that must not
  /// dangle while a dumper tick could still collect.
  obs::MetricsRegistry metrics_;
  obs::TraceRing trace_;
  /// Declared before catalog_ (destroyed after it): tables hold raw tier
  /// pointers, and the tier's run files purge their buffer-pool pages on
  /// destruction. Null for a memory-only engine that does not spill.
  std::unique_ptr<StorageTier> tier_;
  Catalog catalog_;
  std::unique_ptr<LogManager> log_manager_;
  std::unique_ptr<LockManager> lock_manager_;
  std::unique_ptr<TxnManager> txn_manager_;
  std::unique_ptr<ConflictTracker> tracker_;
  std::unique_ptr<sgt::HistoryRecorder> history_;
  std::unique_ptr<Executor> executor_;

  recovery::RecoveryStats recovery_stats_;
  /// Live Session count (the session.open gauge); sessions decrement on
  /// destruction.
  std::atomic<size_t> sessions_open_{0};
  /// Read only through the registry: ckpt.taken, ckpt.bytes_written (runs
  /// plus manifest) and wal.segments_deleted.
  std::atomic<uint64_t> checkpoints_taken_{0};
  std::atomic<uint64_t> checkpoint_bytes_written_{0};
  std::atomic<uint64_t> wal_segments_deleted_{0};
  /// Degraded-mode gate — see read_only().
  std::atomic<bool> read_only_{false};
  /// Checkpoints that failed on I/O (io.errors.checkpoint).
  std::atomic<uint64_t> checkpoint_io_errors_{0};
  /// Serializes Checkpoint() calls (manual vs background interval) and
  /// guards the field below.
  std::mutex checkpoint_write_mu_;
  /// Watermark of the newest manifest (seeded from recovery): the next
  /// checkpoint sweeps what committed past it.
  Timestamp checkpoint_watermark_ = 0;

  std::mutex checkpointer_mu_;
  std::condition_variable checkpointer_cv_;
  bool checkpointer_stop_ = false;
  std::thread checkpointer_;

  std::mutex dumper_mu_;
  std::condition_variable dumper_cv_;
  bool dumper_stop_ = false;
  std::thread dumper_;
};

}  // namespace ssidb

#endif  // SSIDB_DB_DB_H_
