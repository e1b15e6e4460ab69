// Configuration knobs for the engine. Every option corresponds to a design
// choice discussed in the paper; defaults follow the InnoDB prototype
// (row-level locking, precise conflict references, eager cleanup).

#ifndef SSIDB_COMMON_OPTIONS_H_
#define SSIDB_COMMON_OPTIONS_H_

#include <cstdint>
#include <string>

namespace ssidb {

namespace io {
class Env;  // src/io/env.h
}  // namespace io

/// Concurrency-control mode of a transaction (paper §2.2.1, §2.5, Ch. 3).
enum class IsolationLevel {
  /// Snapshot isolation with first-committer-wins; fast but admits write
  /// skew (§2.5). Under SSI systems this is the §3.8 "query at SI" mode:
  /// no SIREAD locks, no unsafe aborts.
  kSnapshot,
  /// The paper's contribution: SI plus rw-antidependency tracking (Ch. 3).
  kSerializableSSI,
  /// Strict two-phase locking with next-key locking (§2.2.1, §2.5.2).
  kSerializable2PL,
};

/// Granularity at which locks, FCW checks and SSI conflicts are detected.
enum class LockGranularity {
  /// InnoDB-style: per-row locks plus gap locks for phantom detection.
  kRow,
  /// Berkeley DB-style: keys map onto page buckets; all locking, conflict
  /// detection and first-committer-wins checks happen per page (§4.1-§4.3).
  /// Coarse granularity reproduces the paper's false-positive findings
  /// (§6.1.5). Gap locks are unnecessary: page locks subsume phantoms (§3.5).
  kPage,
};

/// How SSI records rw-antidependencies per transaction (§3.2 vs §3.6).
enum class ConflictTracking {
  /// Two booleans, inConflict/outConflict (Figs 3.1-3.5). Conservative:
  /// aborts on any consecutive pair of vulnerable edges.
  kFlags,
  /// Transaction references with commit-time comparison (Figs 3.9-3.10),
  /// avoiding aborts when the outgoing transaction provably did not commit
  /// first. Falls back to flag behaviour on multiple conflicts.
  kReferences,
};

/// Which transaction to abort when a dangerous structure is found (§3.7.2).
enum class VictimPolicy {
  /// Prefer the pivot (the transaction with both in- and out-conflicts),
  /// unless it already committed. The paper's default.
  kPivot,
  /// Prefer the younger transaction (larger transaction id) among the
  /// candidates that are still abortable.
  kYoungest,
};

/// S2PL deadlock detection strategy.
enum class DeadlockPolicy {
  /// Requesters search the waits-for graph before blocking; cycle => the
  /// requester aborts immediately.
  kImmediate,
  /// A background thread scans the waits-for graph periodically (Berkeley
  /// DB's db_perf ran the detector twice per second, §6.1.3, which the
  /// paper identifies as a drag on S2PL throughput).
  kPeriodic,
};

/// Durability configuration for the write-ahead log (§6.1.2 vs §6.1.3).
///
/// Two modes share one log buffer and drain routine (see log_manager.h):
///   * Simulated (wal_dir empty, the default): records are encoded, each
///     drain sleeps flush_latency_us and discards them — the paper's
///     I/O-bound regime without touching the filesystem.
///   * Durable (wal_dir set): records are appended to segmented WAL files
///     in wal_dir with one write (plus an fsync with wal_fsync) per drain;
///     DB::Open replays them (past the latest checkpoint's runs) to
///     recover committed state after a crash. flush_latency_us is ignored — the
///     disk provides the latency.
/// A drain that waits (an fsync or a simulated latency) runs on the
/// group-commit flusher thread; otherwise committing threads drain the
/// buffer themselves and no flusher thread exists.
struct LogOptions {
  /// If false, commits return without waiting for a flush ("no log flush"
  /// configuration of Fig 6.1: ~100us transactions). If true, each commit
  /// waits until a group-commit flush covers its LSN (Fig 6.2: I/O-bound).
  /// In durable mode, only flushed commits are guaranteed to survive a
  /// crash: flush_on_commit=false trades the crash-durability of the most
  /// recent commits for commit latency (innodb_flush_log_at_trx_commit=0).
  bool flush_on_commit = false;

  /// Simulated flush latency in microseconds, modelling the disk. The
  /// paper's SATA RAID gave ~10ms; we default to 1ms so laptop sweeps stay
  /// short. Group commit amortises this across concurrent committers.
  /// Simulated mode only (wal_dir empty).
  uint32_t flush_latency_us = 1000;

  /// InnoDB releases row locks *before* the commit flush (§4.4). The paper
  /// changed this to release after; we default to "after" and expose the
  /// original behaviour as an ablation.
  bool early_lock_release = false;

  /// Directory for WAL segments and the checkpoint manifest (checkpoint
  /// runs go to DBOptions::data_dir, "<wal_dir>/runs" by default). Empty
  /// (default) keeps the engine fully in-memory with the simulated flush
  /// above. Created on first use if missing.
  std::string wal_dir;

  /// Size at which the WAL rotates to a new segment file (durable mode).
  uint64_t wal_segment_bytes = 4u << 20;

  /// fsync each group-commit batch (durable mode), and each run file and
  /// manifest. Disabling leaves durability to the OS page cache — useful
  /// only for tests that exercise the file format without paying for
  /// fsync.
  bool wal_fsync = true;

  /// If nonzero, DB runs a background thread that calls DB::Checkpoint()
  /// every this-many milliseconds (durable mode only).
  uint32_t checkpoint_interval_ms = 0;

  /// Ignored: whatever is appended during one sync joins the next, so a
  /// straggler wait has nothing left to coalesce. Kept only because
  /// perfbench/src/workloads.cc assigns it; delete the two together.
  uint32_t group_commit_wait_us = 0;
};

/// Engine-wide options, fixed at DB::Open.
struct DBOptions {
  LockGranularity granularity = LockGranularity::kRow;
  ConflictTracking conflict_tracking = ConflictTracking::kReferences;
  VictimPolicy victim_policy = VictimPolicy::kPivot;
  DeadlockPolicy deadlock_policy = DeadlockPolicy::kImmediate;
  LogOptions log;

  /// Rows per simulated page in kPage granularity. ~20 rows/page with 2000
  /// accounts reproduces the paper's "about 100 leaf pages" SmallBank
  /// setup (§6.1.2).
  uint32_t rows_per_page = 20;

  /// Period of the kPeriodic deadlock detector, in milliseconds.
  uint32_t deadlock_scan_interval_ms = 500;

  /// Upper bound on any single lock wait; a safety net so misconfigured
  /// workloads fail with kTimedOut instead of hanging.
  uint32_t lock_timeout_ms = 10000;

  /// §3.7.1: abort a transaction as soon as an operation would give it both
  /// an in- and an out-conflict, instead of waiting for commit. Both paper
  /// prototypes enable this.
  bool abort_early = true;

  /// §3.7.3: when a transaction takes an EXCLUSIVE lock on an item it holds
  /// an SIREAD lock on, drop the SIREAD lock (the new version it creates
  /// detects conflicts instead). Both paper prototypes enable this.
  bool upgrade_siread_locks = true;

  /// §4.5: allocate the read snapshot lazily, after the first statement's
  /// locks are granted, so single-statement updates never abort under FCW.
  bool late_snapshot = true;

  /// Ignored: the commit pipeline prunes the chains each commit wrote once
  /// the prune horizon passes it (txn_manager.h), and spilling runs only
  /// when the caller asks (DB::SpillChains). Kept only because
  /// perfbench/src/workloads.cc assigns it; delete the two together.
  uint32_t version_gc_interval_ms = 100;

  /// Record every operation into an in-memory history for the §3.1.1
  /// after-the-fact MVSG analyzer / test oracle. Costs memory; off in
  /// benchmarks, on in correctness tests.
  bool record_history = false;

  /// Commit-slot ring size (rounded up to a power of two): the maximum
  /// number of writing commits that may be between timestamp allocation
  /// and watermark coverage before a committer parks (ring-full
  /// backpressure). The default comfortably exceeds any realistic
  /// in-flight commit window; tiny values are for tests.
  uint64_t commit_ring_slots = 4096;

  /// Transaction-registry shard count (rounded up to a power of two).
  /// Begin/commit/abort touch one shard; Find probes one shard. 0 (the
  /// default) sizes the shard array from the runtime core topology
  /// (std::thread::hardware_concurrency); nonzero pins an explicit count
  /// (tests use tiny values to force collisions).
  uint32_t txn_registry_shards = 0;

  /// Buffer pool of the storage tier (buffer_pool.h / storage_tier.h).
  /// Nonzero lets DB::SpillChains write the chains committed since its
  /// table's last run generation to an immutable sorted run file under
  /// data_dir and evict cold version chains (newest commit in a run and at
  /// or below the prune horizon, not accessed since the previous call;
  /// values of any size), and a read that misses in memory faults the
  /// chain suffix back through a pool of this many bytes (fixed frame
  /// array, clock second-chance eviction); recovery then leaves the runs'
  /// keys on disk. 0 (the default) spills nothing
  /// and recovery loads every run into memory, so every chain stays
  /// resident. A durable engine has a tier either way — its checkpoints
  /// are runs — and the pool keeps a 4-frame floor for writing them.
  uint64_t buffer_pool_bytes = 0;

  /// Directory for run files. Empty defaults to "<wal_dir>/runs" when
  /// LogOptions::wal_dir is set; with both empty there is no tier
  /// regardless of buffer_pool_bytes (there is nowhere to spill).
  /// In-memory engines (wal_dir unset) wipe stale runs at Open — runs are
  /// part of the durable state only when the WAL is.
  std::string data_dir;

  /// Size of one run-file page: the buffer pool's frame size and the CRC
  /// framing unit of run files. Entries larger than a page's payload are
  /// written as multi-page extents, by spills and checkpoints alike.
  uint32_t run_page_bytes = 16384;

  /// Compaction trigger: when a spill (DB::SpillChains) or a checkpoint
  /// leaves a table with at least this many run files, the same call
  /// merges them into one (newest commit timestamp per key wins).
  /// Minimum 2.
  uint32_t run_compaction_min_runs = 4;

  /// Flat-combining SSI commit certification (commit_combiner.h): when a
  /// batch of transactions arrives at the certification stage together,
  /// one committer validates all of them under a single lock acquisition.
  /// false degrades the stage to a plain mutex, one commit per
  /// acquisition — the reference engine for differential tests; verdicts
  /// must be identical either way.
  bool certification_batching = true;

  /// Commit-pipeline stage timing samples every N-th commit per thread
  /// (rounded up to a power of two). The clock reads for a fully timed
  /// commit cost ~100ns; at the default 1-in-16 rate that is noise
  /// against the commit itself, which keeps metrics effectively free on
  /// the hot path. 1 times every commit (tests); the read-path fault/hit
  /// split uses the same period.
  uint32_t metrics_sample_period = 16;

  /// When nonzero (and metrics_dump_path is set), a background thread
  /// appends one DumpMetrics() JSON line to metrics_dump_path every
  /// this-many milliseconds — a flight-recorder time series for
  /// post-mortem analysis. 0 (default) disables the dumper.
  uint32_t metrics_dump_interval_ms = 0;

  /// Target file of the background metrics dumper (appended, JSON lines).
  std::string metrics_dump_path;

  /// I/O environment every durable artifact (WAL, manifest, run files,
  /// buffer-pool page I/O) routes through. nullptr (default) means the
  /// real filesystem (io::Env::Default()); tests install an
  /// io::FaultInjectingEnv to script disk failures. Borrowed — the caller
  /// keeps it alive for the life of the DB.
  io::Env* env = nullptr;
};

/// Per-transaction options.
struct TxnOptions {
  IsolationLevel isolation = IsolationLevel::kSerializableSSI;
};

}  // namespace ssidb

#endif  // SSIDB_COMMON_OPTIONS_H_
