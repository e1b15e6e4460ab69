// The DB façade: subsystem ownership and wiring. All operation protocols
// (read/write/scan/commit for the three concurrency-control modes) live in
// the executor layer, src/txn/executor.cc.

#include "src/db/db.h"

#include <chrono>
#include <cstdio>

#include "src/db/session.h"
#include "src/io/env.h"
#include "src/recovery/manifest.h"
#include "src/recovery/wal.h"

namespace ssidb {

// --------------------------------------------------------------------------
// Transaction: a thin handle forwarding to the executor.
// --------------------------------------------------------------------------

Transaction::Transaction(Executor* executor, std::shared_ptr<TxnState> state)
    : executor_(executor) {
  ctx_.state = std::move(state);
}

Transaction::~Transaction() {
  if (!ctx_.finished) {
    executor_->Abort(ctx_);
  }
}

Status Transaction::Get(TableId table, Slice key, std::string* value) {
  return executor_->Get(ctx_, table, key, value);
}

Status Transaction::GetForUpdate(TableId table, Slice key,
                                 std::string* value) {
  return executor_->GetForUpdate(ctx_, table, key, value);
}

Status Transaction::Put(TableId table, Slice key, Slice value) {
  return executor_->Put(ctx_, table, key, value);
}

Status Transaction::Insert(TableId table, Slice key, Slice value) {
  return executor_->Insert(ctx_, table, key, value);
}

Status Transaction::Delete(TableId table, Slice key) {
  return executor_->Delete(ctx_, table, key);
}

Status Transaction::Scan(TableId table, Slice lo, Slice hi,
                         const ScanCallback& fn) {
  return executor_->Scan(ctx_, table, lo, hi, fn);
}

Status Transaction::Commit() { return executor_->Commit(ctx_); }

Status Transaction::Abort() { return executor_->Abort(ctx_); }

// --------------------------------------------------------------------------
// DB
// --------------------------------------------------------------------------

DB::DB(const DBOptions& options)
    : options_(options),
      log_manager_(std::make_unique<LogManager>(options.log, options.env)),
      lock_manager_(std::make_unique<LockManager>(LockManager::Config{
          options.deadlock_policy, options.deadlock_scan_interval_ms,
          options.lock_timeout_ms, options.upgrade_siread_locks})),
      txn_manager_(std::make_unique<TxnManager>(options, lock_manager_.get(),
                                                log_manager_.get())),
      tracker_(std::make_unique<ConflictTracker>(options, txn_manager_.get())) {
  if (!options.log.wal_dir.empty() ||
      (options.buffer_pool_bytes > 0 && !options.data_dir.empty())) {
    // Every durable engine has a tier (its checkpoints are runs), and so
    // does a memory-only one that spills. Runs live in data_dir,
    // defaulting to a subdirectory of the WAL directory.
    const std::string dir = options.data_dir.empty()
                                ? options.log.wal_dir + "/runs"
                                : options.data_dir;
    tier_ = std::make_unique<StorageTier>(options, dir);
    catalog_.SetStorageTier(tier_.get());
  }
  if (options.record_history) {
    history_ = std::make_unique<sgt::HistoryRecorder>();
  }
  executor_ = std::make_unique<Executor>(options_, &catalog_,
                                         txn_manager_.get(),
                                         lock_manager_.get(), tracker_.get(),
                                         history_.get());
  // Degraded-mode wiring: the WAL writer's first unrecoverable I/O
  // failure flips the DB read-only. Registered after txn_manager_ exists
  // (the callback targets it); fires inline if a drain already failed.
  log_manager_->SetIOErrorCallback(
      [this](const Status& cause) { EnterReadOnlyMode(cause); });
  RegisterAllMetrics();
}

void DB::EnterReadOnlyMode(const Status& cause) {
  (void)cause;
  if (read_only_.exchange(true, std::memory_order_acq_rel)) return;
  // Gate up before any commit can observe the WAL failure status: the
  // LogManager fires this callback before waking matured flush waiters.
  txn_manager_->EnterReadOnly();
  trace_.Emit(obs::TraceEvent::kIOError, /*txn=*/0, /*arg16=*/1,
              /*arg32=*/0, /*payload=*/0);
}

DB::~DB() {
  StopMetricsDumper();
  StopCheckpointer();
}

void DB::RegisterAllMetrics() {
  obs::MetricsRegistry* r = &metrics_;
  // Histograms live in their subsystems; each registers its own and hooks
  // the trace ring where it emits events.
  txn_manager_->RegisterMetrics(r, &trace_);
  executor_->RegisterMetrics(r, &trace_);
  log_manager_->RegisterMetrics(r);
  if (tier_ != nullptr) {
    tier_->pool()->RegisterMetrics(r, &trace_);
    tier_->SetTraceRing(&trace_);
  }

  // Counters and gauges read through the subsystems' existing relaxed
  // accessors: the recording site stays a single fetch-add (or narrow
  // mutex), and the registry only attaches names at collection time.
  ConflictTracker* tracker = tracker_.get();
  r->RegisterCounter("ssi.unsafe_aborts",
                     [tracker] { return tracker->unsafe_aborts(); });
  LockManager* locks = lock_manager_.get();
  r->RegisterCounter("lock.waits", [locks] { return locks->waits(); });
  r->RegisterCounter("lock.deadlocks",
                     [locks] { return locks->deadlocks_detected(); });
  r->RegisterGauge("lock.grants", [locks] {
    return static_cast<uint64_t>(locks->GrantCount());
  });
  LogManager* log = log_manager_.get();
  r->RegisterCounter("log.records",
                     [log] { return log->appended_records(); });
  r->RegisterCounter("log.flush_batches",
                     [log] { return log->flush_batches(); });
  TxnManager* txns = txn_manager_.get();
  r->RegisterGauge("engine.active_txns", [txns] {
    return static_cast<uint64_t>(txns->active_count());
  });
  r->RegisterGauge("engine.suspended_txns", [txns] {
    return static_cast<uint64_t>(txns->suspended_count());
  });
  r->RegisterGauge("session.open", [this] {
    return static_cast<uint64_t>(
        sessions_open_.load(std::memory_order_relaxed));
  });
  r->RegisterCounter("commit.waits", [txns] { return txns->commit_waits(); });
  r->RegisterCounter("commit.wakeups",
                     [txns] { return txns->commit_wakeups(); });
  r->RegisterCounter("commit.ring_full_stalls",
                     [txns] { return txns->ring_full_stalls(); });
  r->RegisterGauge("commit.max_window_depth",
                   [txns] { return txns->max_commit_window_depth(); });
  r->RegisterCounter("commit.combine_batches",
                     [txns] { return txns->commit_combine_batches(); });
  r->RegisterCounter("commit.combined_txns",
                     [txns] { return txns->commit_combined_txns(); });
  r->RegisterGauge("commit.max_batch",
                   [txns] { return txns->commit_max_batch(); });
  r->RegisterCounter("commit.fastpath",
                     [txns] { return txns->commit_fastpath(); });
  r->RegisterGauge("txn.page_fcw_entries", [txns] {
    return static_cast<uint64_t>(txns->page_write_entries());
  });
  // SSI's retained state under long readers: live SIREAD entries (point
  // keys plus scan ranges; perfbench reads the same EntryCount), the
  // ranges alone, and how far the oldest live snapshot holds version GC
  // behind the watermark.
  r->RegisterGauge("siread.entries", [locks] {
    return static_cast<uint64_t>(locks->siread_index()->EntryCount());
  });
  r->RegisterGauge("siread.ranges", [locks] {
    return static_cast<uint64_t>(locks->siread_index()->RangeCount());
  });
  r->RegisterGauge("gc.horizon_lag", [txns] {
    const Timestamp stable = txns->stable_ts();
    const Timestamp horizon = txns->prune_horizon();
    return stable > horizon ? stable - horizon : 0;
  });
  r->RegisterCounter("ckpt.taken", [this] {
    return checkpoints_taken_.load(std::memory_order_relaxed);
  });
  r->RegisterCounter("ckpt.bytes_written", [this] {
    return checkpoint_bytes_written_.load(std::memory_order_relaxed);
  });
  r->RegisterCounter("wal.segments_deleted", [this] {
    return wal_segments_deleted_.load(std::memory_order_relaxed);
  });
  r->RegisterCounter("gc.versions_pruned",
                     [txns] { return txns->versions_pruned(); });
  // Fault model / degraded mode (ARCHITECTURE.md "Fault model &
  // degradation"): the read-only gate plus per-subsystem I/O failure
  // counters, one per failure domain so forensics can tell which artifact
  // the disk hurt.
  r->RegisterGauge("db.read_only",
                   [this] { return read_only() ? uint64_t{1} : uint64_t{0}; });
  r->RegisterCounter("io.errors.wal", [log] { return log->io_errors(); });
  r->RegisterCounter("io.errors.checkpoint", [this] {
    return checkpoint_io_errors_.load(std::memory_order_relaxed);
  });
  if (io::Env* env = options_.env; env != nullptr) {
    r->RegisterCounter("io.injected_faults",
                       [env] { return env->injected_faults(); });
  }
  if (tier_ != nullptr) {
    BufferPool* pool = tier_->pool();
    StorageTier* tier = tier_.get();
    r->RegisterCounter("pool.hits", [pool] { return pool->hits(); });
    r->RegisterCounter("pool.misses", [pool] { return pool->misses(); });
    r->RegisterCounter("pool.evictions",
                       [pool] { return pool->evictions(); });
    r->RegisterCounter("pool.writebacks",
                       [pool] { return pool->writebacks(); });
    r->RegisterCounter("tier.spilled_chains",
                       [tier] { return tier->spilled_chains(); });
    r->RegisterCounter("tier.faulted_chains",
                       [tier] { return tier->faulted_chains(); });
    r->RegisterCounter("tier.pages_probed",
                       [tier] { return tier->pages_probed(); });
    // Compaction output, apart from ckpt.bytes_written (a checkpoint's
    // runs and manifest) and from the WAL.
    r->RegisterCounter("tier.compaction_bytes_written", [tier] {
      return tier->compaction_bytes_written();
    });
    r->RegisterCounter("io.retries", [pool] { return pool->io_retries(); });
    r->RegisterCounter("io.errors.pool",
                       [pool] { return pool->io_errors(); });
    r->RegisterCounter("io.errors.tier",
                       [tier] { return tier->io_errors(); });
  }
  // One counter per abort-taxonomy reason (kNone excluded: it is never
  // counted — unclassified aborts fold into kExplicit).
  for (size_t i = 1; i < kAbortReasonCount; ++i) {
    const AbortReason reason = static_cast<AbortReason>(i);
    r->RegisterCounter(std::string("abort.") + AbortReasonName(reason),
                       [txns, reason] { return txns->abort_count(reason); });
  }
}

std::string DB::DumpMetrics(obs::MetricsFormat format) {
  return obs::Render(metrics_.Collect(), format);
}

Status DB::DumpTrace(const std::string& path) const {
  return trace_.DumpTo(path);
}

void DB::StartMetricsDumper() {
  if (options_.metrics_dump_interval_ms == 0 ||
      options_.metrics_dump_path.empty()) {
    return;
  }
  dumper_ = std::thread([this] {
    const auto interval =
        std::chrono::milliseconds(options_.metrics_dump_interval_ms);
    std::unique_lock<std::mutex> guard(dumper_mu_);
    while (!dumper_stop_) {
      if (dumper_cv_.wait_for(guard, interval,
                              [this] { return dumper_stop_; })) {
        return;
      }
      guard.unlock();
      // Append one JSON line per tick — a flight-recorder time series.
      // Best effort: an unwritable path just skips the tick.
      const std::string line = DumpMetrics(obs::MetricsFormat::kJson);
      if (FILE* f = std::fopen(options_.metrics_dump_path.c_str(), "a")) {
        std::fwrite(line.data(), 1, line.size(), f);
        std::fputc('\n', f);
        std::fclose(f);
      }
      guard.lock();
    }
  });
}

void DB::StopMetricsDumper() {
  {
    std::lock_guard<std::mutex> guard(dumper_mu_);
    dumper_stop_ = true;
  }
  dumper_cv_.notify_all();
  if (dumper_.joinable()) dumper_.join();
}

Status DB::Open(const DBOptions& options, std::unique_ptr<DB>* db) {
  if (options.rows_per_page == 0) {
    return Status::InvalidArgument("rows_per_page must be positive");
  }
  db->reset(new DB(options));
  if ((*db)->tier_ != nullptr) {
    // Without a WAL the runs cannot be reconciled with any recovered
    // state, so a fresh in-memory engine wipes leftovers from a previous
    // process instead of resurrecting them.
    Status st = (*db)->tier_->Init(/*wipe=*/options.log.wal_dir.empty());
    if (!st.ok()) {
      db->reset();
      return st;
    }
  }
  if (!options.log.wal_dir.empty()) {
    // Crash recovery runs before the first transaction — and before the
    // engine's own WAL writer creates its first segment, so the newest
    // on-disk segment is exactly the pre-crash tail.
    Status st = (*db)->RecoverOnOpen();
    if (!st.ok()) {
      db->reset();
      return st;
    }
    (*db)->StartCheckpointer();
  }
  (*db)->StartMetricsDumper();
  return Status::OK();
}

Status DB::RecoverOnOpen() {
  Status st = recovery::Recover(options_.log.wal_dir, &catalog_, tier_.get(),
                                &recovery_stats_, options_.env);
  if (!st.ok()) return st;
  // New transactions must draw ids/snapshots above every recovered commit.
  txn_manager_->AdvanceClockTo(recovery_stats_.max_commit_ts);
  // Seed the WAL writer's per-segment metadata from recovery's scan, so
  // checkpoint GC can judge pre-crash segments without re-reading them.
  log_manager_->SeedWalSegmentMeta(recovery_stats_.wal_segments);
  // The next checkpoint sweeps what committed past the recovered
  // manifest. No lock needed — no checkpointer runs yet.
  checkpoint_watermark_ = recovery_stats_.checkpoint_ts;
  return Status::OK();
}

void DB::StartCheckpointer() {
  if (options_.log.checkpoint_interval_ms == 0) return;
  checkpointer_ = std::thread([this] {
    const auto interval =
        std::chrono::milliseconds(options_.log.checkpoint_interval_ms);
    std::unique_lock<std::mutex> guard(checkpointer_mu_);
    while (!checkpointer_stop_) {
      if (checkpointer_cv_.wait_for(guard, interval,
                                    [this] { return checkpointer_stop_; })) {
        return;
      }
      guard.unlock();
      Checkpoint();  // Best effort; failures retried next interval.
      guard.lock();
    }
  });
}

void DB::StopCheckpointer() {
  {
    std::lock_guard<std::mutex> guard(checkpointer_mu_);
    checkpointer_stop_ = true;
  }
  checkpointer_cv_.notify_all();
  if (checkpointer_.joinable()) checkpointer_.join();
}

Status DB::Checkpoint() {
  if (options_.log.wal_dir.empty()) {
    return Status::InvalidArgument("checkpoint requires LogOptions::wal_dir");
  }
  if (read_only()) {
    // Degraded mode: the WAL can no longer extend the durable history, so
    // a new checkpoint would cover commits whose log records may be lost.
    return Status::IOError("database is read-only: WAL I/O failure");
  }
  // One checkpoint at a time: a manual call racing the background tick
  // would sweep the same window twice.
  std::lock_guard<std::mutex> guard(checkpoint_write_mu_);
  // Every commit at or below the stable watermark has fully stamped its
  // versions (txn_manager.h), so the sweep observes a consistent cut.
  // BeginCheckpointSweep also floors version pruning at the watermark for
  // the duration of the sweep, so no pruner can delete a key's newest
  // version <= watermark out from under it.
  const Timestamp watermark = txn_manager_->BeginCheckpointSweep();
  if (watermark == checkpoint_watermark_) {
    txn_manager_->EndCheckpointSweep();
    return Status::OK();  // Nothing committed since the previous checkpoint.
  }
  // Counted after the watermark: a commit at or below it wrote only
  // tables created before it, so every such table is in the manifest.
  recovery::Manifest manifest{watermark, {}};
  const auto table_count = static_cast<TableId>(catalog_.table_count());
  uint64_t bytes = 0;
  std::vector<TableId> grown;
  Status st;
  for (TableId id = 0; id < table_count && st.ok(); ++id) {
    Table* table = catalog_.table(id);
    manifest.tables.push_back(table->name());
    const uint64_t before = bytes;
    st = table->WriteCheckpointRun(checkpoint_watermark_, watermark,
                                   &bytes);
    if (bytes != before) grown.push_back(id);
  }
  txn_manager_->EndCheckpointSweep();
  // Runs before the manifest: a crash in between leaves runs of committed
  // versions that the previous manifest plus the WAL still account for.
  uint64_t manifest_bytes = 0;
  if (st.ok()) {
    st = recovery::WriteManifest(options_.log.wal_dir, manifest,
                                 options_.log.wal_fsync, options_.env,
                                 &manifest_bytes);
  }
  if (!st.ok()) {
    // The failed writer removed its tmp file and the previous manifest is
    // untouched, so the next call (or background tick) sweeps the same
    // window again.
    checkpoint_io_errors_.fetch_add(1, std::memory_order_relaxed);
    trace_.Emit(obs::TraceEvent::kIOError, /*txn=*/0, /*arg16=*/2,
                /*arg32=*/0, /*payload=*/watermark);
    return st;
  }
  checkpoints_taken_.fetch_add(1, std::memory_order_relaxed);
  checkpoint_bytes_written_.fetch_add(bytes + manifest_bytes,
                                      std::memory_order_relaxed);
  trace_.Emit(obs::TraceEvent::kCheckpoint, /*txn=*/0, /*arg16=*/0,
              /*arg32=*/table_count, /*payload=*/watermark);
  checkpoint_watermark_ = watermark;

  // WAL GC, decided from per-segment metadata counters — zero segment
  // re-reads. A segment goes when every commit it holds is at or below the
  // manifest's watermark AND any table-create it holds binds an id the
  // manifest lists (ids are dense: id < table count — the create-watermark
  // rule). The highest-sequence segment always stays (it may be the
  // writer's live file), as does any segment the registry does not know
  // (never the case in practice: this session's segments are registered
  // at append time, pre-crash ones by recovery's scan). Best effort: a
  // kept segment just replays idempotently.
  std::vector<std::string> segments;
  if (recovery::ListWalSegments(options_.log.wal_dir, &segments).ok()) {
    const std::map<uint64_t, recovery::WalSegmentMeta> meta =
        log_manager_->WalSegmentMetadata();
    for (size_t i = 0; i + 1 < segments.size(); ++i) {
      uint64_t seq = 0;
      if (!recovery::ParseWalSegmentSeq(segments[i], &seq)) continue;
      auto it = meta.find(seq);
      if (it == meta.end()) continue;  // Unknown provenance: keep.
      const recovery::WalSegmentMeta& m = it->second;
      if (m.max_commit_ts > watermark) continue;
      if (m.has_table_create && m.max_table_id_created >= table_count) {
        continue;
      }
      if (io::ResolveEnv(options_.env)->RemoveFile(segments[i]).ok()) {
        wal_segments_deleted_.fetch_add(1, std::memory_order_relaxed);
        log_manager_->ForgetWalSegment(seq);
      }
    }
  }
  // The caller that adds runs keeps their count bounded. Best effort: a
  // failed merge leaves the inputs in place and retries next time.
  for (const TableId id : grown) tier_->MaybeCompact(id);
  return Status::OK();
}

Status DB::CreateTable(const std::string& name, TableId* id) {
  TableId created = 0;
  Lsn lsn = 0;
  const bool durable = log_manager_->durable();
  // The (id, name) binding is logged through the catalog's pre-publish
  // hook: still inside the creation critical section, so concurrent
  // creates append their records in id order, and no transaction can
  // commit against the table before its create record is in the log —
  // replay never meets a commit whose table-create is missing or
  // misordered. The append defers its drain: a drain fires other commits'
  // flush callbacks, which must not run under the catalog lock.
  Status st = catalog_.CreateTable(name, &created, [&](TableId tid) {
    if (!durable) return;
    LogRecord record;
    record.type = LogRecordType::kTableCreate;
    record.redo.push_back(RedoEntry{tid, name, std::string(), false});
    lsn = log_manager_->Append(record, /*drain=*/false);
  });
  if (lsn != 0) log_manager_->Drain();
  if (!st.ok()) return st;
  if (id != nullptr) *id = created;
  if (durable && options_.log.flush_on_commit) {
    // The durability wait happens outside the catalog lock.
    return log_manager_->WaitFlushed(lsn);
  }
  return Status::OK();
}

Status DB::FindTable(const std::string& name, TableId* id) const {
  return catalog_.FindTable(name, id);
}

std::unique_ptr<Transaction> DB::Begin(const TxnOptions& options) {
  return std::unique_ptr<Transaction>(new Transaction(
      executor_.get(), txn_manager_->Begin(options.isolation)));
}

std::unique_ptr<Session> DB::CreateSession() {
  sessions_open_.fetch_add(1, std::memory_order_relaxed);
  return std::unique_ptr<Session>(new Session(this));
}

size_t DB::SpillChains(TableId id) {
  // Read-only gate: a spill evicts chains to a new run file, and in
  // degraded mode that run could durably capture in-memory commits whose
  // WAL records never reached the disk — recovery would then resurrect
  // unacknowledged writes. No new durable artifacts past the failure.
  if (tier_ == nullptr || options_.buffer_pool_bytes == 0 || read_only()) {
    return 0;
  }
  Table* t = catalog_.table(id);
  if (t == nullptr) return 0;
  const size_t evicted = t->SpillShards(txn_manager_->prune_horizon());
  // The caller that adds runs keeps their count bounded. Best effort: a
  // failed merge leaves the inputs in place and retries on the next call.
  tier_->MaybeCompact(id);
  return evicted;
}

}  // namespace ssidb
