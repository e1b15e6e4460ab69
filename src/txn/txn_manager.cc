#include "src/txn/txn_manager.h"

#include <cassert>

#include "src/storage/table.h"

namespace ssidb {

namespace {
/// CleanupSuspended sweeps the page first-committer-wins shards every this
/// many invocations (kPage granularity only): O(map/period) amortized per
/// commit, and a test that wants a sweep just commits this many times.
constexpr uint64_t kPageSweepPeriod = 16;
}  // namespace

TxnManager::TxnManager(const DBOptions& options, LockManager* lock_manager,
                       LogManager* log_manager)
    : options_(options),
      lock_manager_(lock_manager),
      log_manager_(log_manager),
      ring_(options.commit_ring_slots),
      combiner_(&ring_, /*slots=*/0, options.certification_batching),
      sample_mask_(obs::SampleMask(options.metrics_sample_period)),
      shard_mask_(RoundUpPow2(options.txn_registry_shards != 0
                                  ? options.txn_registry_shards
                                  : TopologyShards(),
                              /*floor=*/1) -
                  1),
      shards_(new RegistryShard[shard_mask_ + 1]),
      suspended_(/*slots=*/0),
      written_chains_(/*slots=*/0),
      // kRow engines never touch the page-FCW map; one token shard.
      page_shard_mask_(options.granularity == LockGranularity::kPage
                           ? TopologyShards(/*floor=*/4) - 1
                           : 0),
      page_shards_(new PageShard[page_shard_mask_ + 1]) {}

TxnManager::~TxnManager() {
  // Quiesce the log before any member is torn down: a flush
  // subscription registered by FinalizeCovered runs FinalizeAcked (ring
  // drive, suspended cleanup) on the flusher thread, and that tail can
  // still be running after the client's `done` callback already fired.
  if (log_manager_ != nullptr) log_manager_->Quiesce();
  // Transactions still registered (suspended, or active past the engine)
  // may hold refs to each other: unlink them so they are freed.
  for (uint64_t i = 0; i <= shard_mask_; ++i) {
    for (auto& [id, txn] : shards_[i].txns) {
      std::lock_guard<std::mutex> latch(txn->ssi_mu);
      txn->DropConflictRefs();
    }
  }
}

void TxnManager::RegisterMetrics(obs::MetricsRegistry* registry,
                                 obs::TraceRing* trace) {
  registry->RegisterHistogram("commit.certify_ns", &certify_ns_);
  registry->RegisterHistogram("commit.stamp_publish_ns", &stamp_publish_ns_);
  registry->RegisterHistogram("commit.watermark_ns", &watermark_ns_);
  registry->RegisterHistogram("commit.wal_append_ns", &wal_append_ns_);
  registry->RegisterHistogram("commit.fsync_wait_ns", &fsync_wait_ns_);
  registry->RegisterHistogram("commit.ack_lag_ns", &ack_lag_ns_);
  registry->RegisterHistogram("commit.total_ns", &total_ns_);
  registry->RegisterGauge("commit.inflight", [this] {
    return commits_inflight_.load(std::memory_order_relaxed);
  });
  trace_ = trace;
  ring_.set_trace(trace);
}

std::shared_ptr<TxnState> TxnManager::Begin(IsolationLevel isolation) {
  // Lock-free id allocation. Ids are a separate domain from commit
  // timestamps (the ring's commit clock); nothing compares across them.
  const TxnId id = id_clock_.fetch_add(1, std::memory_order_relaxed) + 1;
  auto txn = std::make_shared<TxnState>(id, isolation);
  const bool defer_snapshot =
      options_.late_snapshot && isolation != IsolationLevel::kSerializable2PL;
  RegistryShard& shard = ShardFor(id);
  std::lock_guard<std::mutex> guard(shard.mu);
  if (!defer_snapshot) {
    txn->read_ts.store(ClaimSnapshotLocked(&shard),
                       std::memory_order_release);
  }
  shard.txns.emplace(id, txn);
  shard.active.insert(txn.get());
  active_count_.fetch_add(1, std::memory_order_relaxed);
  // No PublishMinActive: a registration adds a constraint at or above the
  // current watermark, which can never raise the stored minimum.
  return txn;
}

void TxnManager::EnsureSnapshot(TxnState* txn) {
  if (txn->read_ts.load(std::memory_order_acquire) != 0) return;
  // The snapshot is the stable watermark: every commit at or below it has
  // finished stamping its versions, so the snapshot is consistent without
  // any global lock. The shard mutex only covers the cached-minimum
  // maintenance (a new, older snapshot may lower the shard's minimum).
  RegistryShard& shard = ShardFor(txn->id);
  std::lock_guard<std::mutex> guard(shard.mu);
  if (txn->read_ts.load(std::memory_order_relaxed) != 0) return;
  txn->read_ts.store(ClaimSnapshotLocked(&shard), std::memory_order_release);
}

Timestamp TxnManager::ClaimSnapshotLocked(RegistryShard* shard) {
  // Claim-then-read: pre-claim the shard minimum at a watermark lower
  // bound, THEN take the snapshot from a second watermark read. This is
  // what makes the lock-free aggregate in PublishMinActive safe against a
  // registrant paused mid-registration: if an aggregator's shard load
  // misses the pre-claim store, that store — and therefore the second
  // watermark read after it — is ordered after the aggregator's own
  // watermark read in the seq_cst total order, so the snapshot returned
  // here is >= the aggregator's base, and its aggregate (<= base) cannot
  // overshoot this transaction. If the shard load sees the pre-claim, the
  // aggregate is <= s0 <= the snapshot. Either way min_active_read_ts_
  // never exceeds a live snapshot.
  const Timestamp prev = shard->min_read_ts.load(std::memory_order_relaxed);
  const Timestamp s0 = ring_.stable();
  if (s0 < prev) {
    shard->min_read_ts.store(s0, std::memory_order_seq_cst);
  }
  const Timestamp snapshot = ring_.stable();
  // Settle the cache at the exact minimum: `prev` bounds every other
  // member (the cache was exact before the pre-claim), `snapshot` bounds
  // this registrant. Without this, a conservative pre-claim (s0 below
  // every member) would stick — NoteDepartureLocked's rescan-skip could
  // then never raise it again and version pruning would stall forever.
  const Timestamp exact = prev < snapshot ? prev : snapshot;
  if (exact != shard->min_read_ts.load(std::memory_order_relaxed)) {
    shard->min_read_ts.store(exact, std::memory_order_seq_cst);
  }
  return snapshot;
}

std::shared_ptr<TxnState> TxnManager::Find(TxnId id) const {
  RegistryShard& shard = ShardFor(id);
  std::lock_guard<std::mutex> guard(shard.mu);
  auto it = shard.txns.find(id);
  return it == shard.txns.end() ? nullptr : it->second;
}

void TxnManager::NoteDepartureLocked(RegistryShard* shard,
                                     Timestamp departed_read_ts) {
  // Skip the O(active) rescan unless the departing snapshot was (at or
  // below) the cached minimum. Sound because the cache is exact outside
  // ClaimSnapshotLocked's critical section (which this call, holding the
  // same shard mutex, cannot interleave with): a member above the minimum
  // leaving cannot change the minimum. An unassigned snapshot (0) never
  // constrained it.
  if (departed_read_ts != 0 &&
      departed_read_ts >
          shard->min_read_ts.load(std::memory_order_relaxed)) {
    return;
  }
  // Transactions with an unassigned (late) snapshot do not constrain the
  // minimum: their eventual read_ts will be >= the stable watermark at
  // assignment time, which is monotonic and floors the aggregate.
  Timestamp min_ts = kMaxTimestamp;
  for (const TxnState* t : shard->active) {
    const Timestamp ts = t->read_ts.load(std::memory_order_relaxed);
    if (ts != 0 && ts < min_ts) min_ts = ts;
  }
  shard->min_read_ts.store(min_ts, std::memory_order_release);
}

void TxnManager::PublishMinActive() {
  // Watermark FIRST (seq_cst — part of the checkpoint-floor total order),
  // then the shard minima (seq_cst loads, pairing with the pre-claim
  // stores): a registrant whose pre-claim a shard load misses performed
  // its snapshot-defining watermark read after ours (ClaimSnapshotLocked
  // re-reads the watermark after the claim), so its snapshot is >= `base`
  // >= the aggregate; a pre-claim a shard load sees bounds the aggregate
  // directly. So the aggregate never exceeds any live or future snapshot,
  // and CAS-max keeps the stored value monotonic.
  const Timestamp base = ring_.stable();
  Timestamp m = base;
  for (uint64_t i = 0; i <= shard_mask_; ++i) {
    const Timestamp v = shards_[i].min_read_ts.load(std::memory_order_seq_cst);
    if (v < m) m = v;
  }
  Timestamp cur = min_active_read_ts_.load(std::memory_order_relaxed);
  while (cur < m && !min_active_read_ts_.compare_exchange_weak(
                        cur, m, std::memory_order_seq_cst)) {
  }
}

Timestamp TxnManager::BeginCheckpointSweep() {
  // The watermark advances lock-free, so the floor cannot be made atomic
  // with the watermark read by a mutex. Instead: publish the floor at the
  // observed watermark and confirm by re-reading — if the watermark moved,
  // raise the floor and repeat. On return, floor(W) was stored BEFORE a
  // watermark load that still returned W; in the seq_cst total order every
  // advance past W is therefore ordered after the floor store, which is
  // what the prune_horizon() argument needs (see txn_manager.h). The loop
  // converges as soon as one store/load pair straddles no advance — at
  // most a handful of iterations even under a commit storm.
  Timestamp w = ring_.stable();
  for (;;) {
    checkpoint_floor_.store(w, std::memory_order_seq_cst);
    const Timestamp w2 = ring_.stable();
    if (w2 == w) return w;
    w = w2;
  }
}

void TxnManager::EndCheckpointSweep() {
  checkpoint_floor_.store(kMaxTimestamp, std::memory_order_seq_cst);
}

void TxnManager::AdvanceClockTo(Timestamp ts) {
  // Recovery-time only: nothing is in flight, so the commit clock and the
  // watermark jump together.
  ring_.AdvanceTo(ts);
  PublishMinActive();
}

Status TxnManager::Commit(const std::shared_ptr<TxnState>& txn,
                          const CommitCheck& check,
                          std::vector<RedoEntry> redo) {
  // Blocking commit IS the async path: submit, then park until the
  // completion pipeline acknowledges. No certification, stamping, or
  // acknowledgment logic lives here — one commit code path (file header).
  // The waiter lives on this stack frame, so a callback arriving from
  // another thread (ring driver or group-commit flusher) must make its
  // LAST touch of it ordered before Commit can return: everything —
  // status, flag, notify — happens under w.mu, and the notify stays under
  // the lock (the waiter cannot re-acquire mu and observe `done` until
  // the callback has left the critical section, so it cannot destroy cv
  // mid-notify). The common case, though, acknowledges inline on THIS
  // thread before CommitAsync returns (coverage at publish + non-durable
  // flush ack); that is ordinary program order and takes no lock —
  // `done_inline` is written and read by this thread only.
  struct SyncWaiter {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;         // Guarded by mu (cross-thread acks).
    bool done_inline = false;  // Submitting-thread acks only.
    Status status;
  } w;
  const std::thread::id self = std::this_thread::get_id();
  CommitAsync(txn, check, std::move(redo), [&w, self](Status st) {
    if (std::this_thread::get_id() == self) {
      w.status = std::move(st);
      w.done_inline = true;
      return;
    }
    std::lock_guard<std::mutex> guard(w.mu);
    w.status = std::move(st);
    w.done = true;
    w.cv.notify_one();
  });
  if (w.done_inline) return w.status;
  // Not acknowledged inline: park until the ack fires on another thread.
  // The covering advance is a later publisher's own Drive (the publish
  // rule, commit_ring.h), which drains our registration exactly once.
  std::unique_lock<std::mutex> guard(w.mu);
  if (!w.done) {
    ack_parks_.fetch_add(1, std::memory_order_relaxed);
    w.cv.wait(guard, [&] { return w.done; });
  }
  return w.status;
}

void TxnManager::CommitAsync(const std::shared_ptr<TxnState>& txn,
                             const CommitCheck& check,
                             std::vector<RedoEntry> redo,
                             CommitCallback done) {
  Timestamp commit_ts = 0;
  Status abort_cause;
  bool must_abort = false;
  // Stage timing (sampled): a sampled commit records every stage it
  // executes — entry..timestamp-final is "certify" whether it took the
  // combiner or the fast path.
  const bool sampled = obs::SampleTick(sample_mask_);
  const uint64_t t_entry = sampled ? obs::NowNanos() : 0;
  // A commit with nothing to stamp never enters the ring and never waits
  // on the watermark: read-only transactions publish nothing. Their commit
  // timestamp is the watermark itself — the snapshot boundary they read
  // at (file header).
  const bool has_writes =
      !txn->write_set.empty() || !txn->page_writes.empty();
  {
    // The transaction's own latch makes the commit decision atomic with
    // the committed transition: concurrent conflict marking locks both
    // endpoints' latches, so it either completes before the triage below
    // (and is seen) or observes the committed status afterwards.
    std::lock_guard<std::mutex> latch(txn->ssi_mu);
    if (txn->status.load(std::memory_order_relaxed) != TxnStatus::kActive) {
      done(Status::TxnInvalid("commit of finished transaction"));
      return;
    }
    if (txn->marked_for_abort.load(std::memory_order_acquire)) {
      const Status reason = txn->abort_reason;
      abort_cause = reason.ok() ? Status::Unsafe("marked for abort") : reason;
      must_abort = true;
    } else if (has_writes && read_only_.load(std::memory_order_acquire)) {
      // Degraded mode (WAL I/O failure): writing commits fail fast before
      // certification or timestamp allocation — nothing new may claim to
      // be durable. Read-only transactions fall through and commit.
      abort_cause = Status::IOError("database is read-only: WAL I/O failure");
      must_abort = true;
    } else {
      // Certification triage (txn_manager.h): only an SSI commit with
      // recorded conflict state must order its check and timestamp
      // against other certifying commits. Everything else — SI/S2PL
      // (no check hook, invisible to certification) and conflict-free
      // SSI (nobody's partner: edges are bilateral and we hold our own
      // latch) — allocates lock-free.
      const bool needs_certification =
          check && (txn->in_conflict_flag || txn->out_conflict_flag ||
                    txn->in_ref.IsSet() || txn->out_ref.IsSet());
      if (!needs_certification) {
        if (check) fastpath_commits_.fetch_add(1, std::memory_order_relaxed);
        commit_ts = has_writes ? ring_.Allocate() : ring_.stable();
        txn->commit_ts.store(commit_ts, std::memory_order_release);
      } else {
        // Flat-combining certification: the check (Fig 3.2 / Fig 3.10)
        // runs atomically-in-order with the timestamp allocation across
        // every certifying commit (commit_combiner.h).
        const Status st =
            combiner_.Certify(txn.get(), check, has_writes, &commit_ts);
        if (!st.ok()) {
          abort_cause = st;
          must_abort = true;
        }
      }
    }
    if (!must_abort) {
      txn->status.store(TxnStatus::kCommitted, std::memory_order_release);
    }
  }
  if (must_abort) {
    AbortInternal(txn);
    done(abort_cause);
    return;
  }
  uint64_t t_stage = 0;
  if (sampled) {
    t_stage = obs::NowNanos();
    certify_ns_.Record(t_stage - t_entry);
  }

  // The per-commit record starts on this stack frame; it moves to the
  // heap only if the pipeline actually defers (coverage or flush), so the
  // common inline commit never allocates.
  AsyncCommit acs;
  acs.mgr = this;
  acs.txn = txn;
  acs.done = std::move(done);
  acs.commit_ts = commit_ts;
  acs.sampled = sampled;
  acs.t_entry = t_entry;

  if (!has_writes) {
    // Read-only: nothing to stamp, publish, or log — covered by
    // construction at its watermark timestamp. Finalize (and acknowledge)
    // inline on the submitting thread.
    FinalizeCoveredStep(&acs);
    return;
  }

  // Stamp the new versions. The row EXCLUSIVE locks are still held, so
  // no first-committer-wins check can interleave with the stamping of
  // any individual chain; the watermark keeps snapshots away from the
  // commit as a whole until its ring slot is published.
  for (const TxnState::WriteRecord& w : txn->write_set) {
    w.version->commit_ts.store(commit_ts, std::memory_order_release);
    // Raise the storage shard's max-commit-ts hint before this commit's
    // slot is published: once the stable watermark covers commit_ts, an
    // incremental checkpoint sweeping at that watermark must find the
    // hint raised, or it would skip the shard and lose the write from
    // the checkpoint run. The slot store is a release and the watermark
    // scan acquires it, so coverage implies hint visibility.
    if (w.table_ref != nullptr) {
      w.table_ref->NoteCommit(w.key, commit_ts);
    }
  }
  for (const LockKey& pk : txn->page_writes) {
    PageShard& ps = PageShardFor(pk);
    std::lock_guard<std::mutex> page_guard(ps.mu);
    auto inserted = ps.writes.emplace(pk, PageWrite{commit_ts, txn->id});
    if (inserted.second) {
      page_entries_.fetch_add(1, std::memory_order_relaxed);
    } else if (commit_ts > inserted.first->second.ts) {
      inserted.first->second = PageWrite{commit_ts, txn->id};
    }
  }

  // Durability: append the redo record BEFORE publishing the ring slot,
  // so it reaches the log buffer at submit time and a deep
  // async pipeline coalesces into one fsync (admissibility argument in
  // the file header: dependency order is preserved because a dependent
  // reader begins only after this commit's coverage, hence appends at a
  // higher LSN). Read-only commits skip the log entirely: nothing to
  // redo, and in the durable regime an empty record would still cost a
  // group-commit fsync and permanent log bytes.
  LogRecord record;
  record.type = LogRecordType::kCommit;
  record.txn_id = txn->id;
  record.commit_ts = commit_ts;
  record.redo = std::move(redo);
  const uint64_t t_append = sampled ? obs::NowNanos() : 0;
  acs.lsn = log_manager_->Append(record);
  if (sampled) wal_append_ns_.Record(obs::NowNanos() - t_append);

  commits_inflight_.fetch_add(1, std::memory_order_relaxed);
  // Publish the ring slot (lock-free watermark advance; may park briefly
  // on ring-full backpressure) and hand the rest of the commit to the
  // completion pipeline. Nothing is acknowledged — and none of this
  // commit's locks are released — before the watermark covers it: once
  // `done` fires, any transaction the client starts, and any writer that
  // acquires a lock this commit held, must get a snapshot that includes
  // it. This is what keeps the §4.5 "single-statement updates never abort
  // under first-committer-wins" invariant true with watermark snapshots:
  // a key's exclusive lock is only released once every committed version
  // of it is below the watermark, so lock-then-snapshot always sees the
  // newest version.
  ring_.Publish(commit_ts);
  if (sampled) {
    const uint64_t now = obs::NowNanos();
    stamp_publish_ns_.Record(now - t_stage);
    acs.t_publish = now;
  }
  // Publish ran our own Drive, so in steady state the watermark already
  // covers us and the inline finalize below is the common case.
  if (!options_.log.flush_on_commit) {
    if (ring_.stable() >= commit_ts) {
      // Covered, and the flush ack is unconditional in this regime: the
      // whole finalize chain runs inline on this stack frame — no
      // completion registration, no heap. Exactly-once holds trivially
      // (the record was never handed to the ring).
      FinalizeCoveredStep(&acs);
      return;
    }
  }
  AsyncCommit* ac = new AsyncCommit(std::move(acs));
  ac->heap = true;
  ring_.OnCovered(commit_ts, [ac] { ac->mgr->FinalizeCovered(ac); });
}

void TxnManager::FinalizeCovered(AsyncCommit* ac) {
  if (FinalizeCoveredStep(ac)) return;
  // Must wait on the log drain: hand the record to the flush
  // subscription. The raw-pointer capture is trivially copyable, so the
  // std::function stays in its small buffer — no allocation on this edge.
  log_manager_->OnFlushed(ac->lsn, [ac](Status st) {
    TxnManager* mgr = ac->mgr;
    if (!mgr->options_.log.early_lock_release) {
      mgr->ReleaseCommitLocks(ac->txn.get());
    }
    mgr->FinalizeAcked(ac, st);
  });
}

bool TxnManager::FinalizeCoveredStep(AsyncCommit* ac) {
  const std::shared_ptr<TxnState>& txn = ac->txn;
  if (ac->sampled && ac->t_publish != 0) {
    watermark_ns_.Record(obs::NowNanos() - ac->t_publish);
  }
  // Deregister from the active set. Only SSI transactions are retained
  // past commit (§3.3): they may still be resolved by conflict marking
  // against their retained SIREAD state. SI/S2PL transactions are
  // unreachable after commit (the tracker filters to SSI participants),
  // so they leave the registry immediately.
  const bool retain = txn->isolation == IsolationLevel::kSerializableSSI;
  const Timestamp departed_read_ts =
      txn->read_ts.load(std::memory_order_relaxed);
  {
    RegistryShard& shard = ShardFor(txn->id);
    std::lock_guard<std::mutex> guard(shard.mu);
    shard.active.erase(txn.get());
    if (!retain) shard.txns.erase(txn->id);
    NoteDepartureLocked(&shard, departed_read_ts);
  }
  active_count_.fetch_sub(1, std::memory_order_relaxed);
  if (retain) {
    txn->suspended = true;  // Published by the Retire slot release.
    suspended_.Retire(ac->commit_ts, txn);
  }
  // The versions this commit superseded become prunable once the horizon
  // reaches commit_ts (file header, "Version reclamation").
  for (const TxnState::WriteRecord& w : txn->write_set) {
    written_chains_.Retire(ac->commit_ts, w.chain);
  }
  PublishMinActive();

  if (ac->lsn == 0) {
    // Nothing was appended (read-only): acknowledge straight away.
    ReleaseCommitLocks(txn.get());
    FinalizeAcked(ac, Status::OK());
    return true;
  }
  if (options_.log.early_lock_release) {
    // InnoDB's original ordering (§4.4): locks released before the flush
    // (but still after coverage — the §4.5 invariant holds either way).
    ReleaseCommitLocks(txn.get());
  }
  if (ac->sampled) ac->t_flush = obs::NowNanos();
  if (!options_.log.flush_on_commit) {
    // The flush ack is unconditional in this regime — LogManager::
    // OnFlushed's first branch would fire inline with OK — so skip the
    // subscription machinery and acknowledge here.
    if (!options_.log.early_lock_release) ReleaseCommitLocks(txn.get());
    FinalizeAcked(ac, Status::OK());
    return true;
  }
  return false;
}

void TxnManager::FinalizeAcked(AsyncCommit* ac, Status flush_status) {
  if (ac->lsn != 0) {
    commits_inflight_.fetch_sub(1, std::memory_order_relaxed);
  }
  if (ac->sampled) {
    const uint64_t now = obs::NowNanos();
    if (ac->t_flush != 0) fsync_wait_ns_.Record(now - ac->t_flush);
    if (ac->t_publish != 0) ack_lag_ns_.Record(now - ac->t_publish);
    total_ns_.Record(now - ac->t_entry);
  }
  // The acknowledgment is the latency-critical edge: fire it first, then
  // amortize cleanup on this thread. A failed flush cannot be rolled back
  // — the commit is already visible; surface the I/O error so the client
  // knows durability was not achieved.
  CommitCallback done = std::move(ac->done);
  if (ac->heap) delete ac;  // Stack instances are owned by CommitAsync.
  ac = nullptr;
  done(flush_status);
  CleanupSuspended();
}

void TxnManager::ReleaseCommitLocks(TxnState* txn) {
  // The owners clear after the commit stamped its versions (the range
  // argument in lock_manager.h relies on that order).
  if (txn->isolation == IsolationLevel::kSerializableSSI) {
    // Fig 3.2 line 9: keep SIREAD locks active past commit. (The suspended
    // transaction is retired already, so a cleanup on another thread may
    // release its SIREAD list meanwhile; this thread touches only its
    // owner list.)
    ReleaseChainLocks(txn, /*owners=*/true, /*readers=*/false);
    lock_manager_->ReleaseAllExceptSIRead(txn->id);
  } else {
    ReleaseChainLocks(txn, /*owners=*/true, /*readers=*/true);
    lock_manager_->ReleaseAll(txn->id);
  }
}

void TxnManager::ReleaseChainLocks(TxnState* txn, bool owners,
                                   bool readers) {
  RowLockDelta delta;
  if (owners) {
    for (VersionChain* chain : txn->owned_chains) {
      if (chain->ReleaseOwner(txn->id, &delta)) {
        lock_manager_->WakeChain(chain);
      }
    }
    txn->owned_chains.clear();
  }
  if (readers) {
    for (VersionChain* chain : txn->read_chains) {
      if (chain->ReleaseHolder(txn->id, &delta)) {
        lock_manager_->WakeChain(chain);
      }
    }
    txn->read_chains.clear();
  }
  if (!delta.empty()) lock_manager_->Account(delta);
}

void TxnManager::Abort(const std::shared_ptr<TxnState>& txn) {
  AbortInternal(txn);
}

void TxnManager::AbortInternal(const std::shared_ptr<TxnState>& txn) {
  {
    // Status transitions happen under the latch so conflict marking never
    // races with them (a marker holding this latch sees either kActive or
    // the final state, never a torn transition).
    std::lock_guard<std::mutex> latch(txn->ssi_mu);
    if (txn->status.load(std::memory_order_relaxed) != TxnStatus::kActive) {
      return;
    }
    txn->status.store(TxnStatus::kAborted, std::memory_order_release);
    // An aborted transaction's edges are gone (partners tidy their refs to
    // it), so drop its own refs too: a suspended reader's out-ref to this
    // writer and this writer's in-ref to the reader would otherwise keep
    // each other alive after both leave the registry.
    txn->DropConflictRefs();
  }
  // Forensics: the kActive->kAborted transition above happens exactly once
  // per transaction, so this is the single counting point for the abort
  // taxonomy. Unclassified aborts (client rollback without a recorded
  // cause) fold into kExplicit.
  uint8_t cause = txn->abort_cause.load(std::memory_order_relaxed);
  if (cause == 0 || cause >= kAbortReasonCount) {
    cause = static_cast<uint8_t>(AbortReason::kExplicit);
  }
  abort_counts_[cause].fetch_add(1, std::memory_order_relaxed);
  if (trace_ != nullptr) {
    trace_->Emit(obs::TraceEvent::kAbort, txn->id, cause, /*arg32=*/0,
                 txn->abort_conflict_txn.load(std::memory_order_relaxed));
  }
  const Timestamp departed_read_ts =
      txn->read_ts.load(std::memory_order_relaxed);
  {
    RegistryShard& shard = ShardFor(txn->id);
    std::lock_guard<std::mutex> guard(shard.mu);
    shard.active.erase(txn.get());
    shard.txns.erase(txn->id);
    NoteDepartureLocked(&shard, departed_read_ts);
  }
  active_count_.fetch_sub(1, std::memory_order_relaxed);
  PublishMinActive();
  // Roll back uncommitted versions while still holding the write locks, so
  // no concurrent writer can observe or interleave with the removal.
  for (const TxnState::WriteRecord& w : txn->write_set) {
    w.chain->RemoveUncommitted(txn->id);
  }
  ReleaseChainLocks(txn.get(), /*owners=*/true, /*readers=*/true);
  lock_manager_->ReleaseAll(txn->id);
  CleanupSuspended();
}

void TxnManager::CleanupSuspended() {
  // A suspended transaction is released once every active transaction's
  // snapshot (and every future snapshot: >= the stable watermark, the
  // base of the maintained minimum) is at or past its commit — no overlap
  // remains. The epoch reclaimer's Collect has the lock-free "nothing
  // collectible" fast path and hands out each expired state exactly once
  // (epoch.h); the registry erase and SIREAD release run after its slot
  // locks are dropped (lock-ordering leaf rule).
  const Timestamp cutoff = min_active_read_ts();
  SIReadIndex* sireads = lock_manager_->siread_index();
  suspended_.Collect(cutoff, [&](std::shared_ptr<TxnState> t) {
    {
      RegistryShard& shard = ShardFor(t->id);
      std::lock_guard<std::mutex> guard(shard.mu);
      shard.txns.erase(t->id);
    }
    {
      // No transaction overlaps it any more, so no new edge can reach it.
      // Two partners that certified together each saw the other active
      // and kept its ref: drop ours to break that cycle.
      std::lock_guard<std::mutex> latch(t->ssi_mu);
      t->DropConflictRefs();
    }
    // A suspended transaction's blocking locks were released at its own
    // commit; only the retained SIREADs remain (§3.3): on the chains it
    // lists, and in the index — O(held) per transaction, no lock-table
    // sweep.
    ReleaseChainLocks(t.get(), /*owners=*/false, /*readers=*/true);
    sireads->ReleaseAll(t->id);
  });

  // Superseded versions: prune every chain whose commit the horizon has
  // passed, at that horizon (which is capped by a checkpoint sweep's
  // floor, so a checkpoint never loses the version it must write).
  const Timestamp horizon = prune_horizon();
  size_t freed = 0;
  written_chains_.Collect(
      horizon, [&](VersionChain* chain) { freed += chain->Prune(horizon); });
  if (freed != 0) versions_pruned_.fetch_add(freed, std::memory_order_relaxed);

  // Page-granularity FCW bookkeeping (§4.2) would otherwise grow without
  // bound: entries are inserted at commit and were never erased. An entry
  // with ts <= min_active_read_ts can never again fail the FCW test or
  // mark an rw-conflict — every current snapshot, and every future one
  // (>= the stable watermark, the base of the minimum), is at or past it,
  // and a missing entry already reads as "never written". Swept
  // periodically rather than per cleanup to amortize the shard walk; kRow
  // engines never populate the shards and skip them entirely.
  if (options_.granularity == LockGranularity::kPage &&
      page_entries_.load(std::memory_order_relaxed) != 0 &&
      page_sweep_tick_.fetch_add(1, std::memory_order_relaxed) %
              kPageSweepPeriod ==
          kPageSweepPeriod - 1) {
    for (uint64_t i = 0; i <= page_shard_mask_; ++i) {
      PageShard& ps = page_shards_[i];
      std::lock_guard<std::mutex> page_guard(ps.mu);
      for (auto it = ps.writes.begin(); it != ps.writes.end();) {
        if (it->second.ts <= cutoff) {
          it = ps.writes.erase(it);
          page_entries_.fetch_sub(1, std::memory_order_relaxed);
          page_entries_pruned_.fetch_add(1, std::memory_order_relaxed);
        } else {
          ++it;
        }
      }
    }
  }
}

Timestamp TxnManager::PageLastWriteTs(const LockKey& page_key) const {
  PageShard& ps = PageShardFor(page_key);
  std::lock_guard<std::mutex> guard(ps.mu);
  auto it = ps.writes.find(page_key);
  return it == ps.writes.end() ? 0 : it->second.ts;
}

bool TxnManager::PageLastWrite(const LockKey& page_key, Timestamp* ts,
                               TxnId* txn) const {
  PageShard& ps = PageShardFor(page_key);
  std::lock_guard<std::mutex> guard(ps.mu);
  auto it = ps.writes.find(page_key);
  if (it == ps.writes.end()) return false;
  *ts = it->second.ts;
  *txn = it->second.txn;
  return true;
}

size_t TxnManager::page_write_entries() const {
  return page_entries_.load(std::memory_order_relaxed);
}

uint64_t TxnManager::page_entries_pruned() const {
  return page_entries_pruned_.load(std::memory_order_relaxed);
}

size_t TxnManager::active_count() const {
  return active_count_.load(std::memory_order_relaxed);
}

size_t TxnManager::suspended_count() const { return suspended_.size(); }

}  // namespace ssidb
