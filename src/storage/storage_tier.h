// StorageTier: the disk-backed half of the storage layer — owns the buffer
// pool, the run-file directory, each table's run list and its last
// generation cut, and implements the write / fault / compaction protocols
// Table delegates to.
//
// Enablement: every durable engine (LogOptions::wal_dir set) has a tier,
// with runs in DBOptions::data_dir, defaulting to "<wal_dir>/runs": its
// checkpoints are runs. A memory-only engine has one only when it sets
// both data_dir and DBOptions::buffer_pool_bytes > 0, to spill. A zero
// pool means "spill nothing", not "no tier": the pool keeps its 4-frame
// floor for writing runs, and Table's hot paths reach the tier only for
// evicted chains, which a zero-pool engine never has.
//
// Run generations: Table::WriteGeneration, the one sweep that writes
// chains, writes at cut c, as one run per table, the newest version <= c
// of every chain whose such version committed after the table's last cut,
// then makes c that cut. DB::Checkpoint cuts at the stable watermark (and
// then writes the manifest), DB::SpillChains at the prune horizon (no
// manifest); a cut at or below the last one writes nothing. Both cuts lie
// at or below the stable watermark, so the commits they cover are stamped
// and their shard hints raised.
//
// Invariant: after a generation at cut c, every chain's newest version
// <= c is in a run (it committed before c was taken, versions are added
// only at the head, and pruning never frees the newest). A spill's sweep
// may lose to a pruner a version <= c that a newer one at or below the
// horizon superseded; no snapshot reads it, and that chain's head lies
// above c. After recovery a table's cut is the manifest watermark (0
// without one): replay installs only later commits, and a chain replay
// left resident is just written once more.
//
// Durability contract: a chain is marked evicted only when its newest
// version is at or below its table's cut, hence durably in a run (tmp +
// fsync + rename + directory fsync; the fsyncs follow
// LogOptions::wal_fsync, like the WAL's). So eviction (Table::EvictChains)
// does no I/O, and the runs ARE the durable home of every key below the
// manifest's watermark: they are deleted only when a merged replacement
// run is durable (compaction), never by WAL GC.
//
// Lookup order: a key may appear in several runs; Lookup probes
// newest-first (descending seq) and stops at the first hit. A run whose
// filter rules the key out is skipped without a page read (run_file.h).
// Compaction merges a table's runs into one, keeping the highest
// commit_ts per key.
//
// Run order: two run producers exist — generations and compactions
// (MaybeCompact); DB::SpillChains and DB::Checkpoint each add runs, then
// compact. Nothing spills or compacts on a timer. Producers run one at a
// time under producer_mu_, a generation from a table's sweep to that
// table's publish, a compaction from its input snapshot to its publish.
// So seq order, publication order and sweep order agree, every run holds
// versions at least as new as those of any older run for the same key,
// and recovery, which orders runs by seq, rebuilds the same order.
// A checkpoint's versions need not lie below the prune horizon, so a
// snapshot may still need an older version than a run's entry for a key.
// Only an evicted chain ever probes the runs, so a generation first faults
// back every evicted chain it writes an entry for (an upsert over an
// evicted chain leaves it evicted with resident versions): once its run is
// published, no evicted chain's anchor is older than that run's entry.
//
// Locking: producer_mu_ is taken with no latch held, before any shard or
// chain latch (lock order producer_mu_ -> shard -> chain). runs_mu_
// (shared_mutex) guards the table -> run-list map, whose lists are
// immutable: a lookup takes one reference to the current list under a
// shared hold and does its I/O after releasing it; a producer publishes a
// new list under an exclusive hold. runs_mu_ is never held while a chain
// latch or table shard latch is held, and vice versa — see the lock-order
// rules in ARCHITECTURE.md.

#ifndef SSIDB_STORAGE_STORAGE_TIER_H_
#define SSIDB_STORAGE_STORAGE_TIER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/options.h"
#include "src/common/status.h"
#include "src/storage/buffer_pool.h"
#include "src/storage/run_file.h"

namespace ssidb {

class Catalog;

class StorageTier {
 public:
  /// All run-file I/O (and the pool's page I/O) routes through
  /// `options.env` (nullptr = real filesystem).
  StorageTier(const DBOptions& options, std::string dir);
  ~StorageTier();

  StorageTier(const StorageTier&) = delete;
  StorageTier& operator=(const StorageTier&) = delete;

  /// Create the run directory. `wipe` (in-memory engines: the WAL is not
  /// durable so stale runs must not resurrect state) removes existing
  /// run files first.
  Status Init(bool wipe);

  BufferPool* pool() { return &pool_; }

  /// Held by a run producer from its sweep to its publish.
  using ProducerLock = std::unique_lock<std::mutex>;
  ProducerLock LockProducers() { return ProducerLock(producer_mu_); }

  /// Table `table_id`'s last generation cut (the recovered floor before
  /// its first generation). It only grows.
  Timestamp generation_cut(const ProducerLock& producer,
                           uint32_t table_id) const;
  void set_generation_cut(const ProducerLock& producer, uint32_t table_id,
                          Timestamp cut);

  /// Durably write the entries `source` yields as table `table`'s newest
  /// run and publish it for lookups. The caller holds `producer` (from
  /// LockProducers) since before it swept the chains in the entries.
  /// `bytes` (if non-null) receives the run file's size.
  Status WriteRun(const ProducerLock& producer, uint32_t table_id,
                  const RunFile::Source& source, uint64_t* bytes = nullptr);

  /// Probe table `table_id`'s runs newest-first for `key`.
  Status Lookup(uint32_t table_id, Slice key, RunEntry* out, bool* found);

  /// Merge all of `table_id`'s runs into one when at least
  /// run_compaction_min_runs have accumulated (newest commit_ts per key
  /// wins); delete the inputs once the replacement is durable. Called by
  /// DB::SpillChains and DB::Checkpoint right after they add runs. Takes
  /// the producer lock, so concurrent generations wait for the merge.
  Status MaybeCompact(uint32_t table_id);

  /// Recovery: open every run file in the directory and publish each under
  /// its table, applying a table's runs oldest first. With a buffer pool
  /// the covered chains are re-marked evicted (Table::RecoverEvicted), so
  /// the values stay on disk instead of being loaded into RAM; with a zero
  /// pool the values are installed (Table::RecoverVersion). Every table's
  /// generation cut starts at `cut` (the manifest watermark). Returns the
  /// highest commit_ts seen in any run.
  Status RecoverRuns(Catalog* catalog, Timestamp cut,
                     Timestamp* max_commit_ts);

  size_t run_count(uint32_t table_id) const;

  // Eviction/fault counters (relaxed; registry contract). The pool owns
  // hits/misses/evictions/writebacks. spilled_chains counts evicted chains.
  uint64_t spilled_chains() const {
    return spilled_chains_.load(std::memory_order_relaxed);
  }
  uint64_t faulted_chains() const {
    return faulted_chains_.load(std::memory_order_relaxed);
  }
  void AddSpilled(uint64_t n) {
    spilled_chains_.fetch_add(n, std::memory_order_relaxed);
  }
  void AddFaulted(uint64_t n) {
    faulted_chains_.fetch_add(n, std::memory_order_relaxed);
  }
  /// Data pages Lookup pinned (tier.pages_probed): pages per fault is
  /// pages_probed / faulted_chains.
  uint64_t pages_probed() const {
    return pages_probed_.load(std::memory_order_relaxed);
  }

  /// Bytes of the runs compactions wrote (tier.compaction_bytes_written);
  /// generation runs are not counted here.
  uint64_t compaction_bytes_written() const {
    return compaction_bytes_written_.load(std::memory_order_relaxed);
  }

  /// Run creations/compactions that failed on I/O (io.errors.tier).
  uint64_t io_errors() const {
    return io_errors_.load(std::memory_order_relaxed);
  }

  /// Receive a kIOError trace event per failed run write/compaction.
  void SetTraceRing(obs::TraceRing* trace) {
    trace_.store(trace, std::memory_order_release);
  }

 private:
  /// Newest run first (descending seq); never modified once published.
  using RunList = std::vector<std::shared_ptr<RunFile>>;

  std::string RunPath(uint32_t table_id, uint64_t seq) const;

  /// The current run list of `table_id` (nullptr: none yet).
  std::shared_ptr<const RunList> Runs(uint32_t table_id) const;
  void Publish(uint32_t table_id, std::shared_ptr<const RunList> runs);

  /// Count + trace a failed durable-run operation; returns `st` through.
  Status NoteIOError(const Status& st, uint32_t table_id);

  const DBOptions options_;
  const std::string dir_;
  io::Env* const env_;
  BufferPool pool_;

  /// Serializes run producers; guards the counters and cuts below.
  std::mutex producer_mu_;
  uint64_t next_file_id_ = 1;
  uint64_t next_seq_ = 1;
  /// Tables without an entry are at `recovered_cut_`.
  std::unordered_map<uint32_t, Timestamp> cuts_;
  Timestamp recovered_cut_ = 0;

  mutable std::shared_mutex runs_mu_;
  std::unordered_map<uint32_t, std::shared_ptr<const RunList>> runs_;

  std::atomic<uint64_t> spilled_chains_{0};
  std::atomic<uint64_t> faulted_chains_{0};
  std::atomic<uint64_t> pages_probed_{0};
  std::atomic<uint64_t> compaction_bytes_written_{0};
  std::atomic<uint64_t> io_errors_{0};
  std::atomic<obs::TraceRing*> trace_{nullptr};
};

}  // namespace ssidb

#endif  // SSIDB_STORAGE_STORAGE_TIER_H_
