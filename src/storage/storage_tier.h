// StorageTier: the disk-backed half of the storage layer — owns the buffer
// pool, the run-file directory and each table's run list, and implements
// the spill / fault / compaction protocols Table delegates to.
//
// Enablement: DB::Open constructs a tier only when
// DBOptions::buffer_pool_bytes > 0 and a run directory is resolvable
// (DBOptions::data_dir, defaulting to "<wal_dir>/runs"). With no tier,
// Table's hot paths are bit-for-bit the memory-only engine.
//
// Durability contract: a version chain is marked evicted only after the
// run holding its anchor version is durably on disk (tmp + fsync + rename
// + directory fsync). Checkpoint base images skip evicted chains (their
// sweep read observes nothing), so the run files ARE the durable home of
// spilled keys: they are deleted only when a merged replacement run is
// durable (compaction), never by checkpoint GC.
//
// Lookup order: a key may appear in several runs (respilled after new
// commits); Lookup probes newest-first (descending seq) and stops at the
// first hit, so the newest spilled version wins. A run whose filter rules
// the key out is skipped without a page read (run_file.h). Compaction
// merges a table's runs into one, keeping the highest commit_ts per key.
//
// Run order: two run producers exist — spills (Table::SpillShards, from
// the sweeper and from DB::SpillChains) and compactions (MaybeCompact).
// They run one at a time under producer_mu_: a spill holds it from its
// first chain probe to its publish, a compaction from its input snapshot
// to its publish. So seq order, publication order and probe order agree,
// and every run holds anchors at least as new as those of any older run
// for the same key — the newest-first rule is then exact in memory, and
// recovery, which orders runs by seq, rebuilds the same order.
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

  /// Largest value the spill path accepts (bigger chains stay resident).
  uint64_t max_entry_bytes() const {
    return RunFile::MaxEntryBytes(options_.run_page_bytes);
  }

  /// Held by a run producer from its first probe to its publish.
  using ProducerLock = std::unique_lock<std::mutex>;
  ProducerLock LockProducers() { return ProducerLock(producer_mu_); }

  /// Durably write `entries` (sorted by key, non-empty) as table `table`'s
  /// newest run and publish it for lookups. The caller holds `producer`
  /// (from LockProducers) since before it probed the chains in `entries`.
  Status WriteRun(const ProducerLock& producer, uint32_t table_id,
                  const std::vector<RunEntry>& entries);

  /// Probe table `table_id`'s runs newest-first for `key`.
  Status Lookup(uint32_t table_id, Slice key, RunEntry* out, bool* found);

  /// Merge all of `table_id`'s runs into one when at least
  /// run_compaction_min_runs have accumulated (newest commit_ts per key
  /// wins); delete the inputs once the replacement is durable. Called from
  /// the DB sweeper thread — the background merge daemon. Takes the
  /// producer lock, so spills wait for the merge.
  Status MaybeCompact(uint32_t table_id);

  /// Recovery: open every run file in the directory, publish each under
  /// its table, and re-mark the covered chains evicted (Table::
  /// RecoverEvicted) so spilled values stay on disk instead of being
  /// replayed into RAM. Returns the highest commit_ts seen in any run.
  Status RecoverRuns(Catalog* catalog, Timestamp* max_commit_ts);

  size_t run_count(uint32_t table_id) const;

  // Spill/fault counters (relaxed; registry contract). The pool owns
  // hits/misses/evictions/writebacks.
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

  /// Serializes run producers; guards the two counters below.
  std::mutex producer_mu_;
  uint64_t next_file_id_ = 1;
  uint64_t next_seq_ = 1;

  mutable std::shared_mutex runs_mu_;
  std::unordered_map<uint32_t, std::shared_ptr<const RunList>> runs_;

  std::atomic<uint64_t> spilled_chains_{0};
  std::atomic<uint64_t> faulted_chains_{0};
  std::atomic<uint64_t> pages_probed_{0};
  std::atomic<uint64_t> io_errors_{0};
  std::atomic<obs::TraceRing*> trace_{nullptr};
};

}  // namespace ssidb

#endif  // SSIDB_STORAGE_STORAGE_TIER_H_
