// Table: one table's index from key to version chain. Two structures
// index the same set of nodes:
//
//   * Ordered shards. The key space is partitioned into contiguous ranges,
//     one shard per range, each with its own shared_mutex and std::map.
//     Because ranges are contiguous and ordered, the concatenation of the
//     shards *is* the ordered index: Scan, NextKey and gap locking observe
//     exactly the total order of a single map. A table starts as one shard
//     and splits a shard at its median key once it exceeds a threshold, so
//     hot tables spread across latches without any a-priori knowledge of
//     the key distribution (small tables pay nothing). The shards are the
//     only structure behind NextKey, SeekCeil, CollectRange, ForEachChain,
//     splits, run generations and eviction.
//   * Point index. 64 key stripes, each a chained hash table under its own
//     mutex (the stripe pattern of SIReadIndex). Find and GetOrCreate on an
//     existing key are one hash probe: no routing, no shard latch, no tree
//     walk.
//
// The index models a B+Tree leaf level: entries are never physically
// removed during normal operation (deletes leave tombstone versions, §3.5),
// so the key space seen by next-key/gap locking is stable, and a hash
// entry never has to be unlinked.
//
// Nodes. The map value (Node) holds the VersionChain itself plus its hash
// link; the hash buckets point at map entries. A split moves map nodes
// with extract/insert, which relinks tree nodes without moving them, so an
// entry's address — and the chain inside it — never changes. Chain
// pointers stay valid for the table's lifetime and the hash is never
// touched by a split.
//
// Authoritative miss. GetOrCreate links a new key into its stripe inside
// the same exclusive-shard-latch critical section that inserts it into the
// shard, before it returns. So every chain that can hold a version is in
// the hash, and Find answers from the hash alone: a miss means no
// GetOrCreate of that key has returned yet.
//
// Latching protocol (never held across lock-manager calls — scans collect
// (key, chain) batches first, avoiding latch/lock deadlocks):
//   * routing_mu_ (shared_mutex): guards the shard directory (shards_ and
//     its contiguous lower-bound vector bounds_). Every shard operation
//     holds it SHARED for its whole duration; only a split takes it
//     EXCLUSIVE. Splits are rare (amortized O(1/threshold) per insert), so
//     the shared acquisition is effectively uncontended.
//   * Shard::mu (shared_mutex): guards one shard's map. Reads take it
//     shared, inserts exclusive. Acquired only while routing_mu_ is held
//     shared; at most one shard latch is held at a time (range scans lock
//     shards strictly left to right, one by one).
//   * Stripe::mu (mutex): guards one stripe's buckets and the hash links of
//     the nodes in it. Lock order: shard latch, then point stripe. Find
//     takes the stripe alone; nothing takes a shard latch while holding a
//     stripe.

#ifndef SSIDB_STORAGE_TABLE_H_
#define SSIDB_STORAGE_TABLE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/storage/version.h"

namespace ssidb {

class StorageTier;

using TableId = uint32_t;

/// An index entry surfaced to the scan protocol.
struct ScanEntry {
  std::string key;
  VersionChain* chain;
};

class Table {
 public:
  /// `split_threshold`: shard entry count that triggers a median split.
  Table(TableId id, std::string name, size_t split_threshold = 1024);
  ~Table();

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  TableId id() const { return id_; }
  const std::string& name() const { return name_; }

  /// Find the chain for a key, or nullptr: one point-index probe. The
  /// pointer stays valid for the table's lifetime (nodes are never freed
  /// or moved).
  VersionChain* Find(Slice key) const;

  /// Find the chain for a key, creating an empty one if absent. Once this
  /// returns, Find(key) never misses.
  VersionChain* GetOrCreate(Slice key);

  /// Smallest index key strictly greater than `key`, or nullopt if `key`
  /// is the last (the caller then uses the table's supremum lock key).
  /// This is next(x) of Figs 3.6/3.7.
  std::optional<std::string> NextKey(Slice key) const;

  /// Smallest index key >= lo, or nullopt.
  std::optional<std::string> SeekCeil(Slice lo) const;

  /// Collect every index entry with lo <= key <= hi (visible or not — the
  /// scan protocol applies the modified read to each, §3.5), plus the
  /// successor key after hi in *successor (nullopt => supremum). Shards are
  /// visited in range order, one latch at a time.
  void CollectRange(Slice lo, Slice hi, std::vector<ScanEntry>* entries,
                    std::optional<std::string>* successor) const;

  /// Number of index entries (including tombstoned keys).
  size_t EntryCount() const;

  /// Visit every index entry in key order (eviction, consistency checks).
  /// The callback must not re-enter the table.
  void ForEachChain(
      const std::function<void(const std::string&, VersionChain*)>& fn) const;

  /// Filtered overload for incremental sweeps: visit only entries of
  /// shards whose per-shard max-commit-ts hint is > `since` — a shard no
  /// commit has touched past `since` is skipped without taking its latch,
  /// so a run generation over a cold table costs one routing-latch
  /// acquisition. The hint is maintained by NoteCommit/RecoverVersion and
  /// is conservative (splits copy it to both halves), so a skipped shard
  /// provably holds no version with commit_ts > since; a visited shard may
  /// still contain only older entries — the callback filters per chain.
  void ForEachChain(
      Timestamp since,
      const std::function<void(const std::string&, VersionChain*)>& fn) const;

  /// Record that a version of `key` committed at `commit_ts`: raises the
  /// owning shard's max-commit-ts hint. Called by the transaction manager
  /// during commit-time version stamping, *before* the stable watermark
  /// can cover `commit_ts`, so any sweep at watermark >= commit_ts is
  /// guaranteed to see the raised hint.
  void NoteCommit(Slice key, Timestamp commit_ts);

  /// Recovery bulk reload: install a committed version with its original
  /// commit timestamp (WAL replay / run load). Idempotent — see
  /// VersionChain::InstallRecovered.
  void RecoverVersion(Slice key, Slice value, bool tombstone,
                      Timestamp commit_ts);

  // --- Disk tier hooks (no-ops when no tier is attached) ---

  /// Attach the disk tier. Called once at DB::Open, before any traffic.
  void SetStorageTier(StorageTier* tier) { tier_ = tier; }
  StorageTier* storage_tier() const { return tier_; }

  /// Fault an evicted chain's spilled anchor back from the run files.
  /// Corruption if no run holds the key (the durability contract says one
  /// must). Racing faulters are fine: FaultInstall keeps the first winner.
  Status FaultChain(Slice key, VersionChain* chain);

  /// Run generation (DB::Checkpoint at the stable watermark, DB::SpillChains
  /// at the prune horizon): durably write, as one run, the newest version
  /// at or below `cut` of every chain whose such version committed after
  /// the table's last generation cut (StorageTier::generation_cut),
  /// tombstones and oversized values (extents) included, then raise that
  /// cut to `cut`. Shards no commit touched since are skipped, so the cost
  /// is O(touched), not O(table). Evicted chains that get an entry are
  /// faulted back first (storage_tier.h, run order). A cut at or below the
  /// last one writes nothing, and so does an empty window; `bytes` (if
  /// non-null) accumulates the run's size.
  Status WriteGeneration(Timestamp cut, uint64_t* bytes = nullptr);

  /// Eviction pass (DB::SpillChains, after a generation): evict every
  /// chain VersionChain::Evict accepts at the lower of `horizon` and the
  /// table's generation cut. Frees memory only; writes nothing. Returns
  /// chains evicted.
  size_t EvictChains(Timestamp horizon);

  /// Recovery: a run file durably holds `key` at `commit_ts`. Marks the
  /// chain evicted unless WAL replay installed something at least as new
  /// (see VersionChain::SetEvictedRecovered).
  void RecoverEvicted(Slice key, Timestamp commit_ts);

  /// Number of shards the key space is currently partitioned into.
  size_t ShardCount() const;

  /// Page number of a key under kPage granularity. Keys produced by
  /// EncodeU64Key map contiguously (id / rows_per_page), modelling B+Tree
  /// leaf adjacency; other keys fall back to a coarse hash.
  static uint64_t PageOf(Slice key, uint32_t rows_per_page);

 private:
  struct Node;
  using Index = std::map<std::string, Node, std::less<>>;
  /// A map entry: the key plus its Node. Its address is stable (see Nodes
  /// above), so the point index links entries directly.
  using Entry = std::pair<const std::string, Node>;

  /// Map value: the key's point-index link and its version chain. The
  /// chain is synchronized by its own latch, not by the index, hence
  /// mutable: const lookups hand out writable chains.
  struct Node {
    /// Next entry in the same bucket. Guarded by the stripe's mutex.
    Entry* next = nullptr;
    mutable VersionChain chain;
  };

  struct Shard {
    mutable std::shared_mutex mu;
    Index index;
    /// Largest commit_ts ever stamped into this shard's range (0 = none).
    /// Conservative upper bound (splits copy it), consulted by the
    /// filtered ForEachChain to skip cold shards latch-free.
    std::atomic<Timestamp> max_commit_ts{0};
  };

  /// One point-index stripe: a power-of-two chained hash table, lazily
  /// sized on first insert and doubled when it holds as many entries as
  /// buckets.
  struct Stripe {
    mutable std::mutex mu;
    std::vector<Entry*> buckets;
    size_t count = 0;
  };

  static constexpr size_t kNumStripes = 64;
  static constexpr size_t kInitialBuckets = 16;

  static uint64_t HashKey(std::string_view key);
  static size_t BucketOf(uint64_t hash, size_t buckets) {
    return (hash / kNumStripes) & (buckets - 1);
  }
  /// Link a freshly inserted entry into its stripe, doubling the stripe's
  /// buckets (rehashing its keys) when full. Caller holds the owning
  /// shard's latch exclusive.
  void LinkPoint(Entry* entry);

  /// Index of the shard whose range contains `key`: the last shard whose
  /// lower bound is <= key. Caller holds routing_mu_ (any mode).
  size_t RouteLocked(std::string_view key) const;

  /// Split shard-containing-`hint_key` at its median if it still exceeds
  /// the threshold (re-checked under the exclusive routing latch).
  void MaybeSplit(const std::string& hint_key);

  const TableId id_;
  const std::string name_;
  const size_t split_threshold_;
  /// Disk tier, or nullptr (memory-only). Set once before traffic.
  StorageTier* tier_ = nullptr;

  mutable std::shared_mutex routing_mu_;
  /// Shards ordered by lower bound, and those inclusive lower bounds in
  /// one contiguous vector (bounds_[i] belongs to shards_[i]; bounds_[0]
  /// is always ""), so routing binary-searches without a pointer hop per
  /// probe. Both change only under routing_mu_ exclusive.
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::string> bounds_;

  Stripe stripes_[kNumStripes];
};

}  // namespace ssidb

#endif  // SSIDB_STORAGE_TABLE_H_
