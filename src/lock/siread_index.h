// SIReadIndex: the SIREAD locks that have no version chain to live on
// (§3.2, §3.3).
//
// SIREAD locks never block anyone (Fig 3.4); they make rw-antidependency
// evidence discoverable, and they outlive their owner's commit until
// suspended-transaction cleanup (§3.3). PostgreSQL's SSI keeps them in a
// predicate-lock structure outside the heavyweight lock manager (Ports &
// Grittner, VLDB 2012). Here the point SIREAD of a key with a chain goes
// one step further and lives on the chain, beside the key's owner
// (version.h). This index keeps the rest: SIREADs of absent keys (a read
// never creates a chain), page SIREADs (page granularity) and scan ranges.
// When a write creates an absent key's chain, the chain's first SSI write
// step carries the key's entry onto it (CarryOnto) and marks the entry, so
// each carried holder's ReleaseAll leaves the chain too; a reader whose
// re-probe finds the chain moves there itself (EraseOwn). The argument is
// in version.h ("Absent keys").
//
// Shape: 64 key stripes, chained hash tables keyed by (table, kind, key)
// and probed with a LockKeyView (no key copy); 64 transaction stripes
// mapping each owner to its chain of ownership links and ranges, so
// release is O(held); entry, link and range nodes pooled per stripe, so
// steady-state traffic does not allocate. Ranges (SSI scans, §3.5) live in
// 64 table stripes, each an interval treap ordered by (table, lo) whose
// nodes cache their subtree's largest (table, hi): a writer's stab costs
// O(log ranges + holders), and a stripe without ranges one relaxed load.
// A transaction's next scan on a table coalesces into its range when it
// overlaps it or starts at or below the successor the range's last scan
// saw (covering that gap, as a next-key lock would).
//
// Threading: Publish, PublishRange, NoteRangeSuccessor and EraseOwn for a
// transaction run on its executing thread; ReleaseAll(txn) on any thread
// once the transaction can no longer publish. Probes and CarryOnto are
// safe anywhere. Lock order: a transaction stripe before a key or range
// stripe; a chain latch before a key stripe (CarryOnto); no stripe held
// while latching a chain (ReleaseAll). The ordering arguments that make
// conflicts unlosable across this index, the lock table and the chains
// are in lock_manager.h and version.h.

#ifndef SSIDB_LOCK_SIREAD_INDEX_H_
#define SSIDB_LOCK_SIREAD_INDEX_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/inline_vec.h"
#include "src/common/slice.h"
#include "src/lock/lock_key.h"

namespace ssidb {

class SIReadIndex {
 public:
  /// Holders reported per probe without allocation (up to 8).
  using ConflictBuf = TxnIdBuf;

  SIReadIndex() = default;
  ~SIReadIndex();

  SIReadIndex(const SIReadIndex&) = delete;
  SIReadIndex& operator=(const SIReadIndex&) = delete;

  /// Record that `txn` read the item `key` names. Idempotent; never
  /// blocks. Allocation-free when the entry exists and pools are warm.
  void Publish(TxnId txn, const LockKeyView& key);

  /// Append every SIREAD holder of `key` other than `self` to `out`
  /// (Fig 3.5 line 4 evidence for a writer). Does not clear `out`.
  void CollectHolders(TxnId self, const LockKeyView& key,
                      ConflictBuf* out) const;

  /// Drop `txn`'s SIREAD on `key` if present (§3.7.3, or a reader moving
  /// onto the key's new chain). Returns true if the entry had been carried
  /// onto a chain: `txn`'s place there is then the caller's to release.
  bool EraseOwn(TxnId txn, const LockKeyView& key);

  /// The carry-over (header): append `key`'s holders to `out` and mark its
  /// entry as carried onto `chain`. Called under the chain's latch.
  void CarryOnto(const LockKeyView& key, VersionChain* chain,
                 ConflictBuf* out);

  /// Drop every SIREAD `txn` holds (abort, or suspended cleanup, §3.3),
  /// including its places on chains its entries were carried onto.
  void ReleaseAll(TxnId txn);

  bool Holds(TxnId txn, const LockKeyView& key) const;
  /// Whether `txn` holds a point entry or range here: one hash lookup.
  bool HoldsAny(TxnId txn) const;

  /// Record that `txn` scanned [lo, hi] of `table`: one range SIREAD
  /// covering every key a later insert, update or delete could place in
  /// the scanned predicate. Coalesces into `txn`'s range on `table` that
  /// the new range overlaps or that ends, through its recorded successor
  /// (NoteRangeSuccessor), at or above `lo`. Never blocks.
  void PublishRange(TxnId txn, TableId table, Slice lo, Slice hi);

  /// Record the successor key (nullopt: supremum) the scan of [.., hi]
  /// saw, on `txn`'s range on `table` ending at `hi`.
  void NoteRangeSuccessor(TxnId txn, TableId table, Slice hi,
                          const std::optional<std::string>& successor);

  /// Append the owner of every range SIREAD on `table` covering `key`,
  /// other than `self`, to `out` (the writer's predicate probe).
  void CollectRangeHolders(TxnId self, TableId table, Slice key,
                           ConflictBuf* out) const;

  /// Live SIREAD grants here: (txn, key) pairs plus ranges.
  size_t GrantCount() const {
    return static_cast<size_t>(grants_.load(std::memory_order_relaxed));
  }

  /// Keys with a SIREAD (entries here and chains with a SIREAD holder)
  /// plus ranges: the `siread.entries` gauge.
  size_t EntryCount() const;

  /// Point entries in the key stripes alone (tests).
  size_t PointEntryCount() const;

  /// SIREAD holders on chains (counted in lock.grants).
  size_t ChainGrantCount() const {
    const int64_t n = chain_sireads_.load(std::memory_order_relaxed);
    return static_cast<size_t>(n > 0 ? n : 0);
  }

  /// Chain steps report their SIREAD holder and key changes here.
  void AccountChains(int64_t sireads, int64_t keys) {
    chain_sireads_.fetch_add(sireads, std::memory_order_relaxed);
    chain_keys_.fetch_add(keys, std::memory_order_relaxed);
  }

  /// Ranges currently indexed (the `siread.ranges` gauge).
  size_t RangeCount() const;

 private:
  struct Entry {
    uint64_t hash = 0;
    TableId table = 0;
    LockKind kind = LockKind::kRow;
    std::string key;
    /// Owners of a SIREAD on this key; hot keys with many concurrent
    /// readers spill to a heap buffer that recycling preserves.
    InlineVec<TxnId, 4> owners;
    /// The chain the owners were carried onto (CarryOnto), or nullptr.
    VersionChain* chain = nullptr;
    Entry* next = nullptr;  ///< Bucket chain, or free-list link.
  };

  /// One (txn, entry) ownership record, threaded on the owner's chain.
  struct OwnerLink {
    Entry* entry = nullptr;
    uint32_t key_stripe = 0;
    OwnerLink* next = nullptr;
  };

  /// One range SIREAD [lo, hi] on `table`, owned by one transaction: a
  /// node of its table stripe's interval treap and of its owner's chain.
  struct Range {
    TableId table = 0;
    TxnId owner = 0;
    std::string lo;
    std::string hi;
    /// Later scans by the owner starting at or below `bound` coalesce
    /// (unbounded: the last scan saw the supremum). `bound` is `hi` until
    /// the scan that set `hi` records its successor.
    std::string bound;
    bool unbounded = false;
    uint64_t priority = 0;
    Range* left = nullptr;
    Range* right = nullptr;
    /// The node with the largest (table, hi) in this subtree.
    const Range* max_hi = nullptr;
    Range* next_owned = nullptr;  ///< Owner chain, or free-list link.
  };

  struct KeyStripe {
    mutable std::mutex mu;
    /// Power-of-two chained hash table; lazily sized on first insert.
    std::vector<Entry*> buckets;
    size_t entry_count = 0;
    Entry* free_entries = nullptr;
  };

  /// A transaction's SIREAD holdings: point entries and ranges.
  struct Held {
    OwnerLink* points = nullptr;
    Range* ranges = nullptr;
  };

  struct TxnStripe {
    mutable std::mutex mu;
    std::unordered_map<TxnId, Held> chains;
    OwnerLink* free_links = nullptr;
  };

  /// The ranges of the tables that map to this stripe. Publishes and
  /// releases take `mu` exclusive, writer probes shared. `count` is
  /// written under `mu` and read without it by the empty check; the §3.2
  /// argument orders a reader's publication before the writer's load.
  struct RangeStripe {
    mutable std::shared_mutex mu;
    Range* root = nullptr;
    std::atomic<size_t> count{0};
    uint64_t next_priority = 0;
    Range* free_ranges = nullptr;
  };

  static constexpr size_t kNumStripes = 64;
  static constexpr size_t kInitialBuckets = 16;

  static size_t KeyStripeOf(uint64_t hash) { return hash % kNumStripes; }
  static size_t TxnStripeOf(TxnId txn) {
    // Ids are sequential; a multiplicative mix spreads neighbours.
    return (txn * 0x9E3779B97F4A7C15ULL >> 32) % kNumStripes;
  }

  static bool Matches(const Entry& e, const LockKeyView& key) {
    return e.hash == key.hash && e.table == key.table && e.kind == key.kind &&
           Slice(e.key) == key.key;
  }
  /// Find the entry for `key` in `stripe`, or nullptr. Caller holds mu.
  Entry* FindLocked(const KeyStripe& stripe, const LockKeyView& key) const;
  /// Find-or-create. Caller holds mu.
  Entry* GetOrCreateLocked(KeyStripe& stripe, const LockKeyView& key);
  /// Unlink `e` from its bucket and push it on the free list (its owners
  /// list is empty). Caller holds mu.
  void RecycleEntryLocked(KeyStripe& stripe, Entry* e);
  /// Double the bucket array and relink every entry. Caller holds mu.
  void GrowLocked(KeyStripe& stripe);

  RangeStripe& RangeStripeOf(TableId table) {
    return range_stripes_[table % kNumStripes];
  }
  const RangeStripe& RangeStripeOf(TableId table) const {
    return range_stripes_[table % kNumStripes];
  }

  // Interval treap over one RangeStripe (caller holds its mu). Nodes are
  // ordered by (table, lo, address); see siread_index.cc.
  static bool OrdersBefore(const Range* a, const Range* b);
  static void Pull(Range* n);
  static Range* Merge(Range* a, Range* b);
  static void Split(Range* t, const Range* at, Range** before,
                    Range** rest);
  static void Insert(RangeStripe& stripe, Range* n);
  static Range* Erase(Range* t, const Range* n);
  static void Stab(const Range* t, TableId table, Slice key, TxnId self,
                   ConflictBuf* out);

  KeyStripe key_stripes_[kNumStripes];
  TxnStripe txn_stripes_[kNumStripes];
  RangeStripe range_stripes_[kNumStripes];
  std::atomic<uint64_t> grants_{0};
  /// SIREAD holders on chains and chains with one (signed: see
  /// LockManager::chain_locks_).
  std::atomic<int64_t> chain_sireads_{0};
  std::atomic<int64_t> chain_keys_{0};
};

}  // namespace ssidb

#endif  // SSIDB_LOCK_SIREAD_INDEX_H_
