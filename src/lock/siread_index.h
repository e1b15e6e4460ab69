// SIReadIndex: the dedicated predicate index for SIREAD locks (§3.2, §3.3).
//
// SIREAD locks are not locks in the blocking sense: they never block and
// never delay anyone (Fig 3.4); their only job is to make rw-antidependency
// evidence discoverable — a writer acquiring EXCLUSIVE on a key must learn
// which transactions read it (Fig 3.5 line 4), and a reader must learn
// which transactions hold EXCLUSIVE on it (Fig 3.4 line 3). They also have
// different lifetime rules: SIREAD entries outlive their owner's commit
// (suspension, §3.3) and are dropped only by suspended-transaction cleanup.
// PostgreSQL's production SSI keeps this state in a dedicated partitioned
// predicate-lock structure outside the heavyweight lock manager for the
// same reasons (Ports & Grittner, VLDB 2012); this class is that structure.
//
// Shape:
//   * 64 key stripes, each a chained hash table keyed by
//     (table, kind, key-bytes) under its own mutex. Probes take a
//     LockKeyView (Slice + precomputed hash): no std::string is ever
//     materialized to look a key up.
//   * 64 transaction stripes (striped by txn id), each mapping TxnId to a
//     singly-linked chain of ownership links. ReleaseAll(txn) walks only
//     that chain — O(entries held), not O(stripes) — so releasing a
//     transaction that holds nothing costs one hash lookup.
//   * Entry and link nodes are pooled per stripe: a release pushes nodes
//     onto a free list and the next publish pops them, so steady-state
//     publish/release traffic performs no heap allocation (a recycled
//     entry even reuses its key std::string's capacity).
//   * Conflict reporting fills a caller-provided InlineVec; up to
//     kInlineConflicts holders are reported without allocation.
//   * Range SIREADs (the predicate locks of an SSI scan, §3.5) live in 64
//     table stripes, each an interval treap keyed by (table, lo) whose
//     nodes cache the largest (table, hi) of their subtree. A writer's
//     stabbing probe (CollectRangeHolders) visits only subtrees that can
//     cover its key — O(log ranges + holders), not O(ranges) — and a
//     stripe with no ranges costs one relaxed load. Each range has one
//     owner and sits on that owner's chain beside its point entries, so
//     ReleaseAll, HoldsAny and the counts cover both kinds. A
//     transaction's next scan on a table coalesces into its existing
//     range when it overlaps it or starts at or below the successor key
//     the range's last scan saw. The range then also covers the gap below
//     that successor, as a next-key successor-gap lock would, and a scan
//     marching through a table in chunks holds one range.
//
// Zero-allocation contract (the read hot path): Publish and CollectHolders
// on keys whose entry already exists and whose owner list fits the current
// capacity perform no heap allocation, and no key bytes are copied unless
// a brand-new entry node (not available from the free list) must be
// created. The allocations that remain are one-time pool growth.
//
// Threading contract: Publish, PublishRange, NoteRangeSuccessor and
// EraseOwn for a transaction are called only by the thread executing that
// transaction; ReleaseAll(txn) may be called from any thread but only
// once the transaction can no longer publish (it aborted, or committed
// and is being cleaned up). Probes (CollectHolders / CollectRangeHolders /
// Holds / HoldsAny) are safe from any thread at any time. Lock order
// inside the index: a transaction stripe mutex may be held while
// acquiring a key or range stripe mutex, never the reverse.
//
// Cross-structure atomicity (the §3.2 race): see the ordering arguments in
// lock_manager.h — readers publish here *before* probing the lock table
// (and, for ranges, before collecting the scan's entries); writers grant
// there (and create the key's chain) *before* probing here; the mutex
// happens-before chain guarantees at least one side observes the other.

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
  /// Holders reported per probe without allocation.
  static constexpr size_t kInlineConflicts = 8;
  using ConflictBuf = InlineVec<TxnId, kInlineConflicts>;

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

  /// Drop `txn`'s SIREAD on `key` if present (§3.7.3: an EXCLUSIVE grant
  /// subsumes the owner's own SIREAD; the new version the writer creates
  /// will detect later conflicts instead).
  void EraseOwn(TxnId txn, const LockKeyView& key);

  /// Drop every SIREAD `txn` holds: abort, or suspended-transaction
  /// cleanup once no concurrent transaction remains (§3.3). O(held).
  void ReleaseAll(TxnId txn);

  bool Holds(TxnId txn, const LockKeyView& key) const;
  /// Commit-time suspension test (Fig 3.2 line 11): one hash lookup.
  /// Counts point entries and ranges alike.
  bool HoldsAny(TxnId txn) const;

  /// Record that `txn` scanned [lo, hi] of `table`: one range SIREAD
  /// covering every key a later insert, update or delete could place in
  /// the scanned predicate. Coalesces into `txn`'s range on `table` that
  /// the new range overlaps or that ends, through its recorded successor
  /// (NoteRangeSuccessor), at or above `lo`. Never blocks.
  void PublishRange(TxnId txn, TableId table, Slice lo, Slice hi);

  /// Record the successor key the scan of [.., hi] saw above `hi`
  /// (nullopt: the table's supremum), on `txn`'s range on `table` whose
  /// upper end that scan set. Later scans starting at or below it
  /// coalesce into the range.
  void NoteRangeSuccessor(TxnId txn, TableId table, Slice hi,
                          const std::optional<std::string>& successor);

  /// Append the owner of every range SIREAD on `table` covering `key`,
  /// other than `self`, to `out` (the writer's predicate probe). Does not
  /// clear `out`.
  void CollectRangeHolders(TxnId self, TableId table, Slice key,
                           ConflictBuf* out) const;

  /// Live SIREAD grants: (txn, key) pairs plus ranges. Relaxed counter;
  /// never touches the stripe mutexes.
  size_t GrantCount() const {
    return static_cast<size_t>(grants_.load(std::memory_order_relaxed));
  }

  /// Distinct keys plus ranges currently indexed — the retained predicate
  /// state the `siread.entries` gauge reports.
  size_t EntryCount() const;

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
};

}  // namespace ssidb

#endif  // SSIDB_LOCK_SIREAD_INDEX_H_
