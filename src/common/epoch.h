// Epoch-based reclamation and runtime core-topology sizing.
//
// EpochReclaimer retires items tagged with a monotonic epoch (here: commit
// timestamps) into per-thread slots and collects every item whose epoch is
// at or below a caller-supplied horizon. It replaces the TxnManager's
// previous suspended-transaction multimap, whose single mutex and ordered
// insert sat on the commit path of every retained SSI transaction:
//
//   * Retire is one slot mutex (keyed by a per-thread index, uncontended
//     in steady state) plus a lock-free global-minimum floor — no ordered
//     structure, no global lock.
//   * Collect has a lock-free fast path: when the cached global oldest
//     epoch exceeds the horizon, nothing can be collectible and no lock is
//     taken. The cache may lag a concurrent Retire; callers that collect
//     after every retire (as TxnManager::CleanupSuspended does) reap such
//     an entry on the next pass — the same "lags a beat, never leads"
//     contract the old multimap cache had.
//
// Why the oldest_ cache cannot leak an item (the subtle case: Collect
// raising the cache while a Retire is in flight): Retire stores the item
// into its slot (under the slot mutex, updating the slot minimum) BEFORE
// it CAS-lowers the global oldest_. Collect raises oldest_ only via a CAS
// whose expected value is what it read BEFORE scanning the slots, and then
// re-lowers it against every slot minimum it can see. Interleavings:
//   1. Retire's global CAS lands before Collect's raise-CAS: the raise
//      fails (oldest_ changed) and the cache keeps the retired floor.
//   2. Retire's global CAS lands after Collect's raise-CAS: the CAS-min
//      loop on the retire side re-lowers the cache below the raise.
//   3. Retire's slot store lands before Collect's scan of that slot: the
//      verification pass (and the scan itself) sees the slot minimum and
//      re-lowers the cache.
// In every case the cache ends at or below the retired epoch, so the fast
// path can defer — but never permanently skip — a retired item.
//
// TopologyShards sizes shard arrays from std::thread::hardware_concurrency
// instead of fixed pow2 constants, so slot counts track the machine the
// engine actually runs on.

#ifndef SSIDB_COMMON_EPOCH_H_
#define SSIDB_COMMON_EPOCH_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace ssidb {

/// Smallest power of two >= max(n, floor). Shared by the commit ring, the
/// registry shards and the epoch slots; saturates at 2^63 for absurd
/// inputs.
inline uint64_t RoundUpPow2(uint64_t n, uint64_t floor) {
  uint64_t p = floor;
  while (p < n && p < (uint64_t{1} << 63)) p <<= 1;
  return p;
}

/// Shard count matched to the runtime core topology: the smallest power of
/// two covering hardware_concurrency (with a sane fallback when the
/// runtime reports 0, which the standard permits).
inline uint32_t TopologyShards(uint32_t floor = 1) {
  uint32_t cores = std::thread::hardware_concurrency();
  if (cores == 0) cores = 8;
  return static_cast<uint32_t>(RoundUpPow2(cores, floor));
}

/// Process-wide dense thread index, for spreading threads across
/// topology-sized slot arrays (each structure masks it down to its own
/// size). Stable for the lifetime of the thread.
inline uint64_t ThreadTopologySlot() {
  static std::atomic<uint64_t> next{0};
  thread_local const uint64_t slot =
      next.fetch_add(1, std::memory_order_relaxed);
  return slot;
}

template <typename T>
class EpochReclaimer {
 public:
  static constexpr uint64_t kMaxEpoch = ~uint64_t{0};

  /// `slots` is rounded up to a power of two; 0 means "size from the core
  /// topology" (TopologyShards).
  explicit EpochReclaimer(uint32_t slots)
      : mask_(RoundUpPow2(slots != 0 ? slots : TopologyShards(), 1) - 1),
        slots_(new Slot[mask_ + 1]) {}

  EpochReclaimer(const EpochReclaimer&) = delete;
  EpochReclaimer& operator=(const EpochReclaimer&) = delete;

  /// Retire `item` at `epoch`: it becomes collectible once a Collect runs
  /// with horizon >= epoch. Epochs may repeat (read-only commits share
  /// timestamps). Thread-safe.
  void Retire(uint64_t epoch, T item) {
    Slot& slot = slots_[ThreadTopologySlot() & mask_];
    {
      std::lock_guard<std::mutex> guard(slot.mu);
      slot.items.push_back(Entry{epoch, std::move(item)});
      if (epoch < slot.min_epoch.load(std::memory_order_relaxed)) {
        slot.min_epoch.store(epoch, std::memory_order_seq_cst);
      }
    }
    size_.fetch_add(1, std::memory_order_relaxed);
    // Slot store FIRST, then the global floor (the header's leak-freedom
    // argument orders Collect's raise against exactly this sequence).
    LowerOldest(epoch);
  }

  /// Remove every item with epoch <= horizon and hand each to `fn` (called
  /// after all slot locks are released, so `fn` may take unrelated locks).
  /// Returns the number collected. Thread-safe; concurrent Collects may
  /// split the collectible set between them, each item is handed out once.
  template <typename Fn>
  size_t Collect(uint64_t horizon, Fn&& fn) {
    // Lock-free fast path. seq_cst: pairs with Retire's CAS-min so a
    // cleanup ordered after a retire (program order: Retire then Collect
    // on the committing thread) cannot miss its floor.
    const uint64_t start = oldest_.load(std::memory_order_seq_cst);
    if (start > horizon) return 0;

    // A per-thread buffer, taken for the call (a nested Collect on this
    // thread starts from an empty one), keeps collection allocation-free.
    std::vector<T> expired;
    expired.swap(ScratchBuffer());
    uint64_t observed_min = kMaxEpoch;
    for (uint64_t i = 0; i <= mask_; ++i) {
      Slot& slot = slots_[i];
      std::lock_guard<std::mutex> guard(slot.mu);
      uint64_t slot_min = kMaxEpoch;
      size_t kept = 0;
      for (Entry& e : slot.items) {
        if (e.epoch <= horizon) {
          expired.push_back(std::move(e.item));
        } else {
          if (e.epoch < slot_min) slot_min = e.epoch;
          slot.items[kept++] = std::move(e);
        }
      }
      slot.items.resize(kept);
      if (kept == 0) ShrinkIfLarge(&slot.items);
      slot.min_epoch.store(slot_min, std::memory_order_seq_cst);
      if (slot_min < observed_min) observed_min = slot_min;
    }

    // Raise the global floor to what this scan proved — but only from the
    // value read before the scan (a concurrent Retire that lowered it in
    // between must win) — then verify against every slot minimum so a
    // Retire whose slot store landed after our scan of its slot but whose
    // global CAS lost to our raise is re-lowered (header, case 3).
    if (observed_min > start) {
      uint64_t expected = start;
      oldest_.compare_exchange_strong(expected, observed_min,
                                      std::memory_order_seq_cst);
      for (uint64_t i = 0; i <= mask_; ++i) {
        LowerOldest(slots_[i].min_epoch.load(std::memory_order_seq_cst));
      }
    }

    const size_t collected = expired.size();
    size_.fetch_sub(collected, std::memory_order_relaxed);
    for (T& item : expired) fn(std::move(item));
    expired.clear();
    ShrinkIfLarge(&expired);
    expired.swap(ScratchBuffer());
    return collected;
  }

  /// Capacity the slots hold, in items (test hook: a drained slot gives
  /// its peak back).
  size_t slot_capacity() const {
    size_t total = 0;
    for (uint64_t i = 0; i <= mask_; ++i) {
      std::lock_guard<std::mutex> guard(slots_[i].mu);
      total += slots_[i].items.capacity();
    }
    return total;
  }

  /// Capacity an empty slot or buffer keeps: the steady state reuses it,
  /// and a burst above it (a long reader holding the horizon back) is
  /// returned once drained.
  static constexpr size_t kKeptCapacity = 256;

  /// Retired-but-uncollected item count. O(1); coherent as a single
  /// counter (may be mid-flight relative to a concurrent Retire/Collect).
  size_t size() const { return size_.load(std::memory_order_relaxed); }

  /// The cached global floor (kMaxEpoch when provably empty); test hook.
  uint64_t oldest() const { return oldest_.load(std::memory_order_seq_cst); }

  uint64_t slots() const { return mask_ + 1; }

 private:
  struct Entry {
    uint64_t epoch;
    T item;
  };

  struct alignas(64) Slot {
    mutable std::mutex mu;
    std::vector<Entry> items;
    /// Min epoch of `items` (kMaxEpoch when empty). Written under `mu`;
    /// read lock-free by Collect's verification pass.
    std::atomic<uint64_t> min_epoch{kMaxEpoch};
  };

  template <typename V>
  static void ShrinkIfLarge(V* v) {
    if (v->capacity() > kKeptCapacity) {
      V().swap(*v);
      v->reserve(kKeptCapacity);
    }
  }

  static std::vector<T>& ScratchBuffer() {
    thread_local std::vector<T> buffer;
    return buffer;
  }

  void LowerOldest(uint64_t epoch) {
    uint64_t cur = oldest_.load(std::memory_order_relaxed);
    while (epoch < cur && !oldest_.compare_exchange_weak(
                              cur, epoch, std::memory_order_seq_cst)) {
    }
  }

  const uint64_t mask_;
  const std::unique_ptr<Slot[]> slots_;
  /// Lower bound on every retired-but-uncollected epoch: the Collect fast
  /// path. May lag a concurrent Retire (never leads it — see header).
  std::atomic<uint64_t> oldest_{kMaxEpoch};
  std::atomic<size_t> size_{0};
};

}  // namespace ssidb

#endif  // SSIDB_COMMON_EPOCH_H_
