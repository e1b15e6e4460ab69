#include "src/lock/lock_manager.h"

#include <algorithm>
#include <cassert>
#include <chrono>

namespace ssidb {

namespace {

constexpr uint8_t kSharedBit = static_cast<uint8_t>(LockMode::kShared);
constexpr uint8_t kExclusiveBit = static_cast<uint8_t>(LockMode::kExclusive);

/// Granted bits of another owner that are incompatible with `mode`.
/// SIREAD neither blocks nor is blocked (Fig 3.4) and never reaches the
/// blocking table: compatibility only constrains kShared/kExclusive. On
/// gap keys, kExclusive plays InnoDB's insert-intention role: two inserts
/// into the same gap do not block each other, but either blocks (and is
/// blocked by) a scanner's kShared gap lock (§2.5.2).
uint8_t IncompatibleMask(LockMode mode, LockKind kind) {
  const bool gap = kind == LockKind::kGap || kind == LockKind::kSupremum;
  switch (mode) {
    case LockMode::kShared:
      return kExclusiveBit;
    case LockMode::kExclusive:
      return gap ? kSharedBit : (kSharedBit | kExclusiveBit);
    case LockMode::kSIRead:
      return 0;
  }
  return 0;
}

LockKeyView ViewOf(const LockKey& key) {
  return LockKeyView{key.table, key.kind, Slice(key.key), key.Hash()};
}

}  // namespace

LockManager::LockManager(const Config& config) : config_(config) {
  if (config_.deadlock_policy == DeadlockPolicy::kPeriodic) {
    detector_ = std::thread([this] { DetectorLoop(); });
  }
}

LockManager::~LockManager() {
  stop_.store(true);
  if (detector_.joinable()) detector_.join();
}

void LockManager::MarkShardTouched(TxnId txn, size_t shard_idx) {
  TouchStripe& stripe = touch_stripes_[TouchStripeOf(txn)];
  std::lock_guard<std::mutex> guard(stripe.mu);
  stripe.shard_masks[txn] |= uint64_t{1} << shard_idx;
}

uint64_t LockManager::TakeTouchedShards(TxnId txn) {
  TouchStripe& stripe = touch_stripes_[TouchStripeOf(txn)];
  std::lock_guard<std::mutex> guard(stripe.mu);
  auto it = stripe.shard_masks.find(txn);
  if (it == stripe.shard_masks.end()) return 0;
  const uint64_t mask = it->second;
  stripe.shard_masks.erase(it);
  return mask;
}

void LockManager::CollectBlockers(const LockEntry& entry, TxnId txn,
                                  LockMode mode, LockKind kind,
                                  std::vector<TxnId>* blockers) {
  blockers->clear();
  const uint8_t mask = IncompatibleMask(mode, kind);
  if (mask == 0) return;
  for (const auto& [owner, bits] : entry.holders) {
    if (owner != txn && (bits & mask) != 0) blockers->push_back(owner);
  }
}

void LockManager::CollectExclusiveHolders(TxnId self, const LockKeyView& key,
                                          RwConflicts* out) const {
  const Shard& shard = shards_[key.hash % kNumShards];
  std::lock_guard<std::mutex> guard(shard.mu);
  auto it = shard.entries.find(key);  // Heterogeneous: no key copy.
  if (it == shard.entries.end()) return;
  for (const auto& [owner, bits] : it->second.holders) {
    if (owner != self && (bits & kExclusiveBit) != 0) out->push_back(owner);
  }
}

void LockManager::AcquireSIRead(TxnId txn, TableId table, LockKind kind,
                                Slice key, RwConflicts* rw_out) {
  // One hash of the key bytes serves the index stripe, the index bucket
  // and the lock-table probe.
  const LockKeyView view = MakeLockKeyView(table, kind, key);
  // Publish-then-probe: this order is what makes the split-structure
  // conflict detection lossless (see the §3.2 argument in the header).
  sireads_.Publish(txn, view);
  CollectExclusiveHolders(txn, view, rw_out);
}

AcquireResult LockManager::Acquire(TxnId txn, const LockKey& key,
                                   LockMode mode) {
  AcquireResult result;

  if (mode == LockMode::kSIRead) {
    // Historical entry point for SIREAD (tests, lock-table benchmarks):
    // same publish-then-probe fast lane, owning-key signature.
    AcquireSIRead(txn, key.table, key.kind, Slice(key.key),
                  &result.rw_conflicts);
    return result;
  }

  const uint64_t hash = key.Hash();
  const size_t shard_idx = hash % kNumShards;
  Shard& shard = shards_[shard_idx];
  const uint8_t bit = static_cast<uint8_t>(mode);

  // Mark the shard before attempting the acquisition so a granted lock
  // can never be missed by ReleaseAll (spurious marks are harmless).
  MarkShardTouched(txn, shard_idx);

  std::unique_lock<std::mutex> guard(shard.mu);

  // Grants `bit` to txn in the entry currently stored for `key`.
  // Re-looked-up on every call because the entries map may rehash while
  // we wait.
  auto grant = [&] {
    LockEntry& entry = shard.entries[key];
    uint8_t& bits = entry.holders[txn];
    const bool is_new_holder = (bits == 0);
    const uint8_t before = bits;
    if ((bits & bit) == 0) {
      bits |= bit;
      if (is_new_holder) shard.held[txn].push_back(key);
    }
    grant_count_.fetch_add(
        static_cast<uint64_t>(__builtin_popcount(bits) -
                              __builtin_popcount(before)),
        std::memory_order_relaxed);
  };

  // On success, gather the rw-antidependency evidence for a writer: the
  // SIREAD holders of this key (Fig 3.5 line 4). Runs *after* the
  // EXCLUSIVE grant is visible in this shard — the grant-then-probe half
  // of the §3.2 ordering argument. Also applies §3.7.3: the writer's own
  // SIREAD on the key is subsumed by the EXCLUSIVE lock.
  auto probe_sireads_after_grant = [&] {
    if (mode != LockMode::kExclusive) return;
    guard.unlock();
    const LockKeyView view{key.table, key.kind, Slice(key.key), hash};
    if (config_.upgrade_siread_locks) sireads_.EraseOwn(txn, view);
    sireads_.CollectHolders(txn, view, &result.rw_conflicts);
  };

  std::vector<TxnId> blockers;
  CollectBlockers(shard.entries[key], txn, mode, key.kind, &blockers);
  if (blockers.empty()) {
    grant();
    probe_sireads_after_grant();
    return result;
  }

  // Must wait.
  waits_.fetch_add(1, std::memory_order_relaxed);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(config_.lock_timeout_ms);
  for (;;) {
    {
      std::lock_guard<std::mutex> g(graph_mu_);
      waits_for_[txn] = blockers;
      if (config_.deadlock_policy == DeadlockPolicy::kImmediate &&
          OnCycleLocked(txn)) {
        waits_for_.erase(txn);
        deadlocks_detected_.fetch_add(1, std::memory_order_relaxed);
        result.status = Status::Deadlock("lock cycle");
        return result;
      }
      if (killed_.erase(txn) > 0) {
        waits_for_.erase(txn);
        result.status = Status::Deadlock("chosen as deadlock victim");
        return result;
      }
    }
    // Woken by a release in this shard or by the detector's kill, which
    // notifies under this shard's mutex (DetectorLoop); we hold the mutex
    // from the killed_ check above into the wait, so no kill is missed.
    if (shard.cv.wait_until(guard, deadline) == std::cv_status::timeout) {
      ClearWaits(txn);
      result.status = Status::TimedOut("lock wait timeout");
      return result;
    }
    CollectBlockers(shard.entries[key], txn, mode, key.kind, &blockers);
    if (blockers.empty()) {
      ClearWaits(txn);
      grant();
      probe_sireads_after_grant();
      return result;
    }
  }
}

void LockManager::ReleaseLocked(Shard& shard, TxnId txn) {
  auto held_it = shard.held.find(txn);
  if (held_it == shard.held.end()) return;
  uint64_t dropped = 0;
  for (const LockKey& key : held_it->second) {
    auto entry_it = shard.entries.find(key);
    if (entry_it == shard.entries.end()) continue;
    auto holder_it = entry_it->second.holders.find(txn);
    if (holder_it == entry_it->second.holders.end()) continue;
    dropped += static_cast<uint64_t>(__builtin_popcount(holder_it->second));
    entry_it->second.holders.erase(holder_it);
    if (entry_it->second.holders.empty()) shard.entries.erase(entry_it);
  }
  if (dropped > 0) SubGrants(dropped);
  shard.held.erase(held_it);
}

void LockManager::ReleaseBlocking(TxnId txn) {
  uint64_t mask = TakeTouchedShards(txn);
  while (mask != 0) {
    const int shard_idx = __builtin_ctzll(mask);
    mask &= mask - 1;
    Shard& shard = shards_[shard_idx];
    bool notify;
    {
      std::lock_guard<std::mutex> guard(shard.mu);
      notify = shard.held.count(txn) > 0;
      ReleaseLocked(shard, txn);
    }
    if (notify) shard.cv.notify_all();
  }
  ClearWaits(txn);
}

void LockManager::ReleaseAll(TxnId txn) {
  ReleaseBlocking(txn);
  sireads_.ReleaseAll(txn);
}

void LockManager::ReleaseAllExceptSIRead(TxnId txn) { ReleaseBlocking(txn); }

bool LockManager::HoldsAnySIRead(TxnId txn) const {
  return sireads_.HoldsAny(txn);
}

bool LockManager::Holds(TxnId txn, const LockKey& key, LockMode mode) const {
  if (mode == LockMode::kSIRead) {
    return sireads_.Holds(txn, ViewOf(key));
  }
  const Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> guard(shard.mu);
  auto entry_it = shard.entries.find(key);
  if (entry_it == shard.entries.end()) return false;
  auto holder_it = entry_it->second.holders.find(txn);
  if (holder_it == entry_it->second.holders.end()) return false;
  return (holder_it->second & static_cast<uint8_t>(mode)) != 0;
}

void LockManager::SetWaits(TxnId txn, const std::vector<TxnId>& blockers) {
  std::lock_guard<std::mutex> guard(graph_mu_);
  waits_for_[txn] = blockers;
}

void LockManager::ClearWaits(TxnId txn) {
  std::lock_guard<std::mutex> guard(graph_mu_);
  waits_for_.erase(txn);
}

bool LockManager::OnCycleLocked(TxnId start) const {
  // Iterative DFS over waits-for edges looking for a path back to start.
  std::vector<TxnId> stack;
  std::unordered_set<TxnId> visited;
  stack.push_back(start);
  while (!stack.empty()) {
    const TxnId t = stack.back();
    stack.pop_back();
    auto it = waits_for_.find(t);
    if (it == waits_for_.end()) continue;
    for (TxnId next : it->second) {
      if (next == start) return true;
      if (visited.insert(next).second) stack.push_back(next);
    }
  }
  return false;
}

void LockManager::KillCyclesLocked() {
  // For each waiting transaction on a cycle, kill the youngest (largest
  // id) member of that cycle, mimicking a coarse periodic detector.
  std::unordered_set<TxnId> already_killed;
  for (const auto& [txn, edges] : waits_for_) {
    (void)edges;
    if (already_killed.count(txn) > 0) continue;
    if (!OnCycleLocked(txn)) continue;
    // Walk the cycle to find the youngest member: restrict to nodes that
    // can reach txn and are reachable from txn. Cheap approximation: all
    // waiting nodes reachable from txn that are on a cycle themselves.
    TxnId victim = txn;
    std::vector<TxnId> stack{txn};
    std::unordered_set<TxnId> seen{txn};
    while (!stack.empty()) {
      const TxnId t = stack.back();
      stack.pop_back();
      auto it = waits_for_.find(t);
      if (it == waits_for_.end()) continue;
      for (TxnId next : it->second) {
        if (seen.insert(next).second) {
          if (waits_for_.count(next) > 0 && next > victim) victim = next;
          stack.push_back(next);
        }
      }
    }
    killed_.insert(victim);
    already_killed.insert(victim);
    deadlocks_detected_.fetch_add(1, std::memory_order_relaxed);
  }
}

void LockManager::DetectorLoop() {
  while (!stop_.load()) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(config_.deadlock_scan_interval_ms));
    bool found;
    {
      std::lock_guard<std::mutex> guard(graph_mu_);
      const size_t before = killed_.size();
      KillCyclesLocked();
      found = killed_.size() > before;
    }
    if (found) {
      // Notify each shard under its mutex (graph_mu_ released: the lock
      // order is shard -> graph). A victim holds its shard mutex from its
      // killed_ check into its wait, so taking the mutex here orders the
      // notify after the victim parks or the kill before its check.
      for (Shard& shard : shards_) {
        std::lock_guard<std::mutex> guard(shard.mu);
        shard.cv.notify_all();
      }
    }
  }
}

}  // namespace ssidb
