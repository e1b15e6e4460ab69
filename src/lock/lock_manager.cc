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

AcquireResult LockManager::Acquire(TxnId txn, const LockKey& key,
                                   LockMode mode) {
  AcquireResult result;
  // Only non-row keys meet SIREAD and EXCLUSIVE here; a row key in this
  // table is an absent key (header).
  const bool probe = key.kind != LockKind::kRow;

  if (mode == LockMode::kSIRead) {
    // Publish-then-probe (header): then collect the EXCLUSIVE holders.
    sireads_.Publish(txn, ViewOf(key));
    if (!probe) return result;
    const Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> guard(shard.mu);
    auto it = shard.entries.find(key);
    if (it == shard.entries.end()) return result;
    for (const auto& [owner, bits] : it->second.holders) {
      if (owner != txn && (bits & kExclusiveBit) != 0) {
        result.rw_conflicts.push_back(owner);
      }
    }
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

  std::vector<TxnId> blockers;
  bool waited = false;
  std::chrono::steady_clock::time_point deadline;
  for (;;) {
    CollectBlockers(shard.entries[key], txn, mode, key.kind, &blockers);
    if (blockers.empty()) break;
    if (!waited) {
      waited = true;
      waits_.fetch_add(1, std::memory_order_relaxed);
      deadline = std::chrono::steady_clock::now() +
                 std::chrono::milliseconds(config_.lock_timeout_ms);
    }
    result.status = EnterWait(txn, blockers.data(), blockers.size());
    if (!result.status.ok()) return result;
    // Woken by a release in this shard or by the detector's kill, which
    // notifies under this shard's mutex (DetectorLoop); we hold the mutex
    // from the killed_ check above into the wait, so no kill is missed.
    if (shard.cv.wait_until(guard, deadline) == std::cv_status::timeout) {
      ClearWaits(txn);
      result.status = Status::TimedOut("lock wait timeout");
      return result;
    }
  }
  if (waited) ClearWaits(txn);

  // Grant: the entries map may have rehashed while we waited.
  uint8_t& bits = shard.entries[key].holders[txn];
  if (bits == 0) shard.held[txn].push_back(key);
  if ((bits & bit) == 0) {
    bits |= bit;
    grant_count_.fetch_add(1, std::memory_order_relaxed);
  }

  // A writer of a non-row key then gathers its SIREAD holders (Fig 3.5
  // line 4), after the grant is visible: the grant-then-probe half of the
  // header's argument. §3.7.3: the grant subsumes the writer's own SIREAD.
  if (mode == LockMode::kExclusive && probe) {
    guard.unlock();
    const LockKeyView view{key.table, key.kind, Slice(key.key), hash};
    if (config_.upgrade_siread_locks) sireads_.EraseOwn(txn, view);
    sireads_.CollectHolders(txn, view, &result.rw_conflicts);
  }
  return result;
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

void LockManager::ReleaseAllExceptSIRead(TxnId txn) {
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

size_t LockManager::RowEntryCount() const {
  size_t n = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> guard(shard.mu);
    for (const auto& [key, entry] : shard.entries) {
      (void)entry;
      if (key.kind == LockKind::kRow) ++n;
    }
  }
  return n;
}

Status LockManager::EnterWait(TxnId txn, const TxnId* blockers, size_t n) {
  std::lock_guard<std::mutex> g(graph_mu_);
  waits_for_[txn].assign(blockers, blockers + n);
  if (config_.deadlock_policy == DeadlockPolicy::kImmediate &&
      OnCycleLocked(txn)) {
    waits_for_.erase(txn);
    deadlocks_detected_.fetch_add(1, std::memory_order_relaxed);
    return Status::Deadlock("lock cycle");
  }
  if (killed_.erase(txn) > 0) {
    waits_for_.erase(txn);
    return Status::Deadlock("chosen as deadlock victim");
  }
  return Status::OK();
}

Status LockManager::WaitOnChain(TxnId txn, const VersionChain* chain,
                                RowLockWait* wait) {
  if (!wait->counted) {
    wait->counted = true;
    wait->deadline_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count() +
        static_cast<int64_t>(config_.lock_timeout_ms) * 1000000;
    waits_.fetch_add(1, std::memory_order_relaxed);
  }
  Status st = EnterWait(txn, wait->blockers.data(), wait->blockers.size());
  if (!st.ok()) return st;
  // The generation was read under the chain latch when the step blocked.
  // A release that unblocks us changed the chain after that and bumps the
  // generation under `mu` after that again, and a detector kill after the
  // check above bumps every stripe: either the generation has moved or we
  // are parked when it moves.
  ChainStripe& stripe = ChainStripeOf(chain);
  const std::chrono::steady_clock::time_point deadline{
      std::chrono::nanoseconds(wait->deadline_ns)};
  std::unique_lock<std::mutex> guard(stripe.mu);
  while (stripe.gen.load(std::memory_order_relaxed) == wait->seen_gen) {
    if (stripe.cv.wait_until(guard, deadline) == std::cv_status::timeout &&
        stripe.gen.load(std::memory_order_relaxed) == wait->seen_gen) {
      guard.unlock();
      ClearWaits(txn);
      return Status::TimedOut("lock wait timeout");
    }
  }
  return Status::OK();
}

void LockManager::Wake(ChainStripe& stripe) {
  {
    std::lock_guard<std::mutex> guard(stripe.mu);
    stripe.gen.fetch_add(1, std::memory_order_release);
  }
  stripe.cv.notify_all();
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
      // Chain waiters re-check killed_ once their stripe moves.
      for (ChainStripe& stripe : chain_stripes_) Wake(stripe);
    }
  }
}

}  // namespace ssidb
