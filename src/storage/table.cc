#include "src/storage/table.h"

#include <algorithm>
#include <cassert>

#include "src/common/encoding.h"
#include "src/storage/storage_tier.h"

namespace ssidb {

Table::Table(TableId id, std::string name, size_t split_threshold)
    : id_(id),
      name_(std::move(name)),
      split_threshold_(split_threshold < 2 ? 2 : split_threshold) {
  shards_.push_back(std::make_unique<Shard>());
  bounds_.emplace_back();
}

Table::~Table() = default;

uint64_t Table::HashKey(std::string_view key) {
  return std::hash<std::string_view>{}(key);
}

void Table::LinkPoint(Entry* entry) {
  const uint64_t hash = HashKey(entry->first);
  Stripe& stripe = stripes_[hash % kNumStripes];
  std::lock_guard<std::mutex> guard(stripe.mu);
  if (stripe.count + 1 > stripe.buckets.size()) {
    const size_t size =
        stripe.buckets.empty() ? kInitialBuckets : stripe.buckets.size() * 2;
    std::vector<Entry*> grown(size, nullptr);
    for (Entry* head : stripe.buckets) {
      while (head != nullptr) {
        Entry* next = head->second.next;
        Entry*& slot = grown[BucketOf(HashKey(head->first), size)];
        head->second.next = slot;
        slot = head;
        head = next;
      }
    }
    stripe.buckets.swap(grown);
  }
  Entry*& slot = stripe.buckets[BucketOf(hash, stripe.buckets.size())];
  entry->second.next = slot;
  slot = entry;
  ++stripe.count;
}

size_t Table::RouteLocked(std::string_view key) const {
  // Last shard with lower <= key. bounds_[0] == "" so the search always
  // succeeds.
  const auto it = std::upper_bound(
      bounds_.begin() + 1, bounds_.end(), key,
      [](std::string_view k, const std::string& lower) { return k < lower; });
  return static_cast<size_t>(it - bounds_.begin()) - 1;
}

VersionChain* Table::Find(Slice key) const {
  const uint64_t hash = HashKey(key.view());
  const Stripe& stripe = stripes_[hash % kNumStripes];
  std::lock_guard<std::mutex> guard(stripe.mu);
  if (stripe.buckets.empty()) return nullptr;
  for (Entry* e = stripe.buckets[BucketOf(hash, stripe.buckets.size())];
       e != nullptr; e = e->second.next) {
    if (e->first == key.view()) return &e->second.chain;
  }
  return nullptr;
}

VersionChain* Table::GetOrCreate(Slice key) {
  if (VersionChain* chain = Find(key)) return chain;
  size_t shard_size = 0;
  VersionChain* chain = nullptr;
  {
    std::shared_lock<std::shared_mutex> route(routing_mu_);
    Shard& shard = *shards_[RouteLocked(key.view())];
    std::unique_lock<std::shared_mutex> guard(shard.mu);
    auto [it, inserted] = shard.index.try_emplace(key.ToString());
    // A racing creator that won linked the entry under this same latch.
    if (inserted) LinkPoint(&*it);
    chain = &it->second.chain;
    shard_size = shard.index.size();
  }
  if (shard_size > split_threshold_) {
    MaybeSplit(key.ToString());
  }
  return chain;
}

void Table::MaybeSplit(const std::string& hint_key) {
  // Exclusive routing latch: no operation holds any shard latch without
  // the shared routing latch, so we have exclusive access to every shard.
  std::unique_lock<std::shared_mutex> route(routing_mu_);
  const size_t idx = RouteLocked(hint_key);
  Shard& shard = *shards_[idx];
  if (shard.index.size() <= split_threshold_) return;  // Raced; resolved.

  auto mid = shard.index.begin();
  std::advance(mid, shard.index.size() / 2);
  std::string lower = mid->first;
  auto right = std::make_unique<Shard>();
  // Both halves inherit the parent's commit hint: an overstated hint only
  // costs a visit, an understated one would hide commits from delta sweeps.
  right->max_commit_ts.store(
      shard.max_commit_ts.load(std::memory_order_relaxed),
      std::memory_order_relaxed);
  // Move [median, end) into the new right shard. Node handles relink the
  // tree nodes without moving them, so every entry (and the point index's
  // links to it) stays where it is.
  while (mid != shard.index.end()) {
    auto next = std::next(mid);
    right->index.insert(shard.index.extract(mid));
    mid = next;
  }
  const auto at = static_cast<ptrdiff_t>(idx) + 1;
  shards_.insert(shards_.begin() + at, std::move(right));
  bounds_.insert(bounds_.begin() + at, std::move(lower));
}

std::optional<std::string> Table::NextKey(Slice key) const {
  std::shared_lock<std::shared_mutex> route(routing_mu_);
  for (size_t idx = RouteLocked(key.view()); idx < shards_.size(); ++idx) {
    const Shard& shard = *shards_[idx];
    std::shared_lock<std::shared_mutex> guard(shard.mu);
    auto it = shard.index.upper_bound(key.view());
    if (it != shard.index.end()) return it->first;
  }
  return std::nullopt;
}

std::optional<std::string> Table::SeekCeil(Slice lo) const {
  std::shared_lock<std::shared_mutex> route(routing_mu_);
  for (size_t idx = RouteLocked(lo.view()); idx < shards_.size(); ++idx) {
    const Shard& shard = *shards_[idx];
    std::shared_lock<std::shared_mutex> guard(shard.mu);
    auto it = shard.index.lower_bound(lo.view());
    if (it != shard.index.end()) return it->first;
  }
  return std::nullopt;
}

void Table::CollectRange(Slice lo, Slice hi, std::vector<ScanEntry>* entries,
                         std::optional<std::string>* successor) const {
  entries->clear();
  *successor = std::nullopt;
  std::shared_lock<std::shared_mutex> route(routing_mu_);
  // Left-to-right over the contiguous shard ranges; the shared routing
  // latch pins the partition, so the concatenation of per-shard segments
  // is exactly the single-map iteration of the unsharded index.
  const size_t start = RouteLocked(lo.view());
  for (size_t idx = start; idx < shards_.size(); ++idx) {
    const Shard& shard = *shards_[idx];
    std::shared_lock<std::shared_mutex> guard(shard.mu);
    auto it = idx == start ? shard.index.lower_bound(lo.view())
                           : shard.index.begin();
    for (; it != shard.index.end(); ++it) {
      if (Slice(it->first).compare(hi) > 0) {
        *successor = it->first;
        return;
      }
      entries->push_back(ScanEntry{it->first, &it->second.chain});
    }
  }
}

void Table::ForEachChain(
    const std::function<void(const std::string&, VersionChain*)>& fn) const {
  std::shared_lock<std::shared_mutex> route(routing_mu_);
  for (const auto& shard_ptr : shards_) {
    const Shard& shard = *shard_ptr;
    std::shared_lock<std::shared_mutex> guard(shard.mu);
    for (const auto& [key, node] : shard.index) {
      fn(key, &node.chain);
    }
  }
}

void Table::ForEachChain(
    Timestamp since,
    const std::function<void(const std::string&, VersionChain*)>& fn) const {
  std::shared_lock<std::shared_mutex> route(routing_mu_);
  for (const auto& shard_ptr : shards_) {
    const Shard& shard = *shard_ptr;
    if (shard.max_commit_ts.load(std::memory_order_relaxed) <= since) {
      continue;  // Cold shard: skipped without touching its latch.
    }
    std::shared_lock<std::shared_mutex> guard(shard.mu);
    for (const auto& [key, node] : shard.index) {
      fn(key, &node.chain);
    }
  }
}

void Table::NoteCommit(Slice key, Timestamp commit_ts) {
  std::shared_lock<std::shared_mutex> route(routing_mu_);
  Shard& shard = *shards_[RouteLocked(key.view())];
  Timestamp cur = shard.max_commit_ts.load(std::memory_order_relaxed);
  while (cur < commit_ts &&
         !shard.max_commit_ts.compare_exchange_weak(
             cur, commit_ts, std::memory_order_relaxed)) {
  }
}

void Table::RecoverVersion(Slice key, Slice value, bool tombstone,
                           Timestamp commit_ts) {
  GetOrCreate(key)->InstallRecovered(commit_ts, value, tombstone);
  NoteCommit(key, commit_ts);
}

Status Table::FaultChain(Slice key, VersionChain* chain) {
  if (tier_ == nullptr) {
    return Status::Corruption("evicted chain in table '" + name_ +
                              "' but no storage tier attached");
  }
  RunEntry entry;
  bool found = false;
  Status st = tier_->Lookup(id_, key, &entry, &found);
  if (!st.ok()) return st;
  if (!found) {
    // Violates the durability contract: evicted => durable in a live run.
    return Status::Corruption("evicted key missing from runs: " +
                              key.ToString());
  }
  chain->FaultInstall(entry.commit_ts, entry.value, entry.tombstone);
  tier_->AddFaulted(1);
  return Status::OK();
}

size_t Table::SpillShards(Timestamp horizon) {
  if (tier_ == nullptr || horizon == 0) return 0;
  const uint64_t max_entry = tier_->max_entry_bytes();
  // One run producer at a time, from the first probe to the publish: runs
  // publish in probe order, so no run holds an older anchor for a key than
  // a run published before it (see storage_tier.h).
  const StorageTier::ProducerLock producer = tier_->LockProducers();
  // Phase A: probe under the shard latches (lock order shard -> chain, the
  // same as every reader). ForEachChain walks shards in range order, so
  // `entries` comes out sorted by key — ready for RunFile::Create.
  std::vector<RunEntry> entries;
  std::vector<VersionChain*> chains;
  size_t evicted = 0;
  ForEachChain([&](const std::string& key, VersionChain* chain) {
    // Conservative per-entry encoding overhead (two varint32 length
    // prefixes, u64 commit_ts, tombstone byte): 32 bytes covers it.
    const uint64_t overhead = key.size() + 32;
    const uint64_t max_value = overhead >= max_entry ? 0 : max_entry - overhead;
    RunEntry e;
    switch (chain->SpillProbe(horizon, max_value, &e.value, &e.commit_ts,
                              &e.tombstone)) {
      case VersionChain::SpillAction::kSkip:
        break;
      case VersionChain::SpillAction::kDropNow:
        ++evicted;  // Anchor already durable; freed inline.
        break;
      case VersionChain::SpillAction::kWrite:
        e.key = key;
        entries.push_back(std::move(e));
        chains.push_back(chain);
        break;
    }
  });
  // Phase B: no latches held. Persist the run, then re-verify and evict
  // each chain; a chain touched since its probe stays resident and retries
  // as kDropNow on a later sweep (its anchor is durable now).
  if (!entries.empty()) {
    if (tier_->WriteRun(producer, id_, entries).ok()) {
      for (size_t i = 0; i < entries.size(); ++i) {
        if (chains[i]->CommitSpill(entries[i].commit_ts)) ++evicted;
      }
    }
  }
  if (evicted != 0) tier_->AddSpilled(evicted);
  return evicted;
}

void Table::RecoverEvicted(Slice key, Timestamp commit_ts) {
  GetOrCreate(key)->SetEvictedRecovered(commit_ts);
  NoteCommit(key, commit_ts);
}

size_t Table::PruneShards(Timestamp min_read_ts) {
  size_t freed = 0;
  ForEachChain([&](const std::string&, VersionChain* chain) {
    freed += chain->Prune(min_read_ts);
  });
  return freed;
}

size_t Table::EntryCount() const {
  std::shared_lock<std::shared_mutex> route(routing_mu_);
  size_t n = 0;
  for (const auto& shard_ptr : shards_) {
    std::shared_lock<std::shared_mutex> guard(shard_ptr->mu);
    n += shard_ptr->index.size();
  }
  return n;
}

size_t Table::ShardCount() const {
  std::shared_lock<std::shared_mutex> route(routing_mu_);
  return shards_.size();
}

uint64_t Table::PageOf(Slice key, uint32_t rows_per_page) {
  if (rows_per_page == 0) rows_per_page = 1;
  if (key.size() == 8) {
    return DecodeU64Key(key) / rows_per_page;
  }
  // FNV-1a, truncated to a coarse page id space.
  uint64_t h = 1469598103934665603ULL;
  for (size_t i = 0; i < key.size(); ++i) {
    h ^= static_cast<unsigned char>(key[i]);
    h *= 1099511628211ULL;
  }
  return h % (1u << 20);
}

}  // namespace ssidb
