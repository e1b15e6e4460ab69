#include "src/lock/siread_index.h"

#include <cassert>
#include <functional>

namespace ssidb {

SIReadIndex::~SIReadIndex() {
  for (KeyStripe& stripe : key_stripes_) {
    for (Entry* head : stripe.buckets) {
      while (head != nullptr) {
        Entry* next = head->next;
        delete head;
        head = next;
      }
    }
    Entry* free_entry = stripe.free_entries;
    while (free_entry != nullptr) {
      Entry* next = free_entry->next;
      delete free_entry;
      free_entry = next;
    }
  }
  for (TxnStripe& stripe : txn_stripes_) {
    for (auto& [txn, held] : stripe.chains) {
      (void)txn;
      OwnerLink* link = held.points;
      while (link != nullptr) {
        OwnerLink* next = link->next;
        delete link;
        link = next;
      }
      // Every live range is on exactly one owner chain.
      Range* range = held.ranges;
      while (range != nullptr) {
        Range* next = range->next_owned;
        delete range;
        range = next;
      }
    }
    OwnerLink* free_link = stripe.free_links;
    while (free_link != nullptr) {
      OwnerLink* next = free_link->next;
      delete free_link;
      free_link = next;
    }
  }
  for (RangeStripe& stripe : range_stripes_) {
    Range* free_range = stripe.free_ranges;
    while (free_range != nullptr) {
      Range* next = free_range->next_owned;
      delete free_range;
      free_range = next;
    }
  }
}

SIReadIndex::Entry* SIReadIndex::FindLocked(const KeyStripe& stripe,
                                            const LockKeyView& key) const {
  if (stripe.buckets.empty()) return nullptr;
  const size_t b = (key.hash / kNumStripes) & (stripe.buckets.size() - 1);
  for (Entry* e = stripe.buckets[b]; e != nullptr; e = e->next) {
    if (Matches(*e, key)) return e;
  }
  return nullptr;
}

void SIReadIndex::GrowLocked(KeyStripe& stripe) {
  const size_t new_size =
      stripe.buckets.empty() ? kInitialBuckets : stripe.buckets.size() * 2;
  std::vector<Entry*> fresh(new_size, nullptr);
  for (Entry* head : stripe.buckets) {
    while (head != nullptr) {
      Entry* next = head->next;
      const size_t b = (head->hash / kNumStripes) & (new_size - 1);
      head->next = fresh[b];
      fresh[b] = head;
      head = next;
    }
  }
  stripe.buckets.swap(fresh);
}

SIReadIndex::Entry* SIReadIndex::GetOrCreateLocked(KeyStripe& stripe,
                                                   const LockKeyView& key) {
  Entry* e = FindLocked(stripe, key);
  if (e != nullptr) return e;
  if (stripe.entry_count + 1 > stripe.buckets.size()) GrowLocked(stripe);
  if (stripe.free_entries != nullptr) {
    e = stripe.free_entries;
    stripe.free_entries = e->next;
  } else {
    e = new Entry();
  }
  e->hash = key.hash;
  e->table = key.table;
  e->kind = key.kind;
  // assign() reuses the recycled string's capacity: no allocation unless
  // this key is longer than any the node has held before.
  e->key.assign(key.key.data(), key.key.size());
  e->chain = nullptr;
  assert(e->owners.empty());
  const size_t b = (key.hash / kNumStripes) & (stripe.buckets.size() - 1);
  e->next = stripe.buckets[b];
  stripe.buckets[b] = e;
  ++stripe.entry_count;
  return e;
}

void SIReadIndex::RecycleEntryLocked(KeyStripe& stripe, Entry* e) {
  const size_t b = (e->hash / kNumStripes) & (stripe.buckets.size() - 1);
  Entry** link = &stripe.buckets[b];
  while (*link != e) link = &(*link)->next;
  *link = e->next;
  e->next = stripe.free_entries;
  stripe.free_entries = e;
  --stripe.entry_count;
}

void SIReadIndex::Publish(TxnId txn, const LockKeyView& key) {
  const size_t ks = KeyStripeOf(key.hash);
  Entry* e;
  {
    KeyStripe& stripe = key_stripes_[ks];
    std::lock_guard<std::mutex> guard(stripe.mu);
    e = GetOrCreateLocked(stripe, key);
    for (TxnId owner : e->owners) {
      if (owner == txn) return;  // Idempotent re-read: already published.
    }
    e->owners.push_back(txn);
  }
  // `e` stays valid past the stripe: only this thread (EraseOwn) or a
  // ReleaseAll after the transaction finished can remove this owner.
  TxnStripe& ts = txn_stripes_[TxnStripeOf(txn)];
  {
    std::lock_guard<std::mutex> guard(ts.mu);
    OwnerLink* link;
    if (ts.free_links != nullptr) {
      link = ts.free_links;
      ts.free_links = link->next;
    } else {
      link = new OwnerLink();
    }
    link->entry = e;
    link->key_stripe = static_cast<uint32_t>(ks);
    OwnerLink*& head = ts.chains[txn].points;
    link->next = head;
    head = link;
  }
  grants_.fetch_add(1, std::memory_order_relaxed);
}

void SIReadIndex::CollectHolders(TxnId self, const LockKeyView& key,
                                 ConflictBuf* out) const {
  const KeyStripe& stripe = key_stripes_[KeyStripeOf(key.hash)];
  std::lock_guard<std::mutex> guard(stripe.mu);
  const Entry* e = FindLocked(stripe, key);
  if (e == nullptr) return;
  for (TxnId owner : e->owners) {
    if (owner != self) out->push_back(owner);
  }
}

bool SIReadIndex::EraseOwn(TxnId txn, const LockKeyView& key) {
  // Transaction stripe before key stripe, as ReleaseAll. The owner's links
  // are matched without the key stripe: an entry's key is fixed while it
  // has an owner, and only this thread removes this owner.
  TxnStripe& ts = txn_stripes_[TxnStripeOf(txn)];
  std::lock_guard<std::mutex> tguard(ts.mu);
  auto it = ts.chains.find(txn);
  if (it == ts.chains.end()) return false;
  OwnerLink** plink = &it->second.points;
  while (*plink != nullptr && !Matches(*(*plink)->entry, key)) {
    plink = &(*plink)->next;
  }
  if (*plink == nullptr) return false;
  OwnerLink* dead = *plink;
  Entry* target = dead->entry;
  *plink = dead->next;
  dead->next = ts.free_links;
  ts.free_links = dead;
  if (it->second.points == nullptr && it->second.ranges == nullptr) {
    ts.chains.erase(it);
  }
  bool carried;
  {
    KeyStripe& stripe = key_stripes_[dead->key_stripe];
    std::lock_guard<std::mutex> kguard(stripe.mu);
    carried = target->chain != nullptr;
    for (size_t i = 0; i < target->owners.size(); ++i) {
      if (target->owners[i] == txn) {
        target->owners.unordered_erase(i);
        break;
      }
    }
    if (target->owners.empty()) RecycleEntryLocked(stripe, target);
  }
  grants_.fetch_sub(1, std::memory_order_relaxed);
  return carried;
}

void SIReadIndex::CarryOnto(const LockKeyView& key, VersionChain* chain,
                            ConflictBuf* out) {
  KeyStripe& stripe = key_stripes_[KeyStripeOf(key.hash)];
  std::lock_guard<std::mutex> guard(stripe.mu);
  Entry* e = FindLocked(stripe, key);
  if (e == nullptr) return;
  e->chain = chain;
  for (TxnId owner : e->owners) out->push_back(owner);
}

void SIReadIndex::ReleaseAll(TxnId txn) {
  TxnStripe& ts = txn_stripes_[TxnStripeOf(txn)];
  uint64_t released = 0;
  // Chains to leave once the stripes are dropped (lock order, header).
  InlineVec<VersionChain*, 4> carried;
  {
    std::lock_guard<std::mutex> tguard(ts.mu);
    auto it = ts.chains.find(txn);
    if (it == ts.chains.end()) return;
    OwnerLink* link = it->second.points;
    Range* range = it->second.ranges;
    ts.chains.erase(it);
    while (range != nullptr) {
      Range* next = range->next_owned;
      RangeStripe& rs = RangeStripeOf(range->table);
      {
        std::lock_guard<std::shared_mutex> rguard(rs.mu);
        rs.root = Erase(rs.root, range);
        rs.count.fetch_sub(1, std::memory_order_relaxed);
        range->next_owned = rs.free_ranges;
        rs.free_ranges = range;
      }
      ++released;
      range = next;
    }
    while (link != nullptr) {
      OwnerLink* next = link->next;
      KeyStripe& stripe = key_stripes_[link->key_stripe];
      {
        std::lock_guard<std::mutex> kguard(stripe.mu);
        Entry* e = link->entry;
        if (e->chain != nullptr) carried.push_back(e->chain);
        for (size_t i = 0; i < e->owners.size(); ++i) {
          if (e->owners[i] == txn) {
            e->owners.unordered_erase(i);
            break;
          }
        }
        if (e->owners.empty()) RecycleEntryLocked(stripe, e);
      }
      link->next = ts.free_links;
      ts.free_links = link;
      ++released;
      link = next;
    }
  }
  if (released > 0) grants_.fetch_sub(released, std::memory_order_relaxed);
  // The carry-over put each owner of a marked entry on the chain (unless
  // it was there already, or a write later dropped it, §3.7.3).
  RowLockDelta delta;
  for (VersionChain* chain : carried) chain->ReleaseHolder(txn, &delta);
  AccountChains(delta.sireads, delta.siread_keys);
}

bool SIReadIndex::Holds(TxnId txn, const LockKeyView& key) const {
  const KeyStripe& stripe = key_stripes_[KeyStripeOf(key.hash)];
  std::lock_guard<std::mutex> guard(stripe.mu);
  const Entry* e = FindLocked(stripe, key);
  if (e == nullptr) return false;
  for (TxnId owner : e->owners) {
    if (owner == txn) return true;
  }
  return false;
}

bool SIReadIndex::HoldsAny(TxnId txn) const {
  const TxnStripe& ts = txn_stripes_[TxnStripeOf(txn)];
  std::lock_guard<std::mutex> guard(ts.mu);
  return ts.chains.count(txn) > 0;
}

size_t SIReadIndex::EntryCount() const {
  const int64_t chains = chain_keys_.load(std::memory_order_relaxed);
  return RangeCount() + PointEntryCount() +
         static_cast<size_t>(chains > 0 ? chains : 0);
}

size_t SIReadIndex::PointEntryCount() const {
  size_t total = 0;
  for (const KeyStripe& stripe : key_stripes_) {
    std::lock_guard<std::mutex> guard(stripe.mu);
    total += stripe.entry_count;
  }
  return total;
}

size_t SIReadIndex::RangeCount() const {
  size_t total = 0;
  for (const RangeStripe& stripe : range_stripes_) {
    total += stripe.count.load(std::memory_order_relaxed);
  }
  return total;
}

// ---------------------------------------------------------------------------
// Range SIREADs: an interval treap per range stripe.
// ---------------------------------------------------------------------------

namespace {

/// Order of (table, key) points; keys of different tables never mix.
int ComparePoint(TableId ta, Slice a, TableId tb, Slice b) {
  if (ta != tb) return ta < tb ? -1 : 1;
  return a.compare(b);
}

}  // namespace

bool SIReadIndex::OrdersBefore(const Range* a, const Range* b) {
  const int c = ComparePoint(a->table, a->lo, b->table, b->lo);
  return c < 0 || (c == 0 && std::less<const Range*>()(a, b));
}

void SIReadIndex::Pull(Range* n) {
  const Range* m = n;
  for (const Range* child : {n->left, n->right}) {
    if (child != nullptr && ComparePoint(m->table, m->hi, child->max_hi->table,
                                         child->max_hi->hi) < 0) {
      m = child->max_hi;
    }
  }
  n->max_hi = m;
}

SIReadIndex::Range* SIReadIndex::Merge(Range* a, Range* b) {
  // Every node of `a` orders before every node of `b`.
  if (a == nullptr) return b;
  if (b == nullptr) return a;
  if (a->priority > b->priority) {
    a->right = Merge(a->right, b);
    Pull(a);
    return a;
  }
  b->left = Merge(a, b->left);
  Pull(b);
  return b;
}

void SIReadIndex::Split(Range* t, const Range* at, Range** before,
                        Range** rest) {
  if (t == nullptr) {
    *before = *rest = nullptr;
    return;
  }
  if (OrdersBefore(t, at)) {
    Split(t->right, at, &t->right, rest);
    *before = t;
  } else {
    Split(t->left, at, before, &t->left);
    *rest = t;
  }
  Pull(t);
}

void SIReadIndex::Insert(RangeStripe& stripe, Range* n) {
  n->left = n->right = nullptr;
  n->max_hi = n;
  Range* before;
  Range* rest;
  Split(stripe.root, n, &before, &rest);
  stripe.root = Merge(Merge(before, n), rest);
}

SIReadIndex::Range* SIReadIndex::Erase(Range* t, const Range* n) {
  assert(t != nullptr);
  if (t == n) return Merge(t->left, t->right);
  if (OrdersBefore(n, t)) {
    t->left = Erase(t->left, n);
  } else {
    t->right = Erase(t->right, n);
  }
  Pull(t);
  return t;
}

void SIReadIndex::Stab(const Range* t, TableId table, Slice key, TxnId self,
                       ConflictBuf* out) {
  // Skip subtrees whose every range ends below the key; stop at nodes
  // (and their right subtrees) that start above it.
  while (t != nullptr &&
         ComparePoint(t->max_hi->table, t->max_hi->hi, table, key) >= 0) {
    Stab(t->left, table, key, self, out);
    if (ComparePoint(t->table, t->lo, table, key) > 0) return;
    if (ComparePoint(table, key, t->table, t->hi) <= 0 && t->owner != self) {
      out->push_back(t->owner);
    }
    t = t->right;
  }
}

void SIReadIndex::PublishRange(TxnId txn, TableId table, Slice lo, Slice hi) {
  TxnStripe& ts = txn_stripes_[TxnStripeOf(txn)];
  RangeStripe& rs = RangeStripeOf(table);
  std::lock_guard<std::mutex> tguard(ts.mu);
  Held& held = ts.chains[txn];
  std::lock_guard<std::shared_mutex> rguard(rs.mu);
  for (Range* r = held.ranges; r != nullptr; r = r->next_owned) {
    if (r->table != table || hi.compare(r->lo) < 0 ||
        (!r->unbounded && lo.compare(r->bound) > 0)) {
      continue;
    }
    const bool lower = lo.compare(r->lo) < 0;
    const bool higher = hi.compare(r->hi) > 0;
    if (!lower && !higher) return;  // Already covered.
    // Re-key the node: erase, widen, reinsert — one critical section, so
    // no probe sees the range missing.
    rs.root = Erase(rs.root, r);
    if (lower) r->lo.assign(lo.data(), lo.size());
    if (higher) {
      r->hi.assign(hi.data(), hi.size());
      r->bound = r->hi;
      r->unbounded = false;
    }
    Insert(rs, r);
    return;
  }
  Range* r = rs.free_ranges;
  if (r != nullptr) {
    rs.free_ranges = r->next_owned;
  } else {
    r = new Range();
  }
  r->table = table;
  r->owner = txn;
  r->lo.assign(lo.data(), lo.size());
  r->hi.assign(hi.data(), hi.size());
  r->bound = r->hi;
  r->unbounded = false;
  // splitmix64 of a per-stripe sequence: the treap's random priorities.
  uint64_t z = ++rs.next_priority * 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  r->priority = z ^ (z >> 31);
  Insert(rs, r);
  rs.count.fetch_add(1, std::memory_order_relaxed);
  r->next_owned = held.ranges;
  held.ranges = r;
  grants_.fetch_add(1, std::memory_order_relaxed);
}

void SIReadIndex::NoteRangeSuccessor(
    TxnId txn, TableId table, Slice hi,
    const std::optional<std::string>& successor) {
  TxnStripe& ts = txn_stripes_[TxnStripeOf(txn)];
  RangeStripe& rs = RangeStripeOf(table);
  std::lock_guard<std::mutex> tguard(ts.mu);
  auto it = ts.chains.find(txn);
  if (it == ts.chains.end()) return;
  std::lock_guard<std::shared_mutex> rguard(rs.mu);
  for (Range* r = it->second.ranges; r != nullptr; r = r->next_owned) {
    if (r->table != table || Slice(r->hi) != hi) continue;
    if (successor.has_value()) {
      r->bound = *successor;
    } else {
      r->unbounded = true;
    }
    return;
  }
}

void SIReadIndex::CollectRangeHolders(TxnId self, TableId table, Slice key,
                                      ConflictBuf* out) const {
  const RangeStripe& rs = RangeStripeOf(table);
  if (rs.count.load(std::memory_order_relaxed) == 0) return;
  std::shared_lock<std::shared_mutex> guard(rs.mu);
  Stab(rs.root, table, key, self, out);
}

}  // namespace ssidb
