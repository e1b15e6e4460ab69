#include "src/storage/version.h"

#include <cassert>
#include <cstdlib>

namespace ssidb {

namespace {

/// Heap arrays of the first size are recycled through a per-thread cache:
/// a hot key's holder set that grows past its inline pair and empties
/// again reuses one array instead of calling the allocator each time.
constexpr uint32_t kCachedCap = 4;
constexpr int kCachedArrays = 32;

struct ArrayCache {
  uint64_t* arrays[kCachedArrays];
  int count = 0;
  ~ArrayCache() {
    for (int i = 0; i < count; ++i) std::free(arrays[i]);
  }
};

thread_local ArrayCache array_cache;

uint64_t* NewHolderArray(uint32_t cap) {
  if (cap == kCachedCap && array_cache.count > 0) {
    return array_cache.arrays[--array_cache.count];
  }
  return static_cast<uint64_t*>(std::malloc(cap * sizeof(uint64_t)));
}

void FreeHolderArray(uint64_t* a, uint32_t cap) {
  if (cap == kCachedCap && array_cache.count < kCachedArrays) {
    array_cache.arrays[array_cache.count++] = a;
    return;
  }
  std::free(a);
}

}  // namespace

VersionChain::Holders::~Holders() {
  if (cap_ != kInline) FreeHolderArray(heap_, cap_);
}

bool VersionChain::Holders::Contains(uint64_t h) const {
  const uint64_t* d = data();
  for (uint32_t i = 0; i < size_; ++i) {
    if (d[i] == h) return true;
  }
  return false;
}

bool VersionChain::Holders::Add(uint64_t h) {
  if (Contains(h)) return false;
  if (size_ == cap_) {
    const uint32_t cap = cap_ * 2;
    uint64_t* grown = NewHolderArray(cap);
    const uint64_t* d = data();
    for (uint32_t i = 0; i < size_; ++i) grown[i] = d[i];
    if (cap_ != kInline) FreeHolderArray(heap_, cap_);
    heap_ = grown;
    cap_ = cap;
  }
  data()[size_++] = h;
  return true;
}

bool VersionChain::Holders::Remove(uint64_t h) {
  uint64_t* d = data();
  for (uint32_t i = 0; i < size_; ++i) {
    if (d[i] != h) continue;
    d[i] = d[--size_];
    // A heap array is kept until the set empties, so a set hovering
    // around a few holders does not bounce between the two forms.
    if (size_ == 0 && cap_ != kInline) {
      FreeHolderArray(heap_, cap_);
      cap_ = kInline;
    }
    return true;
  }
  return false;
}

VersionChain::~VersionChain() { FreeAllLocked(); }

void VersionChain::FreeAllLocked() {
  Version* v = newest_;
  while (v != nullptr) {
    Version* older = v->older;
    delete v;
    v = older;
  }
  newest_ = nullptr;
}

ReadResult VersionChain::Read(TxnId reader, Timestamp read_ts,
                              std::string* value) {
  ReadResult result;
  std::lock_guard<ChainLatch> guard(latch_);
  ReadLocked(reader, read_ts, value, &result);
  return result;
}

void VersionChain::ReadLocked(TxnId reader, Timestamp read_ts,
                              std::string* value, ReadResult* result) {
  accessed_ = true;
  for (Version* v = newest_; v != nullptr; v = v->older) {
    if (v->creator_txn_id == reader) {
      // A transaction always sees its own writes (§2.5).
      result->found = !v->tombstone;
      result->own_write = true;
      if (result->found && value != nullptr) *value = v->value;
      return;
    }
    const Timestamp cts = v->commit_ts.load(std::memory_order_acquire);
    if (cts == 0) {
      // Uncommitted version of a concurrent writer. Invisible; the
      // rw-conflict with its creator is the owner a locked read reports
      // (Fig 3.4 line 3), seen under this same latch.
      continue;
    }
    if (cts > read_ts) {
      result->newer.push_back(NewerVersionInfo{v->creator_txn_id, cts});
      continue;
    }
    result->found = !v->tombstone;
    result->version_cts = cts;
    if (result->found && value != nullptr) *value = v->value;
    return;
  }
  // Nothing visible. If the chain's cold anchor was spilled to a run file
  // it IS visible to this snapshot (spilled cts <= prune horizon <=
  // read_ts), so the caller must fault it back and retry.
  result->evicted = evicted_;
}

Version* VersionChain::InstallUncommitted(TxnId writer, Slice value,
                                          bool tombstone, bool* replaced_own) {
  std::lock_guard<ChainLatch> guard(latch_);
  return InstallLocked(writer, value, tombstone, replaced_own);
}

Version* VersionChain::InstallLocked(TxnId writer, Slice value,
                                     bool tombstone, bool* replaced_own) {
  accessed_ = true;
  *replaced_own = false;
  if (newest_ != nullptr && newest_->creator_txn_id == writer &&
      newest_->commit_ts.load(std::memory_order_relaxed) == 0) {
    // Second write by the same transaction: overwrite in place.
    newest_->value = value.ToString();
    newest_->tombstone = tombstone;
    *replaced_own = true;
    return newest_;
  }
  // The writer's exclusive lock guarantees no other uncommitted version
  // exists at the head.
  assert(newest_ == nullptr ||
         newest_->commit_ts.load(std::memory_order_relaxed) != 0);
  Version* v = new Version(writer);
  v->value = value.ToString();
  v->tombstone = tombstone;
  v->older = newest_;
  newest_ = v;
  return v;
}

void VersionChain::InstallRecovered(Timestamp commit_ts, Slice value,
                                    bool tombstone) {
  assert(commit_ts != 0);
  std::lock_guard<ChainLatch> guard(latch_);
  if (newest_ != nullptr &&
      newest_->commit_ts.load(std::memory_order_relaxed) >= commit_ts) {
    return;  // Already present (repeat replay) — keep the chain as is.
  }
  // Recovery is quiescent and DB::Open advances the clock past every
  // recovered commit, so no snapshot can reach the superseded versions:
  // the chain keeps only this one.
  FreeAllLocked();
  Version* v = new Version(/*creator=*/0);
  v->value = value.ToString();
  v->tombstone = tombstone;
  v->commit_ts.store(commit_ts, std::memory_order_release);
  newest_ = v;
}

void VersionChain::RemoveUncommitted(TxnId writer) {
  std::lock_guard<ChainLatch> guard(latch_);
  if (newest_ != nullptr && newest_->creator_txn_id == writer &&
      newest_->commit_ts.load(std::memory_order_relaxed) == 0) {
    Version* dead = newest_;
    newest_ = dead->older;
    delete dead;
  }
}

bool VersionChain::HasCommittedVersionAfter(Timestamp since,
                                            TxnId* creator) {
  std::lock_guard<ChainLatch> guard(latch_);
  for (Version* v = newest_; v != nullptr; v = v->older) {
    const Timestamp cts = v->commit_ts.load(std::memory_order_acquire);
    if (cts == 0) continue;
    // Versions are committed in timestamp order along the chain, so the
    // first committed version is the newest committed one.
    if (cts <= since) return false;
    if (creator != nullptr) *creator = v->creator_txn_id;
    return true;
  }
  return false;
}

bool VersionChain::LatestCommitted(Timestamp* commit_ts, bool* tombstone) {
  std::lock_guard<ChainLatch> guard(latch_);
  for (Version* v = newest_; v != nullptr; v = v->older) {
    const Timestamp cts = v->commit_ts.load(std::memory_order_acquire);
    if (cts == 0) continue;
    if (commit_ts != nullptr) *commit_ts = cts;
    if (tombstone != nullptr) *tombstone = v->tombstone;
    return true;
  }
  return false;
}

size_t VersionChain::Prune(Timestamp min_read_ts) {
  std::lock_guard<ChainLatch> guard(latch_);
  // Find the newest committed version visible at min_read_ts; everything
  // older is unreachable by any active or future snapshot.
  Version* anchor = nullptr;
  for (Version* v = newest_; v != nullptr; v = v->older) {
    const Timestamp cts = v->commit_ts.load(std::memory_order_acquire);
    if (cts != 0 && cts <= min_read_ts) {
      anchor = v;
      break;
    }
  }
  if (anchor == nullptr) return 0;
  size_t freed = 0;
  Version* v = anchor->older;
  anchor->older = nullptr;
  while (v != nullptr) {
    Version* older = v->older;
    delete v;
    v = older;
    ++freed;
  }
  return freed;
}

size_t VersionChain::size() const {
  std::lock_guard<ChainLatch> guard(latch_);
  size_t n = 0;
  for (Version* v = newest_; v != nullptr; v = v->older) ++n;
  return n;
}

Timestamp VersionChain::GenerationRead(Timestamp since, Timestamp cut,
                                       std::string* value, bool* tombstone,
                                       bool* evicted) {
  std::lock_guard<ChainLatch> guard(latch_);
  for (Version* v = newest_; v != nullptr; v = v->older) {
    const Timestamp cts = v->commit_ts.load(std::memory_order_acquire);
    if (cts == 0 || cts > cut) continue;
    if (cts <= since) return 0;  // Already in an earlier generation's run.
    *value = v->value;
    *tombstone = v->tombstone;
    *evicted = evicted_;
    return cts;
  }
  return 0;
}

bool VersionChain::Evict(Timestamp bound) {
  std::lock_guard<ChainLatch> guard(latch_);
  // A chain can be evicted AND hold resident versions (an upsert over an
  // evicted chain installs at the head without faulting the anchor in);
  // once a generation has written its head, it is evicted like any other.
  if (newest_ == nullptr) return false;
  if (accessed_) {
    accessed_ = false;  // Second chance: evicted only if still cold next pass.
    return false;
  }
  // Committed-at-head implies the whole chain is committed.
  const Timestamp cts = newest_->commit_ts.load(std::memory_order_acquire);
  if (cts == 0 || cts > bound) return false;
  FreeAllLocked();
  evicted_ = true;
  return true;
}

void VersionChain::FaultInstall(Timestamp cts, Slice value, bool tombstone) {
  assert(cts != 0);
  std::lock_guard<ChainLatch> guard(latch_);
  accessed_ = true;
  if (!evicted_) return;  // Another faulter won the race.
  // Every resident version was installed after eviction and committed (or
  // will commit) past the prune horizon, hence past `cts`: append at the
  // tail to keep the chain newest-first.
  Version* v = new Version(/*creator=*/0);
  v->value = value.ToString();
  v->tombstone = tombstone;
  v->commit_ts.store(cts, std::memory_order_release);
  if (newest_ == nullptr) {
    newest_ = v;
  } else {
    Version* tail = newest_;
    while (tail->older != nullptr) tail = tail->older;
    tail->older = v;
  }
  evicted_ = false;
}

void VersionChain::SetEvictedRecovered(Timestamp cts) {
  assert(cts != 0);
  std::lock_guard<ChainLatch> guard(latch_);
  if (newest_ != nullptr &&
      newest_->commit_ts.load(std::memory_order_relaxed) >= cts) {
    // WAL replay installed this version (or a newer one): the resident
    // copy wins; the run entry is merely its durable twin.
    return;
  }
  // The run holds a newer version than anything replayed: the replayed
  // versions are stale prefixes of history nothing can read (recovery
  // admits no active snapshots). Evict the chain so the run stays its home.
  FreeAllLocked();
  evicted_ = true;
}

bool VersionChain::evicted() const {
  std::lock_guard<ChainLatch> guard(latch_);
  return evicted_;
}

// ---------------------------------------------------------------------------
// Row locks.
// ---------------------------------------------------------------------------

bool VersionChain::AnySIReadLocked() const {
  bool any = false;
  holders_.ForEach([&](uint64_t h) { any |= !Holders::Shared(h); });
  return any;
}

bool VersionChain::AddSIReadLocked(TxnId txn, RowLockDelta* delta) {
  const uint64_t h = Holders::Make(txn, /*shared=*/false);
  if (holders_.Contains(h)) return false;
  if (!AnySIReadLocked()) ++delta->siread_keys;
  holders_.Add(h);
  ++delta->sireads;
  return true;
}

void VersionChain::BlockLocked(RowLockWait* wait) {
  ++waiters_;
  wait->waiting = true;
  // Read under the latch: a release that unblocks this request changes the
  // chain after this point and bumps the generation after that, so the
  // parked caller cannot miss it (LockManager::WaitOnChain).
  wait->seen_gen = wait->gen->load(std::memory_order_acquire);
}

void VersionChain::UnwaitLocked(RowLockWait* wait) {
  if (wait == nullptr || !wait->waiting) return;
  assert(waiters_ > 0);
  --waiters_;
  wait->waiting = false;
}

void VersionChain::StopWaiting(RowLockWait* wait) {
  std::lock_guard<ChainLatch> guard(latch_);
  UnwaitLocked(wait);
}

ReadResult VersionChain::LockedRead(TxnId reader, RowLockMode mode,
                                    Timestamp read_ts, std::string* value,
                                    RowLockWait* wait, RowLockDelta* delta) {
  ReadResult result;
  std::lock_guard<ChainLatch> guard(latch_);
  UnwaitLocked(wait);
  const bool foreign_owner = owner_ != 0 && owner_ != reader;
  switch (mode) {
    case RowLockMode::kNone:
      break;
    case RowLockMode::kShared:
      if (foreign_owner) {
        wait->blockers.clear();
        wait->blockers.push_back(owner_);
        BlockLocked(wait);
        result.blocked = true;
        return result;
      }
      // The owner's exclusive lock subsumes a shared one.
      if (owner_ != reader &&
          holders_.Add(Holders::Make(reader, /*shared=*/true))) {
        ++delta->locks;
        result.lock_added = true;
      }
      break;
    case RowLockMode::kSIRead:
      result.lock_added = AddSIReadLocked(reader, delta);
      if (foreign_owner) result.writer = owner_;
      break;
    case RowLockMode::kProbe:
      if (foreign_owner) result.writer = owner_;
      break;
  }
  ReadLocked(reader, read_ts, value, &result);
  return result;
}

bool VersionChain::ClaimOwner(TxnId writer, bool drop_own_siread,
                              TxnIdBuf* sireaders, RowLockWait* wait,
                              RowLockDelta* delta, bool* newly_owned) {
  std::lock_guard<ChainLatch> guard(latch_);
  UnwaitLocked(wait);
  *newly_owned = false;
  wait->blockers.clear();
  if (owner_ != 0 && owner_ != writer) {
    wait->blockers.push_back(owner_);
  } else {
    // X against S: every other shared holder blocks (an upgrade waits for
    // the others to drain).
    holders_.ForEach([&](uint64_t h) {
      if (Holders::Shared(h) && Holders::Txn(h) != writer) {
        wait->blockers.push_back(Holders::Txn(h));
      }
    });
  }
  if (!wait->blockers.empty()) {
    BlockLocked(wait);
    return false;
  }
  if (owner_ == 0) {
    owner_ = writer;
    *newly_owned = true;
    ++delta->locks;
  }
  if (drop_own_siread &&
      holders_.Remove(Holders::Make(writer, /*shared=*/false))) {
    --delta->sireads;
    if (!AnySIReadLocked()) --delta->siread_keys;
  }
  if (sireaders != nullptr) {
    holders_.ForEach([&](uint64_t h) {
      if (!Holders::Shared(h) && Holders::Txn(h) != writer) {
        sireaders->push_back(Holders::Txn(h));
      }
    });
  }
  return true;
}

WriteResult VersionChain::CheckAndInstall(TxnId writer, Timestamp fcw_since,
                                          Timestamp read_ts, WriteCheck check,
                                          Slice value, bool tombstone,
                                          std::string* read_value) {
  WriteResult out;
  std::lock_guard<ChainLatch> guard(latch_);
  assert(owner_ == writer || owner_ == 0);
  // First-committer-wins (§2.5): versions commit in timestamp order along
  // the chain, so the first committed version is the newest one.
  for (Version* v = newest_; v != nullptr; v = v->older) {
    const Timestamp cts = v->commit_ts.load(std::memory_order_acquire);
    if (cts == 0) continue;
    if (cts > fcw_since) {
      out.fcw_conflict = true;
      out.fcw_creator = v->creator_txn_id;
      return out;
    }
    break;
  }
  if (check != WriteCheck::kNone) {
    ReadResult rr;
    ReadLocked(writer, read_ts,
               check == WriteCheck::kCopyIfFound ? read_value : nullptr, &rr);
    if (rr.evicted) {
      out.evicted = true;
      return out;
    }
    out.found = rr.found;
    out.own_write = rr.own_write;
    out.version_cts = rr.version_cts;
    switch (check) {
      case WriteCheck::kNone:
        break;
      case WriteCheck::kMustBeAbsent:
        if (rr.found) return out;
        break;
      case WriteCheck::kMustExist:
        if (!rr.found) return out;
        break;
      case WriteCheck::kCopyIfFound:
        // Oracle semantics (§2.6.2): the locking read installs an identity
        // version so a concurrent writer's FCW check sees this commit.
        if (!rr.found || rr.own_write) return out;
        value = Slice(*read_value);
        break;
    }
  }
  out.version = InstallLocked(writer, value, tombstone, &out.replaced_own);
  return out;
}

bool VersionChain::ReleaseOwner(TxnId txn, RowLockDelta* delta) {
  std::lock_guard<ChainLatch> guard(latch_);
  if (owner_ != txn) return false;
  owner_ = 0;
  --delta->locks;
  return waiters_ > 0;
}

bool VersionChain::ReleaseHolder(TxnId txn, RowLockDelta* delta) {
  std::lock_guard<ChainLatch> guard(latch_);
  if (holders_.Remove(Holders::Make(txn, /*shared=*/true))) {
    --delta->locks;
    return waiters_ > 0;
  }
  if (holders_.Remove(Holders::Make(txn, /*shared=*/false))) {
    --delta->sireads;
    if (!AnySIReadLocked()) --delta->siread_keys;
  }
  return false;  // SIREAD locks never block anyone.
}

TxnId VersionChain::owner() const {
  std::lock_guard<ChainLatch> guard(latch_);
  return owner_;
}

bool VersionChain::HoldsSIRead(TxnId txn) const {
  std::lock_guard<ChainLatch> guard(latch_);
  return holders_.Contains(Holders::Make(txn, /*shared=*/false));
}

}  // namespace ssidb
