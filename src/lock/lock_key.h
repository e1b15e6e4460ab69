// Lock-key vocabulary shared by the blocking lock table (LockManager) and
// the SIREAD predicate index (SIReadIndex).
//
// LockKey owns its bytes (lock-table and page-write maps, held lists) and
// caches its FNV hash, so one acquisition hashes the bytes once.
// LockKeyView is the non-owning probe type (Slice plus precomputed hash);
// LockKeyHash/LockKeyEq are transparent, so maps keyed by LockKey are
// probed with a view and no key copy. The cached hash is a pure function
// of (table, kind, key), written only while the key is thread-confined or
// guarded by its container's mutex; mutate a reused key only through
// Assign(), which resets the cache.

#ifndef SSIDB_LOCK_LOCK_KEY_H_
#define SSIDB_LOCK_LOCK_KEY_H_

#include <cstdint>
#include <string>

#include "src/common/slice.h"
#include "src/storage/table.h"
#include "src/storage/version.h"

namespace ssidb {

enum class LockMode : uint8_t {
  kShared = 1,
  kExclusive = 2,
  kSIRead = 4,
};

/// What a lock protects.
enum class LockKind : uint8_t {
  kRow = 0,
  /// The open interval below `key` (insert/delete phantoms, Figs 3.6/3.7).
  kGap = 1,
  /// The gap above the largest key of the table (next(x) when x is last).
  kSupremum = 2,
  /// A whole page bucket (Berkeley DB granularity, §4.1).
  kPage = 3,
};

/// FNV-1a over (table, kind, key bytes). The single hash function of both
/// key representations; LockKeyView carries its result so one acquisition
/// hashes the bytes exactly once.
inline uint64_t HashLockKeyBytes(TableId table, LockKind kind,
                                 const char* key, size_t key_size) {
  uint64_t h = 1469598103934665603ULL;
  auto feed = [&h](const char* p, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      h ^= static_cast<unsigned char>(p[i]);
      h *= 1099511628211ULL;
    }
  };
  feed(reinterpret_cast<const char*>(&table), sizeof(table));
  feed(reinterpret_cast<const char*>(&kind), sizeof(kind));
  feed(key, key_size);
  return h;
}

struct LockKey {
  TableId table = 0;
  LockKind kind = LockKind::kRow;
  std::string key;
  /// Lazily computed by LockKeyHash; 0 means "not yet computed" (FNV-1a
  /// essentially never produces 0 for real inputs; if it did, the only
  /// cost is recomputation). See the header comment for the race-freedom
  /// argument.
  mutable uint64_t cached_hash = 0;

  LockKey() = default;
  LockKey(TableId t, LockKind k, std::string key_in)
      : table(t), kind(k), key(std::move(key_in)) {}

  /// Reuse this key object for different bytes (executor scratch keys);
  /// resets the hash cache. The std::string buffer is reused, so repeated
  /// Assign calls with same-or-shorter keys never allocate.
  void Assign(TableId t, LockKind k, Slice key_in) {
    table = t;
    kind = k;
    key.assign(key_in.data(), key_in.size());
    cached_hash = 0;
  }

  uint64_t Hash() const {
    if (cached_hash == 0) {
      cached_hash = HashLockKeyBytes(table, kind, key.data(), key.size());
    }
    return cached_hash;
  }

  bool operator==(const LockKey& o) const {
    return table == o.table && kind == o.kind && key == o.key;
  }
};

/// Non-owning probe key: Slice over caller-owned bytes + precomputed hash.
/// Build with MakeLockKeyView so the hash always matches LockKey::Hash().
struct LockKeyView {
  TableId table;
  LockKind kind;
  Slice key;
  uint64_t hash;
};

inline LockKeyView MakeLockKeyView(TableId table, LockKind kind, Slice key) {
  return LockKeyView{table, kind, key,
                     HashLockKeyBytes(table, kind, key.data(), key.size())};
}

struct LockKeyHash {
  using is_transparent = void;
  size_t operator()(const LockKey& k) const {
    return static_cast<size_t>(k.Hash());
  }
  size_t operator()(const LockKeyView& v) const {
    return static_cast<size_t>(v.hash);
  }
};

struct LockKeyEq {
  using is_transparent = void;
  bool operator()(const LockKey& a, const LockKey& b) const { return a == b; }
  bool operator()(const LockKey& a, const LockKeyView& b) const {
    return a.table == b.table && a.kind == b.kind &&
           Slice(a.key) == b.key;
  }
  bool operator()(const LockKeyView& a, const LockKey& b) const {
    return (*this)(b, a);
  }
};

}  // namespace ssidb

#endif  // SSIDB_LOCK_LOCK_KEY_H_
