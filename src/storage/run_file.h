// RunFile: an immutable sorted run — the on-disk home of spilled version
// chains.
//
// A run holds one committed version per key (the chain's anchor at spill
// time: key, commit_ts, tombstone flag, value), sorted by key, packed into
// fixed-size CRC-framed pages, with a fence-key sparse index and a Bloom
// filter over its keys in the footer. A key may appear in several runs of
// a table (respilled after new commits); lookups probe runs newest-first
// and stop at the first hit, and compaction merges a table's runs keeping
// the newest commit_ts per key.
//
// Probe rule: Lookup asks the filter first. A filter miss proves the key
// absent (a Bloom filter has no false negatives), so the run is skipped
// with no page read; otherwise the fences pick the one data page that may
// hold the key, and only that page is pinned. A fault that finds its key
// in the oldest of N runs thus pins one page, plus a false-positive page
// in about 1% of the N - 1 runs it skips.
//
// File layout (all integers big-endian via encoding.h):
//   page 0                        header: magic8 "SSIDBRUN", u32 table_id,
//                                 u32 page_bytes, u64 seq, zero padding
//   pages 1..page_count           data pages (format below)
//   footer (after the last page)  magic8 "SSIDBRIF", u32 page_count,
//                                 u32 entry_count_total,
//                                 page_count x { lp first_key },
//                                 lp filter (RunFilter bits),
//                                 u32 crc of the footer bytes above
//   trailer (last 16 bytes)       u64 footer_offset, magic8 "SSIDBEND"
// Runs written before the filter existed carry the index magic "SSIDBRIX"
// and no filter block; they open with an empty filter, which passes every
// key, so each lookup probes them by fences alone.
//
// Data page (page_bytes long, zero-padded):
//   u32 crc          CRC32C of bytes [4, 12 + payload_bytes)
//   u32 payload_bytes
//   u32 entry_count
//   entry_count x { lp key, u64 commit_ts, u8 tombstone, lp value }
//
// Durability: the writer serializes into "<name>.tmp", writes data pages
// through the buffer pool (dirty frames, flushed back before the fsync so
// the pool's writeback path is the real write path), fsyncs, renames and
// fsyncs the directory — the checkpoint writers' protocol. A run is only
// opened if its header, trailer and footer CRC validate; the filter sits
// under the footer CRC, so a damaged filter fails Open instead of hiding
// keys. A data page's CRC is checked every time it is read: on every
// Lookup that pins it (even when the page is already resident in the pool)
// and for every page a ForEachEntry visits.

#ifndef SSIDB_STORAGE_RUN_FILE_H_
#define SSIDB_STORAGE_RUN_FILE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/storage/buffer_pool.h"
#include "src/storage/version.h"

namespace ssidb {

/// Bloom filter over a run's keys (Bloom 1970, CACM 13(7)): kBitsPerKey
/// bits per key and kProbes probes derived from one Hash by double
/// hashing, for about 1% false positives. The bits persist in run files.
class RunFilter {
 public:
  static constexpr uint32_t kBitsPerKey = 10;
  static constexpr uint32_t kProbes = 7;

  /// Fixed 64-bit key hash. The bits it sets are stored on disk, so it is
  /// defined here (not std::hash, which may change between builds) and must
  /// never change; a known-answer test pins it.
  static uint64_t Hash(Slice key);

  /// An empty filter: MayContain is always true (runs without a filter).
  RunFilter() = default;
  /// A filter sized for `keys` keys, none added yet.
  explicit RunFilter(uint64_t keys);
  /// A filter over bits loaded from a run footer.
  explicit RunFilter(std::string bits) : bits_(std::move(bits)) {}

  void Add(Slice key);
  /// False only if `key` was never added: no false negatives.
  bool MayContain(Slice key) const;

  const std::string& bits() const { return bits_; }

 private:
  std::string bits_;
};

/// One spilled key: the version-chain anchor at spill time.
struct RunEntry {
  std::string key;
  std::string value;
  Timestamp commit_ts = 0;
  bool tombstone = false;
};

class RunFile {
 public:
  /// Largest entry a page can hold; larger entries are never spilled.
  static uint64_t MaxEntryBytes(uint32_t page_bytes);

  /// Write a run of `entries` (sorted by key, non-empty) for table `table`
  /// into `path` and open it: the data pages flow through `pool` (written
  /// back by FlushFile before the fsync) under the pool file id `file_id`,
  /// so the new run's pages are warm. On success *out holds the opened,
  /// pool-registered run. On any failure (ENOSPC, EIO, writeback) the
  /// partial "<path>.tmp" is removed and the pool purged of the file id —
  /// the directory never accumulates garbage and the caller may retry.
  /// `env` (nullptr = real filesystem) carries every byte.
  static Status Create(const std::string& path, uint32_t table_id,
                       uint64_t seq, uint64_t file_id, uint32_t page_bytes,
                       const std::vector<RunEntry>& entries, BufferPool* pool,
                       bool fsync, std::shared_ptr<RunFile>* out,
                       io::Env* env = nullptr);

  /// Open an existing run (recovery): validate header/footer, load the
  /// fence index and the filter (no pass over the data pages), register
  /// the descriptor with the pool under `file_id`.
  static Status Open(const std::string& path, uint64_t file_id,
                     BufferPool* pool, std::shared_ptr<RunFile>* out,
                     io::Env* env = nullptr);

  ~RunFile();

  RunFile(const RunFile&) = delete;
  RunFile& operator=(const RunFile&) = delete;

  uint32_t table_id() const { return table_id_; }
  uint64_t seq() const { return seq_; }
  uint64_t file_id() const { return file_->id(); }
  const std::string& path() const { return path_; }
  uint32_t page_count() const { return page_count_; }
  uint64_t entry_count() const { return entry_count_; }

  /// Point lookup through the buffer pool by the probe rule above: the
  /// filter, then the fences, rule the key out or pick one data page,
  /// which is pinned, CRC-checked and searched. *found=false (OK status)
  /// when the key is not in this run. *pinned (if non-null) tells whether
  /// a page was pinned.
  Status Lookup(BufferPool* pool, Slice key, RunEntry* out, bool* found,
                bool* pinned = nullptr) const;

  /// Sequential scan with direct pread — compaction and recovery bypass
  /// the pool so a full-file pass cannot thrash resident hot pages.
  Status ForEachEntry(
      const std::function<void(const RunEntry&)>& fn) const;

 private:
  RunFile(std::string path, std::shared_ptr<PoolFile> file, uint32_t table_id,
          uint64_t seq, uint32_t page_bytes, uint32_t page_count,
          uint64_t entry_count, std::vector<std::string> fences,
          RunFilter filter, BufferPool* pool, io::Env* env);

  /// Search one CRC-checked data page for `key`, comparing keys in place
  /// and copying out only the hit.
  static Status SearchPage(const uint8_t* page, uint32_t page_bytes,
                           Slice key, RunEntry* out, bool* found);

  const std::string path_;
  const std::shared_ptr<PoolFile> file_;
  const uint32_t table_id_;
  const uint64_t seq_;
  const uint32_t page_bytes_;
  const uint32_t page_count_;
  const uint64_t entry_count_;
  /// fences_[i] = first key of data page i (file page i + 1).
  const std::vector<std::string> fences_;
  const RunFilter filter_;
  /// The pool this run is registered with (for unregistration on destroy).
  BufferPool* const pool_;
  /// Carries ForEachEntry's direct preads.
  io::Env* const env_;
};

}  // namespace ssidb

#endif  // SSIDB_STORAGE_RUN_FILE_H_
