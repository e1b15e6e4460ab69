// RunFile: an immutable sorted run — the on-disk home of version chains,
// written by run generations (checkpoints and spills) and compactions.
//
// A run holds one committed version per key (the newest at or below a
// generation's cut: key, commit_ts, tombstone flag, value), sorted by key,
// packed into fixed-size CRC-framed pages, with a fence-key sparse index
// and a Bloom filter over its keys in the footer. A key may appear in
// several runs of a table (written again by a later generation after new
// commits); lookups probe runs newest-first and stop at the first hit, and
// compaction merges a table's runs keeping the newest commit_ts per key.
//
// Probe rule: Lookup asks the filter first. A filter miss proves the key
// absent (a Bloom filter has no false negatives), so the run is skipped
// with no page read; otherwise the fences pick the one data page that may
// hold the key, and only that page is pinned. A fault that finds its key
// in the oldest of N runs thus pins one page, plus a false-positive page
// in about 1% of the N - 1 runs it skips.
//
// File layout (all integers big-endian via encoding.h):
//   pages 0..page_count-1         data pages (format below); the last one
//                                 ends with its frame, unpadded
//   footer (after the last frame) magic8 "SSIDBRFT", u32 table_id,
//                                 u32 page_bytes, u64 seq, u32 page_count,
//                                 u32 entry_count_total,
//                                 page_count x { lp first_key },
//                                 lp filter (RunFilter bits),
//                                 u32 crc of the footer bytes above
//   trailer (last 16 bytes)       u64 footer_offset, magic8 "SSIDBEND"
// A run of N data pages thus takes N - 1 pages, its last frame and its
// footer: a few-key run is well under one page. Runs of the older
// header-page layout (page 0 a header, footer magic "SSIDBRIF") fail Open.
//
// Data page (page_bytes long, zero-padded, but for the last one):
//   u32 crc          CRC32C of bytes [4, 12 + payload_bytes)
//   u32 payload_bytes
//   u32 entry_count
//   entry_count x { lp key, u64 commit_ts, u8 tombstone, lp value }
// An entry larger than one page's payload gets an extent: a frame of the
// same layout, holding that entry alone, over as many consecutive pages as
// 12 + payload_bytes needs. Each extent page carries the entry's key as its
// fence, so equal neighbouring fences mark an extent; Lookup and Cursor
// read an extent directly rather than through the pool.
//
// Durability: the writer serializes into "<name>.tmp", writes data pages
// through the buffer pool (dirty frames, flushed back before the fsync so
// the pool's writeback path is the real write path), writes the footer
// after the last frame and cuts the file there, fsyncs, renames and
// fsyncs the directory — the manifest's protocol too. A run is only
// opened if its trailer and footer CRC validate; the filter and the
// table id, page size and seq sit under the footer CRC, so damage to them
// fails Open instead of hiding keys. A data page's CRC is checked every
// time it is read: on every Lookup that pins it (even when the page is
// already resident in the pool) and for every frame a Cursor or an extent
// read visits.

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

  /// A filter sized for `keys` keys, none added yet.
  explicit RunFilter(uint64_t keys);
  /// A filter over bits loaded from a run footer (non-empty).
  explicit RunFilter(std::string bits) : bits_(std::move(bits)) {}

  void Add(Slice key) { AddHash(Hash(key)); }
  /// Add a key by its Hash.
  void AddHash(uint64_t hash);
  /// False only if `key` was never added: no false negatives.
  bool MayContain(Slice key) const;

  const std::string& bits() const { return bits_; }

 private:
  std::string bits_;
};

/// One key of a run: a committed version of its chain.
struct RunEntry {
  std::string key;
  std::string value;
  Timestamp commit_ts = 0;
  bool tombstone = false;
};

class RunFile {
 public:
  /// Largest entry a page can hold; larger entries become extents.
  static uint64_t MaxEntryBytes(uint32_t page_bytes);

  /// Pulls a new run's entries in ascending key order: sets *next to the
  /// next entry (valid until the following call), or to null at the end.
  using Source = std::function<Status(const RunEntry** next)>;

  /// Write a run of the entries `source` yields for table `table` into
  /// `path` and open it: the data pages flow through `pool` (written back
  /// by FlushFile before the fsync) under the pool file id `file_id`, so
  /// the new run's pages are warm, and only the current page's payload
  /// (plus 8 bytes of filter hash per key) is buffered. On success *out
  /// holds the opened, pool-registered run. On any failure (ENOSPC, EIO,
  /// writeback, a source error) the partial "<path>.tmp" is removed and
  /// the pool purged of the file id — the directory never accumulates
  /// garbage and the caller may retry. `env` (nullptr = real filesystem)
  /// carries every byte.
  static Status Create(const std::string& path, uint32_t table_id,
                       uint64_t seq, uint64_t file_id, uint32_t page_bytes,
                       const Source& source, BufferPool* pool, bool fsync,
                       std::shared_ptr<RunFile>* out, io::Env* env = nullptr);

  /// A Source over `entries` (sorted by key), which must outlive it.
  template <typename Entries>
  static Source Over(const Entries& entries) {
    return [&entries, it = entries.begin()](const RunEntry** next) mutable {
      *next = it == entries.end() ? nullptr : &*it++;
      return Status::OK();
    };
  }

  /// Open an existing run (recovery): validate trailer and footer, load the
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

  /// Sequential reader over the run's entries in key order, with direct
  /// preads — compaction and recovery bypass the pool so a full-file pass
  /// cannot thrash resident hot pages. Holds one decoded frame at a time.
  class Cursor {
   public:
    explicit Cursor(const RunFile* run) : run_(run) {}
    /// Step to the next entry (the first, on the first call); valid()
    /// turns false past the last one.
    Status Next();
    bool valid() const { return i_ < frame_entries_.size(); }
    const RunEntry& entry() const { return frame_entries_[i_]; }

   private:
    const RunFile* run_;
    uint32_t next_page_ = 0;  ///< First data page not yet decoded.
    std::string frame_;
    std::vector<RunEntry> frame_entries_;
    size_t i_ = 0;
  };

  /// Every entry in key order, through a Cursor.
  Status ForEachEntry(
      const std::function<void(const RunEntry&)>& fn) const;

 private:
  RunFile(std::string path, std::shared_ptr<PoolFile> file, uint32_t table_id,
          uint64_t seq, uint32_t page_bytes, uint32_t page_count,
          uint64_t data_bytes, uint64_t entry_count,
          std::vector<std::string> fences, RunFilter filter, BufferPool* pool,
          io::Env* env);

  /// Search one CRC-checked data frame (`bytes` long: a page or an
  /// extent) for `key`, comparing keys in place and copying out only the
  /// hit.
  static Status SearchPage(const uint8_t* page, size_t bytes, Slice key,
                           RunEntry* out, bool* found);

  /// pread the data frame starting at data page `first` into *frame,
  /// bypassing the pool: one page (the last one stops at the footer), or a
  /// whole extent when its header announces one.
  Status ReadFrame(uint32_t first, std::string* frame) const;

  const std::string path_;
  const std::shared_ptr<PoolFile> file_;
  const uint32_t table_id_;
  const uint64_t seq_;
  const uint32_t page_bytes_;
  const uint32_t page_count_;
  /// Bytes of data pages: where the last frame ends and the footer starts.
  const uint64_t data_bytes_;
  const uint64_t entry_count_;
  /// fences_[i] = first key of data page i.
  const std::vector<std::string> fences_;
  const RunFilter filter_;
  /// The pool this run is registered with (for unregistration on destroy).
  BufferPool* const pool_;
  /// Carries the direct preads (cursors, extents).
  io::Env* const env_;
};

}  // namespace ssidb

#endif  // SSIDB_STORAGE_RUN_FILE_H_
