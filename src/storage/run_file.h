// RunFile: an immutable sorted run — the on-disk home of spilled version
// chains.
//
// A run holds one committed version per key (the chain's anchor at spill
// time: key, commit_ts, tombstone flag, value), sorted by key, packed into
// fixed-size CRC-framed pages, with a fence-key sparse index in the footer
// so a point lookup touches exactly one data page through the buffer pool.
// A key may appear in several runs of a table (respilled after new
// commits); lookups probe runs newest-first and stop at the first hit, and
// compaction merges a table's runs keeping the newest commit_ts per key.
//
// File layout (all integers big-endian via encoding.h):
//   page 0                        header: magic8 "SSIDBRUN", u32 table_id,
//                                 u32 page_bytes, u64 seq, zero padding
//   pages 1..page_count           data pages (format below)
//   footer (after the last page)  magic8 "SSIDBRIX", u32 page_count,
//                                 u32 entry_count_total,
//                                 page_count x { lp first_key },
//                                 u32 crc of the footer bytes above
//   trailer (last 16 bytes)       u64 footer_offset, magic8 "SSIDBEND"
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
// opened if its header, trailer and footer CRC validate. A data page's CRC
// is checked every time it is read: on every Lookup (even when the page is
// already resident in the pool) and for every page a ForEachEntry visits.

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
  /// fence index, register the descriptor with the pool under `file_id`.
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

  /// Point lookup through the buffer pool: fence binary search picks the
  /// data page, the pinned page is CRC-checked and searched. *found=false
  /// (OK status) when the key is not in this run.
  Status Lookup(BufferPool* pool, Slice key, RunEntry* out, bool* found) const;

  /// Sequential scan with direct pread — compaction and recovery bypass
  /// the pool so a full-file pass cannot thrash resident hot pages.
  Status ForEachEntry(
      const std::function<void(const RunEntry&)>& fn) const;

 private:
  RunFile(std::string path, std::shared_ptr<PoolFile> file, uint32_t table_id,
          uint64_t seq, uint32_t page_bytes, uint32_t page_count,
          uint64_t entry_count, std::vector<std::string> fences,
          BufferPool* pool, io::Env* env);

  /// Parse one CRC-framed data page; search for `key` if non-null.
  static Status SearchPage(const uint8_t* page, uint32_t page_bytes,
                           const Slice* key, RunEntry* out, bool* found,
                           const std::function<void(const RunEntry&)>& fn);

  const std::string path_;
  const std::shared_ptr<PoolFile> file_;
  const uint32_t table_id_;
  const uint64_t seq_;
  const uint32_t page_bytes_;
  const uint32_t page_count_;
  const uint64_t entry_count_;
  /// fences_[i] = first key of data page i (file page i + 1).
  const std::vector<std::string> fences_;
  /// The pool this run is registered with (for unregistration on destroy).
  BufferPool* const pool_;
  /// Carries ForEachEntry's direct preads.
  io::Env* const env_;
};

}  // namespace ssidb

#endif  // SSIDB_STORAGE_RUN_FILE_H_
