// Segmented, file-backed write-ahead log: the physical layer under
// LogManager and the input to crash recovery.
//
// Layout: LogOptions::wal_dir holds segment files named
// wal-<seq, 20 digits>.log. A segment is a plain concatenation of
// LogRecord frames (see log_manager.h for the frame format); the writer
// appends whole frames, fsyncs once per group-commit batch, and rotates to
// a new segment when the current one exceeds the configured size. Segments
// are immutable once rotated away from, so only the newest segment can
// carry a torn tail after a crash.
//
// The writer is lazy: no file (or directory) is created until the first
// append. DB::Open relies on this — recovery scans the directory before
// the engine's own writer has touched it, so the newest on-disk segment is
// exactly the pre-crash tail.
//
// Threading: one thread at a time drives a WalWriter — whichever thread
// holds LogManager's writer role (the committing thread that drained the
// log buffer, or the flusher when batches are fsynced). Role hand-offs go
// through LogManager's mutex, which orders one holder's writes before the
// next's. Readers run before the writer's first append (recovery) or on
// test-owned copies.

#ifndef SSIDB_RECOVERY_WAL_H_
#define SSIDB_RECOVERY_WAL_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/io/env.h"
#include "src/txn/log_manager.h"

namespace ssidb::recovery {

/// Name of segment `seq` ("wal-00000000000000000007.log").
std::string WalSegmentName(uint64_t seq);

/// Parse the sequence number out of a segment path or file name; false if
/// the name is not a WAL segment.
bool ParseWalSegmentSeq(const std::string& path, uint64_t* seq);

/// Per-segment metadata, recorded frame-by-frame at append time (and
/// rebuilt by recovery's one obligatory scan for pre-crash segments), so
/// checkpoint-driven WAL GC can decide coverage from counters instead of
/// re-reading candidate segments from disk — O(1) per segment.
///
/// The registry invariant GC relies on: a *sealed* segment's metadata is
/// complete and never understates (the writer publishes a sealing
/// segment's full metadata before the next segment's file is created, so
/// any directory listing that observes a higher-numbered file can trust
/// the lower one's entry). The open segment's entry may trail mid-batch,
/// but GC never touches the highest-sequence segment.
struct WalSegmentMeta {
  uint64_t seq = 0;
  uint64_t record_count = 0;
  /// Min/max commit_ts over kCommit records (0 when the segment holds no
  /// commit record). A segment with max_commit_ts <= a base-image
  /// watermark has every commit captured by that image.
  Timestamp min_commit_ts = 0;
  Timestamp max_commit_ts = 0;
  /// Create-watermark rule: a segment holding kTableCreate records is
  /// reclaimable only once every created table's id/name binding is
  /// captured in the surviving base image — i.e. max_table_id_created is
  /// below the base image's table count (ids are dense).
  bool has_table_create = false;
  uint32_t max_table_id_created = 0;
};

/// One frame of a WalBatch: where its bytes start in WalBatch::bytes plus
/// the fields the per-segment metadata accumulates.
struct WalFrame {
  size_t offset = 0;
  LogRecordType type = LogRecordType::kCommit;
  Timestamp commit_ts = 0;
  /// Assigned table id for kTableCreate records; 0 otherwise.
  uint32_t table_id = 0;
};

/// Records headed for the WAL, encoded back to back into one contiguous
/// buffer. Add() is the only way in, so the encoder and the per-frame
/// metadata can never disagree.
struct WalBatch {
  std::string bytes;
  std::vector<WalFrame> frames;

  /// Encode `record` onto the end of `bytes` and describe it in `frames`.
  void Add(const LogRecord& record);
  bool empty() const { return frames.empty(); }
  /// Empties the batch, keeping both buffers' capacity.
  void clear() {
    bytes.clear();
    frames.clear();
  }
};

/// Fold one record's contribution into `meta` (shared by the writer's
/// append path and recovery's rebuild-from-scan).
void AccumulateSegmentMeta(LogRecordType type, Timestamp commit_ts,
                           uint32_t table_id, WalSegmentMeta* meta);

/// Total ScanWalSegment invocations in this process — lets tests assert
/// that metadata-driven GC performs zero segment re-reads.
uint64_t ScanWalSegmentCalls();

/// Segment files in `dir`, sorted by sequence number ascending. A missing
/// directory yields OK and an empty list (fresh database). Non-WAL files
/// are ignored.
Status ListWalSegments(const std::string& dir,
                       std::vector<std::string>* paths);

/// Outcome of scanning one segment file.
struct WalScanResult {
  /// Every complete, CRC-valid record, in append order.
  std::vector<LogRecord> records;
  /// OK if the segment ended exactly on a frame boundary; kTruncated /
  /// kCorruption if the tail was short or damaged (records before the bad
  /// frame are still returned — the recovery policy decides whether a bad
  /// tail is a torn write or real corruption).
  Status tail;
  /// Bytes of clean prefix (the offset where the bad tail starts; the
  /// file size when tail is OK). Recovery truncates a torn newest segment
  /// to this, so the tear cannot end up mid-log once later sessions
  /// append new segments.
  uint64_t valid_bytes = 0;
  /// Total file size scanned.
  uint64_t file_bytes = 0;
};

/// Read and parse one segment. kIOError only for filesystem failures;
/// format problems are reported through WalScanResult::tail.
Status ScanWalSegment(const std::string& path, WalScanResult* out,
                      io::Env* env = nullptr);

class WalWriter {
 public:
  /// `fsync`: sync file data after each batch (and the directory when a
  /// segment is created). `env` (nullptr = real filesystem) carries every
  /// write/fsync.
  WalWriter(std::string dir, uint64_t segment_bytes, bool fsync,
            io::Env* env = nullptr);
  ~WalWriter();

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Append every frame, rotating segments as needed, then sync once.
  /// Frames are written in order, one write() per run of frames that
  /// share a segment; rotation happens only at frame boundaries, so the
  /// durable log is always a prefix of the appended sequence (modulo a
  /// torn final frame). Segment metadata is accumulated locally (no
  /// locking on the per-frame path) and published to the registry when a
  /// segment seals (before the next segment's file exists) and at the end
  /// of each batch — exactly the granularity the registry invariant
  /// needs, since GC never touches the open (highest-sequence) segment.
  ///
  /// Failure policy (fsyncgate-correct): the first write or fsync failure
  /// poisons the writer permanently — every later AppendBatch returns the
  /// same sticky status without touching the file, and the destructor
  /// never re-fsyncs the poisoned descriptor. Retrying an fsync that
  /// failed proves nothing (the kernel may already have dropped the dirty
  /// pages while marking them clean), and appending past a possibly-torn
  /// frame would bury the tear mid-segment where recovery must treat it
  /// as corruption rather than a clean tail.
  Status AppendBatch(const WalBatch& batch);

  /// Install metadata for segments that predate this writer (recovery's
  /// scan already parsed them). Existing entries are kept — a segment this
  /// writer wrote is never overwritten by stale seed data.
  void SeedSegmentMeta(const std::vector<WalSegmentMeta>& metas);

  /// Snapshot of the registry, keyed by segment sequence number.
  std::map<uint64_t, WalSegmentMeta> SegmentMetadata() const;

  /// Drop a deleted segment's registry entry (checkpoint GC).
  void ForgetSegment(uint64_t seq);

  // Counters are relaxed atomics: one thread writes at a time, but
  // stats/GC readers sample from other threads.
  uint64_t bytes_written() const {
    return bytes_written_.load(std::memory_order_relaxed);
  }
  uint64_t segments_created() const {
    return segments_created_.load(std::memory_order_relaxed);
  }

 private:
  /// Create wal_dir if needed and open the next segment (one past the
  /// highest existing sequence number — never append to a possibly-torn
  /// pre-crash segment).
  Status EnsureOpen();
  Status RotateSegment();
  /// write() all `n` bytes to the open segment, retrying on EINTR and
  /// short writes.
  Status WriteAll(const char* data, size_t n);

  const std::string dir_;
  const uint64_t segment_bytes_;
  const bool fsync_;
  io::Env* const env_;

  /// First write/fsync failure, sticky (writer-role holder only). See
  /// AppendBatch's failure policy.
  Status io_status_;

  /// Publish current_meta_ into the registry (overwrites the open
  /// segment's entry with the authoritative accumulation).
  void PublishCurrentMeta();

  int fd_ = -1;
  uint64_t next_seq_ = 0;       ///< Valid after EnsureOpen.
  uint64_t current_seq_ = 0;    ///< Sequence of the open segment (fd_).
  uint64_t segment_offset_ = 0; ///< Bytes in the open segment.
  bool opened_ = false;
  std::atomic<uint64_t> bytes_written_{0};
  std::atomic<uint64_t> segments_created_{0};

  /// The open segment's metadata, accumulated lock-free by the writer
  /// and published to meta_ at rotation and batch end.
  WalSegmentMeta current_meta_;

  /// Segment metadata registry: seeded by recovery for pre-crash
  /// segments, extended by the append path for this session's. Guarded by
  /// meta_mu_ (the writer writes, stats/GC threads read).
  mutable std::mutex meta_mu_;
  std::map<uint64_t, WalSegmentMeta> meta_;
};

}  // namespace ssidb::recovery

#endif  // SSIDB_RECOVERY_WAL_H_
