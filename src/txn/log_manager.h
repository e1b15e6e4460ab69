// Write-ahead log with group commit: simulated flush latency or a real
// file-backed segmented WAL.
//
// The paper's Berkeley DB evaluation contrasts two regimes: commits that
// return without waiting for the disk (~100us transactions, Fig 6.1) and
// commits that flush the log (~10ms, Fig 6.2). Group commit, as both
// Berkeley DB and InnoDB implement it (§4.4), exists to batch the log
// *syncs*: whatever is appended while one sync runs joins the next.
//
// Append encodes each record into one contiguous log buffer under mu_.
// One drain routine empties it: write the frames (recovery::WalWriter,
// one write() per segment-contiguous run, plus an fsync with wal_fsync;
// a sleep of flush_latency_us in the simulated regime, where nothing
// persists), advance flushed_lsn_, fire the flush subscriptions the
// drain covered. One thread at a time holds the writer role that runs
// it, and which thread depends on whether a drain blocks:
//   * it does not (wal_dir set with wal_fsync=false, or simulated with
//     flush_latency_us == 0): an appender takes the role if it is free
//     and drains inline; appenders that find it taken leave their frames
//     for the holder, which loops until the buffer is empty. No
//     background thread is started.
//   * it does (wal_fsync=true, or a simulated latency): the group-commit
//     flusher thread drains. Appenders wake it only when it is idle.
//
// Threading contract:
//   * one thread holds the writer role, hence drives the WalWriter, at a
//     time; the role changes hands under mu_;
//   * a failed write or fsync is sticky: the WalWriter never retries it
//     on the same descriptor, and every later drain and wait reports it;
//   * the I/O-error callback runs under mu_, in the critical section that
//     records the failure, so it has returned before any WaitFlushed or
//     flush subscription can report kIOError — also when the write failed
//     on a committing thread;
//   * Append never waits on a sync: when drains block, only the flusher
//     runs them, with mu_ released.
//
// Records carry per-key redo (table, key, value/tombstone) rather than an
// opaque blob, so replay can rebuild version chains with the original
// commit timestamps.

#ifndef SSIDB_TXN_LOG_MANAGER_H_
#define SSIDB_TXN_LOG_MANAGER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/common/options.h"
#include "src/common/status.h"
#include "src/obs/metrics.h"
#include "src/storage/version.h"

namespace ssidb {

namespace recovery {
class WalWriter;
struct WalBatch;
struct WalSegmentMeta;
}  // namespace recovery

using Lsn = uint64_t;

/// One key's redo in a commit record: enough to reinstall the committed
/// version at replay (table id, key, value or tombstone).
struct RedoEntry {
  uint32_t table = 0;  // TableId; plain uint32_t to avoid a storage include.
  std::string key;
  std::string value;
  bool tombstone = false;
};

enum class LogRecordType : uint8_t {
  /// A transaction commit: redo holds the write set.
  kCommit = 0,
  /// A table creation: redo holds one entry whose `table` is the assigned
  /// id and whose `key` is the table name. Replayed idempotently so the
  /// id→table mapping of commit records stays valid across restarts.
  kTableCreate = 1,
};

/// One log record. On-disk frame (what EncodeTo appends):
///
///   u32 crc      CRC32C of `body`
///   u32 len      length of `body` in bytes
///   body:
///     u8  type
///     u64 txn_id
///     u64 commit_ts
///     u32 redo_count
///     redo_count x { u32 table, len-prefixed key, u8 tombstone,
///                    len-prefixed value }
///
/// Decode distinguishes bytes *missing* (kTruncated — the shape a crash
/// leaves at the WAL tail) from bytes *damaged* (kCorruption — CRC or
/// structural mismatch); the recovery tail-scan relies on the distinction.
struct LogRecord {
  LogRecordType type = LogRecordType::kCommit;
  TxnId txn_id = 0;
  Timestamp commit_ts = 0;
  std::vector<RedoEntry> redo;

  /// Append the full frame (header + body) to `out`: the body is encoded
  /// once, behind a reserved header that is then patched in place.
  void EncodeTo(std::string* out) const;

  /// The full frame as a string of its own.
  std::string Encode() const;

  /// Parse the frame starting at *offset, advancing *offset past it on
  /// success. kTruncated if `in` ends mid-frame (*offset unchanged);
  /// kCorruption on CRC mismatch or malformed body.
  static Status DecodeFrom(Slice in, size_t* offset, LogRecord* out);

  /// Whole-slice convenience: the frame must consume `in` exactly.
  static Status Decode(Slice in, LogRecord* out);
};

class LogManager {
 public:
  /// `env` (nullptr = real filesystem) carries all WAL file I/O in durable
  /// mode; ignored otherwise.
  explicit LogManager(const LogOptions& options, io::Env* env = nullptr);
  ~LogManager();

  /// Drain what is still buffered, stop and join the flusher (if one
  /// runs), then fire every remaining flush subscription with the sticky
  /// I/O status. Idempotent; the destructor calls it. TxnManager's
  /// destructor quiesces the log first so no flusher-thread callback
  /// (flush subscription -> FinalizeAcked -> ring drive) can run
  /// concurrently with its teardown — the flusher outlives the TxnManager
  /// in every owner (DB members, test fixtures) because the log must be
  /// constructed first.
  void Quiesce();

  LogManager(const LogManager&) = delete;
  LogManager& operator=(const LogManager&) = delete;

  /// Append a record; returns its LSN. Never waits on a sync. In the
  /// in-memory "no flush" regime (not durable, flush_on_commit unset, no
  /// retain) this is entirely lock-free: two fetch-adds, no encode, no
  /// mutex — the commit pipeline pays nothing for the log it discards.
  /// Otherwise the record is encoded into the log buffer under mu_, and
  /// when drains do not block and the writer role is free, this thread
  /// drains the buffer before returning — running whatever flush
  /// subscriptions that covers (see OnFlushed).
  ///
  /// `drain` false leaves the buffer for a later Drain() (or append): for
  /// callers inside a critical section that flush callbacks must not run
  /// under. The record still has its LSN; it is written by the next drain.
  Lsn Append(const LogRecord& record, bool drain = true);

  /// Hand the buffer to a writer if none holds the role: drain it on this
  /// thread when drains do not block, otherwise wake the flusher. The
  /// follow-up to Append(record, /*drain=*/false).
  void Drain();

  /// Block until a drain covering `lsn` completed and report whether it
  /// actually reached the disk. No-op (OK) unless flush_on_commit is set.
  /// kIOError is sticky: once a WAL write or fsync fails, every subsequent
  /// wait reports it — the in-memory commit stands, but it is not durable.
  Status WaitFlushed(Lsn lsn);

  /// Flush-subscription callback: receives the sticky I/O status as of the
  /// covering drain (WaitFlushed's return value, without the block).
  using FlushCallback = std::function<void(Status)>;

  /// Asynchronous WaitFlushed: run `cb(status)` exactly once, as soon as a
  /// drain covering `lsn` has completed. Mirrors WaitFlushed's contract:
  /// fires immediately (inline, on the calling thread) when commits do not
  /// wait on flushes (!flush_on_commit), when the covering drain already
  /// happened, or during shutdown. Otherwise the writer-role holder that
  /// runs the covering drain fires it — the flusher, or a committing
  /// thread inside Append — with mu_ released, in LSN order, before it
  /// gives up the role. The callback may take engine locks and block
  /// briefly, but every subscriber behind it waits for it, so keep it
  /// short; it must not wait for a flush itself.
  void OnFlushed(Lsn lsn, FlushCallback cb);

  /// Callback fired exactly once, at the *first* WAL write/fsync failure
  /// (the io_status_ OK -> failed transition), on the thread whose drain
  /// failed and under mu_: it must be brief and must not call back into
  /// the LogManager. DB uses it to enter read-only mode. If the log is
  /// already poisoned when the callback is registered, it fires inline on
  /// the registering thread — the owner never misses the transition.
  using IOErrorCallback = std::function<void(const Status&)>;
  void SetIOErrorCallback(IOErrorCallback cb);

  /// Sticky WAL I/O status: OK until the first write/fsync failure, that
  /// failure forever after (the WAL never heals — see WalWriter's policy).
  Status io_status() const {
    std::lock_guard<std::mutex> guard(mu_);
    return io_status_;
  }

  /// Drains that failed to reach the disk (io.errors.wal).
  uint64_t io_errors() const {
    return io_errors_.load(std::memory_order_relaxed);
  }

  /// Retain encoded records in memory for test inspection. Set before any
  /// concurrent appends (flips Append off its lock-free fast path).
  void set_retain(bool retain) {
    retain_.store(retain, std::memory_order_release);
  }
  std::vector<std::string> RetainedRecords() const;

  uint64_t appended_records() const {
    return appended_records_.load(std::memory_order_relaxed);
  }
  /// Drains run — one write() (and, with wal_fsync, one fsync) each when
  /// durable. log.records / log.flush_batches over a window is the mean
  /// number of frames one drain carried.
  uint64_t flush_batches() const {
    return flush_batches_.load(std::memory_order_relaxed);
  }
  /// Bytes written to WAL segment files (0 in simulated mode).
  uint64_t wal_bytes_written() const;

  /// Per-segment metadata registry (empty map in simulated mode): the
  /// input to metadata-driven WAL GC. See recovery::WalSegmentMeta.
  std::map<uint64_t, recovery::WalSegmentMeta> WalSegmentMetadata() const;
  /// Install metadata recovery reconstructed for pre-crash segments.
  void SeedWalSegmentMeta(const std::vector<recovery::WalSegmentMeta>& metas);
  /// Drop a GC'd segment's registry entry.
  void ForgetWalSegment(uint64_t seq);

  bool durable() const { return !options_.wal_dir.empty(); }

  /// Register the drain latency histogram (the write+fsync — or simulated
  /// sleep — of one drain). Always-on timing: each sample covers a whole
  /// drain, so the clock reads are small next to the write they measure.
  void RegisterMetrics(obs::MetricsRegistry* registry);

 private:
  /// Take the writer role if it is free and the buffer holds frames. When
  /// drains do not block, run the drain here; otherwise return true: the
  /// caller must notify work_cv_ (after releasing mu_) to wake the flusher.
  bool StartDrainLocked(std::unique_lock<std::mutex>& guard);
  /// The drain routine. Called with mu_ held by the writer-role holder;
  /// loops until the buffer is empty, releasing mu_ around the I/O and
  /// the callbacks, and returns with mu_ held and the role given up.
  void DrainLocked(std::unique_lock<std::mutex>& guard);
  void FlusherLoop();

  const LogOptions options_;
  io::Env* const env_;
  /// Whether a drain waits on a sync (wal_fsync, or a simulated latency):
  /// then the flusher thread runs every drain, else appenders do.
  const bool drain_blocks_;
  /// Non-null in durable mode; driven only by the writer-role holder.
  std::unique_ptr<recovery::WalWriter> wal_;

  mutable std::mutex mu_;
  /// Wakes the idle flusher (blocking regime only).
  std::condition_variable work_cv_;
  std::condition_variable flushed_cv_;
  /// Atomic so the no-flush fast path can allocate LSNs without mu_; the
  /// buffered path allocates under mu_, so a drain reads its coverage
  /// exactly.
  std::atomic<Lsn> next_lsn_{1};
  Lsn flushed_lsn_ = 0;  // Guarded by mu_.
  /// Frames appended and not yet taken by a drain (guarded by mu_).
  std::unique_ptr<recovery::WalBatch> pending_;
  /// The frames the current drain writes (writer-role holder only);
  /// swapped with pending_ so both buffers keep their capacity.
  std::unique_ptr<recovery::WalBatch> draining_;
  /// Someone holds the writer role (guarded by mu_). Whenever pending_
  /// holds frames and this is false, the next Append or Drain takes it.
  bool writing_ = false;
  /// Shutdown requested (guarded by mu_).
  bool stop_ = false;
  std::atomic<bool> retain_{false};
  std::vector<std::string> retained_;
  /// First WAL write/fsync failure, sticky (guarded by mu_).
  Status io_status_;
  /// Fired on io_status_'s OK -> failed transition (guarded by mu_; called
  /// under it).
  IOErrorCallback io_error_cb_;
  /// Failed drains.
  std::atomic<uint64_t> io_errors_{0};
  /// Flush subscriptions not yet covered by flushed_lsn_, ordered by LSN
  /// (guarded by mu_). Threads subscribe in coverage order, which is not
  /// LSN order, so this is a map: a drain takes the matured prefix.
  std::multimap<Lsn, FlushCallback> flush_subs_;
  /// The matured subscriptions one drain fires (writer-role holder only).
  std::vector<FlushCallback> matured_;

  std::atomic<uint64_t> appended_records_{0};
  std::atomic<uint64_t> flush_batches_{0};
  /// Wall time of one drain (writer-role holder only records).
  obs::Histogram flush_batch_ns_;

  std::thread flusher_;
};

}  // namespace ssidb

#endif  // SSIDB_TXN_LOG_MANAGER_H_
