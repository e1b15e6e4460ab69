// BufferPool: the fixed frame array between run files and the version
// store — the piece that lets tables exceed RAM.
//
// Discipline follows PostgreSQL's bufmgr: a page is addressed by a
// (file, page) tag, looked up in a hash table, and pinned before use; an
// unpinned frame is fair game for the clock (second-chance) victim scan,
// which clears a reference bit on the first pass and reuses the frame on
// the second. Dirty frames (pages of a run being written) are written back
// to their file before the frame is reused.
//
// Writeback failure policy: a dirty victim is written back *in place* —
// still mapped under its own tag, pinned, state kValid — and only a
// successful write clears the dirty bit; the frame is retagged on a later
// claim attempt, once clean. A failed writeback (bounded retry with
// backoff) therefore never loses the page: the frame stays dirty, mapped
// and readable, and the pin/claim that needed the frame fails with
// kIOError instead. Every durable byte moves through an io::Env, so tests
// can script the failures.
//
// Concurrency:
//   * map_mu_ guards the tag map, the free list, the clock hand and each
//     frame's tag/state transitions. It is never held across I/O: a miss
//     claims the victim frame (pinning it and publishing the new tag in
//     state kLoading) under the mutex, then performs the writeback + read
//     outside it.
//   * Frame::io_mu + io_cv serialize the load of one frame: concurrent
//     requesters of the same (file, page) find the kLoading frame in the
//     map, pin it, and wait on io_cv until the loader publishes kValid (or
//     kFailed).
//   * pin_count is atomic so Unpin is lock-free; a pinned frame is never
//     chosen as a victim (checked under map_mu_, and Pin only raises the
//     count under map_mu_, so the victim check cannot race a new pin).
//
// Lock order: a frame's io_mu is acquired before map_mu_ when both are
// needed (load publication); map_mu_ is otherwise a leaf and is never held
// across I/O. No pool mutex ever nests inside a chain latch or a table
// shard latch — the fault/spill paths do all pool I/O outside them (see
// table.cc).
//
// The pool is content-agnostic: frames hold raw page bytes; run_file.cc
// owns the page format and its CRC.

#ifndef SSIDB_STORAGE_BUFFER_POOL_H_
#define SSIDB_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/io/env.h"
#include "src/obs/metrics.h"

namespace ssidb {

namespace obs {
class TraceRing;  // src/obs/trace_ring.h
}  // namespace obs

/// A registered backing file: the pool reads (pread) and writes back
/// (pwrite) through the owned descriptor. Shared ownership keeps the
/// descriptor alive while any in-flight I/O or mapped frame still needs it,
/// even after the file is purged from the pool (compaction deletes a run
/// while a faulter is mid-read; POSIX keeps the unlinked inode readable).
class PoolFile {
 public:
  /// `env` must be the Env the descriptor was opened through (nullptr =
  /// the real filesystem), so the close balances the open.
  PoolFile(uint64_t id, int fd, io::Env* env = nullptr)
      : id_(id), fd_(fd), env_(io::ResolveEnv(env)) {}
  ~PoolFile();

  PoolFile(const PoolFile&) = delete;
  PoolFile& operator=(const PoolFile&) = delete;

  uint64_t id() const { return id_; }
  int fd() const { return fd_; }

 private:
  const uint64_t id_;
  const int fd_;
  io::Env* const env_;
};

class BufferPool {
 public:
  /// `pool_bytes / page_bytes` frames, floored at 4 so a tiny test pool
  /// still admits concurrent pins. `env` (nullptr = real filesystem)
  /// carries every pread/pwrite.
  BufferPool(uint64_t pool_bytes, uint32_t page_bytes,
             io::Env* env = nullptr);
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  uint32_t page_bytes() const { return page_bytes_; }
  size_t frame_count() const { return frames_.size(); }

  /// Register a backing file under a pool-wide unique id. The pool shares
  /// ownership; Purge (or pool destruction) drops the pool's reference.
  void RegisterFile(const std::shared_ptr<PoolFile>& file);

  /// Drop every frame of `file_id` (pinned frames are skipped — they stay
  /// until evicted, harmless because a purged file id is never looked up
  /// again) and forget the file registration.
  void Purge(uint64_t file_id);

  /// A pinned page. data points at the frame's page_bytes-sized buffer and
  /// is valid until Unpin.
  struct Pin {
    const uint8_t* data = nullptr;
    uint32_t frame = 0;
  };

  /// Pin (file, page): hash-table hit pins in place; a miss claims a clock
  /// victim, writes it back if dirty, and reads the page from the file.
  /// Counts hits/misses. Fails with kIOError when the read fails or every
  /// frame stays pinned past a bounded retry.
  Status PinPage(uint64_t file_id, uint32_t page_no, Pin* out);

  /// Pin a fresh all-zero frame for (file, page) and mark it dirty — the
  /// run writer's path. The caller fills the buffer through `data` before
  /// Unpin. The page must not already be mapped.
  struct WritePin {
    uint8_t* data = nullptr;
    uint32_t frame = 0;
  };
  Status PinForWrite(uint64_t file_id, uint32_t page_no, WritePin* out);

  void Unpin(uint32_t frame);

  /// Write back every dirty frame of `file_id` (pwrite; the caller fsyncs
  /// the descriptor). Pages stay valid in the pool, so freshly written
  /// runs serve their first faults without touching disk.
  Status FlushFile(uint64_t file_id);

  // Counters (relaxed; registry contract).
  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }
  uint64_t writebacks() const {
    return writebacks_.load(std::memory_order_relaxed);
  }
  /// Writeback attempts retried after a failure (io.retries).
  uint64_t io_retries() const {
    return io_retries_.load(std::memory_order_relaxed);
  }
  /// Writebacks that failed even after the bounded retries (io.errors.pool).
  uint64_t io_errors() const {
    return io_errors_.load(std::memory_order_relaxed);
  }

  /// Register pool I/O latency histograms (pread of a faulted page,
  /// pwrite of a writeback). Always-on timing: every sample is a real
  /// disk I/O, so the clock reads are noise. `trace` (optional) receives a
  /// kIOError event per exhausted writeback.
  void RegisterMetrics(obs::MetricsRegistry* registry,
                       obs::TraceRing* trace = nullptr);

 private:
  enum class FrameState : uint8_t { kFree, kLoading, kValid, kFailed };

  struct Frame {
    /// Tag + state + dirty are guarded by map_mu_; the loader additionally
    /// publishes state under io_mu for waiter wakeup.
    uint64_t file_id = 0;
    uint32_t page_no = 0;
    FrameState state = FrameState::kFree;
    bool dirty = false;
    /// Clock reference bit: set on every pin, cleared by the victim scan's
    /// first pass (second chance).
    bool referenced = false;
    /// Keeps the backing descriptor alive for writeback after a purge.
    std::shared_ptr<PoolFile> file;
    std::atomic<uint32_t> pins{0};
    std::mutex io_mu;
    std::condition_variable io_cv;
  };

  struct TagKey {
    uint64_t file_id;
    uint32_t page_no;
    bool operator==(const TagKey& o) const {
      return file_id == o.file_id && page_no == o.page_no;
    }
  };
  struct TagHash {
    size_t operator()(const TagKey& k) const {
      // 64-bit mix of (file, page); files are pool-unique so collisions
      // only cost probes.
      uint64_t h = k.file_id * 0x9E3779B97F4A7C15ULL + k.page_no;
      h ^= h >> 29;
      h *= 0xBF58476D1CE4E5B9ULL;
      h ^= h >> 32;
      return static_cast<size_t>(h);
    }
  };

  uint8_t* frame_data(uint32_t idx) {
    return arena_.get() + static_cast<size_t>(idx) * page_bytes_;
  }

  /// Claim an unpinned frame: free list first, then the clock scan.
  /// Returns false when every frame is pinned. Does NOT unmap the chosen
  /// occupant — ClaimFrameLocked decides that (a dirty occupant stays
  /// mapped for in-place writeback). Caller holds map_mu_.
  bool ClaimVictimLocked(uint32_t* idx);

  /// One dirty frame to write back in place: still mapped under its own
  /// (file_id, page_no) tag, pinned by the filler of this struct.
  struct Writeback {
    std::shared_ptr<PoolFile> file;
    uint64_t file_id = 0;
    uint32_t page_no = 0;
    uint32_t frame = 0;
    bool needed = false;
  };

  /// Claim + retag a frame for (file, page) in state kLoading with one pin
  /// held. When the chosen victim is dirty, nothing is claimed: the victim
  /// is pinned in place and returned through `wb` — the caller must
  /// WritebackFrame + Unpin it outside map_mu_, then try again (the frame
  /// is only retagged once clean). Caller holds map_mu_.
  Status ClaimFrameLocked(uint64_t file_id, uint32_t page_no,
                          const std::shared_ptr<PoolFile>& file, uint32_t* idx,
                          Writeback* wb);

  /// Write one dirty frame back to its file (bounded retry with backoff),
  /// clearing the dirty bit only on success. The caller holds a pin on
  /// wb.frame, so the tag cannot change underneath. On exhausted retries
  /// the frame stays dirty and mapped — the page is never lost.
  Status WritebackFrame(const Writeback& wb);

  const uint32_t page_bytes_;
  io::Env* const env_;
  const std::unique_ptr<uint8_t[]> arena_;
  std::vector<std::unique_ptr<Frame>> frames_;

  std::mutex map_mu_;
  std::unordered_map<TagKey, uint32_t, TagHash> map_;
  std::vector<uint32_t> free_;
  std::unordered_map<uint64_t, std::shared_ptr<PoolFile>> files_;
  uint32_t clock_hand_ = 0;

  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> writebacks_{0};
  std::atomic<uint64_t> io_retries_{0};
  std::atomic<uint64_t> io_errors_{0};
  std::atomic<obs::TraceRing*> trace_{nullptr};
  obs::Histogram read_io_ns_;
  obs::Histogram write_io_ns_;
};

}  // namespace ssidb

#endif  // SSIDB_STORAGE_BUFFER_POOL_H_
