// Env: the pluggable I/O seam under every durable artifact — WAL segments,
// the checkpoint manifest, run files and buffer-pool page I/O all route
// their filesystem calls through an Env so tests can make the disk lie.
//
// Two implementations:
//   * Env::Default() — thin passthrough to the POSIX calls the engine used
//     to issue directly. The fd-level methods keep POSIX signatures
//     (return -1 and set errno on failure) so the existing ErrnoStatus
//     error strings are produced unchanged; directory/whole-file
//     manipulation is expressed at the Status level.
//   * FaultInjectingEnv — wraps another Env and injects a scripted or
//     seeded schedule of failures: EIO, ENOSPC, short writes, torn writes
//     (a partial write followed by EIO — the bytes that did land simulate
//     the tear), fsync failures, and a "device lost" mode where every
//     write-class op fails after the N-th (crash-after-N-ops harnesses
//     combine it with a process-level reopen).
//
// Threading: Env::Default() is stateless and safe from any thread.
// FaultInjectingEnv guards its schedule with a mutex; injection decisions
// are serialized, the delegated I/O is not.
//
// Ownership: the engine never owns an Env. DBOptions::env (and the
// defaulted Env* parameters on the lower layers) borrow it; callers keep
// the Env alive for the life of the DB. A null Env* anywhere means
// Env::Default().

#ifndef SSIDB_IO_ENV_H_
#define SSIDB_IO_ENV_H_

#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <mutex>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"

namespace ssidb::io {

class Env {
 public:
  virtual ~Env() = default;

  /// Process-wide POSIX passthrough. Never null; stateless.
  static Env* Default();

  // ---- fd-level ops: POSIX semantics, -1 + errno on failure. ----
  virtual int Open(const char* path, int flags, int mode);
  virtual int Close(int fd);
  virtual ssize_t Read(int fd, void* buf, size_t count);
  virtual ssize_t Write(int fd, const void* buf, size_t count);
  virtual ssize_t Pread(int fd, void* buf, size_t count, off_t offset);
  virtual ssize_t Pwrite(int fd, const void* buf, size_t count, off_t offset);
  virtual int Fsync(int fd);

  // ---- path-level ops: Status-carrying (no errno contract). ----
  virtual Status Rename(const std::string& from, const std::string& to);
  virtual Status RemoveFile(const std::string& path);
  virtual Status CreateDirs(const std::string& dir);
  virtual Status ResizeFile(const std::string& path, uint64_t size);

  /// Faults injected so far (io.injected_faults). 0 for the default env.
  virtual uint64_t injected_faults() const { return 0; }
};

/// nullptr -> Env::Default(): the plumbing convention of every defaulted
/// Env* parameter below this layer.
inline Env* ResolveEnv(Env* env) { return env != nullptr ? env : Env::Default(); }

/// An Env that fails on schedule. Build a schedule with InjectFault /
/// InjectRandom / FailWritesAfter, hand the env to DBOptions::env (or any
/// lower-level Env* parameter), then ClearFaults() to "fix the disk".
class FaultInjectingEnv : public Env {
 public:
  enum class FaultKind : uint8_t {
    kReadError,   ///< Pread fails with EIO.
    kWriteError,  ///< Write/Pwrite fails with EIO (no bytes written).
    kShortWrite,  ///< Write/Pwrite writes ~half the bytes and returns the
                  ///< short count (success — exercises caller write loops).
    kTornWrite,   ///< Write/Pwrite writes ~half the bytes, then fails with
                  ///< EIO: a torn frame is now on disk.
    kFsyncError,  ///< Fsync fails with EIO.
    kNoSpace,     ///< Write/Pwrite (and O_CREAT opens) fail with ENOSPC.
  };

  explicit FaultInjectingEnv(Env* base = nullptr)
      : base_(ResolveEnv(base)) {}

  /// Scripted fault: let `skip` ops that match (kind class + path
  /// substring) through, then fail the next `count` of them. An empty
  /// `path_substr` matches every path. Faults stack; the first non-
  /// exhausted matching entry decides each op.
  void InjectFault(FaultKind kind, const std::string& path_substr,
                   uint64_t skip = 0, uint64_t count = UINT64_MAX);

  /// Seeded random schedule: each matching write-class/fsync/read op fails
  /// (EIO; ENOSPC for one in four write failures) with probability
  /// 1/denominator. Deterministic for a fixed seed and op sequence.
  void InjectRandom(uint64_t seed, uint32_t denominator,
                    const std::string& path_substr = "");

  /// Device-loss mode: after `write_ops` more write-class ops (Write,
  /// Pwrite, creating Open), every subsequent write-class op and fsync
  /// fails with EIO until ClearFaults.
  void FailWritesAfter(uint64_t write_ops);

  /// Fix the disk: drop every scheduled, random and device-loss fault.
  void ClearFaults();

  uint64_t injected_faults() const override {
    return injected_.load(std::memory_order_relaxed);
  }

  int Open(const char* path, int flags, int mode) override;
  int Close(int fd) override;
  ssize_t Read(int fd, void* buf, size_t count) override;
  ssize_t Write(int fd, const void* buf, size_t count) override;
  ssize_t Pread(int fd, void* buf, size_t count, off_t offset) override;
  ssize_t Pwrite(int fd, const void* buf, size_t count, off_t offset) override;
  int Fsync(int fd) override;
  Status Rename(const std::string& from, const std::string& to) override;
  Status RemoveFile(const std::string& path) override;
  Status CreateDirs(const std::string& dir) override;
  Status ResizeFile(const std::string& path, uint64_t size) override;

 private:
  /// Op classes a fault kind applies to.
  enum class OpClass : uint8_t { kRead, kWrite, kFsync, kCreate };

  struct Fault {
    FaultKind kind;
    std::string path_substr;
    uint64_t skip = 0;
    uint64_t count = 0;
  };

  static bool Applies(FaultKind kind, OpClass op);

  /// Consult the schedule for one op. Returns the fault to inject (via
  /// *kind) or false to pass through. Decrements skip/count state.
  bool NextFault(OpClass op, const std::string& path, FaultKind* kind);

  std::string PathOf(int fd);

  Env* const base_;
  mutable std::mutex mu_;
  std::vector<Fault> faults_;
  /// fd -> path, for path-substring filters on fd-level ops.
  std::unordered_map<int, std::string> fd_paths_;
  /// Random schedule (denominator 0 = off).
  std::mt19937_64 rng_;
  uint32_t random_denominator_ = 0;
  std::string random_substr_;
  /// Device-loss mode: write-class ops remaining before everything fails
  /// (negative-infinity semantics via the armed flag).
  bool fail_all_armed_ = false;
  uint64_t writes_until_fail_all_ = 0;
  std::atomic<uint64_t> injected_{0};
};

}  // namespace ssidb::io

#endif  // SSIDB_IO_ENV_H_
