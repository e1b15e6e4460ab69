// Filesystem helpers shared by the WAL, manifest and run-file writers, so
// the durable artifact types keep identical error handling, fsync
// discipline and file naming. All I/O routes through an io::Env (nullptr =
// the real filesystem) so fault-injection tests can script failures.

#ifndef SSIDB_RECOVERY_FS_UTIL_H_
#define SSIDB_RECOVERY_FS_UTIL_H_

#include <cstdint>
#include <string>

#include "src/common/status.h"
#include "src/io/env.h"

namespace ssidb::recovery {

/// kIOError carrying "<op> <path>: <strerror(errno)>".
Status ErrnoStatus(const char* op, const std::string& path);

/// fsync a directory fd so a created/renamed name is durable.
Status SyncDir(const std::string& dir, io::Env* env = nullptr);

/// Read a whole file into *out. kIOError on open/read failure.
Status ReadFileToString(const std::string& path, std::string* out,
                        io::Env* env = nullptr);

/// Write `contents` to `path` (create/truncate), optionally fsync.
Status WriteFileDurably(const std::string& path, const std::string& contents,
                        bool do_fsync, io::Env* env = nullptr);

/// "<prefix><num, 20 digits><suffix>" — the durable-artifact name shape
/// ("wal-….log").
std::string NumberedFileName(const char* prefix, uint64_t num,
                             const char* suffix);

/// Parse a NumberedFileName back; false if `name` has a different shape.
bool ParseNumberedFileName(const std::string& name, const char* prefix,
                           const char* suffix, uint64_t* num);

}  // namespace ssidb::recovery

#endif  // SSIDB_RECOVERY_FS_UTIL_H_
