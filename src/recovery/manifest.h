// The checkpoint manifest: the one small file that says what a checkpoint
// covered. The checkpoint's bulk data lives in storage-tier runs
// (run_file.h); the manifest only records the watermark the runs were
// swept at and the table-id map, so recovery can recreate the tables
// before it opens the runs and replays the WAL past the watermark.
//
// The manifest does not list runs: their sequence numbers already order
// them, and a list would force every spill and compaction to rewrite it.
//
// File "<wal_dir>/MANIFEST" (all integers big-endian):
//   magic8 "SSIDBMF1"
//   u64 watermark
//   u32 table_count
//   table_count x { lp name }   names in id order (ids are dense from 0)
//   u32 crc                     CRC32C of every byte above
//   magic8 "SSIDBEND"
//
// Write protocol: serialize into MANIFEST.tmp, fsync, rename over
// MANIFEST, fsync the directory. A crash mid-write leaves a .tmp, which
// recovery ignores: the previous manifest plus the WAL (which checkpoint GC
// only trims up to the previous manifest's watermark) still recover. So the
// MANIFEST file itself is only ever a complete image, and a damaged one is
// real corruption, not a torn write.

#ifndef SSIDB_RECOVERY_MANIFEST_H_
#define SSIDB_RECOVERY_MANIFEST_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/io/env.h"
#include "src/storage/version.h"

namespace ssidb::recovery {

inline constexpr char kManifestFileName[] = "MANIFEST";

struct Manifest {
  /// Every commit at or below it is durable in the runs.
  Timestamp watermark = 0;
  /// tables[id] is the name of table `id`.
  std::vector<std::string> tables;
};

/// Durably replace `dir`'s manifest. On failure the .tmp is removed (best
/// effort) and the previous manifest stays in place. `bytes` (if non-null)
/// receives the encoded size.
Status WriteManifest(const std::string& dir, const Manifest& manifest,
                     bool fsync, io::Env* env, uint64_t* bytes = nullptr);

/// Read `dir`'s manifest. *found=false with OK status when there is none;
/// kCorruption naming the file when it fails validation.
Status ReadManifest(const std::string& dir, Manifest* manifest, bool* found,
                    io::Env* env = nullptr);

}  // namespace ssidb::recovery

#endif  // SSIDB_RECOVERY_MANIFEST_H_
