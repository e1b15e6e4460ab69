// Crash recovery: rebuild committed state from the checkpoint manifest, the
// storage tier's runs and the WAL segments past the manifest's watermark.
//
// Protocol (DB::Open runs this before the engine accepts transactions):
//   1. Read the manifest (manifest.h), if any, and recreate its tables in
//      id order. A directory with base/delta checkpoint images of the
//      older format and no manifest is refused: checkpoint GC may already
//      have deleted WAL segments only those images covered.
//   2. Scan WAL segments in sequence order and replay records:
//        - table creations are applied idempotently (skipped when the name
//          already exists — e.g. it was in the manifest);
//        - commit records at or below the manifest watermark are skipped
//          (their effects are in the runs); newer ones reinstall each
//          redo key's version, again idempotently, so replaying the same
//          log twice — or a log overlapping the runs — is harmless.
//   3. A damaged record at the tail of the *newest* segment is the
//      expected torn write of a crash: replay stops cleanly there.
//      Damage in an older segment cannot come from a torn append (older
//      segments were sealed with an fsync) and fails recovery with
//      kCorruption.
//   4. Open every run (StorageTier::RecoverRuns): with a buffer pool the
//      covered keys are marked evicted, with a zero pool their values are
//      installed. Every table's run generation cut starts at the
//      manifest's watermark (0 without one). A run that fails validation
//      fails recovery with kCorruption naming the file — runs are renamed
//      into place only when complete, so damage there is never a torn
//      write.
// Runs come after the WAL because a run may belong to a table created
// after the manifest, whose create record only the WAL holds. The order
// does not change the outcome: every install keeps the newest commit per
// key, resident or evicted (VersionChain::InstallRecovered and
// SetEvictedRecovered), so a spill run newer than the watermark wins over
// an older replayed version and vice versa.
//
// Replay leaves the directory untouched with one exception: a torn tail
// is *truncated* to its clean prefix, so the segment is sealed-clean
// before the new session's writer opens a fresh segment after it (an
// unrepaired tear would sit mid-log and read as corruption one session
// later). The truncation is idempotent — a crash *during* recovery just
// runs recovery again.
//
// After recovery the caller must advance the engine's clock past
// max_commit_ts so new transactions get snapshots that include every
// recovered version (TxnManager::AdvanceClockTo).

#ifndef SSIDB_RECOVERY_RECOVERY_H_
#define SSIDB_RECOVERY_RECOVERY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/io/env.h"
#include "src/recovery/wal.h"
#include "src/storage/catalog.h"
#include "src/storage/storage_tier.h"

namespace ssidb::recovery {

struct RecoveryStats {
  /// A manifest was found: its runs plus the WAL past it were recovered.
  bool used_checkpoint = false;
  /// The manifest's watermark: WAL replay resumes after it.
  Timestamp checkpoint_ts = 0;
  uint64_t segments_scanned = 0;
  uint64_t commit_records_applied = 0;
  uint64_t redo_entries_applied = 0;
  /// Replay ended at a damaged record in the newest segment (the normal
  /// post-crash shape when the flusher died mid-write).
  bool torn_tail = false;
  /// Newest commit timestamp recovered from the manifest, the WAL or any
  /// run; 0 for a fresh directory.
  Timestamp max_commit_ts = 0;
  /// Per-segment metadata rebuilt from the one obligatory replay scan —
  /// seeded into the engine's WAL writer so checkpoint GC can decide
  /// segment coverage without ever re-reading a segment.
  std::vector<WalSegmentMeta> wal_segments;
};

/// Rebuild `catalog` (which must be empty) from the WAL directory `dir`
/// and `tier`'s runs. A missing or empty directory is a fresh database:
/// OK with zeroed stats. `env` (nullptr = real filesystem) carries segment
/// reads and the torn-tail truncation.
Status Recover(const std::string& dir, Catalog* catalog, StorageTier* tier,
               RecoveryStats* stats, io::Env* env = nullptr);

}  // namespace ssidb::recovery

#endif  // SSIDB_RECOVERY_RECOVERY_H_
