// AbortReason: the per-abort taxonomy behind the abort.<reason> counters.
//
// The paper evaluates SSI through aggregate abort *counts*; diagnosing a
// production engine needs the *cause*: which side of the dangerous
// structure a victim sat on (§3.4 victim selection), whether
// first-committer-wins fired at row or page granularity (§4.2), or
// whether the abort had nothing to do with SSI at all (S2PL deadlock,
// lock timeout, storage-tier I/O). PostgreSQL's SSI implementation grew
// the same per-cause accounting for operators (Ports & Grittner §6).
//
// The cause is recorded at the decision site — the conflict tracker under
// the pairwise latches, the executor at the FCW/deadlock/timeout checks —
// with first-writer-wins semantics (TxnState::SetAbortCause): the most
// specific classification is the one made where the verdict was reached,
// and later generic mappings (e.g. the executor's status-code fallback)
// cannot overwrite it. TxnManager::Rollback counts each abort
// exactly once, at the single place every abort path funnels through.

#ifndef SSIDB_COMMON_ABORT_REASON_H_
#define SSIDB_COMMON_ABORT_REASON_H_

#include <cstddef>
#include <cstdint>

namespace ssidb {

enum class AbortReason : uint8_t {
  /// Not aborted (or cause never classified; counted as kExplicit).
  kNone = 0,
  /// SSI: this transaction was the pivot of a dangerous structure — it
  /// carried both an in- and an out-rw-antidependency (§3.2 / Fig 3.10).
  kSsiPivot = 1,
  /// SSI: this transaction was the T_in side (the reader of an edge into
  /// a pivot that could no longer abort itself).
  kSsiInSide = 2,
  /// SSI: this transaction was the T_out side (the writer of an edge out
  /// of such a pivot).
  kSsiOutSide = 3,
  /// First-committer-wins at row granularity: a newer committed version
  /// of a written key postdates the snapshot (§2.2).
  kFcwRow = 4,
  /// First-committer-wins at page granularity (§4.2, Berkeley DB mode).
  kFcwPage = 5,
  /// S2PL wait-for cycle broken by the deadlock detector.
  kDeadlock = 6,
  /// Lock wait exceeded the configured timeout.
  kLockTimeout = 7,
  /// Storage-tier I/O failure (version fault retry limit, pool error).
  kTierIo = 8,
  /// Application called Abort(), or the cause was never classified.
  kExplicit = 9,
};

inline constexpr size_t kAbortReasonCount = 10;

inline const char* AbortReasonName(AbortReason r) {
  switch (r) {
    case AbortReason::kNone: return "none";
    case AbortReason::kSsiPivot: return "ssi_pivot";
    case AbortReason::kSsiInSide: return "ssi_in_side";
    case AbortReason::kSsiOutSide: return "ssi_out_side";
    case AbortReason::kFcwRow: return "fcw_row";
    case AbortReason::kFcwPage: return "fcw_page";
    case AbortReason::kDeadlock: return "deadlock";
    case AbortReason::kLockTimeout: return "lock_timeout";
    case AbortReason::kTierIo: return "tier_io";
    case AbortReason::kExplicit: return "explicit";
  }
  return "unknown";
}

}  // namespace ssidb

#endif  // SSIDB_COMMON_ABORT_REASON_H_
