// Shared helpers for the DB-level test suites.

#ifndef SSIDB_TESTS_TEST_UTIL_H_
#define SSIDB_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>
#include <stdlib.h>

#include <filesystem>
#include <optional>
#include <string>
#include <string_view>

#include "src/common/abort_reason.h"
#include "src/db/db.h"
#include "src/obs/metrics.h"

namespace ssidb {

/// A fresh scratch directory, removed on destruction. Used by the disk-tier
/// suites for run directories and WALs.
struct ScratchDir {
  ScratchDir() {
    char tmpl[] = "/tmp/ssidb_test_XXXXXX";
    path = mkdtemp(tmpl);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::string path;
};

/// Advance the stable watermark by committing a throwaway write. Needed
/// wherever a test wants a read-only commit to genuinely overlap an
/// earlier-begun transaction: a read-only commit's timestamp is the
/// watermark, so retention/edge semantics require the watermark to have
/// moved past the overlapping transaction's snapshot first.
inline void BumpWatermark(DB* db, TableId table) {
  auto bump = db->Begin({IsolationLevel::kSnapshot});
  ASSERT_TRUE(bump->Put(table, "bump", "1").ok());
  ASSERT_TRUE(bump->Commit().ok());
}

/// Counter or gauge `name` from `snapshot`. A name the registry does not
/// know fails the calling test (and reads 0), so a typo cannot pass for a
/// zero count.
inline uint64_t Metric(const obs::MetricsSnapshot& snapshot,
                       std::string_view name) {
  const std::optional<uint64_t> v = snapshot.Find(name);
  if (!v.has_value()) ADD_FAILURE() << "metric not registered: " << name;
  return v.value_or(0);
}

/// The same, from a fresh Collect() of `db`'s registry.
inline uint64_t Metric(DB* db, std::string_view name) {
  return Metric(db->metrics()->Collect(), name);
}

/// Registry name of the abort-taxonomy counter for `reason`.
inline std::string AbortMetric(AbortReason reason) {
  return std::string("abort.") + AbortReasonName(reason);
}

}  // namespace ssidb

#endif  // SSIDB_TESTS_TEST_UTIL_H_
