#include "src/benchlib/stats.h"

#include <cstdio>

#include "src/obs/exporter.h"

namespace ssidb::bench {

void RunResult::Count(const Status& status) {
  if (status.ok()) {
    ++commits;
    return;
  }
  switch (status.code()) {
    case Status::Code::kDeadlock:
      ++deadlocks;
      break;
    case Status::Code::kUpdateConflict:
      ++update_conflicts;
      break;
    case Status::Code::kUnsafe:
      ++unsafe;
      break;
    case Status::Code::kTimedOut:
      ++timeouts;
      break;
    case Status::Code::kNotFound:
      ++app_rollbacks;
      break;
    default:
      ++errors;
      break;
  }
}

std::string ResultHeader() {
  return "figure,series,mpl,commits_per_sec,deadlocks_per_commit,"
         "conflicts_per_commit,unsafe_per_commit,total_commits,"
         "app_rollbacks,errors";
}

std::string ResultRow(const std::string& figure, const std::string& series,
                      int mpl, const RunResult& r) {
  char buf[256];
  const double c = r.commits > 0 ? static_cast<double>(r.commits) : 1.0;
  snprintf(buf, sizeof(buf), "%s,%s,%d,%.1f,%.4f,%.4f,%.4f,%llu,%llu,%llu",
           figure.c_str(), series.c_str(), mpl, r.Throughput(),
           r.deadlocks / c, r.update_conflicts / c, r.unsafe / c,
           static_cast<unsigned long long>(r.commits),
           static_cast<unsigned long long>(r.app_rollbacks),
           static_cast<unsigned long long>(r.errors));
  return buf;
}

std::string ResultJsonLine(const std::string& figure,
                           const std::string& series, int mpl,
                           const RunResult& r) {
  char buf[512];
  snprintf(buf, sizeof(buf),
           "{\"figure\":\"%s\",\"series\":\"%s\",\"mpl\":%d,"
           "\"commits_per_sec\":%.1f,\"seconds\":%.3f,\"commits\":%llu,"
           "\"deadlocks\":%llu,\"update_conflicts\":%llu,\"unsafe\":%llu,"
           "\"timeouts\":%llu,\"app_rollbacks\":%llu,\"errors\":%llu,"
           "\"metrics\":",
           figure.c_str(), series.c_str(), mpl, r.Throughput(), r.seconds,
           static_cast<unsigned long long>(r.commits),
           static_cast<unsigned long long>(r.deadlocks),
           static_cast<unsigned long long>(r.update_conflicts),
           static_cast<unsigned long long>(r.unsafe),
           static_cast<unsigned long long>(r.timeouts),
           static_cast<unsigned long long>(r.app_rollbacks),
           static_cast<unsigned long long>(r.errors));
  return buf + obs::ToJson(r.window) + "}";
}

}  // namespace ssidb::bench
