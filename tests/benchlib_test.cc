// Tests for the benchmark library: abort classification, row formatting,
// and the MPL worker-pool driver end-to-end on a trivial workload,
// including the window-local registry delta it attaches to each result.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>

#include "src/benchlib/driver.h"
#include "src/benchlib/stats.h"
#include "src/common/encoding.h"
#include "tests/test_util.h"

namespace ssidb::bench {
namespace {

TEST(RunResultTest, CountClassifiesByStatusCode) {
  RunResult r;
  r.Count(Status::OK());
  r.Count(Status::OK());
  r.Count(Status::Deadlock());
  r.Count(Status::UpdateConflict());
  r.Count(Status::Unsafe());
  r.Count(Status::TimedOut());
  r.Count(Status::NotFound());         // App-level (New-Order rollback).
  r.Count(Status::InvalidArgument());  // An error: e.g. a corrupt row.
  r.Count(Status::IOError());          // An error: a read-only engine.
  EXPECT_EQ(r.commits, 2u);
  EXPECT_EQ(r.deadlocks, 1u);
  EXPECT_EQ(r.update_conflicts, 1u);
  EXPECT_EQ(r.unsafe, 1u);
  EXPECT_EQ(r.timeouts, 1u);
  EXPECT_EQ(r.app_rollbacks, 1u);
  EXPECT_EQ(r.errors, 2u);
  EXPECT_EQ(r.TotalAborts(), 4u);
}

TEST(RunResultTest, ThroughputAndErrorRates) {
  RunResult r;
  r.seconds = 2.0;
  r.commits = 100;
  r.unsafe = 5;
  EXPECT_DOUBLE_EQ(r.Throughput(), 50.0);
  EXPECT_DOUBLE_EQ(r.ErrorsPerCommit(), 0.05);
  RunResult empty;
  EXPECT_DOUBLE_EQ(empty.Throughput(), 0.0);
  EXPECT_DOUBLE_EQ(empty.ErrorsPerCommit(), 0.0);
}

TEST(RunResultTest, RowFormattingIsStable) {
  RunResult r;
  r.seconds = 1.0;
  r.commits = 10;
  r.unsafe = 1;
  r.app_rollbacks = 2;
  r.errors = 3;
  const std::string row = ResultRow("figX", "SSI", 4, r);
  EXPECT_EQ(row, "figX,SSI,4,10.0,0.0000,0.0000,0.1000,10,2,3");
  EXPECT_NE(ResultHeader().find("commits_per_sec"), std::string::npos);
  EXPECT_NE(ResultHeader().find(",app_rollbacks,errors"), std::string::npos);
  const std::string json = ResultJsonLine("figX", "SSI", 4, r);
  EXPECT_NE(json.find("\"app_rollbacks\":2,\"errors\":3"), std::string::npos)
      << json;
}

TEST(SeriesConfigTest, ReadOnlyIsolationOverride) {
  SeriesConfig mixed{"SSI+SIRO", IsolationLevel::kSerializableSSI,
                     IsolationLevel::kSnapshot};
  EXPECT_EQ(mixed.For(false), IsolationLevel::kSerializableSSI);
  EXPECT_EQ(mixed.For(true), IsolationLevel::kSnapshot);
  SeriesConfig plain{"SSI", IsolationLevel::kSerializableSSI, std::nullopt};
  EXPECT_EQ(plain.For(true), IsolationLevel::kSerializableSSI);
}

TEST(SeriesConfigTest, StandardSeriesCoversAllThreeModes) {
  auto series = StandardSeries();
  ASSERT_EQ(series.size(), 3u);
  EXPECT_EQ(series[0].name, "S2PL");
  EXPECT_EQ(series[1].name, "SI");
  EXPECT_EQ(series[2].name, "SSI");
}

/// A workload that counts its own invocations and sometimes "aborts".
class CountingWorkload : public Workload {
 public:
  Status RunOne(DB* db, const SeriesConfig& series, uint64_t worker,
                Random* rng) override {
    (void)series;
    (void)worker;
    auto txn = db->Begin({series.For(false)});
    Status st = txn->Put(table, EncodeU64Key(rng->Uniform(64)), "v");
    if (st.ok()) st = txn->Commit();
    if (!st.ok() && txn->active()) txn->Abort();
    calls.fetch_add(1, std::memory_order_relaxed);
    return st;
  }

  TableId table = 0;
  std::atomic<uint64_t> calls{0};
};

TEST(DriverTest, RunsWorkloadAcrossWorkersAndCounts) {
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open({}, &db).ok());
  CountingWorkload workload;
  ASSERT_TRUE(db->CreateTable("t", &workload.table).ok());
  DriverConfig config;
  config.mpl = 4;
  config.warmup_seconds = 0.01;
  config.measure_seconds = 0.05;
  // Engine activity before the window: commits and explicit rollbacks
  // that the window delta must not carry.
  constexpr uint64_t kPreWindow = 500;
  for (uint64_t i = 0; i < kPreWindow; ++i) {
    auto txn = db->Begin({IsolationLevel::kSnapshot});
    ASSERT_TRUE(txn->Put(workload.table, EncodeU64Key(i), "v").ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  for (int i = 0; i < 5; ++i) db->Begin()->Abort();
  ASSERT_EQ(Metric(db.get(), "abort.explicit"), 5u);

  SeriesConfig series{"SSI", IsolationLevel::kSerializableSSI, std::nullopt};
  RunResult r = RunWorkload(db.get(), &workload, series, config);
  EXPECT_GT(r.commits, 0u);
  EXPECT_GT(r.seconds, 0.0);
  EXPECT_GE(workload.calls.load(), r.commits);  // Warmup calls not counted.
  EXPECT_EQ(Metric(db.get(), "engine.active_txns"), 0u);  // Workers done.

  // The registry delta is window-local: the pre-window rollbacks are gone,
  // and the pre-window commits were subtracted. Every counted commit
  // appended its record inside the window (the engine may also see
  // warmup attempts that straddle the window's opening edge).
  EXPECT_EQ(Metric(r.window, "abort.explicit"), 0u);
  const uint64_t records = Metric(r.window, "log.records");
  EXPECT_GE(records, r.commits);
  EXPECT_LE(records, Metric(db.get(), "log.records") - kPreWindow);
  const obs::HistogramSnapshot* commit =
      r.window.FindHistogram("commit.total_ns");
  ASSERT_NE(commit, nullptr);
  EXPECT_LE(commit->count, records);
  // The JSON line embeds that same delta.
  const std::string json = ResultJsonLine("driver", "SSI", 4, r);
  EXPECT_NE(json.find("\"metrics\":{\"counters\":{"), std::string::npos);
  EXPECT_NE(json.find("\"abort.explicit\":0"), std::string::npos);
  EXPECT_NE(json.find("\"log.records\":" + std::to_string(records)),
            std::string::npos);
  EXPECT_NE(json.find("\"commit.total_ns\":{"), std::string::npos);
}

TEST(DriverTest, EnvParsingHelpers) {
  setenv("SSIDB_BENCH_SECONDS", "1.5", 1);
  EXPECT_DOUBLE_EQ(EnvSeconds(0.3), 1.5);
  unsetenv("SSIDB_BENCH_SECONDS");
  EXPECT_DOUBLE_EQ(EnvSeconds(0.3), 0.3);

  setenv("SSIDB_BENCH_MPLS", "1,4,16", 1);
  EXPECT_EQ(EnvMpls({2}), (std::vector<int>{1, 4, 16}));
  setenv("SSIDB_BENCH_MPLS", "garbage", 1);
  EXPECT_EQ(EnvMpls({2}), (std::vector<int>{2}));
  unsetenv("SSIDB_BENCH_MPLS");
  EXPECT_EQ(EnvMpls({2}), (std::vector<int>{2}));

  setenv("SSIDB_FLUSH_US", "250", 1);
  EXPECT_EQ(EnvFlushUs(1000), 250u);
  unsetenv("SSIDB_FLUSH_US");
  EXPECT_EQ(EnvFlushUs(1000), 1000u);
}

}  // namespace
}  // namespace ssidb::bench
