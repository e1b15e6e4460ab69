// sibench workload tests (§5.2): query/update semantics, the SumValues
// oracle, and the paper's claim that the workload's single rw-edge admits
// neither deadlock nor write skew.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>

#include "src/sgt/mvsg.h"
#include "src/workloads/sibench.h"
#include "tests/test_util.h"

namespace ssidb::workloads {
namespace {

using bench::SeriesConfig;

SeriesConfig Series(IsolationLevel iso) { return {"x", iso, std::nullopt}; }

TEST(SiBenchTest, SetupRejectsZeroItems) {
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open({}, &db).ok());
  std::unique_ptr<SiBench> wl;
  EXPECT_TRUE(
      SiBench::Setup(db.get(), SiBenchConfig{.items = 0}, &wl)
          .IsInvalidArgument());
}

TEST(SiBenchTest, InitialStateSumsToZero) {
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open({}, &db).ok());
  std::unique_ptr<SiBench> wl;
  ASSERT_TRUE(SiBench::Setup(db.get(), SiBenchConfig{.items = 25}, &wl).ok());
  int64_t sum = -1;
  ASSERT_TRUE(wl->SumValues(db.get(), &sum).ok());
  EXPECT_EQ(sum, 0);
}

TEST(SiBenchTest, QueryFindsMinimumValueRow) {
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open({}, &db).ok());
  std::unique_ptr<SiBench> wl;
  ASSERT_TRUE(SiBench::Setup(db.get(), SiBenchConfig{.items = 5}, &wl).ok());
  // Bump every row except id 3; the query must then report id 3.
  auto series = Series(IsolationLevel::kSerializableSSI);
  for (uint64_t id : {0u, 1u, 2u, 4u}) {
    ASSERT_TRUE(wl->IncrementValue(db.get(), series, id).ok());
  }
  uint64_t min_id = 99;
  ASSERT_TRUE(wl->MinValueQuery(db.get(), series, &min_id).ok());
  EXPECT_EQ(min_id, 3u);
}

TEST(SiBenchTest, SumEqualsCommittedUpdates) {
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open({}, &db).ok());
  std::unique_ptr<SiBench> wl;
  ASSERT_TRUE(SiBench::Setup(db.get(), SiBenchConfig{.items = 10}, &wl).ok());
  auto series = Series(IsolationLevel::kSerializableSSI);
  Random rng(3);
  int committed = 0;
  for (int i = 0; i < 40; ++i) {
    if (wl->IncrementValue(db.get(), series, rng.Uniform(10)).ok()) {
      ++committed;
    }
  }
  int64_t sum = 0;
  ASSERT_TRUE(wl->SumValues(db.get(), &sum).ok());
  EXPECT_EQ(sum, committed);
}

/// The §5.2 claim, validated concurrently per isolation level: no
/// deadlocks, no write-skew (updates conflict only write-write and resolve
/// via blocking), and the increment count is conserved.
class SiBenchConcurrencyTest
    : public ::testing::TestWithParam<IsolationLevel> {};

TEST_P(SiBenchConcurrencyTest, ConcurrentMixConservesIncrements) {
  DBOptions opts;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(opts, &db).ok());
  std::unique_ptr<SiBench> wl;
  ASSERT_TRUE(SiBench::Setup(db.get(), SiBenchConfig{.items = 10}, &wl).ok());
  auto series = Series(GetParam());

  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 60;
  std::atomic<int> committed_updates{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Random rng(100 + t);
      for (int i = 0; i < kOpsPerThread; ++i) {
        if (rng.Bernoulli(0.5)) {
          wl->MinValueQuery(db.get(), series, nullptr);
        } else if (wl->IncrementValue(db.get(), series, rng.Uniform(10))
                       .ok()) {
          committed_updates.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  int64_t sum = 0;
  ASSERT_TRUE(wl->SumValues(db.get(), &sum).ok());
  EXPECT_EQ(sum, committed_updates.load());
  // §5.2: "no transactions deadlocked or experienced write skew".
  // Updates serialize on the row lock thanks to late snapshots (§4.5);
  // queries never write. SSI may still flag rare unsafe patterns between
  // a query and two updates, so we assert only on deadlocks here.
  EXPECT_EQ(Metric(db.get(), "lock.deadlocks"), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllIsolationLevels, SiBenchConcurrencyTest,
    ::testing::Values(IsolationLevel::kSnapshot,
                      IsolationLevel::kSerializableSSI,
                      IsolationLevel::kSerializable2PL),
    [](const ::testing::TestParamInfo<IsolationLevel>& info) {
      switch (info.param) {
        case IsolationLevel::kSnapshot: return "SI";
        case IsolationLevel::kSerializableSSI: return "SSI";
        case IsolationLevel::kSerializable2PL: return "S2PL";
      }
      return "unknown";
    });

TEST(SiBenchTest, MixRatioRoughlyHonoured) {
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open({}, &db).ok());
  std::unique_ptr<SiBench> wl;
  ASSERT_TRUE(SiBench::Setup(
                  db.get(),
                  SiBenchConfig{.items = 10, .queries_per_update = 10}, &wl)
                  .ok());
  // With 10 queries per update, after N ops the value sum (== update
  // count) should be near N/11.
  auto series = Series(IsolationLevel::kSnapshot);
  Random rng(17);
  const int n = 1100;
  for (int i = 0; i < n; ++i) {
    wl->RunOne(db.get(), series, 0, &rng);
  }
  int64_t sum = 0;
  ASSERT_TRUE(wl->SumValues(db.get(), &sum).ok());
  EXPECT_NEAR(static_cast<double>(sum), n / 11.0, n / 11.0 * 0.5);
}

}  // namespace
}  // namespace ssidb::workloads
