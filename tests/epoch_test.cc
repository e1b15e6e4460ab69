// EpochReclaimer unit + stress tests (src/common/epoch.h): collection
// horizon semantics, duplicate epochs, the lock-free oldest-epoch fast
// path, cross-thread retire/collect visibility, and — under TSan in CI —
// the raise-then-verify protocol that keeps a concurrent Retire from being
// leaked past a Collect forever.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "src/common/epoch.h"

namespace ssidb {
namespace {

TEST(EpochReclaimerTest, CollectRespectsHorizon) {
  EpochReclaimer<uint64_t> r(/*slots=*/4);
  for (uint64_t e = 1; e <= 10; ++e) r.Retire(e, e * 100);
  EXPECT_EQ(r.size(), 10u);
  EXPECT_EQ(r.oldest(), 1u);

  std::vector<uint64_t> got;
  EXPECT_EQ(r.Collect(5, [&](uint64_t v) { got.push_back(v); }), 5u);
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, (std::vector<uint64_t>{100, 200, 300, 400, 500}));
  EXPECT_EQ(r.size(), 5u);
  EXPECT_EQ(r.oldest(), 6u);

  // Same horizon again: nothing left at or below it.
  EXPECT_EQ(r.Collect(5, [&](uint64_t) { FAIL(); }), 0u);

  // Drain.
  got.clear();
  EXPECT_EQ(r.Collect(EpochReclaimer<uint64_t>::kMaxEpoch,
                      [&](uint64_t v) { got.push_back(v); }),
            5u);
  EXPECT_EQ(r.size(), 0u);
  EXPECT_EQ(r.oldest(), EpochReclaimer<uint64_t>::kMaxEpoch);
}

TEST(EpochReclaimerTest, DuplicateEpochsAllCollected) {
  // Read-only commits share commit timestamps: duplicates must coexist
  // and all come out.
  EpochReclaimer<int> r(/*slots=*/1);
  r.Retire(7, 1);
  r.Retire(7, 2);
  r.Retire(7, 3);
  int n = 0;
  EXPECT_EQ(r.Collect(7, [&](int) { ++n; }), 3u);
  EXPECT_EQ(n, 3);
}

TEST(EpochReclaimerTest, FastPathSkipsWhenNothingCollectible) {
  EpochReclaimer<int> r(/*slots=*/2);
  EXPECT_EQ(r.Collect(1000, [](int) { FAIL(); }), 0u);  // Empty.
  r.Retire(50, 1);
  // Horizon below the oldest retired epoch: the atomic fast path declines
  // without touching any slot.
  EXPECT_EQ(r.Collect(49, [](int) { FAIL(); }), 0u);
  EXPECT_EQ(r.size(), 1u);
  EXPECT_EQ(r.Collect(50, [](int) {}), 1u);
}

TEST(EpochReclaimerTest, DrainedSlotGivesBackItsPeakCapacity) {
  // A burst held back by the horizon (a long reader) grows a slot; once
  // collected, the slot returns that capacity instead of keeping it.
  EpochReclaimer<uint64_t> r(1);
  constexpr uint64_t kBurst = 100000;
  for (uint64_t e = 1; e <= kBurst; ++e) r.Retire(e, e);
  EXPECT_GE(r.slot_capacity(), kBurst);
  uint64_t sum = 0;
  EXPECT_EQ(r.Collect(kBurst, [&](uint64_t v) { sum += v; }), kBurst);
  EXPECT_EQ(sum, kBurst * (kBurst + 1) / 2);
  EXPECT_LE(r.slot_capacity(), EpochReclaimer<uint64_t>::kKeptCapacity);
  // Steady state below the kept capacity keeps its buffer.
  for (int round = 0; round < 3; ++round) {
    for (uint64_t e = 1; e <= 100; ++e) r.Retire(kBurst + e, e);
    EXPECT_EQ(r.Collect(2 * kBurst, [](uint64_t) {}), 100u);
    EXPECT_GE(r.slot_capacity(), 100u);
  }
}

TEST(EpochReclaimerTest, RetiresFromManyThreadsAllVisibleToOneCollect) {
  // Retire lands in per-thread slots; a single Collect must still scan
  // them all (TxnManager::CleanupSuspended runs on whichever thread
  // commits last, not the retiring thread).
  EpochReclaimer<uint64_t> r(/*slots=*/0);  // Topology-sized.
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        const uint64_t e = static_cast<uint64_t>(t) * kPerThread + i + 1;
        r.Retire(e, e);
      }
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_EQ(r.size(), kThreads * kPerThread);

  std::vector<uint64_t> got;
  r.Collect(EpochReclaimer<uint64_t>::kMaxEpoch,
            [&](uint64_t v) { got.push_back(v); });
  ASSERT_EQ(got.size(), kThreads * kPerThread);
  std::sort(got.begin(), got.end());
  for (uint64_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i], i + 1);
}

/// The TSan-wired stress: concurrent retirers and collectors. Checks the
/// header's leak-freedom claim — every retired item is eventually
/// collected exactly once, never at a horizon below its epoch — while
/// TSan validates the slot/oldest_ synchronization.
TEST(EpochReclaimerStressTest, ConcurrentRetireAndCollectLosesNothing) {
  EpochReclaimer<uint64_t> r(/*slots=*/4);
  constexpr int kRetirers = 4;
  constexpr int kCollectors = 2;
  constexpr uint64_t kPerRetirer = 2000;

  std::atomic<uint64_t> epoch_clock{0};
  std::atomic<bool> stop{false};
  std::mutex collected_mu;
  std::vector<uint64_t> collected;

  std::vector<std::thread> threads;
  for (int t = 0; t < kRetirers; ++t) {
    threads.emplace_back([&] {
      for (uint64_t i = 0; i < kPerRetirer; ++i) {
        const uint64_t e =
            epoch_clock.fetch_add(1, std::memory_order_relaxed) + 1;
        r.Retire(e, e);
      }
    });
  }
  for (int t = 0; t < kCollectors; ++t) {
    threads.emplace_back([&] {
      std::vector<uint64_t> local;
      while (!stop.load(std::memory_order_relaxed)) {
        const uint64_t now = epoch_clock.load(std::memory_order_relaxed);
        const uint64_t horizon = now > 32 ? now - 32 : 0;
        r.Collect(horizon, [&](uint64_t v) {
          EXPECT_LE(v, horizon);  // Never collects past the horizon.
          local.push_back(v);
        });
        std::this_thread::yield();
      }
      std::lock_guard<std::mutex> guard(collected_mu);
      collected.insert(collected.end(), local.begin(), local.end());
    });
  }
  for (int t = 0; t < kRetirers; ++t) threads[t].join();
  stop.store(true);
  for (size_t t = kRetirers; t < threads.size(); ++t) threads[t].join();

  // Final drain picks up whatever the horizon lag left behind.
  r.Collect(EpochReclaimer<uint64_t>::kMaxEpoch,
            [&](uint64_t v) { collected.push_back(v); });

  // Exactly-once: the multiset of collected items is 1..N.
  const uint64_t total = kRetirers * kPerRetirer;
  ASSERT_EQ(collected.size(), total);
  std::sort(collected.begin(), collected.end());
  for (uint64_t i = 0; i < total; ++i) ASSERT_EQ(collected[i], i + 1);
  EXPECT_EQ(r.size(), 0u);
}

}  // namespace
}  // namespace ssidb
