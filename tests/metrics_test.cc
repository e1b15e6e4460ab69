// The obs metrics layer: log-linear histogram bucket math, shard-merge
// equivalence, the quantile error bound the header promises (<= 1/16,
// asserted at 12.5%), window deltas, registry collection and lookup, the
// registry as the engine's one stats surface, and the engine's stage
// histograms actually filling under load (metrics_sample_period = 1 makes
// every commit record, so short tests are deterministic).

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/common/encoding.h"
#include "src/common/random.h"
#include "src/db/db.h"
#include "src/obs/exporter.h"
#include "src/obs/metrics.h"
#include "tests/test_util.h"

namespace ssidb {
namespace {

using obs::Histogram;
using obs::HistogramSnapshot;

// ---- Bucket math ----------------------------------------------------------

TEST(HistogramBucketTest, LowValuesGetExactUnitBuckets) {
  for (uint64_t v = 0; v < 16; ++v) {
    EXPECT_EQ(Histogram::BucketOf(v), v);
    EXPECT_EQ(Histogram::BucketLower(static_cast<uint32_t>(v)), v);
    EXPECT_EQ(Histogram::BucketWidth(static_cast<uint32_t>(v)), 1u);
  }
}

TEST(HistogramBucketTest, BoundariesAreExactAcrossTheRange) {
  // For every reachable bucket: its lower bound maps into it, its last
  // value maps into it, and the next value maps into the next bucket —
  // i.e. BucketLower/BucketWidth are the exact inverse of BucketOf.
  const uint32_t last = Histogram::BucketOf(~uint64_t{0});
  ASSERT_LT(last, Histogram::kBuckets);
  for (uint32_t b = 0; b <= last; ++b) {
    const uint64_t lower = Histogram::BucketLower(b);
    const uint64_t width = Histogram::BucketWidth(b);
    EXPECT_EQ(Histogram::BucketOf(lower), b) << "lower of bucket " << b;
    EXPECT_EQ(Histogram::BucketOf(lower + width - 1), b)
        << "last value of bucket " << b;
    if (b < last) {
      EXPECT_EQ(Histogram::BucketLower(b + 1), lower + width)
          << "buckets must tile without gaps at " << b;
      EXPECT_EQ(Histogram::BucketOf(lower + width), b + 1)
          << "first value past bucket " << b;
    }
  }
}

TEST(HistogramBucketTest, BucketIndexIsMonotone) {
  uint32_t prev = 0;
  for (uint64_t v = 0; v < (1u << 20); v += 17) {
    const uint32_t b = Histogram::BucketOf(v);
    EXPECT_GE(b, prev);
    prev = b;
  }
}

// ---- Recording and merging ------------------------------------------------

TEST(HistogramTest, MergeOfShardsEqualsSerialRecording) {
  // The same value stream recorded (a) spread round-robin across every
  // shard and (b) serially into one shard must produce identical
  // snapshots: Snapshot() is a pure merge.
  Histogram sharded;
  Histogram serial;
  Random rng(97);
  const size_t shards = sharded.shards();
  for (int i = 0; i < 20000; ++i) {
    const uint64_t v = rng.Uniform(1u << 20);
    sharded.RecordAt(static_cast<size_t>(i) % shards, v);
    serial.RecordAt(0, v);
  }
  const HistogramSnapshot a = sharded.Snapshot();
  const HistogramSnapshot b = serial.Snapshot();
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.sum, b.sum);
  EXPECT_EQ(a.max, b.max);
  ASSERT_EQ(a.buckets.size(), b.buckets.size());
  for (size_t i = 0; i < a.buckets.size(); ++i) {
    EXPECT_EQ(a.buckets[i], b.buckets[i]) << "bucket " << i;
  }
}

TEST(HistogramTest, QuantileRelativeErrorIsBounded) {
  // Log-linear with 8 sub-buckets: reporting the bucket midpoint is off by
  // at most half a bucket width relative to the bucket's lower bound,
  // i.e. <= 1/16. Assert 12.5% for slack, over several magnitudes.
  Histogram h;
  std::vector<uint64_t> values;
  Random rng(131);
  for (int i = 0; i < 50000; ++i) {
    // Log-uniform-ish spread: pick a magnitude, then a value within it.
    const uint32_t mag = static_cast<uint32_t>(rng.Uniform(30));
    const uint64_t v = (uint64_t{1} << mag) + rng.Uniform(uint64_t{1} << mag);
    values.push_back(v);
    h.Record(v);
  }
  std::sort(values.begin(), values.end());
  const HistogramSnapshot snap = h.Snapshot();
  ASSERT_EQ(snap.count, values.size());
  for (double q : {0.5, 0.9, 0.95, 0.99}) {
    const size_t rank = static_cast<size_t>(
        std::ceil(q * static_cast<double>(values.size())));
    const uint64_t exact = values[rank == 0 ? 0 : rank - 1];
    const uint64_t approx = snap.Quantile(q);
    const double err =
        std::abs(static_cast<double>(approx) - static_cast<double>(exact)) /
        static_cast<double>(exact);
    EXPECT_LE(err, 0.125) << "q=" << q << " exact=" << exact
                          << " approx=" << approx;
  }
  // Q(1.0) reports the top bucket's midpoint clamped to max: never above
  // max, never below the top bucket's lower bound.
  EXPECT_LE(snap.Quantile(1.0), snap.max);
  EXPECT_GE(snap.Quantile(1.0),
            Histogram::BucketLower(Histogram::BucketOf(snap.max)));
}

TEST(HistogramTest, QuantileExactForUnitBuckets) {
  Histogram h;
  for (uint64_t v = 1; v <= 10; ++v) h.Record(v);  // 1..10, all unit buckets.
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.Quantile(0.5), 5u);
  EXPECT_EQ(snap.Quantile(1.0), 10u);
  EXPECT_EQ(snap.count, 10u);
  EXPECT_EQ(snap.sum, 55u);
  EXPECT_EQ(snap.max, 10u);
}

TEST(HistogramTest, DeltaIsolatesTheWindow) {
  Histogram h;
  for (int i = 0; i < 100; ++i) h.Record(3);
  const HistogramSnapshot before = h.Snapshot();
  for (int i = 0; i < 50; ++i) h.Record(7);
  const HistogramSnapshot window = h.Snapshot().Delta(before);
  EXPECT_EQ(window.count, 50u);
  EXPECT_EQ(window.sum, 50u * 7);
  EXPECT_EQ(window.Quantile(0.5), 7u);  // The pre-window 3s are gone.
  EXPECT_EQ(window.buckets[3], 0u);
  EXPECT_EQ(window.buckets[7], 50u);
}

TEST(HistogramTest, ConcurrentRecordersLoseNothing) {
  Histogram h;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> threads;
  std::atomic<bool> stop{false};
  // A snapshotter races the recorders; its only job is to not crash and
  // to see monotone counts (each shard counter is individually coherent).
  std::thread snapshotter([&] {
    uint64_t last = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const uint64_t c = h.Snapshot().count;
      EXPECT_GE(c, last);
      last = c;
    }
  });
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Random rng(static_cast<uint64_t>(t) + 5);
      for (int i = 0; i < kPerThread; ++i) {
        h.RecordAt(static_cast<size_t>(t), rng.Uniform(1 << 16));
      }
    });
  }
  for (auto& t : threads) t.join();
  stop.store(true);
  snapshotter.join();
  EXPECT_EQ(h.Snapshot().count,
            static_cast<uint64_t>(kThreads) * kPerThread);
}

// ---- Sampling tick --------------------------------------------------------

TEST(SampleTest, MaskZeroAlwaysSamples) {
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(obs::SampleTick(0));
}

TEST(SampleTest, MaskFromPeriodSamplesOneInPeriod) {
  EXPECT_EQ(obs::SampleMask(0), 0u);
  EXPECT_EQ(obs::SampleMask(1), 0u);
  EXPECT_EQ(obs::SampleMask(16), 15u);
  EXPECT_EQ(obs::SampleMask(10), 15u);  // Rounded up to a power of two.
  const uint32_t mask = obs::SampleMask(16);
  int sampled = 0;
  for (int i = 0; i < 1600; ++i) {
    if (obs::SampleTick(mask)) ++sampled;
  }
  EXPECT_EQ(sampled, 100);
}

// ---- Registry -------------------------------------------------------------

TEST(MetricsRegistryTest, CollectsCountersGaugesAndHistogramsSorted) {
  obs::MetricsRegistry reg;
  std::atomic<uint64_t> c{42};
  reg.RegisterCounter("z.counter", [&] { return c.load(); });
  reg.RegisterCounter("a.counter", [] { return uint64_t{7}; });
  reg.RegisterGauge("g.gauge", [] { return uint64_t{3}; });
  Histogram h;
  h.Record(100);
  reg.RegisterHistogram("h.hist", &h);

  obs::MetricsSnapshot snap = reg.Collect();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].first, "a.counter");  // Sorted by name.
  EXPECT_EQ(snap.counters[1].second, 42u);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].second, 3u);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].second.count, 1u);

  // The callback reads live state: bump and re-collect.
  c.store(43);
  EXPECT_EQ(reg.Collect().counters[1].second, 43u);

  EXPECT_EQ(reg.FindHistogram("h.hist"), &h);
  EXPECT_EQ(reg.FindHistogram("nope"), nullptr);
}

TEST(MetricsSnapshotTest, FindTellsMissingApartFromZero) {
  obs::MetricsRegistry reg;
  reg.RegisterCounter("c.zero", [] { return uint64_t{0}; });
  reg.RegisterGauge("g.five", [] { return uint64_t{5}; });
  Histogram h;
  reg.RegisterHistogram("h.hist", &h);
  const obs::MetricsSnapshot snap = reg.Collect();
  ASSERT_TRUE(snap.Find("c.zero").has_value());
  EXPECT_EQ(*snap.Find("c.zero"), 0u);
  EXPECT_EQ(snap.Find("g.five"), std::optional<uint64_t>(5));
  EXPECT_FALSE(snap.Find("c.zer0").has_value());
  EXPECT_FALSE(snap.Find("h.hist").has_value());  // Not a counter/gauge.
  ASSERT_NE(snap.FindHistogram("h.hist"), nullptr);
  EXPECT_EQ(snap.FindHistogram("h.hist")->count, 0u);
  EXPECT_EQ(snap.FindHistogram("c.zero"), nullptr);
}

TEST(MetricsSnapshotTest, DeltaDiffersCountersKeepsGaugesDiffersHistograms) {
  obs::MetricsRegistry reg;
  std::atomic<uint64_t> c{10};
  std::atomic<uint64_t> g{7};
  reg.RegisterCounter("c", [&] { return c.load(); });
  reg.RegisterGauge("g", [&] { return g.load(); });
  Histogram h;
  for (int i = 0; i < 4; ++i) h.Record(3);
  reg.RegisterHistogram("h", &h);
  const obs::MetricsSnapshot start = reg.Collect();
  c.store(25);
  g.store(2);  // A gauge may fall; the window reports where it ended.
  for (int i = 0; i < 6; ++i) h.Record(9);
  const obs::MetricsSnapshot window = reg.Collect().Delta(start);
  EXPECT_EQ(window.Find("c"), std::optional<uint64_t>(15));
  EXPECT_EQ(window.Find("g"), std::optional<uint64_t>(2));
  const HistogramSnapshot* hw = window.FindHistogram("h");
  ASSERT_NE(hw, nullptr);
  EXPECT_EQ(hw->count, 6u);
  EXPECT_EQ(hw->sum, 54u);
  EXPECT_EQ(hw->buckets[3], 0u);
  EXPECT_EQ(hw->buckets[9], 6u);
  EXPECT_EQ(hw->Quantile(0.5), 9u);
}

// ---- Exporter -------------------------------------------------------------

TEST(ExporterTest, JsonAndPrometheusRenderAllSections) {
  obs::MetricsRegistry reg;
  reg.RegisterCounter("ssi.unsafe-aborts", [] { return uint64_t{5}; });
  reg.RegisterGauge("engine.active_txns", [] { return uint64_t{2}; });
  Histogram h;
  for (int i = 0; i < 100; ++i) h.Record(1000);
  reg.RegisterHistogram("commit.total_ns", &h);

  const std::string json = obs::Render(reg.Collect(), obs::MetricsFormat::kJson);
  EXPECT_NE(json.find("\"ssi.unsafe-aborts\":5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"engine.active_txns\":2"), std::string::npos);
  EXPECT_NE(json.find("\"commit.total_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":100"), std::string::npos);
  EXPECT_EQ(json.find('\n'), std::string::npos) << "single line";

  const std::string prom =
      obs::Render(reg.Collect(), obs::MetricsFormat::kPrometheus);
  EXPECT_NE(prom.find("ssidb_ssi_unsafe_aborts 5"), std::string::npos) << prom;
  EXPECT_NE(prom.find("ssidb_commit_total_ns_count 100"), std::string::npos);
  EXPECT_NE(prom.find("quantile=\"0.99\""), std::string::npos);
}

// ---- Engine integration ---------------------------------------------------

TEST(EngineMetricsTest, StageHistogramsFillUnderCommitLoad) {
  DBOptions opts;
  opts.metrics_sample_period = 1;  // Every commit records its stages.
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(opts, &db).ok());
  TableId table = 0;
  ASSERT_TRUE(db->CreateTable("t", &table).ok());
  for (int i = 0; i < 64; ++i) {
    auto txn = db->Begin({IsolationLevel::kSerializableSSI});
    std::string v;
    txn->Get(table, EncodeU64Key(static_cast<uint64_t>(i)), &v);
    ASSERT_TRUE(txn->Put(table, EncodeU64Key(static_cast<uint64_t>(i)), "x")
                    .ok());
    ASSERT_TRUE(txn->Commit().ok());
  }

  // The six commit-pipeline stage histograms all saw every commit.
  const char* kStages[] = {"commit.certify_ns",  "commit.stamp_publish_ns",
                           "commit.watermark_ns", "commit.wal_append_ns",
                           "commit.fsync_wait_ns", "commit.total_ns"};
  for (const char* name : kStages) {
    const Histogram* h = db->metrics()->FindHistogram(name);
    ASSERT_NE(h, nullptr) << name;
    EXPECT_EQ(h->Snapshot().count, 64u) << name;
  }
  // Read path: every Get above hit in memory.
  const Histogram* hit = db->metrics()->FindHistogram("read.hit_ns");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->Snapshot().count, 64u);

  // DumpMetrics carries them all in one JSON line.
  const std::string json = db->DumpMetrics();
  for (const char* name : kStages) {
    EXPECT_NE(json.find(std::string("\"") + name + "\""), std::string::npos)
        << name;
  }
  EXPECT_NE(json.find("\"abort.ssi_pivot\""), std::string::npos);
  EXPECT_NE(json.find("\"log.records\""), std::string::npos);
}

TEST(EngineMetricsTest, RegistrySnapshotsStayMonotoneUnderConcurrentLoad) {
  // The stats-invariant satellite at the registry level: cumulative
  // counters and histogram counts sampled while workers commit never
  // regress between snapshots.
  DBOptions opts;
  opts.metrics_sample_period = 1;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(opts, &db).ok());
  TableId table = 0;
  ASSERT_TRUE(db->CreateTable("t", &table).ok());

  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&, w] {
      Random rng(static_cast<uint64_t>(w) * 17 + 3);
      while (!stop.load(std::memory_order_relaxed)) {
        auto txn = db->Begin({IsolationLevel::kSerializableSSI});
        std::string v;
        txn->Get(table, EncodeU64Key(rng.Uniform(8)), &v);
        txn->Put(table, EncodeU64Key(rng.Uniform(8)), "x");
        txn->Commit();
      }
    });
  }

  std::map<std::string, uint64_t> last_counter;
  std::map<std::string, uint64_t> last_hist_count;
  for (int i = 0; i < 500; ++i) {
    const obs::MetricsSnapshot snap = db->metrics()->Collect();
    for (const auto& [name, value] : snap.counters) {
      auto it = last_counter.find(name);
      if (it != last_counter.end()) {
        EXPECT_GE(value, it->second) << "counter regressed: " << name;
        it->second = value;
      } else {
        last_counter.emplace(name, value);
      }
    }
    for (const auto& [name, hist] : snap.histograms) {
      auto it = last_hist_count.find(name);
      if (it != last_hist_count.end()) {
        EXPECT_GE(hist.count, it->second) << "histogram regressed: " << name;
        it->second = hist.count;
      } else {
        last_hist_count.emplace(name, hist.count);
      }
    }
  }
  stop.store(true);
  for (auto& t : workers) t.join();
}

/// Sum of every abort.<reason> counter in `snap`.
uint64_t AbortTotal(const obs::MetricsSnapshot& snap) {
  uint64_t total = 0;
  for (const auto& [name, value] : snap.counters) {
    if (name.rfind("abort.", 0) == 0) total += value;
  }
  return total;
}

TEST(EngineMetricsTest, AbortTaxonomyCountsAsRegistryCounters) {
  DBOptions opts;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(opts, &db).ok());
  TableId table = 0;
  ASSERT_TRUE(db->CreateTable("t", &table).ok());
  {
    auto seed = db->Begin({IsolationLevel::kSnapshot});
    ASSERT_TRUE(seed->Put(table, "x", "50").ok());
    ASSERT_TRUE(seed->Put(table, "y", "50").ok());
    ASSERT_TRUE(seed->Commit().ok());
  }
  EXPECT_EQ(AbortTotal(db->metrics()->Collect()), 0u);

  // An explicit rollback is the simplest taxonomy entry.
  {
    auto txn = db->Begin({IsolationLevel::kSnapshot});
    ASSERT_TRUE(txn->Put(table, "x", "1").ok());
    txn->Abort();
  }
  obs::MetricsSnapshot s = db->metrics()->Collect();
  EXPECT_EQ(Metric(s, AbortMetric(AbortReason::kExplicit)), 1u);
  EXPECT_EQ(AbortTotal(s), 1u);

  // A write-skew SSI abort lands in an SSI taxonomy slot.
  {
    auto t1 = db->Begin({IsolationLevel::kSerializableSSI});
    auto t2 = db->Begin({IsolationLevel::kSerializableSSI});
    std::string v;
    ASSERT_TRUE(t1->Get(table, "x", &v).ok());
    ASSERT_TRUE(t1->Get(table, "y", &v).ok());
    ASSERT_TRUE(t2->Get(table, "x", &v).ok());
    ASSERT_TRUE(t2->Get(table, "y", &v).ok());
    ASSERT_TRUE(t1->Put(table, "x", "-20").ok());
    Status c1 = t1->Commit();
    Status c2 = t2->active() ? [&] {
      Status w = t2->Put(table, "y", "-30");
      return w.ok() ? t2->Commit() : w;
    }() : Status::Unsafe("marked");
    EXPECT_NE(c1.ok(), c2.ok());
    if (t1->active()) t1->Abort();
    if (t2->active()) t2->Abort();
  }
  s = db->metrics()->Collect();
  const uint64_t ssi_aborts = Metric(s, AbortMetric(AbortReason::kSsiPivot)) +
                              Metric(s, AbortMetric(AbortReason::kSsiInSide)) +
                              Metric(s, AbortMetric(AbortReason::kSsiOutSide));
  EXPECT_EQ(ssi_aborts, 1u);
  EXPECT_EQ(AbortTotal(s), 2u);
}

/// Registry names of every quantity the engine reports outside the disk
/// tier — the whole of what benches, examples and tests read by name.
const char* const kEngineMetricNames[] = {
    "ssi.unsafe_aborts", "lock.deadlocks", "lock.waits", "lock.grants",
    "log.records", "log.flush_batches", "engine.active_txns",
    "engine.suspended_txns", "ckpt.taken", "ckpt.bytes_written",
    "wal.segments_deleted", "gc.versions_pruned", "txn.page_fcw_entries",
    "commit.waits", "commit.wakeups", "commit.ring_full_stalls",
    "commit.max_window_depth", "commit.combine_batches", "commit.combined_txns",
    "commit.max_batch", "commit.fastpath", "siread.entries", "siread.ranges",
    "gc.horizon_lag",
};
/// The disk-tier quantities, registered only when the tier is enabled.
const char* const kTierMetricNames[] = {
    "pool.hits",           "pool.misses",         "pool.evictions",
    "pool.writebacks",     "tier.spilled_chains", "tier.faulted_chains",
    "tier.pages_probed",
};

/// Drive a little SSI write load (with a read in each transaction, so the
/// SIREAD and certification paths move too).
void CommitSome(DB* db, TableId table, int n) {
  for (int i = 0; i < n; ++i) {
    auto txn = db->Begin({IsolationLevel::kSerializableSSI});
    std::string v;
    txn->Get(table, EncodeU64Key(static_cast<uint64_t>(i)), &v);
    ASSERT_TRUE(
        txn->Put(table, EncodeU64Key(static_cast<uint64_t>(i)), "x").ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
}

/// The registry is the engine's only stats surface: each name is
/// registered once across all three kinds, every reported quantity is
/// present, and a window Delta over real engine load obeys the
/// counter/gauge/histogram rules.
void CheckRegistrySurface(DB* db, bool tier) {
  TableId table = 0;
  ASSERT_TRUE(db->CreateTable("t", &table).ok());
  CommitSome(db, table, 16);
  const obs::MetricsSnapshot start = db->metrics()->Collect();

  std::set<std::string> names;
  for (const auto& [n, v] : start.counters) {
    EXPECT_TRUE(names.insert(n).second) << "registered twice: " << n;
  }
  for (const auto& [n, v] : start.gauges) {
    EXPECT_TRUE(names.insert(n).second) << "registered twice: " << n;
  }
  for (const auto& [n, h] : start.histograms) {
    EXPECT_TRUE(names.insert(n).second) << "registered twice: " << n;
  }
  for (const char* name : kEngineMetricNames) {
    EXPECT_TRUE(start.Find(name).has_value()) << name;
  }
  for (const char* name : kTierMetricNames) {
    EXPECT_EQ(start.Find(name).has_value(), tier) << name;
  }
  for (size_t i = 1; i < kAbortReasonCount; ++i) {
    const std::string name = AbortMetric(static_cast<AbortReason>(i));
    EXPECT_TRUE(start.Find(name).has_value()) << name;
  }
  EXPECT_NE(start.FindHistogram("commit.total_ns"), nullptr);

  CommitSome(db, table, 16);
  const obs::MetricsSnapshot end = db->metrics()->Collect();
  const obs::MetricsSnapshot window = end.Delta(start);
  ASSERT_EQ(window.counters.size(), end.counters.size());
  for (size_t i = 0; i < end.counters.size(); ++i) {
    const auto& [name, now] = end.counters[i];
    EXPECT_EQ(window.counters[i].first, name);
    EXPECT_EQ(window.counters[i].second, now - *start.Find(name)) << name;
  }
  EXPECT_EQ(window.gauges, end.gauges);
  ASSERT_EQ(window.histograms.size(), end.histograms.size());
  for (size_t i = 0; i < end.histograms.size(); ++i) {
    const auto& [name, now] = end.histograms[i];
    const HistogramSnapshot* before = start.FindHistogram(name);
    ASSERT_NE(before, nullptr) << name;
    EXPECT_EQ(window.histograms[i].second.count, now.count - before->count)
        << name;
    EXPECT_EQ(window.histograms[i].second.sum, now.sum - before->sum)
        << name;
  }
  // The 16 windowed commits, and only they, are in the delta.
  EXPECT_EQ(*window.Find("log.records"), 16u);
  EXPECT_EQ(window.FindHistogram("commit.total_ns")->count,
            end.FindHistogram("commit.total_ns")->count -
                start.FindHistogram("commit.total_ns")->count);
}

TEST(RegistrySurfaceTest, MemoryOnlyEngine) {
  DBOptions opts;
  opts.metrics_sample_period = 1;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(opts, &db).ok());
  CheckRegistrySurface(db.get(), /*tier=*/false);
}

TEST(RegistrySurfaceTest, WalAndTierEngine) {
  ScratchDir dir;
  DBOptions opts;
  opts.metrics_sample_period = 1;
  opts.log.wal_dir = dir.path + "/wal";
  opts.log.wal_fsync = false;
  opts.data_dir = dir.path + "/data";
  opts.buffer_pool_bytes = 1 << 16;
  opts.run_page_bytes = 4096;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(opts, &db).ok());
  CheckRegistrySurface(db.get(), /*tier=*/true);
}

/// SSI's retained state under a long reader. While one SSI reader stays
/// open, every overlapping SSI writer that commits is suspended with its
/// SIREAD entries, and the prune horizon stays pinned at the reader's
/// snapshot — both gauges climb. The reader's commit lets cleanup release
/// all of it.
TEST(EngineMetricsTest, RetainedStateGaugesTrackALongReader) {
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open({}, &db).ok());
  TableId table = 0;
  ASSERT_TRUE(db->CreateTable("t", &table).ok());
  BumpWatermark(db.get(), table);
  const obs::MetricsSnapshot idle = db->metrics()->Collect();
  EXPECT_EQ(Metric(idle, "siread.entries"), 0u);
  EXPECT_EQ(Metric(idle, "gc.horizon_lag"), 0u);

  auto reader = db->Begin({IsolationLevel::kSerializableSSI});
  std::string v;
  reader->Get(table, "report", &v);
  const obs::MetricsSnapshot opened = db->metrics()->Collect();

  uint64_t last_entries = Metric(opened, "siread.entries");
  uint64_t last_lag = Metric(opened, "gc.horizon_lag");
  for (uint64_t i = 0; i < 8; ++i) {
    // Read one key, write another: a SIREAD on a key the same transaction
    // writes is dropped in favour of its write lock.
    auto writer = db->Begin({IsolationLevel::kSerializableSSI});
    writer->Get(table, "r" + std::to_string(i), &v);
    ASSERT_TRUE(writer->Put(table, "w" + std::to_string(i), "x").ok());
    ASSERT_TRUE(writer->Commit().ok());
    const obs::MetricsSnapshot s = db->metrics()->Collect();
    EXPECT_GT(Metric(s, "siread.entries"), last_entries) << "writer " << i;
    EXPECT_GT(Metric(s, "gc.horizon_lag"), last_lag) << "writer " << i;
    last_entries = Metric(s, "siread.entries");
    last_lag = Metric(s, "gc.horizon_lag");
  }

  ASSERT_TRUE(reader->Commit().ok());
  const obs::MetricsSnapshot after = db->metrics()->Collect();
  EXPECT_EQ(Metric(after, "siread.entries"), 0u);
  EXPECT_EQ(Metric(after, "gc.horizon_lag"), 0u);
  EXPECT_EQ(Metric(after, "engine.suspended_txns"), 0u);
}

TEST(EngineMetricsTest, BackgroundDumperWritesSnapshots) {
  char tmpl[] = "/tmp/ssidb_metrics_XXXXXX";
  int fd = mkstemp(tmpl);
  ASSERT_GE(fd, 0);
  close(fd);
  const std::string path = tmpl;
  {
    DBOptions opts;
    opts.metrics_dump_interval_ms = 20;
    opts.metrics_dump_path = path;
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(opts, &db).ok());
    TableId table = 0;
    ASSERT_TRUE(db->CreateTable("t", &table).ok());
    auto txn = db->Begin({IsolationLevel::kSnapshot});
    ASSERT_TRUE(txn->Put(table, "k", "v").ok());
    ASSERT_TRUE(txn->Commit().ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }  // ~DB stops the dumper.
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++lines;
    EXPECT_EQ(line.front(), '{');
    EXPECT_NE(line.find("\"log.records\""), std::string::npos);
  }
  EXPECT_GE(lines, 1);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ssidb
