// Lock-free metrics: counters, gauges and log-linear latency histograms
// behind a named registry, plus the sampling tick that keeps stage timing
// affordable on the commit hot path.
//
// Recording-cost contract: recording on a hot path is one relaxed
// fetch-add (counters, histogram bucket slots) — never a mutex, never an
// allocation. Histograms shard their bucket arrays by the recording
// thread's topology slot (the same dense thread index the epoch reclaimer
// and registry shards use), so concurrent recorders touch distinct cache
// lines; Snapshot() merges the shards. The registry's mutex guards only
// registration and collection — both cold.
//
// Histogram layout (log-linear, HdrHistogram-style): 8 sub-buckets per
// power of two (kSubBucketBits = 3). Values below 16 get exact unit-width
// buckets; a value v >= 16 lands in bucket
//   ((h - 3) << 3) + (v >> (h - 3)),  h = bit_width(v) - 1,
// whose width is 2^(h-3): the relative quantile error from reporting the
// bucket midpoint is bounded by half a bucket width over the bucket's
// lower bound, i.e. <= 1/16 (the metrics test asserts <= 12.5% with
// slack). 496 buckets cover the full uint64 range — ~4 KiB per shard.

#ifndef SSIDB_OBS_METRICS_H_
#define SSIDB_OBS_METRICS_H_

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/epoch.h"  // RoundUpPow2, TopologyShards, ThreadTopologySlot

namespace ssidb {
namespace obs {

/// Monotonic nanoseconds (steady clock); the time base of every histogram
/// and trace record.
inline uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Per-thread sampling tick: true on every (mask+1)-th call from this
/// thread. `mask` must be (power of two - 1); 0 samples every call.
/// Stage timing on the commit path costs ~7 clock reads per sampled
/// commit — at the default 1-in-16 rate that is noise against a ~1.5us
/// commit, which is what keeps the BM_MTUpdateDisjoint criterion intact.
inline bool SampleTick(uint32_t mask) {
  if (mask == 0) return true;
  thread_local uint32_t tick = 0;
  return (tick++ & mask) == 0;
}

/// Round a sample period from DBOptions into the mask SampleTick wants.
inline uint32_t SampleMask(uint32_t period) {
  if (period <= 1) return 0;
  return static_cast<uint32_t>(RoundUpPow2(period, 1)) - 1;
}

/// Merged, immutable view of one histogram; also the unit of window-delta
/// arithmetic (benchlib subtracts a start snapshot from an end snapshot
/// to get per-measurement-window quantiles — bucket counts are monotone,
/// so the difference is itself a valid histogram).
struct HistogramSnapshot {
  static constexpr uint32_t kSubBucketBits = 3;
  static constexpr uint32_t kSubBuckets = 1u << kSubBucketBits;
  static constexpr uint32_t kBuckets = 62 * kSubBuckets;  // 496

  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t max = 0;
  std::vector<uint64_t> buckets;  // kBuckets entries; empty => all zero.

  double mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }

  /// Value at quantile q in [0,1]: the midpoint of the bucket holding the
  /// ceil(q*count)-th recorded value (exact for unit-width buckets),
  /// clamped to the recorded max. 0 when empty.
  uint64_t Quantile(double q) const;

  /// This snapshot minus `since` (counts, sum, buckets; max kept from
  /// *this — the window max is not recoverable, the cumulative max is the
  /// only sound bound). `since` must be an earlier snapshot of the same
  /// histogram.
  HistogramSnapshot Delta(const HistogramSnapshot& since) const;
};

/// Sharded log-linear histogram. Record() is wait-free: one bucket index
/// computation plus three relaxed atomic adds on this thread's shard.
class Histogram {
 public:
  static constexpr uint32_t kSubBucketBits = HistogramSnapshot::kSubBucketBits;
  static constexpr uint32_t kSubBuckets = HistogramSnapshot::kSubBuckets;
  static constexpr uint32_t kBuckets = HistogramSnapshot::kBuckets;

  Histogram();

  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  /// Bucket index of value v (exact for v < 16; log-linear above).
  static uint32_t BucketOf(uint64_t v) {
    if (v < 2 * kSubBuckets) return static_cast<uint32_t>(v);
    const uint32_t h = static_cast<uint32_t>(std::bit_width(v)) - 1;
    const uint32_t shift = h - kSubBucketBits;
    return (shift << kSubBucketBits) +
           static_cast<uint32_t>(v >> shift);
  }

  /// Smallest value mapping to bucket b (inverse of BucketOf).
  static uint64_t BucketLower(uint32_t b) {
    const uint32_t e = b >> kSubBucketBits;
    const uint32_t m = b & (kSubBuckets - 1);
    if (e == 0) return m;
    return static_cast<uint64_t>(kSubBuckets + m) << (e - 1);
  }

  /// Width of bucket b (1 for the exact low buckets).
  static uint64_t BucketWidth(uint32_t b) {
    const uint32_t e = b >> kSubBucketBits;
    return e == 0 ? 1 : uint64_t{1} << (e - 1);
  }

  /// Record one value on the calling thread's shard.
  void Record(uint64_t v) { RecordAt(ThreadTopologySlot(), v); }

  /// Record on an explicit shard slot (tests pin shard placement with
  /// this; `slot` is reduced modulo the shard count).
  void RecordAt(size_t slot, uint64_t v);

  /// Merge every shard into one snapshot. Safe concurrently with
  /// recorders; each shard counter is individually coherent (same
  /// contract as the registry's counters).
  HistogramSnapshot Snapshot() const;

  size_t shards() const { return shard_mask_ + 1; }

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> count{0};
    std::atomic<uint64_t> sum{0};
    std::atomic<uint64_t> max{0};
    std::atomic<uint64_t> buckets[kBuckets] = {};
  };

  const size_t shard_mask_;
  const std::unique_ptr<Shard[]> shards_;
};

/// One collected view of every registered metric, sorted by name.
///
/// Consistency contract: every value is individually coherent — a counter
/// is one relaxed atomic (or is read under its subsystem's narrow mutex),
/// so Collect() never tears it and may run on any thread at any time,
/// including under full concurrent load. No ordering is promised *across*
/// metrics: a snapshot may show a commit's log record but not yet its lock
/// release, because the engine has no global lock under which a
/// cross-subsystem cut could be taken.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, uint64_t>> gauges;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;

  /// Counter or gauge `name`; nullopt when no such metric was collected,
  /// so a misspelt name never reads as zero.
  std::optional<uint64_t> Find(std::string_view name) const;
  /// Histogram `name`, or nullptr when none was collected.
  const HistogramSnapshot* FindHistogram(std::string_view name) const;

  /// The window from `since` (an earlier Collect() of the same registry)
  /// to this snapshot: counters are differenced, gauges keep their end
  /// value, histograms use HistogramSnapshot::Delta. A metric absent from
  /// `since` counts from zero.
  MetricsSnapshot Delta(const MetricsSnapshot& since) const;
};

/// Named registry — the engine's one stats surface. Registration stores a
/// *reader* for each metric — a callback over the owning subsystem's
/// existing atomic counter or a pointer to a Histogram the subsystem
/// records into directly. The mutex is registration/collection only; no
/// hot path ever takes it.
class MetricsRegistry {
 public:
  using ValueFn = std::function<uint64_t()>;

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// A monotone cumulative counter (Prometheus counter semantics).
  void RegisterCounter(std::string name, ValueFn fn);
  /// A point-in-time value that may move both ways (gauge semantics).
  void RegisterGauge(std::string name, ValueFn fn);
  /// A histogram the owner records into; must outlive the registry user.
  void RegisterHistogram(std::string name, const Histogram* histogram);

  /// Evaluate every reader and merge every histogram.
  MetricsSnapshot Collect() const;

  /// One live histogram by name; nullptr if absent.
  const Histogram* FindHistogram(std::string_view name) const;

 private:
  mutable std::mutex mu_;
  std::vector<std::pair<std::string, ValueFn>> counters_;
  std::vector<std::pair<std::string, ValueFn>> gauges_;
  std::vector<std::pair<std::string, const Histogram*>> histograms_;
};

}  // namespace obs
}  // namespace ssidb

#endif  // SSIDB_OBS_METRICS_H_
