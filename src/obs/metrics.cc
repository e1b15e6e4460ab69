#include "src/obs/metrics.h"

#include <algorithm>
#include <cmath>

namespace ssidb {
namespace obs {

namespace {

/// Histogram shards cost ~4 KiB each, so size from the topology but cap
/// the footprint: 16 shards already give distinct cache lines to every
/// hardware thread this container will realistically run.
size_t HistogramShards() {
  const uint64_t t = TopologyShards(/*floor=*/1);
  return static_cast<size_t>(t < 16 ? t : 16);
}

template <typename T>
const T* FindIn(const std::vector<std::pair<std::string, T>>& v,
                std::string_view name) {
  for (const auto& [n, x] : v) {
    if (n == name) return &x;
  }
  return nullptr;
}

}  // namespace

uint64_t HistogramSnapshot::Quantile(double q) const {
  if (count == 0 || buckets.empty()) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  uint64_t target = static_cast<uint64_t>(
      std::ceil(q * static_cast<double>(count)));
  if (target == 0) target = 1;
  if (target > count) target = count;
  uint64_t seen = 0;
  for (uint32_t b = 0; b < kBuckets && b < buckets.size(); ++b) {
    seen += buckets[b];
    if (seen >= target) {
      const uint64_t lower = Histogram::BucketLower(b);
      const uint64_t width = Histogram::BucketWidth(b);
      const uint64_t mid = width <= 1 ? lower : lower + width / 2;
      return mid < max ? mid : max;
    }
  }
  return max;
}

HistogramSnapshot HistogramSnapshot::Delta(
    const HistogramSnapshot& since) const {
  HistogramSnapshot d;
  d.count = count >= since.count ? count - since.count : 0;
  d.sum = sum >= since.sum ? sum - since.sum : 0;
  d.max = max;  // Cumulative max: the only sound bound for the window.
  if (!buckets.empty()) {
    d.buckets.resize(kBuckets, 0);
    for (uint32_t b = 0; b < kBuckets; ++b) {
      const uint64_t before =
          b < since.buckets.size() ? since.buckets[b] : 0;
      const uint64_t now = b < buckets.size() ? buckets[b] : 0;
      d.buckets[b] = now >= before ? now - before : 0;
    }
  }
  return d;
}

std::optional<uint64_t> MetricsSnapshot::Find(std::string_view name) const {
  if (const uint64_t* v = FindIn(counters, name)) return *v;
  if (const uint64_t* v = FindIn(gauges, name)) return *v;
  return std::nullopt;
}

const HistogramSnapshot* MetricsSnapshot::FindHistogram(
    std::string_view name) const {
  return FindIn(histograms, name);
}

MetricsSnapshot MetricsSnapshot::Delta(const MetricsSnapshot& since) const {
  MetricsSnapshot d;
  d.counters.reserve(counters.size());
  for (const auto& [name, now] : counters) {
    const uint64_t* before = FindIn(since.counters, name);
    const uint64_t base = before == nullptr ? 0 : *before;
    d.counters.emplace_back(name, now >= base ? now - base : 0);
  }
  d.gauges = gauges;
  d.histograms.reserve(histograms.size());
  for (const auto& [name, now] : histograms) {
    const HistogramSnapshot* before = FindIn(since.histograms, name);
    d.histograms.emplace_back(name,
                              before == nullptr ? now : now.Delta(*before));
  }
  return d;
}

Histogram::Histogram()
    : shard_mask_(RoundUpPow2(HistogramShards(), 1) - 1),
      shards_(new Shard[shard_mask_ + 1]) {}

void Histogram::RecordAt(size_t slot, uint64_t v) {
  Shard& s = shards_[slot & shard_mask_];
  s.buckets[BucketOf(v)].fetch_add(1, std::memory_order_relaxed);
  s.count.fetch_add(1, std::memory_order_relaxed);
  s.sum.fetch_add(v, std::memory_order_relaxed);
  uint64_t seen = s.max.load(std::memory_order_relaxed);
  while (v > seen &&
         !s.max.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
  }
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot out;
  out.buckets.assign(kBuckets, 0);
  for (size_t i = 0; i <= shard_mask_; ++i) {
    const Shard& s = shards_[i];
    out.count += s.count.load(std::memory_order_relaxed);
    out.sum += s.sum.load(std::memory_order_relaxed);
    const uint64_t m = s.max.load(std::memory_order_relaxed);
    if (m > out.max) out.max = m;
    for (uint32_t b = 0; b < kBuckets; ++b) {
      out.buckets[b] += s.buckets[b].load(std::memory_order_relaxed);
    }
  }
  return out;
}

void MetricsRegistry::RegisterCounter(std::string name, ValueFn fn) {
  std::lock_guard<std::mutex> guard(mu_);
  counters_.emplace_back(std::move(name), std::move(fn));
}

void MetricsRegistry::RegisterGauge(std::string name, ValueFn fn) {
  std::lock_guard<std::mutex> guard(mu_);
  gauges_.emplace_back(std::move(name), std::move(fn));
}

void MetricsRegistry::RegisterHistogram(std::string name,
                                        const Histogram* histogram) {
  std::lock_guard<std::mutex> guard(mu_);
  histograms_.emplace_back(std::move(name), histogram);
}

MetricsSnapshot MetricsRegistry::Collect() const {
  MetricsSnapshot out;
  {
    std::lock_guard<std::mutex> guard(mu_);
    out.counters.reserve(counters_.size());
    for (const auto& [name, fn] : counters_) {
      out.counters.emplace_back(name, fn());
    }
    out.gauges.reserve(gauges_.size());
    for (const auto& [name, fn] : gauges_) {
      out.gauges.emplace_back(name, fn());
    }
    out.histograms.reserve(histograms_.size());
    for (const auto& [name, h] : histograms_) {
      out.histograms.emplace_back(name, h->Snapshot());
    }
  }
  auto by_name = [](const auto& a, const auto& b) { return a.first < b.first; };
  std::sort(out.counters.begin(), out.counters.end(), by_name);
  std::sort(out.gauges.begin(), out.gauges.end(), by_name);
  std::sort(out.histograms.begin(), out.histograms.end(), by_name);
  return out;
}

const Histogram* MetricsRegistry::FindHistogram(std::string_view name) const {
  std::lock_guard<std::mutex> guard(mu_);
  const Histogram* const* h = FindIn(histograms_, name);
  return h == nullptr ? nullptr : *h;
}

}  // namespace obs
}  // namespace ssidb
