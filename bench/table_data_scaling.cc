// The §5.3.6 data-scaling table: loads each TPC-C++ scale configuration
// and reports per-table row counts, total rows, approximate resident bytes
// and load time — the reproduction of the thesis's data-volume table
// (standard vs tiny scale at W = 1 and W = W_BIG).
//
// The paper's table (SQL rows on InnoDB pages):
//                 W = 1      W = 10
//   standard      120 MB     1.2 GB
//   tiny          2 MB       20 MB
// Our encoded key/value rows are leaner, so absolute bytes are smaller,
// but the ratios (x60 standard/tiny, xW across warehouses) must hold.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "src/common/encoding.h"
#include "src/common/random.h"
#include "src/db/db.h"
#include "src/workloads/tpcc_loader.h"

namespace ssidb::workloads::tpcc {
namespace {

struct TableStat {
  const char* name;
  TableId id;
};

void Report(uint32_t warehouses, bool tiny) {
  DBOptions opts;
  std::unique_ptr<DB> db;
  if (!DB::Open(opts, &db).ok()) abort();
  TpccConfig config;
  config.warehouses = warehouses;
  config.tiny = tiny;
  TpccTables tables;
  const auto start = std::chrono::steady_clock::now();
  Status st = LoadTpcc(db.get(), config, 42, &tables);
  const double load_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
  if (!st.ok()) {
    fprintf(stderr, "load failed: %s\n", st.ToString().c_str());
    abort();
  }

  const TableStat stats[] = {
      {"warehouse", tables.warehouse},
      {"district", tables.district},
      {"customer", tables.customer},
      {"customer_credit", tables.customer_credit},
      {"customer_name", tables.customer_name},
      {"item", tables.item},
      {"stock", tables.stock},
      {"order", tables.order},
      {"order_customer", tables.order_customer},
      {"new_order", tables.new_order},
      {"order_line", tables.order_line},
  };

  printf("scale=%s W=%u (load %.2fs)\n", tiny ? "tiny" : "standard",
         warehouses, load_s);
  size_t total_rows = 0;
  size_t total_bytes = 0;
  auto txn = db->Begin({IsolationLevel::kSnapshot});
  for (const TableStat& t : stats) {
    size_t rows = 0;
    size_t bytes = 0;
    Status s = txn->Scan(t.id, Slice("", 0), std::string(64, '\xff'),
                         [&rows, &bytes](Slice key, Slice value) {
                           ++rows;
                           bytes += key.size() + value.size();
                           return true;
                         });
    if (!s.ok()) abort();
    printf("  %-16s %9zu rows %12zu bytes\n", t.name, rows, bytes);
    total_rows += rows;
    total_bytes += bytes;
  }
  txn->Commit();
  printf("  %-16s %9zu rows %12.1f MB\n\n", "TOTAL", total_rows,
         total_bytes / (1024.0 * 1024.0));
}

/// Resident set size from /proc/self/status, in bytes (0 if unreadable).
size_t CurrentRssBytes() {
  FILE* f = fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  size_t rss_kb = 0;
  while (fgets(line, sizeof(line), f) != nullptr) {
    if (strncmp(line, "VmRSS:", 6) == 0) {
      rss_kb = strtoull(line + 6, nullptr, 10);
      break;
    }
  }
  fclose(f);
  return rss_kb * 1024;
}

double MedianOf(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  return xs[xs.size() / 2];
}

/// The past-RAM half of the table: a dataset 4x the configured buffer pool
/// loaded with interleaved spill sweeps (so resident versions never pile up
/// to the dataset size), then interleaved A/B read rounds:
///   A (fault) — uniform point reads with a spill sweep every few thousand
///               reads, so most reads fault a chain back through the pool;
///   B (hot)   — point reads over a small resident working set (pure pool
///               and chain hits).
/// Reports the medians, the pool hit rate and the peak RSS as one JSON
/// line so the driver can append it to BENCH_micro_ops.json and assert
/// that RSS stayed bounded near the pool size, not the dataset size.
void PastRamReport() {
  const char* pool_env = std::getenv("SSIDB_POOL_MB");
  const size_t pool_mb =
      pool_env != nullptr && std::atol(pool_env) > 0 ? std::atol(pool_env) : 4;

  char run_dir[] = "/tmp/ssidb_scaling_XXXXXX";
  if (mkdtemp(run_dir) == nullptr) abort();

  DBOptions opts;
  opts.buffer_pool_bytes = pool_mb << 20;
  opts.data_dir = run_dir;
  opts.version_gc_interval_ms = 0;  // The bench drives spilling itself.

  // Large-ish values: the index and chain skeletons stay in memory by
  // design (the tier spills versions, not keys), so the value payload must
  // dominate for "RSS ~ pool size, not dataset size" to be observable.
  constexpr size_t kValueBytes = 3072;
  const size_t dataset_bytes = 4 * opts.buffer_pool_bytes;
  const uint64_t keys = dataset_bytes / (8 + kValueBytes);

  std::unique_ptr<DB> db;
  if (!DB::Open(opts, &db).ok()) abort();
  TableId table = 0;
  if (!db->CreateTable("past_ram", &table).ok()) abort();

  const std::string value(kValueBytes, 'v');
  auto spill_all = [&] {
    db->SpillChains(table);  // Clear second-chance bits...
    db->SpillChains(table);  // ...then evict.
  };

  // Load in batches with interleaved spills: the resident high-water mark
  // is one batch of chains, never the dataset.
  constexpr uint64_t kBatch = 2048;
  const auto load_start = std::chrono::steady_clock::now();
  for (uint64_t base = 0; base < keys; base += kBatch) {
    auto txn = db->Begin({IsolationLevel::kSnapshot});
    for (uint64_t i = base; i < std::min(base + kBatch, keys); ++i) {
      if (!txn->Put(table, EncodeU64Key(i), value).ok()) abort();
    }
    if (!txn->Commit().ok()) abort();
    spill_all();
  }
  const double load_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - load_start)
                            .count();
  // Return freed chain arenas to the OS before each sample, so RSS
  // reflects live state rather than allocator retention.
  auto sample_rss = [] {
#if defined(__GLIBC__)
    malloc_trim(0);
#endif
    return CurrentRssBytes();
  };
  size_t peak_rss = sample_rss();

  constexpr int kRounds = 3;
  constexpr uint64_t kReadsPerRound = 20000;
  constexpr uint64_t kReadsPerSweep = 4096;
  const uint64_t hot_keys = std::min<uint64_t>(keys, 1024);
  std::vector<double> fault_rps, hot_rps;
  Random rng(7);
  auto read_one = [&](uint64_t k) {
    auto txn = db->Begin({IsolationLevel::kSnapshot});
    std::string v;
    if (!txn->Get(table, EncodeU64Key(k), &v).ok()) abort();
    txn->Commit();
  };
  for (int round = 0; round < kRounds; ++round) {
    // A: uniform reads over the whole dataset, re-spilling as we go.
    spill_all();
    auto start = std::chrono::steady_clock::now();
    for (uint64_t i = 0; i < kReadsPerRound; ++i) {
      read_one(rng.Uniform(keys));
      if ((i + 1) % kReadsPerSweep == 0) spill_all();
    }
    double secs = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();
    fault_rps.push_back(kReadsPerRound / secs);
    peak_rss = std::max(peak_rss, sample_rss());

    // B: reads over a small resident working set (first pass faults it in,
    // so warm it once outside the timed region).
    for (uint64_t k = 0; k < hot_keys; ++k) read_one(k);
    start = std::chrono::steady_clock::now();
    for (uint64_t i = 0; i < kReadsPerRound; ++i) {
      read_one(rng.Uniform(hot_keys));
    }
    secs = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
               .count();
    hot_rps.push_back(kReadsPerRound / secs);
    peak_rss = std::max(peak_rss, sample_rss());
  }

  const obs::MetricsSnapshot stats = db->metrics()->Collect();
  const uint64_t hits = stats.Find("pool.hits").value_or(0);
  const uint64_t misses = stats.Find("pool.misses").value_or(0);
  const double hit_rate =
      hits + misses > 0 ? static_cast<double>(hits) / (hits + misses) : 0.0;

  printf("past-RAM: pool=%zuMB dataset=%.1fMB (%llu keys, load %.2fs)\n",
         pool_mb, dataset_bytes / (1024.0 * 1024.0),
         static_cast<unsigned long long>(keys), load_s);
  printf("  fault reads %.0f/s  hot reads %.0f/s  hit_rate %.3f  "
         "peak RSS %.1fMB\n",
         MedianOf(fault_rps), MedianOf(hot_rps), hit_rate,
         peak_rss / (1024.0 * 1024.0));
  printf("{\"name\":\"table_data_scaling_past_ram\",\"pool_bytes\":%zu,"
         "\"dataset_bytes\":%zu,\"keys\":%llu,\"fault_reads_per_s\":%.0f,"
         "\"hot_reads_per_s\":%.0f,\"hit_rate\":%.3f,\"peak_rss_bytes\":%zu,"
         "\"spilled_chains\":%llu,\"faulted_chains\":%llu}\n",
         static_cast<size_t>(opts.buffer_pool_bytes), dataset_bytes,
         static_cast<unsigned long long>(keys), MedianOf(fault_rps),
         MedianOf(hot_rps), hit_rate, peak_rss,
         static_cast<unsigned long long>(
             stats.Find("tier.spilled_chains").value_or(0)),
         static_cast<unsigned long long>(
             stats.Find("tier.faulted_chains").value_or(0)));

  db.reset();
  std::error_code ec;
  std::filesystem::remove_all(run_dir, ec);
}

}  // namespace
}  // namespace ssidb::workloads::tpcc

int main() {
  using ssidb::workloads::tpcc::PastRamReport;
  using ssidb::workloads::tpcc::Report;
  if (std::getenv("SSIDB_SKIP_TPCC") == nullptr) {
    const char* env = std::getenv("SSIDB_TPCC_WAREHOUSES");
    const uint32_t w_big =
        env != nullptr && std::atol(env) > 0 ? std::atol(env) : 2;
    printf("TPC-C++ data scaling (the §5.3.6 table)\n\n");
    Report(1, /*tiny=*/true);
    Report(w_big, /*tiny=*/true);
    Report(1, /*tiny=*/false);
    Report(w_big, /*tiny=*/false);
  }
  PastRamReport();
  return 0;
}
