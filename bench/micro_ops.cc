// Google-benchmark microbenchmarks of the engine primitives: per-operation
// costs behind the Chapter 6 numbers. Quantifies the paper's core overhead
// claims — SIREAD lock maintenance (§3.2), suspended-transaction cleanup
// (§3.3), gap locking during scans (§3.5) — at the operation level.

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "src/common/crc32c.h"
#include "src/common/encoding.h"
#include "src/common/random.h"
#include "src/db/db.h"

namespace ssidb {
namespace {

constexpr uint64_t kRows = 10000;

std::unique_ptr<DB> MakeLoadedDB(TableId* table,
                                 DBOptions opts = DBOptions{}) {
  std::unique_ptr<DB> db;
  Status st = DB::Open(opts, &db);
  if (!st.ok()) abort();
  st = db->CreateTable("t", table);
  if (!st.ok()) abort();
  for (uint64_t base = 0; base < kRows; base += 1000) {
    auto txn = db->Begin({IsolationLevel::kSnapshot});
    for (uint64_t i = base; i < base + 1000 && i < kRows; ++i) {
      txn->Insert(*table, EncodeU64Key(i), "value");
    }
    txn->Commit();
  }
  return db;
}

IsolationLevel IsoFromRange(int64_t r) {
  switch (r) {
    case 0: return IsolationLevel::kSnapshot;
    case 1: return IsolationLevel::kSerializableSSI;
    default: return IsolationLevel::kSerializable2PL;
  }
}

const char* IsoName(int64_t r) {
  switch (r) {
    case 0: return "SI";
    case 1: return "SSI";
    default: return "S2PL";
  }
}

/// One-row point read per transaction: the cost floor of Fig 6.1's short
/// transactions. SSI pays the SIREAD acquisition + suspension; S2PL pays
/// the shared lock; SI pays neither.
void BM_GetTxn(benchmark::State& state) {
  TableId table = 0;
  auto db = MakeLoadedDB(&table);
  Random rng(7);
  const IsolationLevel iso = IsoFromRange(state.range(0));
  std::string value;
  for (auto _ : state) {
    auto txn = db->Begin({iso});
    benchmark::DoNotOptimize(
        txn->Get(table, EncodeU64Key(rng.Uniform(kRows)), &value));
    txn->Commit();
  }
  state.SetLabel(IsoName(state.range(0)));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GetTxn)->Arg(0)->Arg(1)->Arg(2);

/// Read-modify-write of one row per transaction (the §3.7.3 upgrade path).
void BM_UpdateTxn(benchmark::State& state) {
  TableId table = 0;
  auto db = MakeLoadedDB(&table);
  Random rng(11);
  const IsolationLevel iso = IsoFromRange(state.range(0));
  std::string value;
  for (auto _ : state) {
    auto txn = db->Begin({iso});
    const std::string key = EncodeU64Key(rng.Uniform(kRows));
    txn->Get(table, key, &value);
    txn->Put(table, key, "updated");
    txn->Commit();
  }
  state.SetLabel(IsoName(state.range(0)));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_UpdateTxn)->Arg(0)->Arg(1)->Arg(2);

/// Range scan of N rows per transaction. Under SSI this measures one range
/// SIREAD per scan plus a probe for writers on each row and gap; under
/// S2PL the shared next-key locks of Fig 3.6; under SI no locks at all —
/// the paper's lock-manager-bound regime (§6.3.2).
void BM_ScanTxn(benchmark::State& state) {
  TableId table = 0;
  auto db = MakeLoadedDB(&table);
  Random rng(13);
  const IsolationLevel iso = IsoFromRange(state.range(0));
  const uint64_t span = static_cast<uint64_t>(state.range(1));
  for (auto _ : state) {
    auto txn = db->Begin({iso});
    const uint64_t lo = rng.Uniform(kRows - span);
    size_t rows = 0;
    txn->Scan(table, EncodeU64Key(lo), EncodeU64Key(lo + span - 1),
              [&rows](Slice, Slice) {
                ++rows;
                return true;
              });
    benchmark::DoNotOptimize(rows);
    txn->Commit();
  }
  state.SetLabel(std::string(IsoName(state.range(0))) + "/rows:" +
                 std::to_string(state.range(1)));
  state.SetItemsProcessed(state.iterations() * state.range(1));
}
BENCHMARK(BM_ScanTxn)
    ->Args({0, 100})
    ->Args({1, 100})
    ->Args({2, 100})
    ->Args({0, 1000})
    ->Args({1, 1000})
    ->Args({2, 1000});

/// Insert throughput (gap locking on the insert path, Fig 3.7).
void BM_InsertTxn(benchmark::State& state) {
  TableId table = 0;
  auto db = MakeLoadedDB(&table);
  const IsolationLevel iso = IsoFromRange(state.range(0));
  uint64_t next = kRows + 1;
  for (auto _ : state) {
    auto txn = db->Begin({iso});
    txn->Insert(table, EncodeU64Key(next++), "fresh");
    txn->Commit();
  }
  state.SetLabel(IsoName(state.range(0)));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InsertTxn)->Arg(0)->Arg(1)->Arg(2);

/// Empty begin/commit: transaction-manager fixed costs (registration,
/// snapshot allocation, suspended-list sweep).
void BM_BeginCommit(benchmark::State& state) {
  TableId table = 0;
  auto db = MakeLoadedDB(&table);
  const IsolationLevel iso = IsoFromRange(state.range(0));
  for (auto _ : state) {
    auto txn = db->Begin({iso});
    txn->Commit();
  }
  state.SetLabel(IsoName(state.range(0)));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BeginCommit)->Arg(0)->Arg(1)->Arg(2);

/// Lock manager hot path: acquire + release of an exclusive lock.
void BM_LockAcquireRelease(benchmark::State& state) {
  LockManager::Config config;
  LockManager lm(config);
  const LockKey key{1, LockKind::kRow, "hot"};
  TxnId id = 1;
  for (auto _ : state) {
    lm.Acquire(id, key, LockMode::kExclusive);
    lm.ReleaseAll(id);
    ++id;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LockAcquireRelease);

/// SIREAD acquisition against a growing population of retained locks —
/// the lock-table pressure of suspended transactions (§3.3).
void BM_SIReadAcquire(benchmark::State& state) {
  LockManager::Config config;
  LockManager lm(config);
  // Pre-populate retained SIREAD locks from "suspended" transactions.
  for (TxnId t = 1; t <= static_cast<TxnId>(state.range(0)); ++t) {
    lm.Acquire(t, LockKey{1, LockKind::kRow, "hot"}, LockMode::kSIRead);
  }
  TxnId id = 1000000;
  for (auto _ : state) {
    lm.Acquire(id, LockKey{1, LockKind::kRow, "hot"}, LockMode::kSIRead);
    lm.ReleaseAll(id);
    ++id;
  }
  state.SetLabel("retained:" + std::to_string(state.range(0)));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SIReadAcquire)->Arg(0)->Arg(10)->Arg(100);

/// Version-chain read as the chain deepens (long-running snapshots delay
/// pruning; §4.2's "works best when the active set of versions fits").
void BM_VersionChainRead(benchmark::State& state) {
  VersionChain chain;
  for (int64_t i = 1; i <= state.range(0); ++i) {
    bool replaced = false;
    Version* v = chain.InstallUncommitted(static_cast<TxnId>(i), "v", false,
                                          &replaced);
    v->commit_ts.store(static_cast<Timestamp>(i * 10));
  }
  std::string value;
  for (auto _ : state) {
    // Read at a snapshot that sees only the oldest version: full walk.
    benchmark::DoNotOptimize(chain.Read(999999, 10, &value));
  }
  state.SetLabel("depth:" + std::to_string(state.range(0)));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_VersionChainRead)->Arg(1)->Arg(8)->Arg(64);

/// CRC32C over one buffer: 64 bytes is a WAL record frame, 16384 a run
/// page (re-checked on every run lookup that faults a chain in). 768 and
/// 6144 are exactly three short and three long lanes of the SSE4.2 kernel.
void BM_Crc32c(benchmark::State& state) {
  Random rng(3);
  std::string bytes(static_cast<size_t>(state.range(0)), '\0');
  for (char& c : bytes) c = static_cast<char>(rng.Next());
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32c(0, bytes.data(), bytes.size()));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32c)->Arg(64)->Arg(768)->Arg(6144)->Arg(16384);

/// Table::Find over 100k EncodeU64Key keys, inserted in random order into
/// a table split at the default threshold: uniform picks over all keys
/// (Arg 0, a working set well past L2) or over the first 128 (Arg 1, a
/// hot set that stays cached). The index cost under every Get and write.
void BM_TableFind(benchmark::State& state) {
  constexpr uint64_t kKeys = 100000;
  const uint64_t span = state.range(0) == 0 ? kKeys : 128;
  Table table(1, "t");
  std::vector<std::string> keys;
  keys.reserve(kKeys);
  for (uint64_t i = 0; i < kKeys; ++i) keys.push_back(EncodeU64Key(i));
  std::vector<std::string> order = keys;
  Random rng(5);
  rng.Shuffle(&order);
  for (const std::string& k : order) table.GetOrCreate(k);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.Find(keys[rng.Uniform(span)]));
  }
  state.SetLabel(state.range(0) == 0 ? "uniform-100k" : "hot-128");
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TableFind)->Arg(0)->Arg(1);

// ---------------------------------------------------------------------------
// Multi-threaded scaling: the sharded-storage / split-system-mutex payoff.
// Each thread owns a disjoint contiguous key partition, so any remaining
// slowdown is latch or cache-line contention, not logical conflicts. The
// thread-0 epilogue reports how many range shards the table split into
// and the engine's commit-pipeline counters, so both land in BENCH_*.json.
// ---------------------------------------------------------------------------

std::unique_ptr<DB> g_mt_db;        // NOLINT: benchmark-lifetime globals.
TableId g_mt_table = 0;

void ReportRunCounters(benchmark::State& state) {
  state.counters["shards"] = benchmark::Counter(
      static_cast<double>(g_mt_db->table(g_mt_table)->ShardCount()));
  // Commit-pipeline behaviour over the whole run: how often commit
  // acknowledgment actually parked, how targeted the watermark wakeups
  // were, whether the ring ever backpressured, and the deepest in-flight
  // commit window — these land in BENCH_micro_ops.json so the lock-free
  // pipeline's behaviour stays tracked alongside its throughput.
  const obs::MetricsSnapshot s = g_mt_db->metrics()->Collect();
  const auto report = [&](const char* counter, const char* metric) {
    state.counters[counter] = benchmark::Counter(
        static_cast<double>(s.Find(metric).value_or(0)));
  };
  report("commit_waits", "commit.waits");
  report("commit_wakeups", "commit.wakeups");
  report("ring_full_stalls", "commit.ring_full_stalls");
  report("max_commit_window", "commit.max_window_depth");
  // Certification-stage split: how many SSI commits skipped certification
  // entirely (conflict-free fast path) vs were validated by a combining
  // pass, and how much batching the combiner actually achieved
  // (combined/batches > 1 means one lock acquisition certified several
  // committers).
  report("commit_fastpath", "commit.fastpath");
  report("commit_combined", "commit.combined_txns");
  report("commit_batches", "commit.combine_batches");
  report("commit_max_batch", "commit.max_batch");
  // Commit-path latency percentiles over the whole run, read straight off
  // the engine's commit.total_ns stage histogram (sampled recording; the
  // MT series push enough commits that the quantiles are stable).
  const obs::HistogramSnapshot* commit = s.FindHistogram("commit.total_ns");
  if (commit != nullptr && commit->count > 0) {
    state.counters["commit_p50_us"] =
        benchmark::Counter(commit->Quantile(0.50) / 1000.0);
    state.counters["commit_p95_us"] =
        benchmark::Counter(commit->Quantile(0.95) / 1000.0);
    state.counters["commit_p99_us"] =
        benchmark::Counter(commit->Quantile(0.99) / 1000.0);
  }
  // SSIDB_METRICS_DUMP: write the full registry snapshot once per MT run
  // (numeric suffix keeps successive benchmarks from overwriting).
  if (const char* dump_base = getenv("SSIDB_METRICS_DUMP")) {
    static std::atomic<uint64_t> dump_seq{0};
    const std::string path =
        std::string(dump_base) + "." +
        std::to_string(dump_seq.fetch_add(1, std::memory_order_relaxed));
    const std::string body = g_mt_db->DumpMetrics(obs::MetricsFormat::kJson);
    if (FILE* f = fopen(path.c_str(), "w")) {
      fwrite(body.data(), 1, body.size(), f);
      fputc('\n', f);
      fclose(f);
    }
  }
}

/// Shared harness: thread-0 builds the DB, each thread draws keys from its
/// own contiguous partition, thread-0 reports the run counters.
/// `txn_body(key_id)` runs one whole transaction.
template <typename Body>
void RunMTDisjoint(benchmark::State& state, uint64_t seed,
                   const Body& txn_body) {
  if (state.thread_index() == 0) {
    g_mt_db = MakeLoadedDB(&g_mt_table);
  }
  const uint64_t span = kRows / static_cast<uint64_t>(state.threads());
  const uint64_t base = span * static_cast<uint64_t>(state.thread_index());
  Random rng(seed + static_cast<uint64_t>(state.thread_index()));
  for (auto _ : state) {
    txn_body(base + rng.Uniform(span));
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    ReportRunCounters(state);
    g_mt_db.reset();
  }
}

/// One-row SSI point-read transactions on disjoint partitions. The 8-thread
/// series against the 1-thread series is the headline scaling number: no
/// Get on this path may take a global mutex.
void BM_MTGetDisjoint(benchmark::State& state) {
  std::string value;
  RunMTDisjoint(state, 17, [&](uint64_t key_id) {
    auto txn = g_mt_db->Begin({IsolationLevel::kSerializableSSI});
    benchmark::DoNotOptimize(txn->Get(g_mt_table, EncodeU64Key(key_id), &value));
    txn->Commit();
  });
}
BENCHMARK(BM_MTGetDisjoint)->Threads(1)->Threads(4)->Threads(8)
    ->UseRealTime();

/// One-row SI update transactions on disjoint partitions: the write path's
/// scaling (exclusive row lock + FCW + version install + commit window).
void BM_MTUpdateDisjoint(benchmark::State& state) {
  RunMTDisjoint(state, 23, [&](uint64_t key_id) {
    auto txn = g_mt_db->Begin({IsolationLevel::kSnapshot});
    txn->Put(g_mt_table, EncodeU64Key(key_id), "updated");
    txn->Commit();
  });
}
BENCHMARK(BM_MTUpdateDisjoint)->Threads(1)->Threads(4)->Threads(8)
    ->UseRealTime();

/// Mixed read/write SSI transactions on disjoint partitions — the closest
/// microbenchmark to the Chapter 6 short-transaction regime, now with the
/// conflict tracker's pairwise latches instead of the system mutex.
void BM_MTReadModifyWriteDisjoint(benchmark::State& state) {
  std::string value;
  RunMTDisjoint(state, 29, [&](uint64_t key_id) {
    auto txn = g_mt_db->Begin({IsolationLevel::kSerializableSSI});
    const std::string key = EncodeU64Key(key_id);
    txn->Get(g_mt_table, key, &value);
    txn->Put(g_mt_table, key, "updated");
    txn->Commit();
  });
}
BENCHMARK(BM_MTReadModifyWriteDisjoint)->Threads(1)->Threads(4)->Threads(8)
    ->UseRealTime();

/// Write-heavy commit-pipeline series: one Put per transaction, so the
/// measurement is dominated by the commit path — the window critical
/// section, version stamping, the commit-slot ring (watermark advance +
/// coverage wait), registry deregistration and the log append. range(0)
/// selects the keyspace: 0 = disjoint per-thread partitions (pipeline
/// mechanics only — no logical conflicts), 1 = contended (all threads
/// hammer a 64-key space: hot-key EXCLUSIVE-lock handoff joins the
/// pipeline cost). The contended abort counter is expected to stay 0 —
/// single-statement updates never abort under first-committer-wins with
/// late snapshots (§4.5: lock first, then snapshot), and a nonzero value
/// here would mean that invariant broke. commits/s is the headline
/// number the lock-free commit pipeline is accountable for.
void BM_MTCommitPipeline(benchmark::State& state) {
  const bool contended = state.range(0) != 0;
  constexpr uint64_t kContendedKeys = 64;
  uint64_t aborted = 0;
  RunMTDisjoint(state, 37, [&](uint64_t key_id) {
    if (contended) key_id %= kContendedKeys;
    auto txn = g_mt_db->Begin({IsolationLevel::kSnapshot});
    txn->Put(g_mt_table, EncodeU64Key(key_id), "updated");
    if (!txn->Commit().ok()) ++aborted;
  });
  state.SetLabel(contended ? "SI/contended" : "SI/disjoint");
  state.counters["aborts"] =
      benchmark::Counter(static_cast<double>(aborted));
}
BENCHMARK(BM_MTCommitPipeline)
    ->Args({0})
    ->Args({1})
    ->Threads(1)
    ->Threads(4)
    ->Threads(8)
    ->Threads(16)
    ->UseRealTime();

/// SSI read-mostly series: the tentpole workload of the SIREAD read path.
/// Each transaction issues 4 point operations; range(0) is the read
/// percentage (90 => 90/10 read/write mix, 100 => read-only). SIREAD
/// publication, the EXCLUSIVE-holder probe, and suspended-reader retention
/// dominate — exactly the traffic the paper observes never blocks (§3.2,
/// §3.3). items = operations, so throughput is ops/s, not txns/s.
void BM_MTSSIReadMostly(benchmark::State& state) {
  const uint64_t read_pct = static_cast<uint64_t>(state.range(0));
  constexpr int kOpsPerTxn = 4;
  std::string value;
  // Per-thread deterministic op mix (each benchmark thread runs this
  // function body, so the generator is per-thread state).
  Random mix_rng(41 + static_cast<uint64_t>(state.thread_index()));
  RunMTDisjoint(state, 31, [&](uint64_t key_id) {
    auto txn = g_mt_db->Begin({IsolationLevel::kSerializableSSI});
    for (int op = 0; op < kOpsPerTxn; ++op) {
      const std::string key = EncodeU64Key((key_id + op) % kRows);
      if (mix_rng.Uniform(100) < read_pct) {
        txn->Get(g_mt_table, key, &value);
      } else {
        txn->Put(g_mt_table, key, "updated");
      }
    }
    txn->Commit();
  });
  state.SetLabel("SSI/read_pct:" + std::to_string(read_pct));
  state.SetItemsProcessed(state.iterations() * kOpsPerTxn);
}
BENCHMARK(BM_MTSSIReadMostly)
    ->Args({90})
    ->Args({100})
    ->Threads(1)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime();

}  // namespace
}  // namespace ssidb

BENCHMARK_MAIN();
