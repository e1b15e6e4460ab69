#include "src/benchlib/driver.h"

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <cstdlib>
#include <ctime>
#include <sstream>
#include <thread>
#include <vector>

#include "src/obs/metrics.h"

namespace ssidb::bench {

std::vector<SeriesConfig> StandardSeries() {
  return {
      SeriesConfig{"S2PL", IsolationLevel::kSerializable2PL, std::nullopt},
      SeriesConfig{"SI", IsolationLevel::kSnapshot, std::nullopt},
      SeriesConfig{"SSI", IsolationLevel::kSerializableSSI, std::nullopt},
  };
}

RunResult RunWorkload(DB* db, Workload* workload, const SeriesConfig& series,
                      const DriverConfig& config) {
  // Phases: 0 = warmup, 1 = measure, 2 = stop. Workers only count during
  // the measurement window.
  std::atomic<int> phase{0};
  std::vector<RunResult> per_worker(config.mpl);
  std::vector<std::thread> workers;
  workers.reserve(config.mpl);

  for (int w = 0; w < config.mpl; ++w) {
    workers.emplace_back([&, w] {
      Random rng(config.seed * 7919 + w * 104729 + 1);
      RunResult& local = per_worker[w];
      if (config.pipeline_depth <= 0) {
        for (;;) {
          const int p = phase.load(std::memory_order_acquire);
          if (p == 2) break;
          const Status st = workload->RunOne(db, series, w, &rng);
          if (p == 1) local.Count(st);
        }
        return;
      }
      // Pipelined worker: submit through SubmitOne until `depth`
      // transactions are unacknowledged, then wait for acks to open the
      // window again. The acknowledgment may fire on any thread (group-
      // commit flusher, another committer's watermark advance, or this
      // thread inline) and concurrently with other acks of this worker,
      // so counting happens under the worker's sync mutex — and the
      // notify stays under it too, or the callback could race the
      // worker's teardown of the condition variable. The engine's
      // publishers cover and acknowledge every commit on their own (the
      // publish rule, commit_ring.h), so the worker only waits.
      const int depth = config.pipeline_depth;
      auto session = db->CreateSession();
      struct Sync {
        std::mutex mu;
        std::condition_variable cv;
        int inflight = 0;
      } sync;
      const auto wait = [&](auto pred) {
        std::unique_lock<std::mutex> guard(sync.mu);
        sync.cv.wait(guard, pred);
      };
      for (;;) {
        const int p = phase.load(std::memory_order_acquire);
        if (p == 2) break;
        wait([&] { return sync.inflight < depth; });
        {
          std::lock_guard<std::mutex> guard(sync.mu);
          ++sync.inflight;
        }
        workload->SubmitOne(db, session.get(), series, w, &rng,
                            [&sync, &local, p](Status st) {
                              std::lock_guard<std::mutex> guard(sync.mu);
                              if (p == 1) local.Count(st);
                              --sync.inflight;
                              sync.cv.notify_one();
                            });
      }
      // Drain: every submitted transaction must acknowledge before the
      // session (and this stack frame the callbacks point into) dies.
      wait([&] { return sync.inflight == 0; });
    });
  }

  const auto sleep_for = [](double seconds) {
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  };
  sleep_for(config.warmup_seconds);
  // The engine's record of the window is the registry delta between
  // snapshots at its two edges, so setup, load and warmup cannot
  // contaminate any counter or histogram in it.
  const obs::MetricsSnapshot at_start = db->metrics()->Collect();
  const auto start = std::chrono::steady_clock::now();
  phase.store(1, std::memory_order_release);
  sleep_for(config.measure_seconds);
  phase.store(2, std::memory_order_release);
  const auto end = std::chrono::steady_clock::now();
  for (std::thread& t : workers) t.join();

  RunResult total;
  total.seconds = std::chrono::duration<double>(end - start).count();
  for (const RunResult& r : per_worker) {
    total.commits += r.commits;
    total.deadlocks += r.deadlocks;
    total.update_conflicts += r.update_conflicts;
    total.unsafe += r.unsafe;
    total.timeouts += r.timeouts;
    total.app_rollbacks += r.app_rollbacks;
    total.errors += r.errors;
  }
  total.window = db->metrics()->Collect().Delta(at_start);
  return total;
}

double EnvSeconds(double dflt) {
  const char* v = std::getenv("SSIDB_BENCH_SECONDS");
  if (v == nullptr) return dflt;
  const double s = std::atof(v);
  return s > 0 ? s : dflt;
}

std::vector<int> EnvMpls(const std::vector<int>& dflt) {
  const char* v = std::getenv("SSIDB_BENCH_MPLS");
  if (v == nullptr) return dflt;
  std::vector<int> out;
  std::stringstream ss(v);
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    const int m = std::atoi(tok.c_str());
    if (m > 0) out.push_back(m);
  }
  return out.empty() ? dflt : out;
}

uint32_t EnvFlushUs(uint32_t dflt) {
  const char* v = std::getenv("SSIDB_FLUSH_US");
  if (v == nullptr) return dflt;
  const long us = std::atol(v);
  return us >= 0 ? static_cast<uint32_t>(us) : dflt;
}

uint32_t EnvCheckpointIntervalMs(uint32_t dflt) {
  const char* v = std::getenv("SSIDB_CKPT_INTERVAL_MS");
  if (v == nullptr) return dflt;
  const long ms = std::atol(v);
  return ms >= 0 ? static_cast<uint32_t>(ms) : dflt;
}

std::string EnvWalDir() {
  const char* v = std::getenv("SSIDB_WAL_DIR");
  return v == nullptr ? std::string() : std::string(v);
}

std::string EnvMetricsDump() {
  const char* v = std::getenv("SSIDB_METRICS_DUMP");
  return v == nullptr ? std::string() : std::string(v);
}

int EnvPipelineDepth(int dflt) {
  const char* v = std::getenv("SSIDB_PIPELINE");
  if (v == nullptr) return dflt;
  const long d = std::atol(v);
  return d >= 0 ? static_cast<int>(d) : dflt;
}

void MaybeDumpMetrics(DB* db, const std::string& path) {
  if (path.empty() || db == nullptr) return;
  const std::string body = db->DumpMetrics(obs::MetricsFormat::kJson);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fwrite(body.data(), 1, body.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
}

std::string NextWalPointDir() {
  const std::string base = EnvWalDir();
  if (base.empty()) return base;
  // Fresh directory per point, namespaced per run (time + pid): figures
  // open a new engine per point, and reopening a directory populated by
  // this run — or a previous run against the same SSIDB_WAL_DIR — would
  // recover the old tables into the new point and abort its setup.
  static const std::string run_dir =
      base + "/run-" + std::to_string(::time(nullptr)) + "-" +
      std::to_string(::getpid());
  static std::atomic<uint64_t> point{0};
  return run_dir + "/point-" +
         std::to_string(point.fetch_add(1, std::memory_order_relaxed));
}

}  // namespace ssidb::bench
