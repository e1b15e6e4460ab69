#include "perfbench/src/workloads.h"

#include <sched.h>

#include <algorithm>
#include <condition_variable>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>

#include "perfbench/src/smallbank_mux.h"
#include "src/common/encoding.h"
#include "src/db/session.h"
#include "src/io/env.h"
#include "src/workloads/sibench.h"

namespace perfbench {

using ssidb::DB;
using ssidb::DBOptions;
using ssidb::IsolationLevel;
using ssidb::Slice;
using ssidb::Status;

namespace {

/// Set-ups per run; setup_s is their median and the last one is measured.
constexpr int kSetupRounds = 5;
/// Share of a run's programs executed before the window opens.
constexpr double kWarmupShare = 0.1;

/// Programs a run executes: `seconds` times the workload's nominal rate,
/// so the schedule depends on the seed and the run length only, and
/// same-seed runs repeat their counts exactly.
uint64_t Programs(const Args& a, double nominal_per_s) {
  return std::max<uint64_t>(1000, static_cast<uint64_t>(a.seconds *
                                                        nominal_per_s));
}

/// The real filesystem minus fsync. On the shared disk of the development
/// VM, fsync latency alone spread durable-pipelined's commits_per_s by 24%
/// (IQR over median) and past-ram's set-up time from 0.08 s to 2.6 s; the
/// workloads still write every byte through the engine's I/O paths.
class NoFsyncEnv : public ssidb::io::Env {
 public:
  int Fsync(int) override { return 0; }
};

void ReportEndToEnd(Result* out, uint64_t commits, uint64_t attempts,
                    const Window& w, const CommitLog& log,
                    const std::vector<double>& setups) {
  const CommitLog::Summary sum = log.Summarize(w.start_ns);
  out->Set("commits_per_s", sum.commits_per_s, "txn/s");
  out->Set("txn_p50_us", sum.p50_ns / 1e3, "us");
  out->Set("txn_p99_us", sum.p99_ns / 1e3, "us");
  out->Set("attempts_per_commit",
           commits == 0 ? 0.0 : static_cast<double>(attempts) / commits,
           "ratio");
  out->Set("peak_rss_mb", PeakRssMiB(), "MiB");
  out->Set("setup_s", Median(setups), "s");
}

void SetUnused(Result* out, std::initializer_list<const char*> names,
               const char* unit) {
  for (const char* n : names) out->Set(n, 0, unit);
}

// ---------------------------------------------------------- SmallBank

struct SmallBankRun {
  SmallBankMuxConfig config;
  double nominal_per_s;
  /// OLTP commits between gauge samples in the traced run.
  uint64_t sample_every;
};

/// Three short schedules on fresh engines: two on `seed` must agree on
/// every count, every abort reason and the schedule fingerprint; one on
/// another seed must follow a different schedule.
void DeterminismCheck(const SmallBankMuxConfig& base, uint64_t seed,
                      Result* out) {
  SmallBankMuxConfig config = base;
  config.customers = std::min<uint64_t>(config.customers, 20000);
  constexpr uint64_t kCommits = 20000;
  struct Outcome {
    MuxCounts counts;
    std::vector<uint64_t> aborts;
  };
  auto run = [&](uint64_t s, Outcome* o) {
    std::unique_ptr<DB> db;
    if (!DB::Open(DBOptions{}, &db).ok()) return false;
    Tracer off(false);
    SmallBankMux mux(db.get(), config, s, &off);
    std::string error;
    if (!mux.Load().ok() || !mux.Run(kCommits, &error)) return false;
    o->counts = mux.counts();
    const ssidb::obs::MetricsSnapshot snap = db->metrics()->Collect();
    for (const auto& [name, v] : snap.counters) {
      if (name.rfind("abort.", 0) == 0) o->aborts.push_back(v);
    }
    return true;
  };
  Outcome a, b, c;
  if (!run(seed, &a) || !run(seed, &b) || !run(seed + 1, &c)) {
    out->Fail("determinism check: a schedule failed");
    return;
  }
  const bool same = a.counts.commits == b.counts.commits &&
                    a.counts.attempts == b.counts.attempts &&
                    a.counts.aborts == b.counts.aborts &&
                    a.counts.cycle_aborts == b.counts.cycle_aborts &&
                    a.counts.fingerprint == b.counts.fingerprint &&
                    a.aborts == b.aborts;
  out->Check(same, "determinism check: same seed gave different counts");
  out->Check(a.counts.fingerprint != c.counts.fingerprint,
             "determinism check: another seed gave the same schedule");
  std::fprintf(stderr,
               "determinism: seed %llu x2 -> %llu attempts / %llu commits "
               "(%s); seed %llu -> %llu attempts\n",
               static_cast<unsigned long long>(seed),
               static_cast<unsigned long long>(a.counts.attempts),
               static_cast<unsigned long long>(a.counts.commits),
               same ? "identical" : "DIFFERENT",
               static_cast<unsigned long long>(seed + 1),
               static_cast<unsigned long long>(c.counts.attempts));
}

void RunSmallBank(const Args& args, const SmallBankRun& run, Result* out) {
  Tracer tracer(args.trace);
  std::unique_ptr<DB> db;
  std::unique_ptr<SmallBankMux> mux;
  std::vector<double> setups;
  for (int i = 0; i < kSetupRounds; ++i) {
    mux.reset();  // Sessions go before their engine.
    db.reset();
    const uint64_t t0 = NowNs();
    // Engine defaults: in memory, no flush on commit, 100 ms sweeper.
    Status st = DB::Open(DBOptions{}, &db);
    if (st.ok()) {
      mux = std::make_unique<SmallBankMux>(db.get(), run.config, args.seed,
                                           &tracer);
      st = mux->Load();
    }
    if (!st.ok()) {
      out->Fail("setup: " + st.ToString());
      return;
    }
    setups.push_back((NowNs() - t0) / 1e9);
  }

  const uint64_t programs = Programs(args, run.nominal_per_s);
  const uint64_t warmup = static_cast<uint64_t>(programs * kWarmupShare);
  std::string error;
  if (!mux->Run(warmup, &error)) {
    out->Fail(error);
    return;
  }
  GaugePeaks peaks;
  if (args.trace) mux->SampleGaugesEvery(run.sample_every, &peaks);
  const MuxCounts before = mux->counts();
  Window w(db.get());
  mux->SetMeasuring(true);
  tracer.SetMeasuring(true);
  w.Start();
  const bool ran = mux->Run(programs, &error);
  w.Stop();
  tracer.SetMeasuring(false);
  mux->SetMeasuring(false);
  if (!ran) {
    out->Fail(error);
    return;
  }
  const MuxCounts& after = mux->counts();
  const uint64_t commits = after.commits - before.commits;
  const uint64_t attempts = after.attempts - before.attempts;
  const uint64_t report_attempts =
      after.report_attempts - before.report_attempts;
  out->attempted = attempts + report_attempts;
  out->failed = (after.aborts - before.aborts) +
                (after.report_aborts - before.report_aborts);

  if (!mux->CheckTotal(&error)) out->Fail(error);
  out->Check(mux->report_ok(),
             "report: a pass total differed from its committed prefix");
  if (run.config.report_chunk_rows > 0) {
    out->Check(after.report_passes > 0, "report: no pass completed");
  }
  std::fprintf(stderr,
               "%s: %llu commits, %llu attempts, %llu deferrals, %llu cycle "
               "aborts, %llu report passes (%llu aborted)\n",
               args.workload.c_str(),
               static_cast<unsigned long long>(commits),
               static_cast<unsigned long long>(attempts),
               static_cast<unsigned long long>(after.deferrals -
                                               before.deferrals),
               static_cast<unsigned long long>(after.cycle_aborts -
                                               before.cycle_aborts),
               static_cast<unsigned long long>(after.report_passes),
               static_cast<unsigned long long>(after.report_aborts));

  ReportEndToEnd(out, commits, attempts, w, mux->commit_log(), setups);
  if (args.trace) {
    peaks.Sample(db.get());
    ReportTraceLayers(&tracer, w, commits, out);
    ReportRegistryLayers(w, commits, attempts + report_attempts, out);
    peaks.Report(out);
    out->Set("txn.scan_rows", mux->scan_rows_mean(), "rows");
    SetUnused(out, {"db.ack_ns.p50", "db.ack_ns.p99"}, "ns");
    out->Set("db.checkpoint_ms.p50", 0, "ms");
    out->Set("db.reopen_s", 0, "s");
    out->Set("write_amp", 0, "ratio");  // In memory: nothing is written.
    if (!args.trace_out.empty()) tracer.WriteTo(args.trace_out);
  }
  mux.reset();
}

}  // namespace

void RunSmallBankContended(const Args& args, Result* out) {
  SmallBankRun run;
  run.config.customers = 100000;
  run.config.clients = 32;
  run.config.hot_customers = 128;
  run.config.hot_share = 0.9;
  run.nominal_per_s = 250000;
  run.sample_every = 1024;
  if (!args.trace) DeterminismCheck(run.config, args.seed, out);
  RunSmallBank(args, run, out);
}

void RunSmallBankReport(const Args& args, Result* out) {
  SmallBankRun run;
  run.config.customers = 100000;
  run.config.clients = 8;
  run.config.report_chunk_rows = 256;
  run.config.report_every_commits = 64;
  run.nominal_per_s = 60000;
  run.sample_every = 1024;
  RunSmallBank(args, run, out);
}

// --------------------------------------------------- durable-pipelined

namespace {

/// Triggers DB::Checkpoint() on request, off the client thread.
class CheckpointTrigger {
 public:
  explicit CheckpointTrigger(DB* db)
      : db_(db), thread_([this] { Loop(); }) {}
  ~CheckpointTrigger() {
    {
      std::lock_guard<std::mutex> g(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  CheckpointTrigger(const CheckpointTrigger&) = delete;
  CheckpointTrigger& operator=(const CheckpointTrigger&) = delete;

  void Request() {
    {
      std::lock_guard<std::mutex> g(mu_);
      ++requested_;
    }
    cv_.notify_all();
  }
  /// Durations of the checkpoints taken so far.
  Samples TakeDurations() {
    std::lock_guard<std::mutex> g(mu_);
    return durations_;
  }
  Status status() {
    std::lock_guard<std::mutex> g(mu_);
    return status_;
  }

 private:
  void Loop() {
    std::unique_lock<std::mutex> g(mu_);
    for (;;) {
      cv_.wait(g, [this] { return stop_ || requested_ > taken_; });
      if (stop_) return;
      ++taken_;
      g.unlock();
      const uint64_t t0 = NowNs();
      const Status st = db_->Checkpoint();
      const uint64_t d = NowNs() - t0;
      g.lock();
      durations_.Add(d);
      if (!st.ok() && status_.ok()) status_ = st;
    }
  }

  DB* const db_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  uint64_t requested_ = 0;
  uint64_t taken_ = 0;
  Samples durations_;
  Status status_;
  std::thread thread_;  // Last: starts after the state it reads.
};

constexpr uint64_t kSiItems = 100000;
constexpr int kPipelineDepth = 16;
constexpr uint64_t kCommitsPerCheckpoint = 500000;
/// A run whose acknowledgments stall this long fails instead of hanging.
constexpr uint64_t kAckDeadlineNs = 60ull * 1000 * 1000 * 1000;

void PinToOneCpu() {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_setaffinity(0, sizeof(one), &one);
    return;
  }
}

std::string EncodeValue(int64_t v) {
  std::string s;
  ssidb::PutI64(&s, v);
  return s;
}

bool SumTable(DB* db, const std::string& name, int64_t* sum) {
  ssidb::TableId t = 0;
  if (!db->FindTable(name, &t).ok()) return false;
  auto txn = db->Begin({IsolationLevel::kSnapshot});
  int64_t total = 0;
  bool ok = true;
  Status st = txn->Scan(t, ssidb::EncodeU64Key(0),
                        ssidb::EncodeU64Key(UINT64_MAX),
                        [&](Slice, Slice v) {
                          size_t off = 0;
                          int64_t x = 0;
                          ok = ok && ssidb::GetI64(v, &off, &x);
                          total += x;
                          return true;
                        });
  if (st.ok()) st = txn->Commit();
  *sum = total;
  return ok && st.ok();
}

}  // namespace

void RunDurablePipelined(const Args& args, Result* out) {
  // The client, the group-commit flusher and the checkpoint trigger share
  // one vCPU. Spread over cores, the two busy threads bounce the log and
  // ack cache lines and throughput flipped between 166k and 310k commits/s
  // across runs, the two-thread bimodality again. Threads started from
  // here on inherit the mask.
  PinToOneCpu();
  NoFsyncEnv env;
  DBOptions opts;
  opts.env = &env;
  // Versions are pruned inline (every row is rewritten); a 100 ms sweeper
  // on the same vCPU made peak RSS depend on its timing.
  opts.version_gc_interval_ms = 0;
  opts.log.wal_dir = args.work_dir + "/wal";
  opts.log.flush_on_commit = true;
  opts.log.wal_fsync = false;
  opts.log.group_commit_wait_us = 0;
  opts.log.checkpoint_interval_ms = 0;  // The benchmark triggers them.

  std::unique_ptr<DB> db;
  std::unique_ptr<ssidb::workloads::SiBench> sib;
  std::vector<double> setups;
  for (int i = 0; i < kSetupRounds; ++i) {
    sib.reset();
    db.reset();
    ResetDir(opts.log.wal_dir);
    const uint64_t t0 = NowNs();
    Status st = DB::Open(opts, &db);
    ssidb::workloads::SiBenchConfig sc;
    sc.items = kSiItems;
    if (st.ok()) st = ssidb::workloads::SiBench::Setup(db.get(), sc, &sib);
    if (st.ok()) st = db->Checkpoint();
    if (!st.ok()) {
      out->Fail("setup: " + st.ToString());
      return;
    }
    setups.push_back((NowNs() - t0) / 1e9);
  }

  Tracer tracer(args.trace);
  ssidb::Random rng(args.seed);
  const uint64_t programs = Programs(args, 300000);
  const uint64_t warmup = static_cast<uint64_t>(programs * kWarmupShare);
  const ssidb::TableId table = sib->table();

  // Acknowledgments arrive on the engine's completion threads; the client
  // waits for a free pipeline slot on its own condition variable.
  struct Acks {
    std::mutex mu;
    std::condition_variable cv;
    int inflight = 0;
    uint64_t acked = 0;
    uint64_t aborted = 0;
    uint64_t acked_in_window = 0;
    Status hard;
    CommitLog log;
    Samples ack_ns;
  } acks;
  bool measuring = false;
  bool stalled = false;

  auto wait_until = [&](int max_inflight, uint32_t parent, uint64_t prog) {
    const uint32_t s = tracer.Open(SpanKind::kCall, Call::kAckWait, parent,
                                   prog, 1);
    std::unique_lock<std::mutex> g(acks.mu);
    const bool ok = acks.cv.wait_for(
        g, std::chrono::nanoseconds(kAckDeadlineNs),
        [&] { return acks.inflight <= max_inflight; });
    g.unlock();
    tracer.Close(s);
    if (!ok) stalled = true;
    return ok;
  };

  auto session = db->CreateSession();
  std::unique_ptr<CheckpointTrigger> trigger;
  GaugePeaks peaks;
  Window w(db.get());
  uint64_t attempts = 0;
  std::string error;
  Status checkpoint_status;
  Samples checkpoint_ns;
  {
    trigger = std::make_unique<CheckpointTrigger>(db.get());
    for (uint64_t i = 0; i < warmup + programs && !stalled; ++i) {
      if (i == warmup) {
        measuring = true;
        tracer.SetMeasuring(true);
        w.Start();
      }
      const uint64_t prog = i + 1;
      const uint32_t pspan = tracer.Open(SpanKind::kProgram, Call::kCount,
                                         Tracer::kNoSpan, prog, 0);
      if (!wait_until(kPipelineDepth - 1, pspan, prog)) break;
      const uint32_t aspan =
          tracer.Open(SpanKind::kAttempt, Call::kCount, pspan, prog, 1);
      const uint64_t item = rng.Uniform(kSiItems);
      const uint64_t begin_ns = NowNs();
      if (measuring) ++attempts;
      const ssidb::TxnHandle h = tracer.Run(Call::kBegin, aspan, prog, 1, [&] {
        return session->Begin({IsolationLevel::kSerializableSSI});
      });
      // sibench's update program (SiBench::SubmitOne) against the session:
      // a locking read, the increment, and an asynchronous commit.
      std::string v;
      Status st = tracer.Run(Call::kGetForUpdate, aspan, prog, 1, [&] {
        return session->GetForUpdate(h, table, ssidb::EncodeU64Key(item), &v);
      });
      int64_t value = 0;
      size_t off = 0;
      if (st.ok() && !ssidb::GetI64(v, &off, &value)) {
        st = Status::Corruption("sibench: bad value");
      }
      if (st.ok()) {
        st = tracer.Run(Call::kPut, aspan, prog, 1, [&] {
          return session->Put(h, table, ssidb::EncodeU64Key(item),
                              EncodeValue(value + 1));
        });
      }
      if (!st.ok()) {
        session->Abort(h);
        if (!st.IsAbort() || st.IsTimedOut()) {
          error = "durable: unexpected status " + st.ToString();
          break;
        }
        std::lock_guard<std::mutex> g(acks.mu);
        ++acks.aborted;
        tracer.Close(aspan);
        tracer.Close(pspan);
        continue;
      }
      {
        std::lock_guard<std::mutex> g(acks.mu);
        ++acks.inflight;
      }
      const bool in_window = measuring;
      const uint64_t submit_ns = NowNs();
      tracer.Run(Call::kSubmit, aspan, prog, 1, [&] {
        session->CommitAsync(h, [&acks, begin_ns, submit_ns,
                                 in_window](Status s) {
          const uint64_t now = NowNs();
          std::lock_guard<std::mutex> g(acks.mu);
          --acks.inflight;
          if (s.ok()) {
            ++acks.acked;
            if (in_window) {
              ++acks.acked_in_window;
              acks.log.Add(now, now - begin_ns);
              acks.ack_ns.Add(now - submit_ns);
            }
          } else if (s.IsAbort() && !s.IsTimedOut()) {
            ++acks.aborted;
          } else if (acks.hard.ok()) {
            acks.hard = s;
          }
          acks.cv.notify_all();
        });
        return 0;
      });
      tracer.Close(aspan);
      tracer.Close(pspan);
      if (prog % kCommitsPerCheckpoint == 0) trigger->Request();
      if (args.trace && prog % 4096 == 0) peaks.Sample(db.get());
    }
    // Drain: every submitted commit is acknowledged before the window
    // closes, so the window's acks are exactly its commits.
    if (error.empty()) wait_until(0, Tracer::kNoSpan, 0);
    w.Stop();
    tracer.SetMeasuring(false);
    checkpoint_status = trigger->status();
    checkpoint_ns = trigger->TakeDurations();
    trigger.reset();
  }
  if (!error.empty() || stalled) {
    out->Fail(stalled ? "durable: an acknowledgment missed the deadline"
                      : error);
    // Closing the engine fires any acknowledgment still pending, while
    // `acks` is alive.
    session.reset();
    db.reset();
    RemoveDir(opts.log.wal_dir);
    return;
  }
  // Drained: no acknowledgment is pending, and the drain's wait ordered
  // every callback's writes before these reads.
  if (!acks.hard.ok()) out->Fail("durable: commit failed: " +
                                 acks.hard.ToString());
  out->attempted = attempts;
  out->failed = attempts - std::min(attempts, acks.acked_in_window);
  const uint64_t commits = acks.acked_in_window;

  // Oracle: the sum of all values equals the acknowledged increments,
  // before close and after recovery.
  int64_t sum = 0;
  Status st = sib->SumValues(db.get(), &sum);
  out->Check(st.ok() && sum == static_cast<int64_t>(acks.acked),
             "durable: SumValues != acknowledged increments before close");
  out->Check(checkpoint_status.ok(),
             "durable: checkpoint failed: " + checkpoint_status.ToString());
  out->Check(checkpoint_ns.size() > 0, "durable: no checkpoint was taken");
  session.reset();
  sib.reset();
  db.reset();
  const uint64_t t0 = NowNs();
  st = DB::Open(opts, &db);
  const double reopen_s = (NowNs() - t0) / 1e9;
  int64_t recovered = -1;
  out->Check(st.ok() && SumTable(db.get(), "sitest", &recovered) &&
                 recovered == static_cast<int64_t>(acks.acked),
             "durable: SumValues != acknowledged increments after reopen");
  std::fprintf(stderr,
               "durable-pipelined: %llu acked (%llu in window), %llu "
               "aborted, recovered sum %lld, reopen %.3fs\n",
               static_cast<unsigned long long>(acks.acked),
               static_cast<unsigned long long>(commits),
               static_cast<unsigned long long>(acks.aborted),
               static_cast<long long>(recovered), reopen_s);

  ReportEndToEnd(out, commits, attempts, w, acks.log, setups);
  if (args.trace) {
    ReportTraceLayers(&tracer, w, commits, out);
    ReportRegistryLayers(w, commits, attempts, out);
    peaks.Report(out);
    out->Set("db.ack_ns.p50", acks.ack_ns.Quantile(0.5), "ns");
    out->Set("db.ack_ns.p99", acks.ack_ns.Quantile(0.99), "ns");
    out->Set("db.reopen_s", reopen_s, "s");
    out->Set("db.checkpoint_ms.p50", checkpoint_ns.Quantile(0.5) / 1e6, "ms");
    out->Set("txn.scan_rows", 0, "rows");
    // User bytes: key plus value of each committed write.
    out->Set("write_amp",
             commits == 0 ? 0.0
                          : static_cast<double>(w.wchar) / (commits * 16.0),
             "ratio");
    if (!args.trace_out.empty()) tracer.WriteTo(args.trace_out);
  }
  db.reset();
  RemoveDir(opts.log.wal_dir);
}

// ------------------------------------------------------------ past-ram

namespace {

constexpr uint64_t kPoolBytes = 4ull << 20;
constexpr size_t kValueBytes = 1024;
/// Key set 4x the buffer pool (value bytes only; keys and chain
/// skeletons stay resident by design), a whole number of load batches.
constexpr uint64_t kPastRamKeys = 4 * kPoolBytes / kValueBytes;
constexpr uint64_t kScanRows = 8;
constexpr uint64_t kLoadBatch = 4096;
static_assert(kPastRamKeys % kLoadBatch == 0);

/// One spill sweep clears the second-chance bits of chains touched since
/// the previous sweep, the next evicts them.
void SpillAll(DB* db, ssidb::TableId table) {
  db->SpillChains(table);
  db->SpillChains(table);
}

/// A value names its key and version, and its filler derives from both,
/// so a read can tell a stale, torn or misplaced value.
std::string MakeValue(uint64_t key, uint64_t version) {
  std::string v(kValueBytes, '\0');
  std::memcpy(&v[0], &key, 8);
  std::memcpy(&v[8], &version, 8);
  const char fill = static_cast<char>('a' + (key * 31 + version) % 26);
  std::memset(&v[16], fill, kValueBytes - 16);
  return v;
}

bool ValueMatches(Slice v, uint64_t key, uint64_t version) {
  if (v.size() != kValueBytes) return false;
  uint64_t k = 0;
  uint64_t ver = 0;
  std::memcpy(&k, v.data(), 8);
  std::memcpy(&ver, v.data() + 8, 8);
  const char fill = static_cast<char>('a' + (key * 31 + version) % 26);
  return k == key && ver == version && v.data()[16] == fill &&
         v.data()[kValueBytes - 1] == fill;
}

}  // namespace

void RunPastRam(const Args& args, Result* out) {
  NoFsyncEnv env;
  DBOptions opts;
  opts.env = &env;
  opts.buffer_pool_bytes = kPoolBytes;
  opts.data_dir = args.work_dir + "/runs";
  // The benchmark drives spilling: with the 100 ms sweeper, whether a chain
  // counts as cold depends on how many keys the client touched in 100 ms,
  // so the resident share (and the throughput) flipped between runs.
  opts.version_gc_interval_ms = 0;

  std::unique_ptr<DB> db;
  ssidb::TableId table = 0;
  std::vector<double> setups;
  for (int i = 0; i < kSetupRounds; ++i) {
    db.reset();
    ResetDir(opts.data_dir);
    const uint64_t t0 = NowNs();
    Status st = DB::Open(opts, &db);
    if (st.ok()) st = db->CreateTable("past_ram", &table);
    // Load in batches, then spill the key set into one run.
    for (uint64_t base = 0; st.ok() && base < kPastRamKeys;
         base += kLoadBatch) {
      auto txn = db->Begin({IsolationLevel::kSnapshot});
      for (uint64_t k = base; st.ok() && k < base + kLoadBatch; ++k) {
        st = txn->Put(table, ssidb::EncodeU64Key(k), MakeValue(k, 0));
      }
      if (st.ok()) st = txn->Commit();
    }
    if (st.ok()) SpillAll(db.get(), table);
    if (!st.ok()) {
      out->Fail("setup: " + st.ToString());
      return;
    }
    setups.push_back((NowNs() - t0) / 1e9);
  }

  Tracer tracer(args.trace);
  ssidb::Random rng(args.seed);
  std::vector<uint32_t> version(kPastRamKeys, 0);
  std::vector<uint64_t> order(kPastRamKeys);
  for (uint64_t k = 0; k < kPastRamKeys; ++k) order[k] = k;
  const uint64_t programs = Programs(args, 12000);
  const uint64_t warmup = static_cast<uint64_t>(programs * kWarmupShare);
  CommitLog log;
  Samples scan_rows;
  uint64_t attempts = 0;
  uint64_t commits = 0;
  uint64_t updates = 0;
  uint64_t bad_reads = 0;
  GaugePeaks peaks;
  Window w(db.get());
  std::string error;

  for (uint64_t i = 0; i < warmup + programs && error.empty(); ++i) {
    const bool measuring = i >= warmup;
    if (i == warmup) {
      tracer.SetMeasuring(true);
      w.Start();
    }
    // Keys come from a seeded permutation, one pass at a time, and every
    // pass ends with a spill sweep: a program's key is in a run (not
    // resident) unless a scan of this pass already faulted it in.
    if (i % kPastRamKeys == 0) {
      if (i > 0) {
        tracer.Run(Call::kSpill, Tracer::kNoSpan, 0, 0, [&] {
          SpillAll(db.get(), table);
          return 0;
        });
      }
      rng.Shuffle(&order);
    }
    const uint64_t key = order[i % kPastRamKeys];
    const uint64_t kind = rng.Uniform(20);  // 14 reads, 5 updates, 1 scan.
    const uint64_t prog = i + 1;
    const uint32_t pspan = tracer.Open(SpanKind::kProgram, Call::kCount,
                                       Tracer::kNoSpan, prog, 0);
    const uint32_t aspan =
        tracer.Open(SpanKind::kAttempt, Call::kCount, pspan, prog, 1);
    const uint64_t t0 = NowNs();
    auto txn = tracer.Run(Call::kBegin, aspan, prog, 1, [&] {
      return db->Begin({IsolationLevel::kSerializableSSI});
    });
    std::string v;
    Status st;
    if (kind < 19) {
      st = tracer.Run(Call::kGet, aspan, prog, 1, [&] {
        return txn->Get(table, ssidb::EncodeU64Key(key), &v);
      });
      if (st.ok() && !ValueMatches(v, key, version[key])) ++bad_reads;
      if (st.ok() && kind >= 14) {
        st = tracer.Run(Call::kPut, aspan, prog, 1, [&] {
          return txn->Put(table, ssidb::EncodeU64Key(key),
                          MakeValue(key, version[key] + 1));
        });
      }
    } else {
      const uint64_t hi = std::min(key + kScanRows, kPastRamKeys) - 1;
      uint64_t rows = 0;
      st = tracer.Run(Call::kScan, aspan, prog, 1, [&] {
        return txn->Scan(table, ssidb::EncodeU64Key(key),
                         ssidb::EncodeU64Key(hi), [&](Slice k, Slice val) {
                           const uint64_t id = ssidb::DecodeU64Key(k);
                           if (!ValueMatches(val, id, version[id])) {
                             ++bad_reads;
                           }
                           ++rows;
                           return true;
                         });
      });
      if (st.ok() && rows != hi - key + 1) ++bad_reads;
      if (measuring) scan_rows.Add(rows);
    }
    if (st.ok()) {
      st = tracer.Run(Call::kCommit, aspan, prog, 1,
                      [&] { return txn->Commit(); });
    }
    if (measuring) ++attempts;
    if (!st.ok()) {
      // One client and no overlap: nothing may abort here.
      error = "past-ram: unexpected status " + st.ToString();
      break;
    }
    if (kind >= 14 && kind < 19) {
      ++version[key];
      if (measuring) ++updates;
    }
    if (measuring) {
      ++commits;
      const uint64_t now = NowNs();
      log.Add(now, now - t0);
    }
    tracer.Close(aspan);
    tracer.Close(pspan);
    if (args.trace && prog % 4096 == 0) peaks.Sample(db.get());
  }
  w.Stop();
  tracer.SetMeasuring(false);
  if (!error.empty()) out->Fail(error);
  out->Check(bad_reads == 0, "past-ram: " + std::to_string(bad_reads) +
                                 " reads returned a value other than the "
                                 "last committed one");

  // Read back the last committed value of every 16th key.
  uint64_t mismatches = 0;
  {
    auto txn = db->Begin({IsolationLevel::kSnapshot});
    for (uint64_t k = 0; k < kPastRamKeys; k += 16) {
      std::string v;
      if (!txn->Get(table, ssidb::EncodeU64Key(k), &v).ok() ||
          !ValueMatches(v, k, version[k])) {
        ++mismatches;
      }
    }
    txn->Commit();
  }
  out->Check(mismatches == 0, "past-ram: sampled read-back mismatched " +
                                  std::to_string(mismatches) + " keys");
  out->attempted = attempts;
  out->failed = attempts - commits;
  std::fprintf(stderr, "past-ram: %llu keys x %zu B, pool %llu MiB, %llu "
                       "commits (%llu updates)\n",
               static_cast<unsigned long long>(kPastRamKeys), kValueBytes,
               static_cast<unsigned long long>(kPoolBytes >> 20),
               static_cast<unsigned long long>(commits),
               static_cast<unsigned long long>(updates));

  ReportEndToEnd(out, commits, attempts, w, log, setups);
  if (args.trace) {
    peaks.Sample(db.get());
    ReportTraceLayers(&tracer, w, commits, out);
    ReportRegistryLayers(w, commits, attempts, out);
    peaks.Report(out);
    SetUnused(out, {"db.ack_ns.p50", "db.ack_ns.p99"}, "ns");
    out->Set("db.checkpoint_ms.p50", 0, "ms");
    out->Set("db.reopen_s", 0, "s");
    out->Set("txn.scan_rows", scan_rows.Sum() / std::max<size_t>(
                                                     1, scan_rows.size()),
             "rows");
    out->Set("write_amp",
             updates == 0 ? 0.0
                          : static_cast<double>(w.wchar) /
                                (updates * (8.0 + kValueBytes)),
             "ratio");
    if (!args.trace_out.empty()) tracer.WriteTo(args.trace_out);
  }
  db.reset();
  RemoveDir(opts.data_dir);
}

}  // namespace perfbench
