#include "perfbench/src/harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "src/common/abort_reason.h"

namespace perfbench {

using ssidb::obs::HistogramSnapshot;
using ssidb::obs::MetricsSnapshot;

// ---------------------------------------------------------------- Samples

double Samples::Quantile(double q) {
  if (v_.empty()) return 0;
  if (!sorted_) {
    std::sort(v_.begin(), v_.end());
    sorted_ = true;
  }
  size_t rank = static_cast<size_t>(std::ceil(q * v_.size()));
  if (rank == 0) rank = 1;
  return static_cast<double>(v_[rank - 1]);
}

double Samples::Sum() const {
  double s = 0;
  for (uint64_t v : v_) s += static_cast<double>(v);
  return s;
}

// -------------------------------------------------------------- CommitLog

CommitLog::Summary CommitLog::Summarize(uint64_t start_ns) const {
  Summary out;
  const size_t n = end_ns_.size();
  if (n == 0) return out;
  const size_t slices = std::min(kSlices, n);
  std::vector<double> rates, p50s, p99s;
  uint64_t from_ns = start_ns;
  size_t from = 0;
  for (size_t s = 1; s <= slices; ++s) {
    const size_t to = n * s / slices;
    Samples lat;
    for (size_t i = from; i < to; ++i) lat.Add(latency_ns_[i]);
    const uint64_t to_ns = end_ns_[to - 1];
    rates.push_back((to - from) / std::max(1e-9, (to_ns - from_ns) / 1e9));
    p50s.push_back(lat.Quantile(0.5));
    p99s.push_back(lat.Quantile(0.99));
    from = to;
    from_ns = to_ns;
  }
  out.commits_per_s = Median(rates);
  out.p50_ns = Median(p50s);
  out.p99_ns = Median(p99s);
  return out;
}

// ----------------------------------------------------------------- Result

void Result::Set(const std::string& name, double value,
                 const std::string& unit) {
  for (auto& [n, vu] : m_) {
    if (n == name) {
      vu = {value, unit};
      return;
    }
  }
  m_.push_back({name, {value, unit}});
}

void Result::Fail(const std::string& why) {
  correct = false;
  errors.push_back(why);
}

std::string Result::Json() const {
  std::ostringstream o;
  o << "{\"correct\": " << (correct ? "true" : "false")
    << ", \"attempted\": " << attempted << ", \"failed\": " << failed
    << ", \"metrics\": {";
  bool first = true;
  char buf[64];
  for (const auto& [name, vu] : m_) {
    const double v = std::isfinite(vu.first) ? vu.first : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    o << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << buf
      << ", \"unit\": \"" << vu.second << "\"}";
    first = false;
  }
  o << "}}";
  return o.str();
}

// --------------------------------------------------------- RegistryWindow

namespace {

template <typename T>
const T* Find(const std::vector<std::pair<std::string, T>>& v,
              const std::string& name) {
  for (const auto& [n, x] : v) {
    if (n == name) return &x;
  }
  return nullptr;
}

}  // namespace

uint64_t RegistryWindow::Counter(const std::string& name) const {
  const uint64_t* a = Find(start_.counters, name);
  const uint64_t* b = Find(end_.counters, name);
  if (a == nullptr || b == nullptr || *b < *a) return 0;
  return *b - *a;
}

HistogramSnapshot RegistryWindow::Histogram(const std::string& name) const {
  const HistogramSnapshot* a = Find(start_.histograms, name);
  const HistogramSnapshot* b = Find(end_.histograms, name);
  if (a == nullptr || b == nullptr) return {};
  return b->Delta(*a);
}

// ----------------------------------------------------------------- Tracer

const char* CallName(Call c) {
  switch (c) {
    case Call::kBegin: return "begin";
    case Call::kGet: return "get";
    case Call::kGetForUpdate: return "get_for_update";
    case Call::kPut: return "put";
    case Call::kScan: return "scan";
    case Call::kCommit: return "commit";
    case Call::kSubmit: return "commit_async";
    case Call::kAbort: return "abort";
    case Call::kAckWait: return "ack_wait";
    case Call::kSpill: return "spill";
    case Call::kCount: break;
  }
  return "?";
}

bool IsTxnLayer(Call c) {
  return c == Call::kGet || c == Call::kGetForUpdate || c == Call::kPut ||
         c == Call::kScan;
}

uint32_t Tracer::Open(SpanKind kind, Call call, uint32_t parent,
                      uint64_t program, uint32_t attempt) {
  if (!enabled_) return kNoSpan;
  const uint64_t now = NowNs();
  uint32_t kept = kNoSpan;
  if (spans_.size() < kMaxKeptSpans) {
    // The parent link names a kept span; past the cap the tree is cut.
    const uint32_t parent_kept =
        parent == kNoSpan ? kNoSpan : live_[parent].kept;
    kept = static_cast<uint32_t>(spans_.size());
    spans_.push_back(Span{now, 0, program, parent_kept, attempt, kind, call});
  }
  uint32_t h;
  if (!free_.empty()) {
    h = free_.back();
    free_.pop_back();
    live_[h] = Live{now, call, kind, kept};
  } else {
    h = static_cast<uint32_t>(live_.size());
    live_.push_back(Live{now, call, kind, kept});
  }
  return h;
}

void Tracer::Close(uint32_t h) {
  if (!enabled_ || h == kNoSpan) return;
  const uint64_t now = NowNs();
  const Live& l = live_[h];
  if (l.kept != kNoSpan) spans_[l.kept].end = now;
  if (measuring_ && l.kind == SpanKind::kCall) {
    const uint64_t d = now - l.start;
    calls_[static_cast<size_t>(l.call)].Add(d);
    (IsTxnLayer(l.call) ? txn_ns_ : db_ns_) += d;
  }
  free_.push_back(h);
}

bool Tracer::WriteTo(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "# id\tparent\tkind\tname\tprogram\tattempt\tstart_ns\t"
                  "end_ns\n");
  static const char* kKinds[] = {"program", "attempt", "call"};
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const char* name = s.kind == SpanKind::kCall ? CallName(s.call)
                                                 : kKinds[static_cast<int>(
                                                       s.kind)];
    std::fprintf(f, "%zu\t%" PRId64 "\t%s\t%s\t%" PRIu64 "\t%u\t%" PRIu64
                    "\t%" PRIu64 "\n",
                 i, s.parent == kNoSpan ? int64_t{-1} : int64_t{s.parent},
                 kKinds[static_cast<int>(s.kind)], name, s.program,
                 s.attempt, s.start, s.end);
  }
  return std::fclose(f) == 0;
}

// ---------------------------------------------------------------- Process

double PeakRssMiB() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB.
}

uint64_t WcharBytes() {
  std::ifstream in("/proc/self/io");
  std::string key;
  uint64_t value = 0;
  while (in >> key >> value) {
    if (key == "wchar:") return value;
  }
  return 0;
}

namespace {
double CpuSeconds(int who) {
  struct rusage ru {};
  getrusage(who, &ru);
  return ru.ru_utime.tv_sec + ru.ru_stime.tv_sec +
         (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}
}  // namespace

double ProcessCpuSeconds() { return CpuSeconds(RUSAGE_SELF); }
double ThreadCpuSeconds() { return CpuSeconds(RUSAGE_THREAD); }

double Median(std::vector<double> xs) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : (xs[n / 2 - 1] + xs[n / 2]) / 2;
}

void ResetDir(const std::string& dir) {
  RemoveDir(dir);
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
}

void RemoveDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

// ----------------------------------------------------------------- Window

void Window::Start() {
  registry.Start();
  wchar = WcharBytes();
  process_cpu = ProcessCpuSeconds();
  client_cpu = ThreadCpuSeconds();
  start_ns = NowNs();
}

void Window::Stop() {
  end_ns = NowNs();
  client_cpu = ThreadCpuSeconds() - client_cpu;
  process_cpu = ProcessCpuSeconds() - process_cpu;
  wchar = WcharBytes() - wchar;
  registry.Stop();
}

namespace {

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

void ReportRegistryLayers(const Window& w, uint64_t commits, uint64_t txns,
                          Result* out) {
  const RegistryWindow& r = w.registry;
  auto q = [&](const char* name, double quantile) {
    return static_cast<double>(r.Histogram(name).Quantile(quantile));
  };
  // txn commit pipeline.
  out->Set("commit.certify_ns.p50", q("commit.certify_ns", 0.5), "ns");
  out->Set("commit.certify_ns.p99", q("commit.certify_ns", 0.99), "ns");
  out->Set("commit.watermark_ns.p99", q("commit.watermark_ns", 0.99), "ns");
  out->Set("commit.wal_append_ns.p50", q("commit.wal_append_ns", 0.5), "ns");
  out->Set("commit.fsync_wait_ns.p50", q("commit.fsync_wait_ns", 0.5), "ns");
  out->Set("commit.fsync_wait_ns.p99", q("commit.fsync_wait_ns", 0.99),
           "ns");
  out->Set("commit.ack_lag_ns.p99", q("commit.ack_lag_ns", 0.99), "ns");
  out->Set("commit.fastpath_share",
           Ratio(r.Counter("commit.fastpath"), commits), "ratio");
  out->Set("commit.mean_combine_batch",
           Ratio(r.Counter("commit.combined_txns"),
                 r.Counter("commit.combine_batches")),
           "ratio");
  out->Set("log.mean_batch",
           Ratio(r.Counter("log.records"), r.Counter("log.flush_batches")),
           "ratio");
  out->Set("log.flush_batch_ns.p50", q("log.flush_batch_ns", 0.5), "ns");

  // lock and ssi.
  out->Set("ssi.unsafe_per_commit",
           Ratio(r.Counter("ssi.unsafe_aborts"), commits), "ratio");
  // The registry's abort taxonomy (kNone is never counted).
  for (size_t i = 1; i < ssidb::kAbortReasonCount; ++i) {
    const std::string name =
        std::string("abort.") +
        ssidb::AbortReasonName(static_cast<ssidb::AbortReason>(i));
    out->Set(name + "_per_commit", Ratio(r.Counter(name), commits), "ratio");
  }
  out->Set("lock.waits_per_commit", Ratio(r.Counter("lock.waits"), commits),
           "ratio");

  // storage.
  out->Set("read.hit_ns.p50", q("read.hit_ns", 0.5), "ns");
  out->Set("read.fault_ns.p50", q("read.fault_ns", 0.5), "ns");
  out->Set("read.fault_ns.p99", q("read.fault_ns", 0.99), "ns");
  const double hits = r.Counter("pool.hits");
  out->Set("pool.hit_rate", Ratio(hits, hits + r.Counter("pool.misses")),
           "ratio");
  out->Set("pool.read_io_ns.p50", q("pool.read_io_ns", 0.5), "ns");
  out->Set("pool.evictions_per_txn", Ratio(r.Counter("pool.evictions"), txns),
           "ratio");
  out->Set("tier.faults_per_txn",
           Ratio(r.Counter("tier.faulted_chains"), txns), "ratio");
  out->Set("tier.spills_per_txn",
           Ratio(r.Counter("tier.spilled_chains"), txns), "ratio");
  out->Set("gc.versions_pruned_per_commit",
           Ratio(r.Counter("gc.versions_pruned"), commits), "ratio");

  // recovery and io: checkpoint images, and every other byte the process
  // wrote (the WAL, in the one workload that has one).
  const double ckpt = r.Counter("ckpt.bytes_written");
  out->Set("ckpt.bytes_per_commit", Ratio(ckpt, commits), "B");
  out->Set("wal.bytes_per_commit",
           Ratio(r.Counter("log.flush_batches") > 0
                     ? std::max(0.0, static_cast<double>(w.wchar) - ckpt)
                     : 0.0,
                 commits),
           "B");

  // Process: everything but the client thread, as a share of wall time.
  out->Set("bg.cpu_share",
           Ratio(std::max(0.0, w.process_cpu - w.client_cpu), w.seconds()),
           "ratio");
}

void ReportTraceLayers(Tracer* t, const Window& w, uint64_t commits,
                       Result* out) {
  auto d = [&](Call c, double quantile) {
    return t->durations(c).Quantile(quantile);
  };
  out->Set("db.begin_ns.p50", d(Call::kBegin, 0.5), "ns");
  out->Set("db.commit_ns.p50", d(Call::kCommit, 0.5), "ns");
  out->Set("db.commit_ns.p99", d(Call::kCommit, 0.99), "ns");
  out->Set("db.submit_ns.p50", d(Call::kSubmit, 0.5), "ns");

  // Point reads: plain and locking reads are one executor path.
  Samples& gets = t->durations(Call::kGet);
  Samples& gfu = t->durations(Call::kGetForUpdate);
  Samples& reads = gets.size() >= gfu.size() ? gets : gfu;
  out->Set("txn.get_ns.p50", reads.Quantile(0.5), "ns");
  out->Set("txn.get_ns.p99", reads.Quantile(0.99), "ns");
  out->Set("txn.put_ns.p50", d(Call::kPut, 0.5), "ns");
  out->Set("txn.put_ns.p99", d(Call::kPut, 0.99), "ns");
  out->Set("txn.scan_ns.p50", d(Call::kScan, 0.5), "ns");

  const double window_ns = static_cast<double>(w.end_ns - w.start_ns);
  const double db = static_cast<double>(t->db_ns());
  const double txn = static_cast<double>(t->txn_ns());
  out->Set("db.self_us_per_commit", Ratio(db / 1e3, commits), "us");
  out->Set("txn.self_us_per_commit", Ratio(txn / 1e3, commits), "us");
  out->Set("txn.residual_share",
           std::max(0.0, 1.0 - Ratio(db + txn, window_ns)), "ratio");
}

void GaugePeaks::Sample(ssidb::DB* db) {
  siread_entries = std::max<uint64_t>(
      siread_entries, db->lock_manager()->siread_index()->EntryCount());
  const MetricsSnapshot s = db->metrics()->Collect();
  if (const uint64_t* v = Find(s.gauges, "engine.suspended_txns")) {
    suspended_txns = std::max(suspended_txns, *v);
  }
  const ssidb::TxnManager* tm = db->txn_manager();
  const uint64_t stable = tm->stable_ts();
  const uint64_t horizon = tm->prune_horizon();
  horizon_lag = std::max(horizon_lag, stable > horizon ? stable - horizon : 0);
}

void GaugePeaks::Report(Result* out) const {
  out->Set("siread.entries.peak", static_cast<double>(siread_entries),
           "count");
  out->Set("engine.suspended_txns.peak", static_cast<double>(suspended_txns),
           "count");
  out->Set("gc.horizon_lag.peak", static_cast<double>(horizon_lag), "ts");
}

}  // namespace perfbench
