// Shared harness of the single-client SSI benchmark: arguments, exact
// latency percentiles, the registry measurement window, the span tracer,
// process probes (RSS, /proc/self/io, CPU) and the result line.
//
// Every workload drives the engine from outside, through DB, Transaction
// and Session, and reads engine counters only through DB::metrics() by
// name, differenced over the measured window.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/db/db.h"
#include "src/obs/metrics.h"

namespace perfbench {

inline uint64_t NowNs() { return ssidb::obs::NowNanos(); }

struct Args {
  std::string workload;
  uint64_t seed = 1;
  /// Sizes the schedule: a run executes seconds x the workload's nominal
  /// rate of programs, so same-seed runs repeat exactly (see README.md).
  double seconds = 10;
  bool trace = false;
  /// Working directory inside the checkout for WAL and run files.
  std::string work_dir;
  /// File the traced run writes its spans to ("" = do not write).
  std::string trace_out;
};

/// Exact percentiles over every recorded sample (no bucketing, so a
/// median cannot jump by a bucket width between runs).
class Samples {
 public:
  void Add(uint64_t v) { v_.push_back(v); }
  size_t size() const { return v_.size(); }
  /// Nearest-rank quantile; 0 when empty. Sorts in place on first use.
  double Quantile(double q);
  double Sum() const;

 private:
  std::vector<uint64_t> v_;
  bool sorted_ = false;
};

/// One entry per transaction committed in the window: when its commit
/// returned (or was acknowledged) and its latency, first Begin to then.
/// The window is summarised as the median over kSlices equal runs of
/// consecutive commits, so a transient stall on the host moves one slice,
/// not the run's figure.
class CommitLog {
 public:
  static constexpr size_t kSlices = 20;
  struct Summary {
    double commits_per_s = 0;
    double p50_ns = 0;
    double p99_ns = 0;
  };

  void Add(uint64_t end_ns, uint64_t latency_ns) {
    end_ns_.push_back(end_ns);
    latency_ns_.push_back(latency_ns);
  }
  size_t size() const { return end_ns_.size(); }
  /// Medians over the slices of the window that opened at `start_ns`.
  Summary Summarize(uint64_t start_ns) const;

 private:
  std::vector<uint64_t> end_ns_;
  std::vector<uint64_t> latency_ns_;
};

/// Name -> (value, unit) in insertion order, rendered as the result line.
class Result {
 public:
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Reasons the correctness checks failed (printed to stderr).
  std::vector<std::string> errors;

  void Set(const std::string& name, double value, const std::string& unit);
  void Fail(const std::string& why);
  /// Assert a condition; a false one fails the run with `why`.
  void Check(bool ok, const std::string& why) {
    if (!ok) Fail(why);
  }
  std::string Json() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> m_;
};

/// Registry snapshot at the window's start and end; every lookup is by
/// metric name. Counters and histograms are differenced over the window,
/// gauges read at its end.
class RegistryWindow {
 public:
  explicit RegistryWindow(ssidb::DB* db) : db_(db) {}
  void Start() { start_ = db_->metrics()->Collect(); }
  void Stop() { end_ = db_->metrics()->Collect(); }

  uint64_t Counter(const std::string& name) const;
  ssidb::obs::HistogramSnapshot Histogram(const std::string& name) const;

 private:
  ssidb::DB* db_;
  ssidb::obs::MetricsSnapshot start_;
  ssidb::obs::MetricsSnapshot end_;
};

/// Public calls the benchmark makes; each traced call is one span.
enum class Call : uint8_t {
  kBegin,
  kGet,
  kGetForUpdate,
  kPut,
  kScan,
  kCommit,
  kSubmit,
  kAbort,
  kAckWait,
  kSpill,
  kCount,
};
const char* CallName(Call c);
/// Layer a call belongs to: "db" (DB/Session lifecycle) or "txn"
/// (executor statements).
bool IsTxnLayer(Call c);

/// Span kinds: a program (one logical transaction, retries included), one
/// attempt of it, or a call.
enum class SpanKind : uint8_t { kProgram, kAttempt, kCall };

/// Client-thread tracer. Spans nest program -> attempt -> call, carry the
/// program and attempt ids, and are kept in memory (up to a cap; durations
/// are aggregated past it) and written out at the end. Disabled, every
/// method is a branch on a bool.
class Tracer {
 public:
  static constexpr uint32_t kNoSpan = UINT32_MAX;
  /// About 10 MiB of TSV; a run's later spans are only aggregated.
  static constexpr size_t kMaxKeptSpans = 1u << 18;

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  uint32_t Open(SpanKind kind, Call call, uint32_t parent, uint64_t program,
                uint32_t attempt);
  void Close(uint32_t span);

  /// Run `fn` as a call span under `parent`; returns its result.
  template <typename Fn>
  auto Run(Call call, uint32_t parent, uint64_t program, uint32_t attempt,
           Fn&& fn) {
    if (!enabled_) return fn();
    const uint32_t s = Open(SpanKind::kCall, call, parent, program, attempt);
    auto r = fn();
    Close(s);
    return r;
  }

  /// Start/stop aggregating call durations (the measured window).
  void SetMeasuring(bool on) { measuring_ = on; }
  Samples& durations(Call c) { return calls_[static_cast<size_t>(c)]; }
  /// Sum of call-span durations in the window, by layer.
  uint64_t db_ns() const { return db_ns_; }
  uint64_t txn_ns() const { return txn_ns_; }

  /// Write every kept span, one tab-separated line each.
  bool WriteTo(const std::string& path) const;

 private:
  struct Span {
    uint64_t start;
    uint64_t end;
    uint64_t program;
    uint32_t parent;
    uint32_t attempt;
    SpanKind kind;
    Call call;
  };
  struct Live {
    uint64_t start;
    Call call;
    SpanKind kind;
    uint32_t kept;  ///< Index in spans_, or kNoSpan past the cap.
  };

  bool enabled_;
  bool measuring_ = false;
  std::vector<Span> spans_;
  /// Open spans by handle (handles are recycled once closed).
  std::vector<Live> live_;
  std::vector<uint32_t> free_;
  Samples calls_[static_cast<size_t>(Call::kCount)];
  uint64_t db_ns_ = 0;
  uint64_t txn_ns_ = 0;
};

/// Process probes.
double PeakRssMiB();
/// Bytes this process passed to write-family syscalls (/proc/self/io).
uint64_t WcharBytes();
/// CPU time (user + system) of the process and of the calling thread.
double ProcessCpuSeconds();
double ThreadCpuSeconds();

/// Median of a few set-up timings.
double Median(std::vector<double> xs);

/// Remove a directory tree (best effort) and create it empty.
void ResetDir(const std::string& dir);
void RemoveDir(const std::string& dir);

/// The measured window shared by every workload: wall clock, process I/O
/// and CPU, and the registry.
struct Window {
  explicit Window(ssidb::DB* db) : registry(db) {}
  void Start();
  void Stop();
  double seconds() const { return (end_ns - start_ns) / 1e9; }

  RegistryWindow registry;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t wchar = 0;
  double process_cpu = 0;
  double client_cpu = 0;
};

/// Per-layer figures that depend only on the window and the registry;
/// `commits` and `txns` (attempts) are the denominators.
void ReportRegistryLayers(const Window& w, uint64_t commits, uint64_t txns,
                          Result* out);
/// Per-layer figures from the tracer: call percentiles, call time per
/// commit by layer, and the residual.
void ReportTraceLayers(Tracer* tracer, const Window& w, uint64_t commits,
                       Result* out);

/// Sampled gauges (traced run): peaks of the SIREAD index, suspended
/// transactions and the prune-horizon lag.
struct GaugePeaks {
  uint64_t siread_entries = 0;
  uint64_t suspended_txns = 0;
  uint64_t horizon_lag = 0;
  void Sample(ssidb::DB* db);
  void Report(Result* out) const;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
