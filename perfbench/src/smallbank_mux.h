// SmallBank from one client thread: many SmallBank clients multiplexed
// through one Session, their statements interleaved by a seeded schedule.
// Overlap between transactions comes from the schedule, not from OS
// threads, so a run's commits and aborts repeat exactly for a seed.
//
// A Put would block on another open transaction's exclusive lock and, on
// one thread, stall the schedule; the scheduler keeps its own table of
// rows written by open transactions and defers such a step instead. A
// deferred client whose wait-for chain leads back to itself, or a point
// where every open client is deferred, means a cycle: the youngest
// transaction on it is aborted (Session::Abort, counted as a failed
// attempt). Without the first rule two deadlocked clients could stay open
// for good while newer transactions keep aborting against them.
//
// An optional read-only SSI report session runs alongside: it scans
// Checking then Saving in fixed chunks between OLTP commits, commits at
// the end and starts over. Its total must equal the load total plus the
// net change of every OLTP commit that preceded its snapshot.

#ifndef PERFBENCH_SMALLBANK_MUX_H_
#define PERFBENCH_SMALLBANK_MUX_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/harness.h"
#include "src/common/random.h"
#include "src/db/db.h"
#include "src/db/session.h"
#include "src/workloads/smallbank.h"

namespace perfbench {

struct SmallBankMuxConfig {
  uint64_t customers = 100000;
  int clients = 32;
  /// Accesses drawn from customers [0, hot_customers) with probability
  /// hot_share; uniform over all customers otherwise. 0 = uniform.
  uint64_t hot_customers = 0;
  double hot_share = 0;
  /// Report session: rows per Scan chunk and OLTP commits between chunks
  /// (0 chunk rows = no report session).
  uint64_t report_chunk_rows = 0;
  uint64_t report_every_commits = 0;
};

/// What a schedule did; compared across runs by the determinism check.
struct MuxCounts {
  uint64_t commits = 0;
  uint64_t attempts = 0;
  uint64_t aborts = 0;
  uint64_t deferrals = 0;
  uint64_t cycle_aborts = 0;
  uint64_t report_passes = 0;
  uint64_t report_attempts = 0;
  uint64_t report_aborts = 0;
  /// Hash of every scheduling decision (client picked, step run).
  uint64_t fingerprint = 1469598103934665603ull;
};

class SmallBankMux {
 public:
  SmallBankMux(ssidb::DB* db, const SmallBankMuxConfig& config, uint64_t seed,
               Tracer* tracer);
  ~SmallBankMux();

  /// Load the SmallBank tables (SmallBank::Setup).
  ssidb::Status Load();

  /// Run the schedule until `commits` more OLTP programs have committed.
  /// Returns false (with `error` set) on a status that is neither OK nor
  /// an abort.
  bool Run(uint64_t commits, std::string* error);

  /// Log each program committed while measuring: latency from its first
  /// Begin to its commit's return, retries included.
  void SetMeasuring(bool on) { measuring_ = on; }
  const CommitLog& commit_log() const { return log_; }
  const MuxCounts& counts() const { return counts_; }
  /// Rows returned per report Scan call (while measuring).
  double scan_rows_mean() const {
    return scans_ == 0 ? 0.0 : static_cast<double>(scan_rows_) / scans_;
  }

  /// Conservation: the engine's total balance equals the load total plus
  /// the net change of every committed program.
  bool CheckTotal(std::string* error);
  /// Every completed report pass saw exactly its committed prefix.
  bool report_ok() const { return report_mismatches_ == 0; }

  /// Sample gauges every `every` OLTP commits (0 = never).
  void SampleGaugesEvery(uint64_t every, GaugePeaks* peaks) {
    sample_every_ = every;
    peaks_ = peaks;
  }

 private:
  struct Client;
  struct Report;

  uint64_t PickCustomer();
  void StartProgram(Client* c);
  /// Row of the Put the client's next step issues, or -1 if the step is
  /// not a Put.
  int64_t NextPutRow(const Client& c) const;
  bool Blocked(const Client& c) const;
  /// Run the client's next step. Returns false on a hard failure.
  bool Step(Client* c, std::string* error);
  void FinishAttempt(Client* c, bool committed);
  /// The client owning the row deferred client `i` waits for.
  size_t Blocker(size_t i) const;
  /// Whether deferred client `start` waits, transitively, on itself.
  bool OnCycle(size_t start) const;
  /// Abort the youngest open client on the wait-for cycle reached from
  /// `start`.
  void BreakCycle(size_t start);
  bool ReportStep(std::string* error);
  bool Classify(const ssidb::Status& st, Client* c, std::string* error);

  ssidb::DB* const db_;
  const SmallBankMuxConfig config_;
  Tracer* const tracer_;
  ssidb::Random rng_;
  std::unique_ptr<ssidb::workloads::SmallBank> sb_;
  std::unique_ptr<ssidb::Session> session_;
  std::vector<Client> clients_;
  /// Owner (client index) of each written row while its transaction is
  /// open; -1 when free. Row = 2 * customer + (saving ? 1 : 0).
  std::vector<int32_t> row_owner_;
  std::unique_ptr<Report> report_;

  MuxCounts counts_;
  CommitLog log_;
  bool measuring_ = false;
  uint64_t next_program_ = 1;
  uint64_t begin_seq_ = 0;
  int64_t load_total_ = 0;
  int64_t committed_delta_ = 0;
  uint64_t report_mismatches_ = 0;
  uint64_t scans_ = 0;
  uint64_t scan_rows_ = 0;
  uint64_t sample_every_ = 0;
  GaugePeaks* peaks_ = nullptr;
};

}  // namespace perfbench

#endif  // PERFBENCH_SMALLBANK_MUX_H_
