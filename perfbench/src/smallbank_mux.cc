#include "perfbench/src/smallbank_mux.h"

#include <cinttypes>
#include <cstdio>

#include "src/common/encoding.h"

namespace perfbench {

using ssidb::IsolationLevel;
using ssidb::Slice;
using ssidb::Status;
using ssidb::TxnHandle;

namespace {

/// The SmallBank load: $100.00 in each of Saving and Checking.
constexpr int64_t kInitialBalanceCents = 100 * 100;
constexpr int64_t kOverdraftPenaltyCents = 100;

enum class Op : uint8_t { kBalance, kDeposit, kTransactSaving, kAmalgamate,
                          kWriteCheck };

/// One statement of a program. The five SmallBank programs (smallbank.h)
/// restated as statement lists so a scheduler can interleave them.
enum class Stmt : uint8_t { kBegin, kLookup1, kLookup2, kGetS1, kGetC1,
                            kGetC2, kPutC1, kPutS1, kPutC2, kCommit };

const std::vector<Stmt>& Program(Op op) {
  using S = Stmt;
  static const std::vector<Stmt> kPrograms[] = {
      {S::kBegin, S::kLookup1, S::kGetS1, S::kGetC1, S::kCommit},
      {S::kBegin, S::kLookup1, S::kGetC1, S::kPutC1, S::kCommit},
      {S::kBegin, S::kLookup1, S::kGetS1, S::kPutS1, S::kCommit},
      {S::kBegin, S::kLookup1, S::kLookup2, S::kGetS1, S::kGetC1, S::kGetC2,
       S::kPutC2, S::kPutS1, S::kPutC1, S::kCommit},
      {S::kBegin, S::kLookup1, S::kGetS1, S::kGetC1, S::kPutC1, S::kCommit},
  };
  return kPrograms[static_cast<int>(op)];
}

std::string NameKey(uint64_t customer) {
  // The Account table's key format (SmallBank::NameKey).
  char buf[32];
  std::snprintf(buf, sizeof(buf), "name%012" PRIu64, customer);
  return buf;
}

std::string EncodeBalance(int64_t cents) {
  std::string v;
  ssidb::PutI64(&v, cents);
  return v;
}

bool DecodeBalance(Slice v, int64_t* cents) {
  size_t off = 0;
  return ssidb::GetI64(v, &off, cents);
}

void Mix(uint64_t* h, uint64_t v) {
  *h ^= v;
  *h *= 1099511628211ull;  // FNV-1a prime.
}

}  // namespace

struct SmallBankMux::Client {
  // The program (kept across retries).
  Op op = Op::kBalance;
  uint64_t n1 = 0;
  uint64_t n2 = 0;
  int64_t amount = 0;
  uint64_t program = 0;  ///< 0 = idle.
  uint32_t attempt = 0;
  uint64_t first_begin_ns = 0;
  uint32_t program_span = Tracer::kNoSpan;
  // The current attempt.
  uint32_t attempt_span = Tracer::kNoSpan;
  TxnHandle h = 0;  ///< 0 = not begun.
  size_t step = 0;
  uint64_t seq = 0;  ///< Begin order; larger is younger.
  uint64_t id1 = 0;
  uint64_t id2 = 0;
  int64_t s1 = 0;
  int64_t c1 = 0;
  int64_t c2 = 0;
  int64_t delta = 0;  ///< Net balance change if this attempt commits.
  std::vector<int64_t> rows;  ///< Rows this attempt wrote (owned).
};

struct SmallBankMux::Report {
  std::unique_ptr<ssidb::Session> session;
  TxnHandle h = 0;
  int table = 0;  ///< 0 = Checking, 1 = Saving.
  uint64_t next = 0;
  int64_t sum = 0;
  int64_t expected = 0;
  uint64_t since = 0;  ///< OLTP commits since the last chunk.
  uint64_t program = 0;
  uint32_t attempt = 0;
  uint32_t program_span = Tracer::kNoSpan;
  uint32_t attempt_span = Tracer::kNoSpan;
};

SmallBankMux::SmallBankMux(ssidb::DB* db, const SmallBankMuxConfig& config,
                           uint64_t seed, Tracer* tracer)
    : db_(db), config_(config), tracer_(tracer), rng_(seed) {}

SmallBankMux::~SmallBankMux() = default;

Status SmallBankMux::Load() {
  ssidb::workloads::SmallBankConfig sbc;
  sbc.customers = config_.customers;
  Status st = ssidb::workloads::SmallBank::Setup(db_, sbc, &sb_);
  if (!st.ok()) return st;
  load_total_ = static_cast<int64_t>(config_.customers) * 2 *
                kInitialBalanceCents;
  session_ = db_->CreateSession();
  clients_.resize(config_.clients);
  row_owner_.assign(2 * config_.customers, -1);
  if (config_.report_chunk_rows > 0) {
    report_ = std::make_unique<Report>();
    report_->session = db_->CreateSession();
  }
  return Status::OK();
}

uint64_t SmallBankMux::PickCustomer() {
  if (config_.hot_customers > 0 && rng_.Bernoulli(config_.hot_share)) {
    return rng_.Uniform(config_.hot_customers);
  }
  return rng_.Uniform(config_.customers);
}

void SmallBankMux::StartProgram(Client* c) {
  c->op = static_cast<Op>(rng_.Uniform(5));
  c->n1 = PickCustomer();
  do {
    c->n2 = PickCustomer();
  } while (c->n2 == c->n1);
  c->amount = rng_.UniformRange(1, 50) * 100;
  c->program = next_program_++;
  c->attempt = 0;
  c->step = 0;
  c->program_span = tracer_->Open(SpanKind::kProgram, Call::kCount,
                                  Tracer::kNoSpan, c->program, 0);
}

int64_t SmallBankMux::NextPutRow(const Client& c) const {
  if (c.program == 0 || c.h == 0) return -1;
  switch (Program(c.op)[c.step]) {
    case Stmt::kPutC1: return static_cast<int64_t>(2 * c.id1);
    case Stmt::kPutS1: return static_cast<int64_t>(2 * c.id1 + 1);
    case Stmt::kPutC2: return static_cast<int64_t>(2 * c.id2);
    default: return -1;
  }
}

bool SmallBankMux::Blocked(const Client& c) const {
  const int64_t row = NextPutRow(c);
  if (row < 0) return false;
  const int32_t owner = row_owner_[row];
  return owner >= 0 && &clients_[owner] != &c;
}

void SmallBankMux::FinishAttempt(Client* c, bool committed) {
  for (int64_t row : c->rows) row_owner_[row] = -1;
  c->rows.clear();
  tracer_->Close(c->attempt_span);
  c->attempt_span = Tracer::kNoSpan;
  c->h = 0;
  c->step = 0;
  if (committed) {
    tracer_->Close(c->program_span);
    c->program_span = Tracer::kNoSpan;
    c->program = 0;
  }
}

bool SmallBankMux::Classify(const Status& st, Client* c, std::string* error) {
  if (st.ok()) return true;
  if (st.IsAbort() && !st.IsTimedOut()) {
    // The session retired the handle; retry the same program.
    ++counts_.aborts;
    FinishAttempt(c, false);
    return true;
  }
  // A lock timeout means the scheduler issued a blocking write: a bug in
  // its bookkeeping, not a verdict.
  *error = "smallbank: unexpected status " + st.ToString();
  return false;
}

size_t SmallBankMux::Blocker(size_t i) const {
  return static_cast<size_t>(row_owner_[NextPutRow(clients_[i])]);
}

bool SmallBankMux::OnCycle(size_t start) const {
  size_t cur = start;
  for (size_t k = 0; k < clients_.size() && Blocked(clients_[cur]); ++k) {
    cur = Blocker(cur);
    if (cur == start) return true;
  }
  return false;
}

void SmallBankMux::BreakCycle(size_t start) {
  // Following blockers from a deferred client that is on a cycle, or from
  // any client when every open one is deferred, must revisit a client:
  // that loop is a wait-for cycle.
  std::vector<int> seen(clients_.size(), 0);
  size_t cur = start;
  while (seen[cur] == 0) {
    seen[cur] = 1;
    cur = Blocker(cur);
  }
  size_t victim = cur;
  size_t i = cur;
  do {
    if (clients_[i].seq > clients_[victim].seq) victim = i;
    i = Blocker(i);
  } while (i != cur);
  Client* c = &clients_[victim];
  tracer_->Run(Call::kAbort, c->attempt_span, c->program, c->attempt,
               [&] { return session_->Abort(c->h); });
  ++counts_.aborts;
  ++counts_.cycle_aborts;
  Mix(&counts_.fingerprint, 0xc1c1e000 + victim);
  FinishAttempt(c, false);
}

bool SmallBankMux::Step(Client* c, std::string* error) {
  if (c->program == 0) StartProgram(c);
  const Stmt stmt = Program(c->op)[c->step];
  const uint32_t parent = c->attempt_span;
  const uint64_t prog = c->program;
  const uint32_t att = c->attempt;
  const ssidb::TableId saving = sb_->saving_table();
  const ssidb::TableId checking = sb_->checking_table();
  std::string v;
  Status st;

  auto get = [&](ssidb::TableId t, Slice key) {
    return tracer_->Run(Call::kGet, parent, prog, att,
                        [&] { return session_->Get(c->h, t, key, &v); });
  };
  auto get_balance = [&](ssidb::TableId t, uint64_t id, int64_t* out) {
    Status s = get(t, ssidb::EncodeU64Key(id));
    if (s.ok() && !DecodeBalance(v, out)) {
      s = Status::Corruption("smallbank: bad balance value");
    }
    return s;
  };
  auto put = [&](ssidb::TableId t, uint64_t id, int64_t cents, int64_t row) {
    Status s = tracer_->Run(Call::kPut, parent, prog, att, [&] {
      return session_->Put(c->h, t, ssidb::EncodeU64Key(id),
                           EncodeBalance(cents));
    });
    if (s.ok()) {
      row_owner_[row] = static_cast<int32_t>(c - clients_.data());
      c->rows.push_back(row);
    }
    return s;
  };

  switch (stmt) {
    case Stmt::kBegin: {
      ++c->attempt;
      ++counts_.attempts;
      c->attempt_span = tracer_->Open(SpanKind::kAttempt, Call::kCount,
                                      c->program_span, prog, c->attempt);
      const uint64_t now = NowNs();
      if (c->attempt == 1) c->first_begin_ns = now;
      c->h = tracer_->Run(Call::kBegin, c->attempt_span, prog, c->attempt,
                          [&] {
                            return session_->Begin(
                                {IsolationLevel::kSerializableSSI});
                          });
      c->seq = ++begin_seq_;
      c->delta = 0;
      ++c->step;
      return true;
    }
    case Stmt::kLookup1:
    case Stmt::kLookup2: {
      st = get(sb_->account_table(),
               NameKey(stmt == Stmt::kLookup1 ? c->n1 : c->n2));
      if (st.ok()) {
        (stmt == Stmt::kLookup1 ? c->id1 : c->id2) = ssidb::DecodeU64Key(v);
      }
      break;
    }
    case Stmt::kGetS1: st = get_balance(saving, c->id1, &c->s1); break;
    case Stmt::kGetC1: st = get_balance(checking, c->id1, &c->c1); break;
    case Stmt::kGetC2: st = get_balance(checking, c->id2, &c->c2); break;
    case Stmt::kPutC1: {
      int64_t cents = 0;
      if (c->op == Op::kDeposit) {
        cents = c->c1 + c->amount;
        c->delta = c->amount;
      } else if (c->op == Op::kWriteCheck) {
        const int64_t debit = c->s1 + c->c1 < c->amount
                                  ? c->amount + kOverdraftPenaltyCents
                                  : c->amount;
        cents = c->c1 - debit;
        c->delta = -debit;
      }  // Amalgamate zeroes the source checking account.
      st = put(checking, c->id1, cents, 2 * c->id1);
      break;
    }
    case Stmt::kPutS1: {
      int64_t cents = 0;
      if (c->op == Op::kTransactSaving) {
        cents = c->s1 + c->amount;
        c->delta = c->amount;
      }  // Amalgamate zeroes the source savings account.
      st = put(saving, c->id1, cents, 2 * c->id1 + 1);
      break;
    }
    case Stmt::kPutC2:
      st = put(checking, c->id2, c->c2 + c->s1 + c->c1, 2 * c->id2);
      break;
    case Stmt::kCommit: {
      st = tracer_->Run(Call::kCommit, parent, prog, att,
                        [&] { return session_->Commit(c->h); });
      if (!st.ok()) return Classify(st, c, error);
      const uint64_t now = NowNs();
      committed_delta_ += c->delta;
      ++counts_.commits;
      if (measuring_) log_.Add(now, now - c->first_begin_ns);
      FinishAttempt(c, true);
      if (report_ != nullptr &&
          ++report_->since >= config_.report_every_commits) {
        report_->since = 0;
        if (!ReportStep(error)) return false;
      }
      if (sample_every_ > 0 && counts_.commits % sample_every_ == 0) {
        peaks_->Sample(db_);
      }
      return true;
    }
  }
  if (!st.ok()) return Classify(st, c, error);
  ++c->step;
  return true;
}

bool SmallBankMux::ReportStep(std::string* error) {
  Report* r = report_.get();
  auto reset = [&](bool done) {
    tracer_->Close(r->attempt_span);
    r->attempt_span = Tracer::kNoSpan;
    if (done) {
      tracer_->Close(r->program_span);
      r->program_span = Tracer::kNoSpan;
      r->program = 0;
    }
    r->h = 0;
    r->table = 0;
    r->next = 0;
    r->sum = 0;
  };
  if (r->h == 0) {
    if (r->program == 0) {
      r->program = next_program_++;
      r->attempt = 0;
      r->program_span = tracer_->Open(SpanKind::kProgram, Call::kCount,
                                      Tracer::kNoSpan, r->program, 0);
    }
    ++r->attempt;
    ++counts_.report_attempts;
    r->attempt_span = tracer_->Open(SpanKind::kAttempt, Call::kCount,
                                    r->program_span, r->program, r->attempt);
    r->h = tracer_->Run(Call::kBegin, r->attempt_span, r->program,
                        r->attempt, [&] {
                          return r->session->Begin(
                              {IsolationLevel::kSerializableSSI});
                        });
    // The snapshot is taken by the first Scan below, before any further
    // OLTP commit on this thread: it covers exactly the commits so far.
    r->expected = load_total_ + committed_delta_;
  }
  const ssidb::TableId t =
      r->table == 0 ? sb_->checking_table() : sb_->saving_table();
  const uint64_t hi =
      std::min(r->next + config_.report_chunk_rows, config_.customers) - 1;
  uint64_t rows = 0;
  bool corrupt = false;
  Status st = tracer_->Run(Call::kScan, r->attempt_span, r->program,
                           r->attempt, [&] {
                             return r->session->Scan(
                                 r->h, t, ssidb::EncodeU64Key(r->next),
                                 ssidb::EncodeU64Key(hi),
                                 [&](Slice, Slice value) {
                                   int64_t cents = 0;
                                   if (!DecodeBalance(value, &cents)) {
                                     corrupt = true;
                                   }
                                   r->sum += cents;
                                   ++rows;
                                   return true;
                                 });
                           });
  if (measuring_) {
    ++scans_;
    scan_rows_ += rows;
  }
  if (corrupt) {
    *error = "report: undecodable balance";
    return false;
  }
  if (!st.ok()) {
    if (!st.IsAbort() || st.IsTimedOut()) {
      *error = "report: unexpected status " + st.ToString();
      return false;
    }
    ++counts_.report_aborts;
    reset(false);
    return true;
  }
  r->next = hi + 1;
  if (r->next < config_.customers) return true;
  if (r->table == 0) {
    r->table = 1;
    r->next = 0;
    return true;
  }
  st = tracer_->Run(Call::kCommit, r->attempt_span, r->program, r->attempt,
                    [&] { return r->session->Commit(r->h); });
  if (st.ok()) {
    ++counts_.report_passes;
    if (r->sum != r->expected) ++report_mismatches_;
    reset(true);
    return true;
  }
  if (!st.IsAbort() || st.IsTimedOut()) {
    *error = "report: unexpected commit status " + st.ToString();
    return false;
  }
  ++counts_.report_aborts;
  reset(false);
  return true;
}

bool SmallBankMux::Run(uint64_t commits, std::string* error) {
  const uint64_t goal = counts_.commits + commits;
  const size_t n = clients_.size();
  while (counts_.commits < goal) {
    const size_t pick = rng_.Uniform(n);
    size_t chosen = pick;
    if (Blocked(clients_[pick])) {
      ++counts_.deferrals;
      if (OnCycle(pick)) {
        BreakCycle(pick);
        continue;
      }
      chosen = n;
      for (size_t k = 1; k < n; ++k) {
        const size_t i = (pick + k) % n;
        if (!Blocked(clients_[i])) {
          chosen = i;
          break;
        }
      }
      if (chosen == n) {
        BreakCycle(pick);
        continue;
      }
    }
    Mix(&counts_.fingerprint, (chosen << 8) | clients_[chosen].step);
    if (!Step(&clients_[chosen], error)) return false;
  }
  return true;
}

bool SmallBankMux::CheckTotal(std::string* error) {
  int64_t total = 0;
  const Status st = sb_->TotalBalance(db_, &total);
  if (!st.ok()) {
    *error = "smallbank: TotalBalance failed: " + st.ToString();
    return false;
  }
  const int64_t expected = load_total_ + committed_delta_;
  if (total != expected) {
    *error = "smallbank: total balance " + std::to_string(total) +
             " != load total + committed changes " + std::to_string(expected);
    return false;
  }
  return true;
}

}  // namespace perfbench
