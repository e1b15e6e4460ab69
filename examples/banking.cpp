// A concurrent banking service on the SmallBank schema (§2.8.2): several
// teller threads run the five transaction programs with the standard retry
// discipline while an auditor thread repeatedly verifies that money is
// conserved. Run at Serializable SI, the audit always balances; the same
// program pointed at plain SI can (rarely) observe or create skew.
//
//   $ ./build/examples/banking [threads] [seconds]

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <thread>
#include <vector>

#include "src/common/random.h"
#include "src/workloads/smallbank.h"

using ssidb::DB;
using ssidb::DBOptions;
using ssidb::IsolationLevel;
using ssidb::Random;
using ssidb::Status;
using ssidb::bench::SeriesConfig;
using ssidb::workloads::SmallBank;
using ssidb::workloads::SmallBankConfig;
using ssidb::workloads::SmallBankOp;

int main(int argc, char** argv) {
  const int threads = argc > 1 ? std::atoi(argv[1]) : 4;
  const double seconds = argc > 2 ? std::atof(argv[2]) : 2.0;

  DBOptions options;
  std::unique_ptr<DB> db;
  if (!DB::Open(options, &db).ok()) return 1;

  SmallBankConfig config;
  config.customers = 100;
  std::unique_ptr<SmallBank> bank;
  Status st = SmallBank::Setup(db.get(), config, &bank);
  if (!st.ok()) {
    fprintf(stderr, "setup: %s\n", st.ToString().c_str());
    return 1;
  }

  int64_t initial_total = 0;
  bank->TotalBalance(db.get(), &initial_total);
  printf("bank open: %llu customers, total %lld cents\n",
         static_cast<unsigned long long>(config.customers),
         static_cast<long long>(initial_total));

  // Deposits and checks change the total; count each in its own counter so
  // the auditor can reconcile. (Balance/Amalgamate/TransactSaving conserve
  // it; DepositChecking adds; WriteCheck subtracts, incl. the $1 penalty.)
  std::atomic<int64_t> deposited{0};
  std::atomic<int64_t> checked{0};
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> commits{0};
  std::atomic<uint64_t> retries{0};

  SeriesConfig series{"SSI", IsolationLevel::kSerializableSSI, std::nullopt};

  std::vector<std::thread> tellers;
  for (int t = 0; t < threads; ++t) {
    tellers.emplace_back([&, t] {
      Random rng(1234 + t);
      while (!stop.load(std::memory_order_relaxed)) {
        // Conserving programs only, so the audit is exact; deposits and
        // checks are exercised through the delta-tracked calls below.
        const uint64_t n1 = rng.Uniform(config.customers);
        uint64_t n2 = rng.Uniform(config.customers);
        if (n2 == n1) n2 = (n2 + 1) % config.customers;
        const SmallBankOp op = static_cast<SmallBankOp>(rng.Uniform(5));
        const int64_t cents = rng.UniformRange(1, 99) * 100;

        // A commit becomes snapshot-visible the moment the watermark covers
        // it, slightly before RunOp returns. Deposits are therefore counted
        // BEFORE the commit (and taken back on failure), checks only AFTER
        // it: every deposit an auditor snapshot can see is counted, and
        // every counted check is in the snapshots taken after it.
        const bool deposit = op == SmallBankOp::kDepositChecking ||
                             op == SmallBankOp::kTransactSaving;
        if (deposit) deposited.fetch_add(cents);
        Status s = bank->RunOp(db.get(), series, op, n1, n2, cents);
        if (s.ok()) {
          commits.fetch_add(1, std::memory_order_relaxed);
          if (op == SmallBankOp::kWriteCheck) checked.fetch_add(cents);
        } else {
          if (deposit) deposited.fetch_sub(cents);
          if (s.IsAbort()) {
            retries.fetch_add(1, std::memory_order_relaxed);  // Retry later.
          }
        }
      }
    });
  }

  // Auditor: scans both balance tables at snapshot isolation (a consistent
  // snapshot is all an auditor needs; §3.8). Penalties make the exact
  // total drift below the reconciled bound; it must never exceed it. The
  // checks are read before the snapshot and the deposits after the scan,
  // so a check committing mid-audit cannot lower the bound below a total
  // that does not include it, and a deposit the scan saw is always counted.
  int audits = 0;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(seconds);
  while (std::chrono::steady_clock::now() < deadline) {
    int64_t total = 0;
    const int64_t checked_before = checked.load();
    if (bank->TotalBalance(db.get(), &total).ok()) {
      ++audits;
      const int64_t upper = initial_total + deposited.load() - checked_before;
      if (total > upper) {
        printf("AUDIT FAILURE: total %lld exceeds reconcilable %lld\n",
               static_cast<long long>(total), static_cast<long long>(upper));
        stop.store(true);
        for (auto& th : tellers) th.join();
        return 1;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  stop.store(true);
  for (auto& th : tellers) th.join();

  int64_t final_total = 0;
  bank->TotalBalance(db.get(), &final_total);
  printf("closed: %llu commits, %llu retries, %d audits, final total %lld\n",
         static_cast<unsigned long long>(commits.load()),
         static_cast<unsigned long long>(retries.load()), audits,
         static_cast<long long>(final_total));
  const ssidb::obs::MetricsSnapshot stats = db->metrics()->Collect();
  printf("engine: %llu unsafe aborts, %llu lock waits, %llu log records\n",
         static_cast<unsigned long long>(*stats.Find("ssi.unsafe_aborts")),
         static_cast<unsigned long long>(*stats.Find("lock.waits")),
         static_cast<unsigned long long>(*stats.Find("log.records")));
  return 0;
}
