// Quickstart: open an engine, create a table, run transactions at the
// three isolation levels, and handle the error classes a client sees.
//
//   $ ./build/examples/quickstart

#include <cstdio>
#include <memory>
#include <string>

#include "src/db/db.h"

using ssidb::DB;
using ssidb::DBOptions;
using ssidb::IsolationLevel;
using ssidb::Slice;
using ssidb::Status;
using ssidb::TableId;

int main() {
  // 1. Open an in-memory engine. The defaults match the paper's InnoDB
  //    prototype: row-level locks, precise SSI conflict references.
  DBOptions options;
  std::unique_ptr<DB> db;
  Status st = DB::Open(options, &db);
  if (!st.ok()) {
    fprintf(stderr, "open: %s\n", st.ToString().c_str());
    return 1;
  }

  TableId accounts = 0;
  st = db->CreateTable("accounts", &accounts);
  if (!st.ok()) return 1;

  // 2. A Serializable SI transaction: reads never block, and commit fails
  //    with an "unsafe" error if serializability would be at risk.
  {
    auto txn = db->Begin({IsolationLevel::kSerializableSSI});
    st = txn->Insert(accounts, "alice", "100");
    if (st.ok()) st = txn->Insert(accounts, "bob", "250");
    if (st.ok()) st = txn->Commit();
    printf("seed accounts: %s\n", st.ToString().c_str());
  }

  // 3. Reads, scans and updates.
  {
    auto txn = db->Begin({IsolationLevel::kSerializableSSI});
    std::string balance;
    st = txn->Get(accounts, "alice", &balance);
    printf("alice = %s\n", balance.c_str());

    printf("all accounts:\n");
    txn->Scan(accounts, "a", "z", [](Slice key, Slice value) {
      printf("  %.*s = %.*s\n", static_cast<int>(key.size()), key.data(),
             static_cast<int>(value.size()), value.data());
      return true;
    });

    st = txn->Put(accounts, "alice", "90");
    if (st.ok()) st = txn->Commit();
    printf("update: %s\n", st.ToString().c_str());
  }

  // 4. The retry discipline: any status with IsAbort() means the engine
  //    already rolled the transaction back — deadlock (S2PL), update
  //    conflict (SI first-committer-wins) or unsafe (SSI dangerous
  //    structure). Clients simply run the transaction again.
  for (int attempt = 1; attempt <= 3; ++attempt) {
    auto txn = db->Begin({IsolationLevel::kSerializableSSI});
    std::string v;
    st = txn->Get(accounts, "bob", &v);
    if (st.ok()) st = txn->Put(accounts, "bob", v + "0");  // 10x bob.
    if (st.ok()) st = txn->Commit();
    if (st.ok()) {
      printf("bob updated on attempt %d\n", attempt);
      break;
    }
    if (!st.IsAbort()) {  // Logic error, not a concurrency abort.
      fprintf(stderr, "unexpected: %s\n", st.ToString().c_str());
      return 1;
    }
    printf("attempt %d aborted (%s); retrying\n", attempt,
           st.ToString().c_str());
  }

  // 5. Plain snapshot isolation for cheap read-only queries (§3.8): no
  //    read locks, no unsafe aborts — at the cost of possibly observing a
  //    state no serial execution of the updates could produce.
  {
    auto query = db->Begin({IsolationLevel::kSnapshot});
    std::string v;
    query->Get(accounts, "alice", &v);
    printf("SI query sees alice = %s\n", v.c_str());
    query->Commit();
  }

  // 6. Engine statistics: one registry snapshot, read by metric name.
  const ssidb::obs::MetricsSnapshot stats = db->metrics()->Collect();
  printf("stats: unsafe_aborts=%llu deadlocks=%llu log_records=%llu\n",
         static_cast<unsigned long long>(*stats.Find("ssi.unsafe_aborts")),
         static_cast<unsigned long long>(*stats.Find("lock.deadlocks")),
         static_cast<unsigned long long>(*stats.Find("log.records")));
  return 0;
}
