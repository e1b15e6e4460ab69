// The session layer: handle-keyed multiplexing of many open transactions
// on few threads (src/db/session.h). Covers handle lifecycle (begin /
// retire / unknown-handle rejection), snapshot isolation between handles
// of one session, abort reaping, destructor cleanup, and the thousands-
// open-on-one-thread shape the layer exists for.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/common/encoding.h"
#include "src/db/db.h"
#include "src/db/session.h"
#include "src/io/env.h"
#include "tests/test_util.h"

namespace ssidb {
namespace {

struct SessionTest : public ::testing::Test {
  void SetUp() override {
    ASSERT_TRUE(DB::Open(DBOptions{}, &db).ok());
    ASSERT_TRUE(db->CreateTable("t", &table).ok());
  }
  std::unique_ptr<DB> db;
  TableId table = 0;
};

TEST_F(SessionTest, ThousandsOpenOnOneThread) {
  // The point of the layer: one thread holds thousands of transactions
  // open simultaneously — impossible with one Transaction object + one
  // parked thread each — then drives them all to commit.
  constexpr uint64_t kOpen = 2000;
  auto session = db->CreateSession();
  std::vector<TxnHandle> handles;
  handles.reserve(kOpen);
  for (uint64_t i = 0; i < kOpen; ++i) {
    const TxnHandle h = session->Begin({IsolationLevel::kSnapshot});
    ASSERT_NE(h, 0u);
    // Disjoint keys: no write-write conflicts, every commit must succeed.
    ASSERT_TRUE(
        session->Put(h, table, EncodeU64Key(i), EncodeU64Key(i)).ok());
    handles.push_back(h);
  }
  EXPECT_EQ(session->open_transactions(), kOpen);
  for (const TxnHandle h : handles) {
    ASSERT_TRUE(session->Commit(h).ok());
  }
  EXPECT_EQ(session->open_transactions(), 0u);
  auto check = db->Begin({IsolationLevel::kSnapshot});
  for (uint64_t i = 0; i < kOpen; ++i) {
    std::string v;
    ASSERT_TRUE(check->Get(table, EncodeU64Key(i), &v).ok()) << i;
    EXPECT_EQ(v, EncodeU64Key(i));
  }
  ASSERT_TRUE(check->Commit().ok());
}

TEST_F(SessionTest, HandlesAreIsolatedTransactions) {
  auto session = db->CreateSession();
  const TxnHandle a = session->Begin({IsolationLevel::kSnapshot});
  const TxnHandle b = session->Begin({IsolationLevel::kSnapshot});
  EXPECT_NE(session->id(a), session->id(b));
  // b snapshots before a's write commits: a's write must stay invisible
  // to b even though both live in the same session.
  std::string v;
  EXPECT_TRUE(session->Get(b, table, "k", &v).IsNotFound());
  ASSERT_TRUE(session->Put(a, table, "k", "from-a").ok());
  EXPECT_TRUE(session->Get(b, table, "k", &v).IsNotFound());
  ASSERT_TRUE(session->Commit(a).ok());
  EXPECT_TRUE(session->Get(b, table, "k", &v).IsNotFound());
  ASSERT_TRUE(session->Commit(b).ok());
}

TEST_F(SessionTest, UnknownHandleIsRejected) {
  auto session = db->CreateSession();
  std::string v;
  EXPECT_TRUE(session->Get(0, table, "k", &v).IsTxnInvalid());
  EXPECT_TRUE(session->Put(99, table, "k", "v").IsTxnInvalid());
  EXPECT_TRUE(session->Commit(99).IsTxnInvalid());
  EXPECT_TRUE(session->Abort(99).ok());  // Idempotent, like Transaction.
  EXPECT_EQ(session->id(99), 0u);
  EXPECT_EQ(session->snapshot_ts(99), 0u);
  // A retired handle behaves exactly like an unknown one.
  const TxnHandle h = session->Begin();
  ASSERT_TRUE(session->Commit(h).ok());
  EXPECT_TRUE(session->Put(h, table, "k", "v").IsTxnInvalid());
  EXPECT_TRUE(session->Commit(h).IsTxnInvalid());
  bool fired = false;
  session->CommitAsync(h, [&](Status st) {
    fired = true;
    EXPECT_TRUE(st.IsTxnInvalid());
  });
  EXPECT_TRUE(fired);
}

TEST_F(SessionTest, AbortStatusReapsTheHandle) {
  // First-committer-wins: h writes under a snapshot older than a
  // concurrent committed write of the same key, so the write aborts. The
  // session must reap the handle at that point — a pipelined client never
  // revisits a rolled-back transaction.
  auto session = db->CreateSession();
  const TxnHandle h = session->Begin({IsolationLevel::kSnapshot});
  std::string v;
  EXPECT_TRUE(session->Get(h, table, "k", &v).IsNotFound());  // Snapshot.
  {
    auto winner = db->Begin({IsolationLevel::kSnapshot});
    ASSERT_TRUE(winner->Put(table, "k", "winner").ok());
    ASSERT_TRUE(winner->Commit().ok());
  }
  const Status st = session->Put(h, table, "k", "loser");
  ASSERT_TRUE(st.IsAbort()) << st.ToString();
  EXPECT_EQ(session->open_transactions(), 0u);
  EXPECT_TRUE(session->Get(h, table, EncodeU64Key(0), &v).IsTxnInvalid());
}

TEST_F(SessionTest, ExplicitAbortRetiresAndReleases) {
  auto session = db->CreateSession();
  const TxnHandle h = session->Begin({IsolationLevel::kSnapshot});
  ASSERT_TRUE(session->Put(h, table, "k", "doomed").ok());
  ASSERT_TRUE(session->Abort(h).ok());
  EXPECT_EQ(session->open_transactions(), 0u);
  // The write rolled back and its lock is free for the next writer.
  auto t = db->Begin({IsolationLevel::kSnapshot});
  std::string v;
  EXPECT_TRUE(t->Get(table, "k", &v).IsNotFound());
  ASSERT_TRUE(t->Put(table, "k", "next").ok());
  ASSERT_TRUE(t->Commit().ok());
}

TEST_F(SessionTest, DestructorAbortsEverythingStillOpen) {
  {
    auto session = db->CreateSession();
    for (uint64_t i = 0; i < 16; ++i) {
      const TxnHandle h = session->Begin({IsolationLevel::kSnapshot});
      ASSERT_TRUE(
          session->Put(h, table, EncodeU64Key(i), "abandoned").ok());
    }
    EXPECT_EQ(session->open_transactions(), 16u);
  }
  // Every abandoned transaction rolled back: no registry residue, no
  // visible writes, no stuck locks.
  EXPECT_EQ(db->txn_manager()->active_count(), 0u);
  auto t = db->Begin({IsolationLevel::kSnapshot});
  for (uint64_t i = 0; i < 16; ++i) {
    std::string v;
    EXPECT_TRUE(t->Get(table, EncodeU64Key(i), &v).IsNotFound());
    ASSERT_TRUE(t->Put(table, EncodeU64Key(i), "mine").ok());
  }
  ASSERT_TRUE(t->Commit().ok());
}

TEST_F(SessionTest, OpenSessionGaugeTracksLifetimes) {
  EXPECT_EQ(db->sessions_open(), 0u);
  auto s1 = db->CreateSession();
  EXPECT_EQ(db->sessions_open(), 1u);
  {
    auto s2 = db->CreateSession();
    EXPECT_EQ(db->sessions_open(), 2u);
  }
  EXPECT_EQ(db->sessions_open(), 1u);
  s1.reset();
  EXPECT_EQ(db->sessions_open(), 0u);
}

TEST_F(SessionTest, SnapshotTsReportsTheLateSnapshot) {
  // §4.5 late snapshot through the session surface: unassigned until the
  // first statement runs.
  auto session = db->CreateSession();
  const TxnHandle h = session->Begin({IsolationLevel::kSerializableSSI});
  EXPECT_EQ(session->snapshot_ts(h), 0u);
  std::string v;
  (void)session->Get(h, table, "k", &v);
  EXPECT_GT(session->snapshot_ts(h), 0u);
  ASSERT_TRUE(session->Commit(h).ok());
}

TEST(SessionFaultTest, SnapshotTsAfterAnIOAbortReadsTheFinishedCopy) {
  // A read that cannot fault its spilled chain back aborts with kIOError,
  // which is not an abort code: the handle stays open on a finished
  // context, and snapshot_ts must still answer from it.
  ScratchDir dir;
  io::FaultInjectingEnv env;
  DBOptions opts;
  opts.buffer_pool_bytes = 1 << 14;  // 4 frames of 4 KiB.
  opts.run_page_bytes = 4096;
  opts.data_dir = dir.path;
  opts.env = &env;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(opts, &db).ok());
  TableId table = 0;
  ASSERT_TRUE(db->CreateTable("t", &table).ok());
  // 64 KiB of values spilled into a 16 KiB pool: the first key's run page
  // is not cached when it is read back.
  constexpr uint64_t kKeys = 64;
  {
    auto seed = db->Begin({IsolationLevel::kSnapshot});
    for (uint64_t i = 0; i < kKeys; ++i) {
      ASSERT_TRUE(
          seed->Put(table, EncodeU64Key(i), std::string(1000, 'v')).ok());
    }
    ASSERT_TRUE(seed->Commit().ok());
  }
  db->SpillChains(table);  // Two sweeps: clear the clock bits, then spill.
  ASSERT_EQ(db->SpillChains(table), kKeys);
  env.InjectFault(io::FaultInjectingEnv::FaultKind::kReadError, "run-");

  auto session = db->CreateSession();
  const TxnHandle h = session->Begin({IsolationLevel::kSerializableSSI});
  std::string v;
  const Status st = session->Get(h, table, EncodeU64Key(0), &v);
  ASSERT_TRUE(st.IsIOError()) << st.ToString();
  ASSERT_FALSE(st.IsAbort());
  EXPECT_EQ(session->open_transactions(), 1u);
  EXPECT_GT(session->snapshot_ts(h), 0u);
  EXPECT_TRUE(session->Get(h, table, EncodeU64Key(0), &v).IsTxnInvalid());
  EXPECT_TRUE(session->Abort(h).ok());
  EXPECT_EQ(session->open_transactions(), 0u);
  env.ClearFaults();
}

TEST_F(SessionTest, ScanThroughTheSession) {
  {
    auto seed = db->Begin({IsolationLevel::kSnapshot});
    for (uint64_t i = 0; i < 10; ++i) {
      ASSERT_TRUE(seed->Put(table, EncodeU64Key(i), EncodeU64Key(i)).ok());
    }
    ASSERT_TRUE(seed->Commit().ok());
  }
  auto session = db->CreateSession();
  const TxnHandle h = session->Begin({IsolationLevel::kSerializableSSI});
  size_t count = 0;
  ASSERT_TRUE(session
                  ->Scan(h, table, EncodeU64Key(2), EncodeU64Key(7),
                         [&](Slice, Slice) {
                           ++count;
                           return true;
                         })
                  .ok());
  EXPECT_EQ(count, 6u);
  ASSERT_TRUE(session->Commit(h).ok());
}

}  // namespace
}  // namespace ssidb
