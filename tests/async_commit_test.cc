// The completion-driven commit pipeline: CommitRing completions
// (OnCovered), TxnManager::CommitAsync's submit/finalize split, the
// blocking-Commit-is-async-plus-wait equivalence, and the DB-level
// asynchronous acknowledgment path through Session::CommitAsync.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/common/encoding.h"
#include "src/db/db.h"
#include "src/db/session.h"
#include "src/lock/lock_manager.h"
#include "src/txn/commit_ring.h"
#include "src/txn/log_manager.h"
#include "src/txn/txn_manager.h"

namespace ssidb {
namespace {

// Nothing re-drives the commit pipeline (the publish rule, commit_ring.h),
// so every acknowledgment wait below is one wait with a hard deadline: a
// lost wakeup fails the test instead of hanging it or hiding behind a
// re-drive.
constexpr auto kAckDeadline = std::chrono::seconds(30);

// ---------------------------------------------------------------------------
// CommitRing completions.
// ---------------------------------------------------------------------------

TEST(CommitRingCompletionTest, FiresInlineWhenAlreadyCovered) {
  CommitRing ring(8);
  const Timestamp ts = ring.Allocate();
  ring.Publish(ts);
  ASSERT_GE(ring.stable(), ts);
  bool fired = false;
  ring.OnCovered(ts, [&] { fired = true; });
  EXPECT_TRUE(fired);  // Inline, on this thread, before OnCovered returns.
}

TEST(CommitRingCompletionTest, FiresWhenTheCoveringAdvanceHappens) {
  CommitRing ring(8);
  const Timestamp t1 = ring.Allocate();
  const Timestamp t2 = ring.Allocate();
  std::atomic<int> fired{0};
  // t2's slot is stamped but the watermark holds below t1: neither
  // completion may fire until t1 publishes.
  ring.Publish(t2);
  ring.OnCovered(t1, [&] { fired.fetch_add(1); });
  ring.OnCovered(t2, [&] { fired.fetch_add(1); });
  EXPECT_EQ(fired.load(), 0);
  ring.Publish(t1);  // Covers both; the publisher's drive drains them.
  EXPECT_EQ(fired.load(), 2);
}

TEST(CommitRingCompletionTest, CompletionSeesTheCoveringWatermark) {
  // A completion for ts observes stable() >= ts when it runs — the
  // acknowledgment ordering the finalize half builds on.
  CommitRing ring(4);
  for (int lap = 0; lap < 32; ++lap) {
    const Timestamp a = ring.Allocate();
    const Timestamp b = ring.Allocate();
    std::atomic<bool> ok_a{false}, ok_b{false};
    ring.Publish(b);
    ring.OnCovered(a, [&, a] { ok_a.store(ring.stable() >= a); });
    ring.OnCovered(b, [&, b] { ok_b.store(ring.stable() >= b); });
    ring.Publish(a);
    EXPECT_TRUE(ok_a.load());
    EXPECT_TRUE(ok_b.load());
  }
}

TEST(CommitRingCompletionTest, ConcurrentRegistrationNeverLosesACompletion) {
  // Threads allocate, publish, and register a completion for their own
  // timestamp — racing the concurrent drivers that may cover it before,
  // during, or after registration. Exactly one fire per registration.
  CommitRing ring(8);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  std::atomic<uint64_t> fired{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        const Timestamp ts = ring.Allocate();
        ring.Publish(ts);
        ring.OnCovered(ts, [&] { fired.fetch_add(1); });
      }
    });
  }
  for (auto& t : workers) t.join();
  // No driver runs after the joins: the publishers' own drives (the
  // publish rule) plus the registration re-check must already have fired
  // every completion, including those whose covering drive took its
  // shard snapshot before the insert was visible.
  EXPECT_EQ(fired.load(), uint64_t{kThreads} * kPerThread);
  EXPECT_EQ(ring.stable(), ring.clock());
}

// ---------------------------------------------------------------------------
// LogManager flush subscriptions.
// ---------------------------------------------------------------------------

TEST(FlushSubscriptionTest, InlineWhenCommitsDoNotWaitOnFlushes) {
  LogOptions opts;  // flush_on_commit unset.
  LogManager log(opts);
  LogRecord rec;
  const Lsn lsn = log.Append(std::move(rec));
  bool fired = false;
  log.OnFlushed(lsn, [&](Status st) {
    fired = true;
    EXPECT_TRUE(st.ok());
  });
  EXPECT_TRUE(fired);
}

TEST(FlushSubscriptionTest, FiredByTheGroupCommitFlusher) {
  LogOptions opts;
  opts.flush_on_commit = true;
  opts.flush_latency_us = 100;
  LogManager log(opts);
  constexpr int kRecords = 16;
  std::atomic<int> fired{0};
  std::mutex mu;
  std::condition_variable cv;
  for (int i = 0; i < kRecords; ++i) {
    LogRecord rec;
    const Lsn lsn = log.Append(std::move(rec));
    log.OnFlushed(lsn, [&](Status st) {
      EXPECT_TRUE(st.ok());
      // Notify under the lock: the waiter owns cv/mu on its stack, so the
      // notify must complete before the waiter can observe the final
      // count and return (destroying them under the flusher thread).
      std::lock_guard<std::mutex> guard(mu);
      fired.fetch_add(1);
      cv.notify_all();
    });
  }
  std::unique_lock<std::mutex> guard(mu);
  ASSERT_TRUE(cv.wait_for(guard, std::chrono::seconds(10),
                          [&] { return fired.load() == kRecords; }));
  EXPECT_GE(log.flush_batches(), 1u);
}

TEST(FlushSubscriptionTest, ShutdownFiresEverySubscription) {
  // Subscriptions never covered by a flush must still fire (with the
  // sticky status) when the log shuts down — no completion is dropped.
  std::atomic<int> fired{0};
  {
    LogOptions opts;
    opts.flush_on_commit = true;
    opts.flush_latency_us = 100;
    LogManager log(opts);
    LogRecord rec;
    const Lsn lsn = log.Append(std::move(rec));
    // Subscribe past every appended LSN: no batch can mature it.
    log.OnFlushed(lsn + 100, [&](Status) { fired.fetch_add(1); });
  }
  EXPECT_EQ(fired.load(), 1);
}

// ---------------------------------------------------------------------------
// TxnManager::CommitAsync — the submit/finalize split.
// ---------------------------------------------------------------------------

class AsyncCommitTest : public ::testing::Test {
 protected:
  explicit AsyncCommitTest(DBOptions opts = {})
      : options_(opts),
        log_(options_.log),
        locks_(LockManager::Config{}),
        mgr_(options_, &locks_, &log_) {}

  /// Attach a synthetic write so the commit allocates a ring timestamp.
  void AttachWrite(const std::shared_ptr<TxnState>& txn) {
    auto chain = std::make_unique<VersionChain>();
    bool replaced = false;
    Version* v = chain->InstallUncommitted(txn->id, "v", false, &replaced);
    txn->write_set.push_back(
        TxnState::WriteRecord{0, "k", chain.get(), v, nullptr});
    chains_.push_back(std::move(chain));
  }

  /// Parked acknowledgment: Wait() parks once, as the blocking wrapper
  /// does, and fails the test if the ack misses the deadline.
  struct Ack {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    Status status;
    TxnManager::CommitCallback Cb() {
      return [this](Status st) {
        // Notify under the lock so the waiter cannot destroy cv/mu while
        // this (possibly flusher-thread) callback is still inside notify.
        std::lock_guard<std::mutex> guard(mu);
        status = st;
        done = true;
        cv.notify_all();
      };
    }
    void Wait() {
      std::unique_lock<std::mutex> guard(mu);
      ASSERT_TRUE(cv.wait_for(guard, kAckDeadline, [&] { return done; }))
          << "acknowledgment lost";
    }
  };

  // Declared first: the manager prunes the chains its commits wrote, so
  // they must outlive it.
  std::vector<std::unique_ptr<VersionChain>> chains_;
  DBOptions options_;
  LogManager log_;
  LockManager locks_;
  TxnManager mgr_;
};

TEST_F(AsyncCommitTest, WritingCommitAcknowledgesCoveredAndStamped) {
  auto t = mgr_.Begin(IsolationLevel::kSnapshot);
  mgr_.EnsureSnapshot(t.get());
  AttachWrite(t);
  Ack ack;
  mgr_.CommitAsync(t, nullptr, {}, ack.Cb());
  ASSERT_NO_FATAL_FAILURE(ack.Wait());
  ASSERT_TRUE(ack.status.ok());
  EXPECT_EQ(t->status.load(), TxnStatus::kCommitted);
  EXPECT_GT(t->commit_ts.load(), 0u);
  // The acknowledgment ordering guarantee: done fired only after the
  // watermark covered the commit and the registry dropped it.
  EXPECT_GE(mgr_.stable_ts(), t->commit_ts.load());
  EXPECT_EQ(mgr_.active_count(), 0u);
  EXPECT_EQ(mgr_.commits_inflight(), 0u);
}

TEST_F(AsyncCommitTest, ReadOnlyCommitAcknowledgesInline) {
  auto t = mgr_.Begin(IsolationLevel::kSnapshot);
  mgr_.EnsureSnapshot(t.get());
  bool fired = false;
  mgr_.CommitAsync(t, nullptr, {}, [&](Status st) {
    fired = true;
    EXPECT_TRUE(st.ok());
  });
  EXPECT_TRUE(fired);  // Nothing published, nothing logged: inline ack.
  EXPECT_EQ(t->commit_ts.load(), mgr_.stable_ts());
}

TEST_F(AsyncCommitTest, AbortVerdictArrivesThroughTheCallback) {
  auto t = mgr_.Begin(IsolationLevel::kSerializableSSI);
  mgr_.EnsureSnapshot(t.get());
  t->in_conflict_flag = true;
  t->out_conflict_flag = true;
  Status verdict;
  bool fired = false;
  mgr_.CommitAsync(
      t, [](TxnState*) { return Status::Unsafe("nope"); }, {},
      [&](Status st) {
        fired = true;
        verdict = st;
      });
  EXPECT_TRUE(fired);  // Certification failed at submit: inline ack.
  EXPECT_TRUE(verdict.IsUnsafe());
  EXPECT_EQ(t->status.load(), TxnStatus::kAborted);
  EXPECT_EQ(mgr_.commits_inflight(), 0u);
}

TEST_F(AsyncCommitTest, DoubleCommitRejectedThroughTheCallback) {
  auto t = mgr_.Begin(IsolationLevel::kSnapshot);
  mgr_.EnsureSnapshot(t.get());
  ASSERT_TRUE(mgr_.Commit(t, nullptr, {}).ok());
  Status verdict;
  mgr_.CommitAsync(t, nullptr, {}, [&](Status st) { verdict = st; });
  EXPECT_TRUE(verdict.IsTxnInvalid());
}

TEST_F(AsyncCommitTest, BlockingAndAsyncAreTheSamePath) {
  // Differential pin for "one commit code path": an identical script of
  // commits — writers, a read-only, a certification failure — produces
  // identical verdicts AND identical commit-timestamp structure whether
  // driven through blocking Commit or through CommitAsync. The blocking
  // wrapper adds only the wait.
  struct Outcome {
    bool ok = false;
    bool unsafe = false;
    Timestamp commit_ts = 0;
  };
  auto run_script = [](bool async) {
    DBOptions opts;
    LogManager log(opts.log);
    LockManager locks{LockManager::Config{}};
    std::vector<std::unique_ptr<VersionChain>> chains;  // Outlives mgr.
    TxnManager mgr(opts, &locks, &log);
    auto commit = [&](const std::shared_ptr<TxnState>& t,
                      const TxnManager::CommitCheck& check) {
      if (!async) return mgr.Commit(t, check, {});
      Status verdict;
      bool done = false;
      mgr.CommitAsync(t, check, {}, [&](Status st) {
        verdict = st;
        done = true;
      });
      // Default options: no flush_on_commit, so the whole finalize half
      // ran inline on this thread.
      EXPECT_TRUE(done);
      return verdict;
    };
    std::vector<Outcome> out;
    auto record = [&](const std::shared_ptr<TxnState>& t, Status st) {
      out.push_back(Outcome{st.ok(), st.IsUnsafe(), t->commit_ts.load()});
    };
    for (int i = 0; i < 3; ++i) {  // Three writers: consecutive ring slots.
      auto t = mgr.Begin(IsolationLevel::kSnapshot);
      mgr.EnsureSnapshot(t.get());
      auto chain = std::make_unique<VersionChain>();
      bool replaced = false;
      Version* v = chain->InstallUncommitted(t->id, "v", false, &replaced);
      t->write_set.push_back(
          TxnState::WriteRecord{0, "k", chain.get(), v, nullptr});
      chains.push_back(std::move(chain));
      record(t, commit(t, nullptr));
    }
    {  // Read-only: commit_ts is the watermark.
      auto t = mgr.Begin(IsolationLevel::kSnapshot);
      mgr.EnsureSnapshot(t.get());
      record(t, commit(t, nullptr));
    }
    {  // Certification failure.
      auto t = mgr.Begin(IsolationLevel::kSerializableSSI);
      mgr.EnsureSnapshot(t.get());
      t->in_conflict_flag = true;
      t->out_conflict_flag = true;
      record(t, commit(t, [](TxnState*) {
               return Status::Unsafe("pivot");
             }));
    }
    return out;
  };
  const auto blocking = run_script(/*async=*/false);
  const auto async = run_script(/*async=*/true);
  ASSERT_EQ(blocking.size(), async.size());
  for (size_t i = 0; i < blocking.size(); ++i) {
    EXPECT_EQ(blocking[i].ok, async[i].ok) << "script step " << i;
    EXPECT_EQ(blocking[i].unsafe, async[i].unsafe) << "script step " << i;
    EXPECT_EQ(blocking[i].commit_ts, async[i].commit_ts)
        << "script step " << i;
  }
}

TEST_F(AsyncCommitTest, ManyInFlightDrainThroughTheFlusher) {
  // Durable-shaped pipeline without a disk: flush_on_commit with the
  // simulated latency. Submit a burst of async writers from one thread —
  // far more than one flush batch — and require every acknowledgment.
  DBOptions opts;
  opts.log.flush_on_commit = true;
  opts.log.flush_latency_us = 200;
  LogManager log(opts.log);
  LockManager locks{LockManager::Config{}};
  std::vector<std::unique_ptr<VersionChain>> chains;  // Outlives mgr.
  TxnManager mgr(opts, &locks, &log);
  constexpr int kBurst = 256;
  std::atomic<int> acked{0};
  std::mutex mu;
  std::condition_variable cv;
  uint64_t peak_inflight = 0;
  for (int i = 0; i < kBurst; ++i) {
    auto t = mgr.Begin(IsolationLevel::kSnapshot);
    mgr.EnsureSnapshot(t.get());
    auto chain = std::make_unique<VersionChain>();
    bool replaced = false;
    Version* v = chain->InstallUncommitted(t->id, "v", false, &replaced);
    t->write_set.push_back(
        TxnState::WriteRecord{0, "k", chain.get(), v, nullptr});
    chains.push_back(std::move(chain));
    mgr.CommitAsync(t, nullptr, {}, [&](Status st) {
      EXPECT_TRUE(st.ok());
      std::lock_guard<std::mutex> guard(mu);
      acked.fetch_add(1);
      cv.notify_all();  // Under the lock: see Cb() above.
    });
    peak_inflight = std::max(peak_inflight, mgr.commits_inflight());
  }
  EXPECT_GT(peak_inflight, 0u);  // Genuinely pipelined.
  {
    std::unique_lock<std::mutex> guard(mu);
    ASSERT_TRUE(cv.wait_for(guard, kAckDeadline,
                            [&] { return acked.load() == kBurst; }))
        << acked.load() << " of " << kBurst << " acknowledged";
  }
  EXPECT_EQ(mgr.commits_inflight(), 0u);
  EXPECT_EQ(mgr.stable_ts(), mgr.clock_now());
  // The burst coalesced: far fewer fsync-equivalents than commits.
  EXPECT_LT(log.flush_batches(), uint64_t{kBurst});
}

// ---------------------------------------------------------------------------
// DB-level: Session::CommitAsync end to end.
// ---------------------------------------------------------------------------

TEST(SessionAsyncCommitTest, AckedWriteIsVisibleAndDurablyOrdered) {
  DBOptions opts;
  opts.log.flush_on_commit = true;
  opts.log.flush_latency_us = 100;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(opts, &db).ok());
  TableId table = 0;
  ASSERT_TRUE(db->CreateTable("t", &table).ok());

  auto session = db->CreateSession();
  constexpr int kN = 64;
  std::atomic<int> acked{0};
  std::mutex mu;
  std::condition_variable cv;
  for (int i = 0; i < kN; ++i) {
    const TxnHandle h = session->Begin({IsolationLevel::kSerializableSSI});
    ASSERT_TRUE(
        session->Put(h, table, EncodeU64Key(i), EncodeU64Key(i)).ok());
    session->CommitAsync(h, [&](Status st) {
      EXPECT_TRUE(st.ok()) << st.ToString();
      std::lock_guard<std::mutex> guard(mu);
      acked.fetch_add(1);
      cv.notify_all();  // Under the lock: the waiter owns cv/mu.
    });
  }
  {
    std::unique_lock<std::mutex> guard(mu);
    ASSERT_TRUE(cv.wait_for(guard, kAckDeadline,
                            [&] { return acked.load() == kN; }))
        << acked.load() << " of " << kN << " acknowledged";
  }
  EXPECT_EQ(session->open_transactions(), 0u);
  // Every acknowledged write is visible to a fresh snapshot.
  auto check = db->Begin({IsolationLevel::kSnapshot});
  for (int i = 0; i < kN; ++i) {
    std::string v;
    EXPECT_TRUE(check->Get(table, EncodeU64Key(i), &v).ok()) << i;
    EXPECT_EQ(v, EncodeU64Key(i));
  }
  ASSERT_TRUE(check->Commit().ok());
}

TEST(SessionAsyncCommitTest, WriteSkewVerdictMatchesBlocking) {
  // The async path must certify exactly as the blocking path: a write-skew
  // pair driven through Session::CommitAsync produces the same
  // one-commits-one-aborts outcome Transaction::Commit gives.
  for (const bool async : {false, true}) {
    DBOptions opts;
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(opts, &db).ok());
    TableId table = 0;
    ASSERT_TRUE(db->CreateTable("t", &table).ok());
    {
      auto seed = db->Begin({IsolationLevel::kSnapshot});
      ASSERT_TRUE(seed->Put(table, "x", "0").ok());
      ASSERT_TRUE(seed->Put(table, "y", "0").ok());
      ASSERT_TRUE(seed->Commit().ok());
    }
    auto session = db->CreateSession();
    const TxnHandle a = session->Begin({IsolationLevel::kSerializableSSI});
    const TxnHandle b = session->Begin({IsolationLevel::kSerializableSSI});
    std::string v;
    ASSERT_TRUE(session->Get(a, table, "x", &v).ok());
    ASSERT_TRUE(session->Get(a, table, "y", &v).ok());
    ASSERT_TRUE(session->Get(b, table, "x", &v).ok());
    ASSERT_TRUE(session->Get(b, table, "y", &v).ok());
    Status wa = session->Put(a, table, "x", "1");
    Status wb = session->Put(b, table, "y", "1");
    auto commit = [&](TxnHandle h) {
      if (!async) return session->Commit(h);
      Status verdict;
      bool done = false;
      session->CommitAsync(h, [&](Status st) {
        verdict = st;
        done = true;
      });
      EXPECT_TRUE(done);  // No flush_on_commit: acknowledged inline.
      return verdict;
    };
    Status ca = wa.ok() ? commit(a) : wa;
    Status cb = wb.ok() ? commit(b) : wb;
    EXPECT_NE(ca.ok(), cb.ok())
        << "async=" << async << " ca=" << ca.ToString()
        << " cb=" << cb.ToString();
    EXPECT_TRUE(ca.IsUnsafe() || cb.IsUnsafe());
  }
}

}  // namespace
}  // namespace ssidb
