// CommitCombiner tests: the differential property at the heart of the
// flat-combining certification stage — a batched combining pass must abort
// EXACTLY the transaction set the serial critical section (PR 5's
// window_mu_, preserved as the combiner's non-batching mode) aborts, and
// hand out identical commit timestamps — plus TSan-wired stress for the
// slot array under contended SSI commits.
//
// Three layers:
//   1. Randomized conflict graphs, certified twice at the unit level: once
//      serially in combiner processing order, once as one combined batch
//      (Post/Combine/Harvest pins the batch composition). Verdicts and
//      timestamps must match element-wise, in both conflict-tracking
//      representations.
//   2. Full-engine differential over every §4.7 interleaving: the same
//      replay with certification_batching on and off must commit the same
//      transactions for the same reasons.
//   3. Stress: contended SSI read-modify-writes hammer Certify from many
//      threads (the slot-claim / combine / harvest protocol), with the
//      engine's counters cross-checked after quiesce.

#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/encoding.h"
#include "src/common/random.h"
#include "src/db/db.h"
#include "src/lock/lock_manager.h"
#include "src/ssi/conflict_tracker.h"
#include "src/txn/commit_combiner.h"
#include "src/txn/commit_ring.h"
#include "src/txn/log_manager.h"
#include "src/txn/txn_manager.h"
#include "tests/interleaving_harness.h"
#include "tests/test_util.h"

namespace ssidb {
namespace {

/// A candidate certification request in a randomized conflict graph.
struct Candidate {
  TxnState* state = nullptr;
  bool has_writes = false;
};

/// One twin engine: enough machinery to run real ConflictTracker commit
/// checks over hand-built conflict graphs.
struct TwinEngine {
  explicit TwinEngine(const DBOptions& opts)
      : log(opts.log), locks(LockManager::Config{}),
        mgr(opts, &locks, &log), tracker(opts, &mgr), ring(64) {}

  LogManager log;
  LockManager locks;
  TxnManager mgr;
  ConflictTracker tracker;
  CommitRing ring;
};

/// Mirror one randomized conflict graph into `eng`, returning the
/// candidates in construction order. The graph has `committed` already-
/// committed partners (ids 1000+) and `k` certification candidates whose
/// in/out conflict state is drawn from `rng` — including references to
/// fellow candidates in the same batch, the case batch atomicity is about.
/// `pool` owns every state.
std::vector<Candidate> BuildGraph(
    const DBOptions& opts, uint64_t seed, int committed, int k,
    std::vector<std::unique_ptr<TxnState>>* pool) {
  Random rng(seed);
  std::vector<TxnState*> partners;
  for (int p = 0; p < committed; ++p) {
    pool->push_back(std::make_unique<TxnState>(
        1000 + p, IsolationLevel::kSerializableSSI));
    TxnState* t = pool->back().get();
    t->commit_ts.store(2 + rng.Uniform(8));
    t->status.store(TxnStatus::kCommitted);
    partners.push_back(t);
  }
  std::vector<Candidate> out;
  for (int i = 0; i < k; ++i) {
    pool->push_back(
        std::make_unique<TxnState>(1 + i, IsolationLevel::kSerializableSSI));
    Candidate c;
    c.state = pool->back().get();
    c.state->read_ts.store(1);
    c.has_writes = rng.Bernoulli(0.7);
    out.push_back(c);
  }
  auto pick_ref = [&](ConflictRef* ref) {
    switch (rng.Uniform(5)) {
      case 0:
        break;  // kNone
      case 1:
        ref->SetSelf();
        break;
      case 2:  // Committed partner (or none if there are none).
        if (committed > 0) {
          TxnState* partner = partners[rng.Uniform(committed)];
          ref->SetOther(partner, partner->id);
        }
        break;
      case 3: {  // Same-batch candidate: the batch-atomicity case.
        TxnState* partner = out[rng.Uniform(k)].state;
        ref->SetOther(partner, partner->id);
        break;
      }
      case 4:
        ref->Collapse(2 + rng.Uniform(8));
        break;
    }
  };
  for (Candidate& c : out) {
    if (opts.conflict_tracking == ConflictTracking::kFlags) {
      c.state->in_conflict_flag = rng.Bernoulli(0.5);
      c.state->out_conflict_flag = rng.Bernoulli(0.5);
    } else {
      pick_ref(&c.state->in_ref);
      pick_ref(&c.state->out_ref);
    }
  }
  return out;
}

/// Certify every candidate and return (verdict ok?, commit_ts) pairs in
/// candidate order. `serial` = the reference critical section: process in
/// `order`, check then allocate, one at a time. Otherwise: Post all in
/// candidate order, one Combine pass, Harvest — and emit the slot order
/// the combiner used through *order so the serial twin can mirror it.
std::vector<std::pair<bool, Timestamp>> CertifySerial(
    TwinEngine* eng, std::vector<Candidate>* cands,
    const std::vector<size_t>& order) {
  std::vector<std::pair<bool, Timestamp>> results(cands->size());
  for (size_t idx : order) {
    Candidate& c = (*cands)[idx];
    const Status v = eng->tracker.CommitCheck(c.state);
    Timestamp ts = 0;
    if (v.ok()) {
      ts = c.has_writes ? eng->ring.Allocate() : eng->ring.stable();
      c.state->commit_ts.store(ts, std::memory_order_release);
    }
    results[idx] = {v.ok(), ts};
  }
  return results;
}

std::vector<std::pair<bool, Timestamp>> CertifyBatched(
    TwinEngine* eng, std::vector<Candidate>* cands,
    std::vector<size_t>* order_out) {
  CommitCombiner combiner(&eng->ring, /*slots=*/16, /*batching=*/true);
  std::vector<CommitCombiner::CheckFn> checks;
  checks.reserve(cands->size());
  for (Candidate& c : *cands) {
    TxnState* raw = c.state;
    checks.emplace_back(
        [eng, raw](TxnState*) { return eng->tracker.CommitCheck(raw); });
  }
  std::vector<size_t> slots;
  for (size_t i = 0; i < cands->size(); ++i) {
    slots.push_back(
        combiner.Post((*cands)[i].state, &checks[i],
                      (*cands)[i].has_writes));
  }
  EXPECT_EQ(combiner.Combine(), cands->size());
  EXPECT_EQ(combiner.combined_txns(), cands->size());
  EXPECT_EQ(combiner.max_batch(), cands->size());
  // The pass visits pending requests in ascending slot index: that is the
  // batch's certification order.
  std::vector<size_t> by_slot(cands->size());
  for (size_t i = 0; i < cands->size(); ++i) by_slot[i] = i;
  std::sort(by_slot.begin(), by_slot.end(),
            [&](size_t a, size_t b) { return slots[a] < slots[b]; });
  *order_out = by_slot;

  std::vector<std::pair<bool, Timestamp>> results(cands->size());
  for (size_t i = 0; i < cands->size(); ++i) {
    Timestamp ts = 0;
    const Status v = combiner.Harvest(slots[i], &ts);
    results[i] = {v.ok(), ts};
  }
  return results;
}

void RunDifferential(ConflictTracking mode) {
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    DBOptions opts;
    opts.conflict_tracking = mode;
    Random shape(seed * 7919);
    const int committed = static_cast<int>(shape.Uniform(4));
    const int k = 2 + static_cast<int>(shape.Uniform(7));

    // Twin graphs: same seed => isomorphic conflict state.
    std::vector<std::unique_ptr<TxnState>> pool;
    std::vector<Candidate> batched_g =
        BuildGraph(opts, seed, committed, k, &pool);
    std::vector<Candidate> serial_g =
        BuildGraph(opts, seed, committed, k, &pool);

    TwinEngine batched_e(opts);
    TwinEngine serial_e(opts);
    std::vector<size_t> order;
    const auto batched = CertifyBatched(&batched_e, &batched_g, &order);
    const auto serial = CertifySerial(&serial_e, &serial_g, order);

    for (int i = 0; i < k; ++i) {
      EXPECT_EQ(batched[i].first, serial[i].first)
          << "verdict diverged: seed=" << seed << " candidate=" << i;
      EXPECT_EQ(batched[i].second, serial[i].second)
          << "commit_ts diverged: seed=" << seed << " candidate=" << i;
    }
  }
}

TEST(CommitCombinerDifferentialTest, RandomConflictGraphsMatchSerialRefs) {
  RunDifferential(ConflictTracking::kReferences);
}

TEST(CommitCombinerDifferentialTest, RandomConflictGraphsMatchSerialFlags) {
  RunDifferential(ConflictTracking::kFlags);
}

/// Full-engine differential over the §4.7 interleaving space: batching on
/// vs off (the serial reference engine) must produce identical outcomes —
/// same committed transaction sets, same abort classes, same MVSG verdict.
TEST(CommitCombinerDifferentialTest, InterleavingsMatchSerialCertification) {
  using interleave::AllInterleavings;
  using interleave::Replay;
  using interleave::ReplayResult;

  struct Case {
    std::vector<std::vector<interleave::Op>> programs;
    int num_txns;
  };
  const Case cases[] = {{interleave::WriteSkewPrograms(), 2},
                        {interleave::TestSetPrograms(), 3}};
  for (const Case& c : cases) {
    for (const auto& interleaving : AllInterleavings(c.programs)) {
      DBOptions batched_opts;
      batched_opts.certification_batching = true;
      DBOptions serial_opts;
      serial_opts.certification_batching = false;
      const ReplayResult b = Replay(interleaving, c.num_txns,
                                    IsolationLevel::kSerializableSSI,
                                    batched_opts);
      const ReplayResult s = Replay(interleaving, c.num_txns,
                                    IsolationLevel::kSerializableSSI,
                                    serial_opts);
      EXPECT_EQ(b.committed_txns, s.committed_txns);
      EXPECT_EQ(b.unsafe_aborts, s.unsafe_aborts);
      EXPECT_EQ(b.other_aborts, s.other_aborts);
      EXPECT_EQ(b.history_serializable, s.history_serializable);
      EXPECT_TRUE(b.history_serializable);
    }
  }
}

/// TSan-wired stress for the combiner slot array: contended SSI
/// read-modify-writes drive many concurrent Certify calls (slot claims,
/// combining passes on behalf of peers, harvests) plus the conflict-free
/// fast path, all racing the epoch-based suspended-state reclamation.
///
/// Each round is barrier-synchronized so every transaction in it is
/// genuinely concurrent, and the access pattern is a ring (thread w reads
/// thread w+1's key, writes its own): that plants rw-antidependencies in
/// every round, so the combiner is guaranteed work even on a single-CPU
/// machine where free-running threads would rarely overlap.
TEST(CommitCombinerStressTest, ContendedSSICommitsUnderCombining) {
  DBOptions opts;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(opts, &db).ok());
  TableId table = 0;
  ASSERT_TRUE(db->CreateTable("t", &table).ok());
  constexpr int kThreads = 8;
  {
    auto seed = db->Begin({IsolationLevel::kSnapshot});
    for (uint64_t i = 0; i < kThreads; ++i) {
      ASSERT_TRUE(seed->Insert(table, EncodeU64Key(i), "0").ok());
    }
    ASSERT_TRUE(seed->Commit().ok());
  }

  constexpr int kRounds = 150;
  std::barrier sync(kThreads);
  std::atomic<uint64_t> committed{0};
  std::atomic<uint64_t> aborted{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      for (int round = 0; round < kRounds; ++round) {
        sync.arrive_and_wait();
        auto txn = db->Begin({IsolationLevel::kSerializableSSI});
        std::string value;
        txn->Get(table, EncodeU64Key((w + 1) % kThreads), &value);
        sync.arrive_and_wait();  // Everyone reads before anyone commits.
        txn->Put(table, EncodeU64Key(w), "x");
        if (txn->Commit().ok()) {
          committed.fetch_add(1, std::memory_order_relaxed);
        } else {
          aborted.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : workers) t.join();

  EXPECT_EQ(committed.load() + aborted.load(),
            static_cast<uint64_t>(kThreads) * kRounds);
  EXPECT_GT(committed.load(), 0u);

  const obs::MetricsSnapshot s = db->metrics()->Collect();
  const uint64_t combined = Metric(s, "commit.combined_txns");
  const uint64_t fastpath = Metric(s, "commit.fastpath");
  EXPECT_EQ(Metric(s, "engine.active_txns"), 0u);
  // Every SSI commit either certified (combined) or took the fast path;
  // combined also counts certification failures, but not transactions the
  // tracker aborted on access before they ever reached Commit.
  EXPECT_GE(combined + fastpath, committed.load());
  EXPECT_LE(combined + fastpath, committed.load() + aborted.load());
  EXPECT_LE(Metric(s, "commit.combine_batches"), combined);
  // The ring pattern forces conflict state every round: certification must
  // actually have happened, not just the fast path.
  EXPECT_GT(combined, 0u);
  EXPECT_GE(Metric(s, "commit.max_batch"), 1u);
}

}  // namespace
}  // namespace ssidb
