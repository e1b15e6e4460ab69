#include "src/txn/commit_ring.h"

#include <algorithm>

namespace ssidb {

CommitRing::CommitRing(uint64_t slots)
    : mask_(RoundUpPow2(slots, /*floor=*/2) - 1),
      slots_(new std::atomic<Timestamp>[mask_ + 1]()),
      waiter_mask_(TopologyShards(/*floor=*/16) - 1),
      waiters_(new WaiterShard[waiter_mask_ + 1]) {}

Timestamp CommitRing::Allocate() {
  const Timestamp ts = clock_.fetch_add(1, std::memory_order_relaxed) + 1;
  // Window-depth high-water mark. The watermark load is seq_cst: a stale
  // (relaxed) read could lawfully run many commits behind and inflate the
  // sampled depth past the true uncovered window, which stats consumers
  // bound by the concurrent-writer count.
  const Timestamp s = stable_.load(std::memory_order_seq_cst);
  const uint64_t depth = ts - s;
  uint64_t prev = max_depth_.load(std::memory_order_relaxed);
  while (prev < depth &&
         !max_depth_.compare_exchange_weak(prev, depth,
                                           std::memory_order_relaxed)) {
  }
  return ts;
}

void CommitRing::Publish(Timestamp ts) {
  const uint64_t n = mask_ + 1;
  if (ts > n) {
    // Slot reuse: the previous occupant (ts - N) must be covered before
    // its slot value may be destroyed, or the watermark scan could no
    // longer prove that older commit stamped. The oldest in-flight commit
    // always passes this test (see header), so the pipeline cannot wedge.
    // seq_cst: case (3) of the publish rule orders this read before our
    // slot store.
    const Timestamp reuse_floor = ts - n;
    if (stable_.load(std::memory_order_seq_cst) < reuse_floor) {
      full_stalls_.fetch_add(1, std::memory_order_relaxed);
      if (trace_ != nullptr) {
        trace_->Emit(obs::TraceEvent::kRingStall, /*txn=*/0, /*arg16=*/0,
                     /*arg32=*/static_cast<uint32_t>(n), reuse_floor);
      }
      WaitUntilCovered(reuse_floor);
    }
  }
  // The publish rule (header): a seq_cst store, then our own Drive, whose
  // seq_cst loads follow the store in the total order. A scanner that
  // reads this value also acquires every version stamp (and shard
  // max-commit-ts hint) performed before Publish.
  slots_[ts & mask_].store(ts, std::memory_order_seq_cst);
  Drive();
}

void CommitRing::Drive() {
  // Completions drain into a local list and run only after the CAS loop
  // exhausts: callbacks see the watermark as far forward as this drive
  // could push it, and they run with no ring mutex held, so a completion
  // may itself re-enter Drive (a callback that commits again publishes).
  std::vector<Completion> ready;
  for (;;) {
    Timestamp s = stable_.load(std::memory_order_seq_cst);
    // Collect the run of consecutively stamped slots, then advance the
    // watermark over the whole run with one CAS. Bounded by the in-flight
    // window (<= ring size).
    Timestamp end = s;
    while (slots_[(end + 1) & mask_].load(std::memory_order_seq_cst) ==
           end + 1) {
      ++end;
    }
    if (end == s) break;
    // Success or failure, rescan: after a successful CAS the rescan is
    // what carries the duty to finish the scan (publish rule, cases 2
    // and 3); after a failed one the watermark moved under us.
    if (stable_.compare_exchange_strong(s, end, std::memory_order_seq_cst)) {
      WakeCovered(s, end, &ready);
    }
  }
  for (Completion& fn : ready) fn();
}

void CommitRing::WakeCovered(Timestamp from, Timestamp to,
                             std::vector<Completion>* ready) {
  // Waiters for ts park on shard ts & waiter_mask_; only shards owning a
  // newly covered timestamp can hold a waiter (or completion) this
  // advance releases. If the advance spans every shard, every shard
  // qualifies.
  const uint64_t span = std::min<uint64_t>(to - from, waiter_mask_ + 1);
  for (uint64_t i = 1; i <= span; ++i) {
    WaiterShard& w = waiters_[(from + i) & waiter_mask_];
    const bool waiters = w.count.load(std::memory_order_seq_cst) != 0;
    const bool completions =
        w.comp_count.load(std::memory_order_seq_cst) != 0;
    if (!waiters && !completions) continue;
    {
      // With no completions to take this is the empty critical section
      // that serializes with a waiter between its final predicate check
      // and its sleep, so the notify cannot be lost.
      std::lock_guard<std::mutex> guard(w.mu);
      if (completions) TakeCoveredLocked(&w, to, ready);
    }
    if (waiters) {
      wakeups_issued_.fetch_add(1, std::memory_order_relaxed);
      w.cv.notify_all();
    }
  }
}

void CommitRing::TakeCoveredLocked(WaiterShard* w, Timestamp cover,
                                   std::vector<Completion>* ready) {
  // `cover` may trail the live watermark; entries it leaves behind belong
  // to a later advance (whose WakeCovered span includes this shard) or to
  // the registrant's own re-check drain.
  auto& list = w->completions;
  size_t taken = 0;
  for (size_t i = 0; i < list.size();) {
    if (list[i].ts <= cover) {
      ready->push_back(std::move(list[i].fn));
      list[i] = std::move(list.back());
      list.pop_back();
      ++taken;
    } else {
      ++i;
    }
  }
  if (taken != 0) {
    w->comp_count.fetch_sub(static_cast<uint32_t>(taken),
                            std::memory_order_seq_cst);
  }
}

void CommitRing::DrainShard(WaiterShard* w) {
  const Timestamp cover = stable_.load(std::memory_order_seq_cst);
  std::vector<Completion> ready;
  {
    std::lock_guard<std::mutex> guard(w->mu);
    TakeCoveredLocked(w, cover, &ready);
  }
  for (Completion& fn : ready) fn();
}

void CommitRing::OnCovered(Timestamp ts, Completion fn) {
  if (stable_.load(std::memory_order_seq_cst) >= ts) {
    fn();
    return;
  }
  WaiterShard& w = waiters_[ts & waiter_mask_];
  {
    std::lock_guard<std::mutex> guard(w.mu);
    w.completions.push_back(PendingCompletion{ts, std::move(fn)});
    w.comp_count.fetch_add(1, std::memory_order_seq_cst);
  }
  // Registration re-check, mirroring the blocking waiter's count-then-
  // check: if a driver CASed past ts before our insert was visible to its
  // drain, this seq_cst load is ordered after that CAS and sees coverage,
  // so we drain our own shard. Exactly-once holds because removal happens
  // under w.mu (a racing drain and this one split the list, never share
  // an entry).
  if (stable_.load(std::memory_order_seq_cst) >= ts) {
    DrainShard(&w);
  }
}

void CommitRing::WaitUntilCovered(Timestamp ts) {
  if (stable_.load(std::memory_order_seq_cst) >= ts) return;
  WaiterShard& w = waiters_[ts & waiter_mask_];
  // Count first (seq_cst), then re-check under the mutex: see the
  // missed-wakeup argument in the header.
  w.count.fetch_add(1, std::memory_order_seq_cst);
  {
    std::unique_lock<std::mutex> guard(w.mu);
    w.cv.wait(guard, [&] {
      return stable_.load(std::memory_order_seq_cst) >= ts;
    });
  }
  w.count.fetch_sub(1, std::memory_order_release);
}

void CommitRing::AdvanceTo(Timestamp ts) {
  Timestamp cur = clock_.load(std::memory_order_relaxed);
  while (cur < ts &&
         !clock_.compare_exchange_weak(cur, ts, std::memory_order_relaxed)) {
  }
  cur = stable_.load(std::memory_order_relaxed);
  while (cur < ts &&
         !stable_.compare_exchange_weak(cur, ts, std::memory_order_seq_cst)) {
  }
}

}  // namespace ssidb
