#include "src/txn/log_manager.h"

#include <chrono>

#include "src/common/crc32c.h"
#include "src/common/encoding.h"
#include "src/io/env.h"
#include "src/recovery/wal.h"

namespace ssidb {

namespace {
/// Frames larger than this are rejected as corrupt before a bogus length
/// can drive a huge allocation (1 GiB dwarfs any real transaction).
constexpr uint32_t kMaxRecordBody = 1u << 30;
}  // namespace

std::string LogRecord::Encode() const {
  std::string body;
  body.push_back(static_cast<char>(type));
  PutBig64(&body, txn_id);
  PutBig64(&body, commit_ts);
  PutBig32(&body, static_cast<uint32_t>(redo.size()));
  for (const RedoEntry& e : redo) {
    PutBig32(&body, e.table);
    PutLengthPrefixed(&body, e.key);
    body.push_back(e.tombstone ? 1 : 0);
    PutLengthPrefixed(&body, e.value);
  }
  std::string out;
  PutBig32(&out, Crc32c(body));
  PutBig32(&out, static_cast<uint32_t>(body.size()));
  out += body;
  return out;
}

Status LogRecord::DecodeFrom(Slice in, size_t* offset, LogRecord* out) {
  size_t off = *offset;
  uint32_t crc = 0, len = 0;
  if (!GetBig32(in, &off, &crc) || !GetBig32(in, &off, &len)) {
    return Status::Truncated("frame header ends early");
  }
  if (len > kMaxRecordBody) {
    return Status::Corruption("frame length implausible");
  }
  if (off + len > in.size()) {
    return Status::Truncated("frame body ends early");
  }
  const Slice body(in.data() + off, len);
  if (Crc32c(body) != crc) {
    return Status::Corruption("crc mismatch");
  }
  // Body parse: any structural failure past a valid CRC is corruption (the
  // encoder never produces it).
  size_t boff = 0;
  if (body.size() < 1) return Status::Corruption("empty body");
  const uint8_t type_byte = static_cast<uint8_t>(body.data()[0]);
  boff = 1;
  if (type_byte > static_cast<uint8_t>(LogRecordType::kTableCreate)) {
    return Status::Corruption("unknown record type");
  }
  uint64_t txn = 0, cts = 0;
  uint32_t count = 0;
  if (!GetBig64(body, &boff, &txn) || !GetBig64(body, &boff, &cts) ||
      !GetBig32(body, &boff, &count)) {
    return Status::Corruption("body header short");
  }
  std::vector<RedoEntry> redo;
  redo.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    RedoEntry e;
    if (!GetBig32(body, &boff, &e.table)) {
      return Status::Corruption("redo table short");
    }
    if (!GetLengthPrefixed(body, &boff, &e.key)) {
      return Status::Corruption("redo key short");
    }
    if (boff + 1 > body.size()) {
      return Status::Corruption("redo tombstone short");
    }
    e.tombstone = body.data()[boff] != 0;
    ++boff;
    if (!GetLengthPrefixed(body, &boff, &e.value)) {
      return Status::Corruption("redo value short");
    }
    redo.push_back(std::move(e));
  }
  if (boff != body.size()) {
    return Status::Corruption("trailing bytes in body");
  }
  out->type = static_cast<LogRecordType>(type_byte);
  out->txn_id = txn;
  out->commit_ts = cts;
  out->redo = std::move(redo);
  *offset = off + len;
  return Status::OK();
}

Status LogRecord::Decode(Slice in, LogRecord* out) {
  size_t offset = 0;
  Status st = DecodeFrom(in, &offset, out);
  if (!st.ok()) return st;
  if (offset != in.size()) {
    return Status::Corruption("trailing bytes after frame");
  }
  return Status::OK();
}

LogManager::LogManager(const LogOptions& options, io::Env* env)
    : options_(options), env_(io::ResolveEnv(env)) {
  if (durable()) {
    wal_ = std::make_unique<recovery::WalWriter>(
        options_.wal_dir, options_.wal_segment_bytes, options_.wal_fsync,
        env_);
  }
  // The flusher runs whenever batches have somewhere to go: always in
  // durable mode (even without flush_on_commit, records drain to disk
  // asynchronously), only for the flush-latency simulation otherwise.
  if (durable() || options_.flush_on_commit) {
    flusher_ = std::thread([this] { FlusherLoop(); });
  }
}

LogManager::~LogManager() { Quiesce(); }

void LogManager::Quiesce() {
  {
    std::lock_guard<std::mutex> guard(mu_);
    stop_.store(true);
  }
  work_cv_.notify_all();
  // Joining drains pending_: a clean shutdown leaves every appended record
  // in the WAL. Idempotent — a second call finds the flusher already
  // joined and the subscription list empty.
  if (flusher_.joinable()) flusher_.join();
  // The final batch fired every subscription it covered; anything left
  // subscribed past the last appended LSN (API misuse, but survivable)
  // fires now with the sticky status so no completion is ever dropped.
  std::vector<FlushSub> leftover;
  Status sticky;
  {
    std::lock_guard<std::mutex> guard(mu_);
    leftover.swap(flush_subs_);
    sticky = io_status_;
  }
  for (FlushSub& sub : leftover) sub.cb(sticky);
}

Lsn LogManager::Append(LogRecord record) {
  if (!durable() && !options_.flush_on_commit &&
      !retain_.load(std::memory_order_acquire)) {
    // "No flush" regime: the buffer is durable by decree, nothing reads
    // the record again, and WaitFlushed returns without consulting
    // flushed_lsn_. Two fetch-adds — no encode, no mutex — so the commit
    // pipeline's log step is free of global serialization.
    appended_records_.fetch_add(1, std::memory_order_relaxed);
    return next_lsn_.fetch_add(1, std::memory_order_relaxed);
  }
  recovery::WalFrame frame = recovery::MakeWalFrame(record);
  std::lock_guard<std::mutex> guard(mu_);
  const Lsn lsn = next_lsn_.fetch_add(1, std::memory_order_relaxed);
  appended_records_.fetch_add(1, std::memory_order_relaxed);
  if (retain_.load(std::memory_order_relaxed)) {
    retained_.push_back(frame.bytes);
  }
  if (durable() || options_.flush_on_commit) {
    pending_.push_back(std::move(frame));
    work_cv_.notify_one();
  } else {
    flushed_lsn_ = lsn;
  }
  return lsn;
}

Status LogManager::WaitFlushed(Lsn lsn) {
  if (!options_.flush_on_commit) return Status::OK();
  std::unique_lock<std::mutex> guard(mu_);
  flushed_cv_.wait(guard, [&] { return flushed_lsn_ >= lsn || stop_.load(); });
  return io_status_;
}

void LogManager::SetIOErrorCallback(IOErrorCallback cb) {
  Status already_failed;
  {
    std::lock_guard<std::mutex> guard(mu_);
    if (io_status_.ok()) {
      io_error_cb_ = std::move(cb);
      return;
    }
    already_failed = io_status_;
  }
  // The flusher failed before registration (it starts in the constructor,
  // so the window is real): the transition already happened — fire inline
  // so the owner still observes it.
  cb(already_failed);
}

void LogManager::OnFlushed(Lsn lsn, FlushCallback cb) {
  // Same satisfaction condition as WaitFlushed's wake predicate; when it
  // already holds, fire inline with the sticky status — the subscriber
  // never learns whether it raced the flush or followed it.
  if (!options_.flush_on_commit) {
    cb(Status::OK());
    return;
  }
  Status st;
  {
    std::unique_lock<std::mutex> guard(mu_);
    if (flushed_lsn_ < lsn && !stop_.load()) {
      flush_subs_.push_back(FlushSub{lsn, std::move(cb)});
      return;
    }
    st = io_status_;
  }
  cb(st);
}

std::vector<std::string> LogManager::RetainedRecords() const {
  std::lock_guard<std::mutex> guard(mu_);
  return retained_;
}

uint64_t LogManager::wal_bytes_written() const {
  std::lock_guard<std::mutex> guard(mu_);
  return wal_ != nullptr ? wal_->bytes_written() : 0;
}

std::map<uint64_t, recovery::WalSegmentMeta> LogManager::WalSegmentMetadata()
    const {
  return wal_ != nullptr ? wal_->SegmentMetadata()
                         : std::map<uint64_t, recovery::WalSegmentMeta>{};
}

void LogManager::SeedWalSegmentMeta(
    const std::vector<recovery::WalSegmentMeta>& metas) {
  if (wal_ != nullptr) wal_->SeedSegmentMeta(metas);
}

void LogManager::ForgetWalSegment(uint64_t seq) {
  if (wal_ != nullptr) wal_->ForgetSegment(seq);
}

void LogManager::RegisterMetrics(obs::MetricsRegistry* registry) {
  registry->RegisterHistogram("log.flush_batch_ns", &flush_batch_ns_);
}

void LogManager::FlusherLoop() {
  for (;;) {
    Lsn batch_end;
    std::vector<recovery::WalFrame> batch;
    {
      std::unique_lock<std::mutex> guard(mu_);
      work_cv_.wait(guard,
                    [&] { return !pending_.empty() || stop_.load(); });
      if (stop_.load() && pending_.empty()) return;
      // Adaptive group commit (LogOptions::group_commit_wait_us): when
      // the batch on hand is small relative to the recent arrival rate —
      // commits trickling in one fsync each while more are clearly on
      // the way — a brief straggler wait coalesces them into one flush.
      // The wait is bounded by the knob, exits early once the expected
      // batch materializes, and is skipped when waiting cannot at least
      // double the batch, when commits do not wait on flushes (no one's
      // latency to trade), or during shutdown.
      const uint32_t wait_us = options_.group_commit_wait_us;
      if (wait_us > 0 && options_.flush_on_commit && !stop_.load()) {
        const double expected =
            arrival_rate_per_us_ * static_cast<double>(wait_us);
        if (expected >= 2.0 &&
            expected >= 2.0 * static_cast<double>(pending_.size())) {
          const size_t target = static_cast<size_t>(expected);
          work_cv_.wait_for(guard, std::chrono::microseconds(wait_us),
                            [&] {
                              return pending_.size() >= target ||
                                     stop_.load();
                            });
        }
      }
      // Take everything appended so far as one batch: commits arriving
      // while we write join the next batch (group commit).
      batch.swap(pending_);
      batch_end = next_lsn_.load(std::memory_order_relaxed) - 1;
      // Arrival-rate EWMA update (records/us between batch takes).
      const auto now = std::chrono::steady_clock::now();
      const uint64_t total =
          appended_records_.load(std::memory_order_relaxed);
      if (last_take_time_.time_since_epoch().count() != 0) {
        const double us =
            std::chrono::duration<double, std::micro>(now - last_take_time_)
                .count();
        if (us > 0) {
          const double rate =
              static_cast<double>(total - last_take_records_) / us;
          arrival_rate_per_us_ = arrival_rate_per_us_ == 0.0
                                     ? rate
                                     : 0.75 * arrival_rate_per_us_ +
                                           0.25 * rate;
        }
      }
      last_take_time_ = now;
      last_take_records_ = total;
    }
    Status io = Status::OK();
    const uint64_t t0 = obs::NowNanos();
    if (wal_ != nullptr) {
      io = wal_->AppendBatch(batch);
    } else if (options_.flush_latency_us > 0) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(options_.flush_latency_us));
    }
    flush_batch_ns_.Record(obs::NowNanos() - t0);
    if (!io.ok()) io_errors_.fetch_add(1, std::memory_order_relaxed);
    std::vector<FlushSub> matured;
    Status sticky;
    IOErrorCallback fire_io_cb;
    {
      std::lock_guard<std::mutex> guard(mu_);
      // Advance even on failure so waiters wake; the sticky io_status_
      // tells them their commit did not reach the disk.
      if (batch_end > flushed_lsn_) flushed_lsn_ = batch_end;
      if (!io.ok() && io_status_.ok()) {
        io_status_ = io;
        // First failure: the log just became permanently non-durable.
        // Fire the owner's transition callback below, outside mu_.
        fire_io_cb = std::move(io_error_cb_);
        io_error_cb_ = nullptr;
      }
      flush_batches_.fetch_add(1, std::memory_order_relaxed);
      // Pull out the flush subscriptions this batch covered; they fire
      // below, after blocking waiters are notified and mu_ is released.
      for (size_t i = 0; i < flush_subs_.size();) {
        if (flush_subs_[i].lsn <= flushed_lsn_) {
          matured.push_back(std::move(flush_subs_[i]));
          flush_subs_[i] = std::move(flush_subs_.back());
          flush_subs_.pop_back();
        } else {
          ++i;
        }
      }
      sticky = io_status_;
    }
    flushed_cv_.notify_all();
    // Enter read-only *before* the covered commits learn their fate, so a
    // subscriber observing kIOError can rely on the gate already being up.
    if (fire_io_cb) fire_io_cb(io);
    for (FlushSub& sub : matured) sub.cb(sticky);
  }
}

}  // namespace ssidb
