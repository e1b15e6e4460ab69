#include "src/txn/log_manager.h"

#include <chrono>
#include <thread>

#include "src/common/crc32c.h"
#include "src/common/encoding.h"
#include "src/io/env.h"
#include "src/recovery/wal.h"

namespace ssidb {

namespace {
/// Frames larger than this are rejected as corrupt before a bogus length
/// can drive a huge allocation (1 GiB dwarfs any real transaction).
constexpr uint32_t kMaxRecordBody = 1u << 30;
/// crc + len.
constexpr size_t kFrameHeaderBytes = 8;

void StoreBig32(char* dst, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    dst[i] = static_cast<char>(v >> (24 - 8 * i));
  }
}

/// Whether a drain waits on a sync or a simulated latency.
bool DrainBlocks(const LogOptions& options) {
  return options.wal_dir.empty()
             ? options.flush_on_commit && options.flush_latency_us > 0
             : options.wal_fsync;
}
}  // namespace

void LogRecord::EncodeTo(std::string* out) const {
  // Reserve the header, append the body behind it, then patch the CRC and
  // length in place: one pass, no intermediate body string.
  const size_t header = out->size();
  out->append(kFrameHeaderBytes, '\0');
  out->push_back(static_cast<char>(type));
  PutBig64(out, txn_id);
  PutBig64(out, commit_ts);
  PutBig32(out, static_cast<uint32_t>(redo.size()));
  for (const RedoEntry& e : redo) {
    PutBig32(out, e.table);
    PutLengthPrefixed(out, e.key);
    out->push_back(e.tombstone ? 1 : 0);
    PutLengthPrefixed(out, e.value);
  }
  const size_t body = header + kFrameHeaderBytes;
  const size_t len = out->size() - body;
  char* frame = out->data() + header;
  StoreBig32(frame, Crc32c(0, frame + kFrameHeaderBytes, len));
  StoreBig32(frame + 4, static_cast<uint32_t>(len));
}

std::string LogRecord::Encode() const {
  std::string out;
  EncodeTo(&out);
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
    : options_(options),
      env_(io::ResolveEnv(env)),
      drain_blocks_(DrainBlocks(options)),
      pending_(std::make_unique<recovery::WalBatch>()),
      draining_(std::make_unique<recovery::WalBatch>()) {
  if (durable()) {
    wal_ = std::make_unique<recovery::WalWriter>(
        options_.wal_dir, options_.wal_segment_bytes, options_.wal_fsync,
        env_);
  }
  if (drain_blocks_) flusher_ = std::thread([this] { FlusherLoop(); });
}

LogManager::~LogManager() { Quiesce(); }

void LogManager::Quiesce() {
  std::unique_lock<std::mutex> guard(mu_);
  stop_ = true;
  // Hand a deferred append's frames to a writer (the notify below wakes
  // the flusher); a thread already inside a drain empties the buffer
  // before it gives up the role.
  StartDrainLocked(guard);
  if (flusher_.joinable()) {
    guard.unlock();
    work_cv_.notify_all();
    // The flusher finishes its drain before it exits: a clean shutdown
    // leaves every appended record in the WAL.
    flusher_.join();
    guard.lock();
  }
  // Every drain fired the subscriptions it covered; anything left
  // subscribed past the last appended LSN (API misuse, but survivable)
  // fires now with the sticky status so no completion is ever dropped.
  std::multimap<Lsn, FlushCallback> leftover;
  leftover.swap(flush_subs_);
  const Status sticky = io_status_;
  guard.unlock();
  for (auto& sub : leftover) sub.second(sticky);
}

Lsn LogManager::Append(const LogRecord& record, bool drain) {
  if (!durable() && !options_.flush_on_commit &&
      !retain_.load(std::memory_order_acquire)) {
    // "No flush" regime: the buffer is durable by decree, nothing reads
    // the record again, and WaitFlushed returns without consulting
    // flushed_lsn_. Two fetch-adds — no encode, no mutex — so the commit
    // pipeline's log step is free of global serialization.
    appended_records_.fetch_add(1, std::memory_order_relaxed);
    return next_lsn_.fetch_add(1, std::memory_order_relaxed);
  }
  std::unique_lock<std::mutex> guard(mu_);
  const size_t offset = pending_->bytes.size();
  pending_->Add(record);
  const Lsn lsn = next_lsn_.fetch_add(1, std::memory_order_relaxed);
  appended_records_.fetch_add(1, std::memory_order_relaxed);
  if (retain_.load(std::memory_order_relaxed)) {
    retained_.emplace_back(pending_->bytes, offset);
  }
  if (drain && StartDrainLocked(guard)) {
    // Wake the flusher with mu_ free, so it does not wake only to block.
    guard.unlock();
    work_cv_.notify_one();
  }
  return lsn;
}

void LogManager::Drain() {
  std::unique_lock<std::mutex> guard(mu_);
  if (StartDrainLocked(guard)) {
    guard.unlock();
    work_cv_.notify_one();
  }
}

bool LogManager::StartDrainLocked(std::unique_lock<std::mutex>& guard) {
  // A role holder loops until the buffer is empty, so frames added while
  // the role is taken are never stranded.
  if (writing_ || pending_->empty()) return false;
  writing_ = true;
  if (drain_blocks_) return true;
  DrainLocked(guard);
  return false;
}

Status LogManager::WaitFlushed(Lsn lsn) {
  if (!options_.flush_on_commit) return Status::OK();
  std::unique_lock<std::mutex> guard(mu_);
  flushed_cv_.wait(guard, [&] { return flushed_lsn_ >= lsn || stop_; });
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
  // A drain failed before registration: the transition already happened
  // — fire inline so the owner still observes it.
  cb(already_failed);
}

void LogManager::OnFlushed(Lsn lsn, FlushCallback cb) {
  // Same satisfaction condition as WaitFlushed's wake predicate; when it
  // already holds, fire inline with the sticky status — the subscriber
  // never learns whether it raced the drain or followed it.
  if (!options_.flush_on_commit) {
    cb(Status::OK());
    return;
  }
  Status st;
  {
    std::unique_lock<std::mutex> guard(mu_);
    if (flushed_lsn_ < lsn && !stop_) {
      flush_subs_.emplace(lsn, std::move(cb));
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

void LogManager::DrainLocked(std::unique_lock<std::mutex>& guard) {
  while (!pending_->empty()) {
    // Take everything appended so far: frames appended while this drain
    // writes (or syncs) join the next iteration — group commit.
    std::swap(pending_, draining_);
    const Lsn drain_end = next_lsn_.load(std::memory_order_relaxed) - 1;
    guard.unlock();
    Status io;
    const uint64_t t0 = obs::NowNanos();
    if (wal_ != nullptr) {
      io = wal_->AppendBatch(*draining_);
    } else if (drain_blocks_) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(options_.flush_latency_us));
    }
    flush_batch_ns_.Record(obs::NowNanos() - t0);
    flush_batches_.fetch_add(1, std::memory_order_relaxed);
    draining_->clear();
    guard.lock();
    if (!io.ok()) {
      io_errors_.fetch_add(1, std::memory_order_relaxed);
      if (io_status_.ok()) {
        // First failure: the log just became permanently non-durable. The
        // owner's callback (read-only mode) runs before mu_ is released,
        // so no waiter or subscriber can see kIOError ahead of it.
        io_status_ = io;
        if (io_error_cb_) io_error_cb_(io);
        io_error_cb_ = nullptr;
      }
    }
    // Advance even on failure so waiters wake; the sticky io_status_
    // tells them their commit did not reach the disk.
    if (drain_end > flushed_lsn_) flushed_lsn_ = drain_end;
    // The covered subscriptions are a prefix of the LSN-ordered map.
    const auto covered = flush_subs_.upper_bound(flushed_lsn_);
    for (auto it = flush_subs_.begin(); it != covered; ++it) {
      matured_.push_back(std::move(it->second));
    }
    flush_subs_.erase(flush_subs_.begin(), covered);
    const Status sticky = io_status_;
    guard.unlock();
    flushed_cv_.notify_all();
    // Fired while this thread still holds the role, so acknowledgments
    // leave in LSN order across drains too.
    for (FlushCallback& cb : matured_) cb(sticky);
    matured_.clear();
    guard.lock();
  }
  writing_ = false;
}

void LogManager::FlusherLoop() {
  std::unique_lock<std::mutex> guard(mu_);
  for (;;) {
    work_cv_.wait(guard, [&] { return writing_ || stop_; });
    // Stopped with the role free: every appended frame is written.
    if (!writing_) return;
    DrainLocked(guard);
  }
}

}  // namespace ssidb
