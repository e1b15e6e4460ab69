#include "src/recovery/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <filesystem>

#include "src/recovery/fs_util.h"

namespace ssidb::recovery {

namespace fs = std::filesystem;

namespace {

constexpr char kSegmentPrefix[] = "wal-";
constexpr char kSegmentSuffix[] = ".log";

std::atomic<uint64_t> g_scan_calls{0};

}  // namespace

std::string WalSegmentName(uint64_t seq) {
  return NumberedFileName(kSegmentPrefix, seq, kSegmentSuffix);
}

bool ParseWalSegmentSeq(const std::string& path, uint64_t* seq) {
  return ParseNumberedFileName(fs::path(path).filename().string(),
                               kSegmentPrefix, kSegmentSuffix, seq);
}

uint64_t ScanWalSegmentCalls() {
  return g_scan_calls.load(std::memory_order_relaxed);
}

void WalBatch::Add(const LogRecord& record) {
  WalFrame frame;
  frame.offset = bytes.size();
  frame.type = record.type;
  frame.commit_ts = record.commit_ts;
  if (record.type == LogRecordType::kTableCreate && !record.redo.empty()) {
    frame.table_id = record.redo[0].table;
  }
  record.EncodeTo(&bytes);
  frames.push_back(frame);
}

void AccumulateSegmentMeta(LogRecordType type, Timestamp commit_ts,
                           uint32_t table_id, WalSegmentMeta* meta) {
  ++meta->record_count;
  if (type == LogRecordType::kCommit) {
    if (meta->min_commit_ts == 0 || commit_ts < meta->min_commit_ts) {
      meta->min_commit_ts = commit_ts;
    }
    if (commit_ts > meta->max_commit_ts) meta->max_commit_ts = commit_ts;
  } else if (type == LogRecordType::kTableCreate) {
    if (!meta->has_table_create || table_id > meta->max_table_id_created) {
      meta->max_table_id_created = table_id;
    }
    meta->has_table_create = true;
  }
}

Status ListWalSegments(const std::string& dir,
                       std::vector<std::string>* paths) {
  paths->clear();
  std::error_code ec;
  if (!fs::exists(dir, ec)) return Status::OK();
  std::vector<std::pair<uint64_t, std::string>> found;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    uint64_t seq = 0;
    const std::string name = entry.path().filename().string();
    if (ParseNumberedFileName(name, kSegmentPrefix, kSegmentSuffix, &seq)) {
      found.emplace_back(seq, entry.path().string());
    }
  }
  if (ec) return Status::IOError("list " + dir + ": " + ec.message());
  std::sort(found.begin(), found.end());
  for (auto& [seq, path] : found) paths->push_back(std::move(path));
  return Status::OK();
}

Status ScanWalSegment(const std::string& path, WalScanResult* out,
                      io::Env* env) {
  g_scan_calls.fetch_add(1, std::memory_order_relaxed);
  out->records.clear();
  out->tail = Status::OK();
  std::string contents;
  Status st = ReadFileToString(path, &contents, env);
  if (!st.ok()) return st;
  out->file_bytes = contents.size();
  size_t offset = 0;
  while (offset < contents.size()) {
    LogRecord record;
    st = LogRecord::DecodeFrom(contents, &offset, &record);
    if (!st.ok()) {
      out->tail = st;
      break;
    }
    out->records.push_back(std::move(record));
  }
  out->valid_bytes = offset;
  return Status::OK();
}

WalWriter::WalWriter(std::string dir, uint64_t segment_bytes, bool fsync,
                     io::Env* env)
    : dir_(std::move(dir)),
      segment_bytes_(segment_bytes == 0 ? 1 : segment_bytes),
      fsync_(fsync),
      env_(io::ResolveEnv(env)) {}

WalWriter::~WalWriter() {
  if (fd_ >= 0) {
    // Never fsync a poisoned descriptor: after a failed fsync the kernel
    // may have dropped the dirty pages while marking them clean, so a
    // "successful" retry would report durability that does not exist.
    if (fsync_ && io_status_.ok()) env_->Fsync(fd_);
    env_->Close(fd_);
  }
}

Status WalWriter::EnsureOpen() {
  if (opened_) return Status::OK();
  Status st_dir = env_->CreateDirs(dir_);
  if (!st_dir.ok()) return st_dir;
  // Start one past the highest existing segment: a pre-crash segment may
  // end in a torn frame, and appending after it would bury the tear
  // mid-segment where recovery must treat it as corruption.
  std::vector<std::string> existing;
  Status st = ListWalSegments(dir_, &existing);
  if (!st.ok()) return st;
  next_seq_ = 1;
  if (!existing.empty()) {
    uint64_t last = 0;
    ParseNumberedFileName(fs::path(existing.back()).filename().string(),
                          kSegmentPrefix, kSegmentSuffix, &last);
    next_seq_ = last + 1;
  }
  opened_ = true;
  return RotateSegment();
}

void WalWriter::PublishCurrentMeta() {
  std::lock_guard<std::mutex> guard(meta_mu_);
  meta_[current_meta_.seq] = current_meta_;
}

Status WalWriter::RotateSegment() {
  if (fd_ >= 0) {
    if (fsync_ && env_->Fsync(fd_) != 0) return ErrnoStatus("fsync", dir_);
    env_->Close(fd_);
    fd_ = -1;
    // Seal the segment's registry entry *before* the next segment's file
    // exists, so any directory listing that sees the newer name can trust
    // this one's metadata (the invariant checkpoint GC relies on).
    PublishCurrentMeta();
  }
  const std::string path =
      (fs::path(dir_) / WalSegmentName(next_seq_)).string();
  fd_ = env_->Open(path.c_str(), O_WRONLY | O_CREAT | O_EXCL, 0644);
  if (fd_ < 0) return ErrnoStatus("create", path);
  current_seq_ = next_seq_;
  ++next_seq_;
  segments_created_.fetch_add(1, std::memory_order_relaxed);
  segment_offset_ = 0;
  current_meta_ = WalSegmentMeta{};
  current_meta_.seq = current_seq_;
  PublishCurrentMeta();  // The open segment is listed, even while empty.
  // Make the new name itself durable before any record relies on it.
  return fsync_ ? SyncDir(dir_, env_) : Status::OK();
}

Status WalWriter::WriteAll(const char* data, size_t n) {
  size_t written = 0;
  while (written < n) {
    const ssize_t w = env_->Write(fd_, data + written, n - written);
    if (w < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("write", dir_);
    }
    written += static_cast<size_t>(w);
  }
  return Status::OK();
}

Status WalWriter::AppendBatch(const WalBatch& batch) {
  // Sticky failure: once any write or fsync has failed, the segment may
  // end in a torn frame, and durability of earlier "flushed" bytes is
  // unknowable. Refuse all further appends (see header).
  if (!io_status_.ok()) return io_status_;
  Status st = EnsureOpen();
  if (!st.ok()) return st;
  const std::vector<WalFrame>& frames = batch.frames;
  const auto frame_end = [&](size_t i) {
    return i + 1 < frames.size() ? frames[i + 1].offset : batch.bytes.size();
  };
  size_t i = 0;
  while (i < frames.size()) {
    if (segment_offset_ >= segment_bytes_) {
      st = RotateSegment();
      if (!st.ok()) return io_status_ = st;
    }
    // Gather the run of frames this segment takes: each frame starts
    // while the segment is still below its size, exactly as if they were
    // written one by one. Metadata is accumulated lock-free and counted
    // even if the write below fails — overstating a segment is the
    // conservative direction for GC.
    const size_t run_begin = frames[i].offset;
    uint64_t offset = segment_offset_;
    do {
      AccumulateSegmentMeta(frames[i].type, frames[i].commit_ts,
                            frames[i].table_id, &current_meta_);
      offset += frame_end(i) - frames[i].offset;
      ++i;
    } while (i < frames.size() && offset < segment_bytes_);
    const size_t run_bytes = frame_end(i - 1) - run_begin;
    st = WriteAll(batch.bytes.data() + run_begin, run_bytes);
    if (!st.ok()) return io_status_ = st;
    segment_offset_ = offset;
    bytes_written_.fetch_add(run_bytes, std::memory_order_relaxed);
  }
  PublishCurrentMeta();
  if (fsync_ && env_->Fsync(fd_) != 0) {
    return io_status_ = ErrnoStatus("fsync", dir_);
  }
  return Status::OK();
}

void WalWriter::SeedSegmentMeta(const std::vector<WalSegmentMeta>& metas) {
  std::lock_guard<std::mutex> guard(meta_mu_);
  for (const WalSegmentMeta& m : metas) {
    meta_.emplace(m.seq, m);  // Keep any entry this writer already owns.
  }
}

std::map<uint64_t, WalSegmentMeta> WalWriter::SegmentMetadata() const {
  std::lock_guard<std::mutex> guard(meta_mu_);
  return meta_;
}

void WalWriter::ForgetSegment(uint64_t seq) {
  std::lock_guard<std::mutex> guard(meta_mu_);
  meta_.erase(seq);
}

}  // namespace ssidb::recovery
