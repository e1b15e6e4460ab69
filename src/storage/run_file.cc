#include "src/storage/run_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <cstring>
#include <filesystem>

#include "src/common/crc32c.h"
#include "src/common/encoding.h"
#include "src/recovery/fs_util.h"

namespace ssidb {

namespace {

constexpr char kRunMagic[] = "SSIDBRUN";
constexpr char kIndexMagic[] = "SSIDBRIF";
/// Footer magic of runs written before the filter: no filter block.
constexpr char kLegacyIndexMagic[] = "SSIDBRIX";
constexpr char kEndMagic[] = "SSIDBEND";
constexpr size_t kMagicLen = 8;
constexpr size_t kTrailerLen = 8 + kMagicLen;  // u64 footer_offset + magic.
/// Data-page header: u32 crc, u32 payload_bytes, u32 entry_count.
constexpr uint32_t kPageHeaderLen = 12;

Status PreadFull(io::Env* env, int fd, void* buf, size_t n, uint64_t offset) {
  uint8_t* p = static_cast<uint8_t*>(buf);
  size_t done = 0;
  while (done < n) {
    const ssize_t r =
        env->Pread(fd, p + done, n - done, static_cast<off_t>(offset + done));
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("pread run: ") + strerror(errno));
    }
    if (r == 0) return Status::Corruption("run file truncated");
    done += static_cast<size_t>(r);
  }
  return Status::OK();
}

Status PwriteFull(io::Env* env, int fd, const void* buf, size_t n,
                  uint64_t offset) {
  const uint8_t* p = static_cast<const uint8_t*>(buf);
  size_t done = 0;
  while (done < n) {
    const ssize_t r =
        env->Pwrite(fd, p + done, n - done, static_cast<off_t>(offset + done));
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("pwrite run: ") + strerror(errno));
    }
    done += static_cast<size_t>(r);
  }
  return Status::OK();
}

uint64_t EntryEncodedBytes(const RunEntry& e) {
  return 4 + e.key.size() + 8 + 1 + 4 + e.value.size();
}

void EncodeEntry(std::string* dst, const RunEntry& e) {
  PutLengthPrefixed(dst, e.key);
  PutBig64(dst, e.commit_ts);
  dst->push_back(e.tombstone ? 1 : 0);
  PutLengthPrefixed(dst, e.value);
}

/// One decoded entry, viewing the bytes of the page it came from.
struct EntryView {
  Slice key;
  Slice value;
  Timestamp commit_ts = 0;
  bool tombstone = false;

  void CopyTo(RunEntry* e) const {
    e->key.assign(key.data(), key.size());
    e->value.assign(value.data(), value.size());
    e->commit_ts = commit_ts;
    e->tombstone = tombstone;
  }
};

bool DecodeEntry(Slice page, size_t* offset, EntryView* e) {
  if (!GetLengthPrefixed(page, offset, &e->key)) return false;
  if (!GetBig64(page, offset, &e->commit_ts)) return false;
  if (*offset >= page.size()) return false;
  e->tombstone = page[*offset] != 0;
  ++*offset;
  return GetLengthPrefixed(page, offset, &e->value);
}

/// Check one data page's header and CRC, then call `fn` on its entries in
/// key order until it returns false.
template <typename Fn>
Status ParsePage(const uint8_t* page, uint32_t page_bytes, Fn&& fn) {
  const Slice raw(reinterpret_cast<const char*>(page), page_bytes);
  size_t off = 0;
  uint32_t stored_crc = 0, payload_bytes = 0, entry_count = 0;
  if (!GetBig32(raw, &off, &stored_crc) ||
      !GetBig32(raw, &off, &payload_bytes) ||
      !GetBig32(raw, &off, &entry_count) ||
      payload_bytes > page_bytes - kPageHeaderLen) {
    return Status::Corruption("run page header damaged");
  }
  if (Crc32c(0, raw.data() + 4, 8 + payload_bytes) != stored_crc) {
    return Status::Corruption("run page crc mismatch");
  }
  const Slice body(raw.data(), kPageHeaderLen + payload_bytes);
  EntryView e;
  for (uint32_t i = 0; i < entry_count; ++i) {
    if (!DecodeEntry(body, &off, &e)) {
      return Status::Corruption("run page entry damaged");
    }
    if (!fn(e)) break;
  }
  return Status::OK();
}

/// murmur3's 64-bit finalizer: every input bit reaches every output bit.
uint64_t Mix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ull;
  x ^= x >> 33;
  return x;
}

/// Filter size cap, so a probe position (u32 x bit count) fits in 64 bits.
constexpr uint64_t kMaxFilterBytes = uint64_t{1} << 28;

/// A key's filter bit positions by double hashing (Kirsch and
/// Mitzenmacher): probe i takes (a + i * b) mod 2^32 from the two halves
/// of the key's hash and scales it onto the bit count by a multiply-shift.
class FilterProbes {
 public:
  FilterProbes(uint64_t hash, uint64_t bits)
      : a_(static_cast<uint32_t>(hash)),
        b_(static_cast<uint32_t>(hash >> 32)),
        bits_(bits) {}

  uint64_t Next() {
    const uint64_t pos = (uint64_t{a_} * bits_) >> 32;
    a_ += b_;
    return pos;
  }

 private:
  uint32_t a_;
  const uint32_t b_;
  const uint64_t bits_;
};

}  // namespace

uint64_t RunFilter::Hash(Slice key) {
  const auto* p = reinterpret_cast<const uint8_t*>(key.data());
  uint64_t h = Mix64(key.size() ^ 0x9e3779b97f4a7c15ull);
  for (size_t i = 0; i < key.size(); i += 8) {
    // Little-endian words, whatever the host, so the bits stay portable.
    uint64_t w = 0;
    const size_t n = std::min<size_t>(8, key.size() - i);
    for (size_t j = 0; j < n; ++j) w |= uint64_t{p[i + j]} << (8 * j);
    h = Mix64(h ^ w);
  }
  return h;
}

RunFilter::RunFilter(uint64_t keys)
    : bits_(std::clamp<uint64_t>((keys * kBitsPerKey + 7) / 8, 8,
                                 kMaxFilterBytes),
            '\0') {}

void RunFilter::Add(Slice key) {
  FilterProbes probes(Hash(key), bits_.size() * 8);
  for (uint32_t i = 0; i < kProbes; ++i) {
    const uint64_t pos = probes.Next();
    bits_[pos / 8] = static_cast<char>(bits_[pos / 8] | (1 << (pos % 8)));
  }
}

bool RunFilter::MayContain(Slice key) const {
  if (bits_.empty()) return true;
  FilterProbes probes(Hash(key), bits_.size() * 8);
  for (uint32_t i = 0; i < kProbes; ++i) {
    const uint64_t pos = probes.Next();
    if ((bits_[pos / 8] & (1 << (pos % 8))) == 0) return false;
  }
  return true;
}

uint64_t RunFile::MaxEntryBytes(uint32_t page_bytes) {
  return page_bytes > kPageHeaderLen ? page_bytes - kPageHeaderLen : 0;
}

RunFile::RunFile(std::string path, std::shared_ptr<PoolFile> file,
                 uint32_t table_id, uint64_t seq, uint32_t page_bytes,
                 uint32_t page_count, uint64_t entry_count,
                 std::vector<std::string> fences, RunFilter filter,
                 BufferPool* pool, io::Env* env)
    : path_(std::move(path)),
      file_(std::move(file)),
      table_id_(table_id),
      seq_(seq),
      page_bytes_(page_bytes),
      page_count_(page_count),
      entry_count_(entry_count),
      fences_(std::move(fences)),
      filter_(std::move(filter)),
      pool_(pool),
      env_(env) {}

RunFile::~RunFile() { pool_->Purge(file_->id()); }

Status RunFile::Create(const std::string& path, uint32_t table_id,
                       uint64_t seq, uint64_t file_id, uint32_t page_bytes,
                       const std::vector<RunEntry>& entries, BufferPool* pool,
                       bool fsync, std::shared_ptr<RunFile>* out,
                       io::Env* env) {
  env = io::ResolveEnv(env);
  assert(!entries.empty());
  assert(pool->page_bytes() == page_bytes);
  const std::string tmp = path + ".tmp";
  const int fd = env->Open(tmp.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return recovery::ErrnoStatus("open", tmp);
  auto file = std::make_shared<PoolFile>(file_id, fd, env);
  pool->RegisterFile(file);

  // Header page.
  std::string header;
  header.append(kRunMagic, kMagicLen);
  PutBig32(&header, table_id);
  PutBig32(&header, page_bytes);
  PutBig64(&header, seq);
  header.resize(page_bytes, '\0');
  Status st = PwriteFull(env, fd, header.data(), header.size(), 0);

  // Data pages, through the pool: build each page's payload, frame it with
  // its CRC, and hand the bytes to a dirty frame. FlushFile below performs
  // the actual pwrites (the pool's writeback path — also exercised early
  // by clock evictions when the pool is smaller than the run). The filter
  // takes each key as it is encoded.
  std::vector<std::string> fences;
  RunFilter filter(entries.size());
  std::string payload;
  uint32_t entry_count_in_page = 0;
  uint32_t page_no = 0;  // Data page index; file page is page_no + 1.
  std::string first_key_in_page;
  auto emit_page = [&]() -> Status {
    if (entry_count_in_page == 0) return Status::OK();
    std::string framed;
    framed.reserve(kPageHeaderLen + payload.size());
    PutBig32(&framed, 0);  // CRC placeholder.
    PutBig32(&framed, static_cast<uint32_t>(payload.size()));
    PutBig32(&framed, entry_count_in_page);
    framed += payload;
    const uint32_t crc =
        Crc32c(0, framed.data() + 4, framed.size() - 4);
    std::string crc_be;
    PutBig32(&crc_be, crc);
    framed.replace(0, 4, crc_be);
    BufferPool::WritePin pin;
    Status s = pool->PinForWrite(file_id, page_no + 1, &pin);
    if (!s.ok()) return s;
    memcpy(pin.data, framed.data(), framed.size());
    pool->Unpin(pin.frame);
    fences.push_back(std::move(first_key_in_page));
    ++page_no;
    payload.clear();
    entry_count_in_page = 0;
    return Status::OK();
  };
  const uint64_t max_payload = page_bytes - kPageHeaderLen;
  for (const RunEntry& e : entries) {
    if (!st.ok()) break;
    const uint64_t need = EntryEncodedBytes(e);
    assert(need <= max_payload);  // StorageTier filters oversized entries.
    if (payload.size() + need > max_payload) st = emit_page();
    if (!st.ok()) break;
    if (entry_count_in_page == 0) first_key_in_page = e.key;
    EncodeEntry(&payload, e);
    filter.Add(e.key);
    ++entry_count_in_page;
  }
  if (st.ok()) st = emit_page();
  if (st.ok()) st = pool->FlushFile(file_id);

  // Footer + trailer.
  if (st.ok()) {
    std::string footer;
    footer.append(kIndexMagic, kMagicLen);
    PutBig32(&footer, page_no);
    PutBig32(&footer, static_cast<uint32_t>(entries.size()));
    for (const std::string& f : fences) PutLengthPrefixed(&footer, f);
    PutLengthPrefixed(&footer, filter.bits());
    PutBig32(&footer, Crc32c(0, footer.data(), footer.size()));
    const uint64_t footer_offset =
        static_cast<uint64_t>(page_no + 1) * page_bytes;
    PutBig64(&footer, footer_offset);
    footer.append(kEndMagic, kMagicLen);
    st = PwriteFull(env, fd, footer.data(), footer.size(), footer_offset);
    if (st.ok() && fsync && env->Fsync(fd) != 0) {
      st = recovery::ErrnoStatus("fsync", tmp);
    }
    if (st.ok()) {
      st = env->Rename(tmp, path);
    }
    if (st.ok() && fsync) {
      st = recovery::SyncDir(
          std::filesystem::path(path).parent_path().string(), env);
    }
    if (st.ok()) {
      out->reset(new RunFile(path, std::move(file), table_id, seq,
                             page_bytes, page_no,
                             static_cast<uint64_t>(entries.size()),
                             std::move(fences), std::move(filter), pool,
                             env));
      return Status::OK();
    }
  }
  pool->Purge(file_id);
  env->RemoveFile(tmp);
  return st;
}

Status RunFile::Open(const std::string& path, uint64_t file_id,
                     BufferPool* pool, std::shared_ptr<RunFile>* out,
                     io::Env* env) {
  env = io::ResolveEnv(env);
  const int fd = env->Open(path.c_str(), O_RDONLY, 0);
  if (fd < 0) return recovery::ErrnoStatus("open", path);
  auto file = std::make_shared<PoolFile>(file_id, fd, env);

  std::error_code ec;
  const uint64_t size = std::filesystem::file_size(path, ec);
  if (ec || size < kTrailerLen + kMagicLen) {
    return Status::Corruption("run too small: " + path);
  }
  // Trailer → footer offset → footer (fence index).
  char trailer[kTrailerLen];
  Status st = PreadFull(env, fd, trailer, kTrailerLen, size - kTrailerLen);
  if (!st.ok()) return st;
  if (memcmp(trailer + 8, kEndMagic, kMagicLen) != 0) {
    return Status::Corruption("bad run trailer: " + path);
  }
  uint64_t footer_offset = 0;
  {
    size_t off = 0;
    GetBig64(Slice(trailer, 8), &off, &footer_offset);
  }
  if (footer_offset + kTrailerLen > size) {
    return Status::Corruption("bad run footer offset: " + path);
  }
  std::string footer(size - kTrailerLen - footer_offset, '\0');
  st = PreadFull(env, fd, footer.data(), footer.size(), footer_offset);
  if (!st.ok()) return st;
  const bool has_filter =
      footer.size() >= kMagicLen &&
      memcmp(footer.data(), kIndexMagic, kMagicLen) == 0;
  if (footer.size() < kMagicLen + 12 ||
      (!has_filter &&
       memcmp(footer.data(), kLegacyIndexMagic, kMagicLen) != 0)) {
    return Status::Corruption("bad run index magic: " + path);
  }
  const uint32_t stored_crc_off = static_cast<uint32_t>(footer.size() - 4);
  uint32_t stored_crc = 0;
  {
    size_t off = stored_crc_off;
    GetBig32(footer, &off, &stored_crc);
  }
  if (Crc32c(0, footer.data(), stored_crc_off) != stored_crc) {
    return Status::Corruption("run index crc mismatch: " + path);
  }
  size_t off = kMagicLen;
  uint32_t page_count = 0, entry_count = 0;
  GetBig32(footer, &off, &page_count);
  GetBig32(footer, &off, &entry_count);
  std::vector<std::string> fences;
  fences.reserve(page_count);
  for (uint32_t i = 0; i < page_count; ++i) {
    std::string fence;
    if (!GetLengthPrefixed(footer, &off, &fence)) {
      return Status::Corruption("run fence truncated: " + path);
    }
    fences.push_back(std::move(fence));
  }
  RunFilter filter;
  if (has_filter) {
    std::string bits;
    if (!GetLengthPrefixed(Slice(footer.data(), stored_crc_off), &off,
                           &bits)) {
      return Status::Corruption("run filter truncated: " + path);
    }
    filter = RunFilter(std::move(bits));
  }

  // Header.
  std::string header(kMagicLen + 16, '\0');
  st = PreadFull(env, fd, header.data(), header.size(), 0);
  if (!st.ok()) return st;
  if (memcmp(header.data(), kRunMagic, kMagicLen) != 0) {
    return Status::Corruption("bad run magic: " + path);
  }
  size_t hoff = kMagicLen;
  uint32_t table_id = 0, page_bytes = 0;
  uint64_t seq = 0;
  GetBig32(header, &hoff, &table_id);
  GetBig32(header, &hoff, &page_bytes);
  GetBig64(header, &hoff, &seq);
  if (page_bytes != pool->page_bytes()) {
    return Status::Corruption("run page size mismatch: " + path);
  }
  if (footer_offset != static_cast<uint64_t>(page_count + 1) * page_bytes) {
    return Status::Corruption("run page count mismatch: " + path);
  }

  pool->RegisterFile(file);
  out->reset(new RunFile(path, std::move(file), table_id, seq, page_bytes,
                         page_count, entry_count, std::move(fences),
                         std::move(filter), pool, env));
  return Status::OK();
}

Status RunFile::SearchPage(const uint8_t* page, uint32_t page_bytes,
                           Slice key, RunEntry* out, bool* found) {
  return ParsePage(page, page_bytes, [&](const EntryView& e) {
    const int cmp = e.key.compare(key);
    if (cmp == 0) {
      e.CopyTo(out);
      *found = true;
    }
    return cmp < 0;  // Sorted: past the key means it is absent.
  });
}

Status RunFile::Lookup(BufferPool* pool, Slice key, RunEntry* out,
                       bool* found, bool* pinned) const {
  *found = false;
  if (pinned != nullptr) *pinned = false;
  if (fences_.empty() || !filter_.MayContain(key)) return Status::OK();
  // Last fence <= key; fences_[0] is the run's smallest key.
  if (Slice(fences_[0]).compare(key) > 0) return Status::OK();
  size_t lo = 0, hi = fences_.size();
  while (hi - lo > 1) {
    const size_t mid = lo + (hi - lo) / 2;
    if (Slice(fences_[mid]).compare(key) <= 0) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  BufferPool::Pin pin;
  Status st = pool->PinPage(file_->id(), static_cast<uint32_t>(lo) + 1, &pin);
  if (!st.ok()) return st;
  if (pinned != nullptr) *pinned = true;
  st = SearchPage(pin.data, page_bytes_, key, out, found);
  pool->Unpin(pin.frame);
  return st;
}

Status RunFile::ForEachEntry(
    const std::function<void(const RunEntry&)>& fn) const {
  std::string page(page_bytes_, '\0');
  RunEntry entry;
  for (uint32_t p = 0; p < page_count_; ++p) {
    Status st = PreadFull(env_, file_->fd(), page.data(), page.size(),
                          static_cast<uint64_t>(p + 1) * page_bytes_);
    if (!st.ok()) return st;
    st = ParsePage(reinterpret_cast<const uint8_t*>(page.data()),
                   page_bytes_, [&](const EntryView& e) {
                     e.CopyTo(&entry);
                     fn(entry);
                     return true;
                   });
    if (!st.ok()) return st;
  }
  return Status::OK();
}

}  // namespace ssidb
