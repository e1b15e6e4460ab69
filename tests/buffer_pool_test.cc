// Buffer pool + run file tests: the pin/victim discipline (hash lookup,
// pin refcounts, clock second-chance eviction, dirty writeback), the run
// file format (CRC-framed sorted pages, multi-page extents for entries
// larger than a page, fence index, key filter, durability envelope, data
// from file page 0 with an unpadded last frame, and the refusal of the
// pre-filter and header-page layouts),
// and a concurrent pin/evict/read stress that the TSan CI job runs to
// prove the frame state machine race-free.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/crc32c.h"
#include "src/common/encoding.h"
#include "src/common/random.h"
#include "src/storage/buffer_pool.h"
#include "src/storage/run_file.h"
#include "tests/test_util.h"

namespace ssidb {
namespace {

constexpr uint32_t kPage = 512;

std::shared_ptr<PoolFile> OpenPoolFile(const std::string& path, uint64_t id) {
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  EXPECT_GE(fd, 0);
  return std::make_shared<PoolFile>(id, fd);
}

/// Fill `page` with a recognizable pattern derived from its number.
void FillPattern(uint8_t* page, uint32_t page_no) {
  for (uint32_t i = 0; i < kPage; ++i) {
    page[i] = static_cast<uint8_t>((page_no * 31 + i) & 0xFF);
  }
}

bool CheckPattern(const uint8_t* page, uint32_t page_no) {
  for (uint32_t i = 0; i < kPage; ++i) {
    if (page[i] != static_cast<uint8_t>((page_no * 31 + i) & 0xFF)) {
      return false;
    }
  }
  return true;
}

/// Write `pages` patterned pages into `file` through the pool and flush.
void WritePages(BufferPool* pool, uint64_t file_id, uint32_t pages) {
  for (uint32_t p = 0; p < pages; ++p) {
    BufferPool::WritePin wp;
    ASSERT_TRUE(pool->PinForWrite(file_id, p, &wp).ok());
    FillPattern(wp.data, p);
    pool->Unpin(wp.frame);
  }
  ASSERT_TRUE(pool->FlushFile(file_id).ok());
}

TEST(BufferPoolTest, HitAndMissCounting) {
  ScratchDir dir;
  BufferPool pool(4 * kPage, kPage);
  ASSERT_EQ(pool.frame_count(), 4u);
  auto file = OpenPoolFile(dir.path + "/f", 1);
  pool.RegisterFile(file);
  WritePages(&pool, 1, 2);

  // Both pages are still resident from the write path: pure hits.
  const uint64_t misses_before = pool.misses();
  for (int round = 0; round < 3; ++round) {
    for (uint32_t p = 0; p < 2; ++p) {
      BufferPool::Pin pin;
      ASSERT_TRUE(pool.PinPage(1, p, &pin).ok());
      EXPECT_TRUE(CheckPattern(pin.data, p));
      pool.Unpin(pin.frame);
    }
  }
  EXPECT_EQ(pool.misses(), misses_before);
  EXPECT_GE(pool.hits(), 6u);
}

TEST(BufferPoolTest, EvictionWritesBackAndReloads) {
  ScratchDir dir;
  BufferPool pool(4 * kPage, kPage);
  auto file = OpenPoolFile(dir.path + "/f", 1);
  pool.RegisterFile(file);
  // 12 dirty pages through a 4-frame pool: the victim scan must reclaim
  // and write back frames mid-write.
  WritePages(&pool, 1, 12);
  EXPECT_GT(pool.evictions(), 0u);
  EXPECT_GE(pool.writebacks(), 8u);  // At least the evicted dirty frames.

  // Every page reads back intact, through the pool (reloads count misses).
  const uint64_t misses_before = pool.misses();
  for (uint32_t p = 0; p < 12; ++p) {
    BufferPool::Pin pin;
    ASSERT_TRUE(pool.PinPage(1, p, &pin).ok());
    EXPECT_TRUE(CheckPattern(pin.data, p)) << "page " << p;
    pool.Unpin(pin.frame);
  }
  EXPECT_GT(pool.misses(), misses_before);
}

TEST(BufferPoolTest, FlushedPagesSurvivePoolDestruction) {
  ScratchDir dir;
  const std::string path = dir.path + "/f";
  {
    BufferPool pool(4 * kPage, kPage);
    pool.RegisterFile(OpenPoolFile(path, 1));
    WritePages(&pool, 1, 6);
  }
  // Read the bytes straight from the file: the pool (and its descriptor)
  // are gone; only FlushFile's pwrites remain.
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  ASSERT_GE(fd, 0);
  uint8_t page[kPage];
  for (uint32_t p = 0; p < 6; ++p) {
    ASSERT_EQ(pread(fd, page, kPage, static_cast<off_t>(p) * kPage),
              static_cast<ssize_t>(kPage));
    EXPECT_TRUE(CheckPattern(page, p)) << "page " << p;
  }
  close(fd);
}

TEST(BufferPoolTest, PinnedFramesAreNeverVictims) {
  ScratchDir dir;
  BufferPool pool(4 * kPage, kPage);
  auto file = OpenPoolFile(dir.path + "/f", 1);
  pool.RegisterFile(file);
  WritePages(&pool, 1, 8);

  // Pin all four frames and hold them.
  std::vector<BufferPool::Pin> held;
  for (uint32_t p = 0; p < 4; ++p) {
    BufferPool::Pin pin;
    ASSERT_TRUE(pool.PinPage(1, p, &pin).ok());
    held.push_back(pin);
  }
  // A fifth page has no frame to claim: bounded retry, then kIOError.
  BufferPool::Pin extra;
  Status st = pool.PinPage(1, 7, &extra);
  EXPECT_TRUE(st.IsIOError()) << st.ToString();
  // The held pins are intact and their bytes untouched.
  for (uint32_t p = 0; p < 4; ++p) {
    EXPECT_TRUE(CheckPattern(held[p].data, p));
    pool.Unpin(held[p].frame);
  }
  // With the pins dropped the same request succeeds.
  ASSERT_TRUE(pool.PinPage(1, 7, &extra).ok());
  EXPECT_TRUE(CheckPattern(extra.data, 7));
  pool.Unpin(extra.frame);
}

TEST(BufferPoolTest, PurgeDropsFramesAndRegistration) {
  ScratchDir dir;
  BufferPool pool(8 * kPage, kPage);
  pool.RegisterFile(OpenPoolFile(dir.path + "/a", 1));
  WritePages(&pool, 1, 4);
  pool.Purge(1);
  // The purged file's frames are free again: a second file can fill the
  // whole pool without evicting anything.
  pool.RegisterFile(OpenPoolFile(dir.path + "/b", 2));
  const uint64_t evictions_before = pool.evictions();
  WritePages(&pool, 2, 8);
  EXPECT_EQ(pool.evictions(), evictions_before);
  for (uint32_t p = 0; p < 8; ++p) {
    BufferPool::Pin pin;
    ASSERT_TRUE(pool.PinPage(2, p, &pin).ok());
    EXPECT_TRUE(CheckPattern(pin.data, p));
    pool.Unpin(pin.frame);
  }
}

/// Concurrent pin/evict/reload stress (the TSan job's target): readers
/// hammer a file 8x the pool size so every pin races the clock scan, frame
/// retagging, and load publication.
TEST(BufferPoolTest, ConcurrentPinEvictStress) {
  ScratchDir dir;
  constexpr uint32_t kPages = 64;
  BufferPool pool(8 * kPage, kPage);
  auto file = OpenPoolFile(dir.path + "/f", 1);
  // Seed the file directly so the test starts from a cold pool.
  {
    uint8_t page[kPage];
    for (uint32_t p = 0; p < kPages; ++p) {
      FillPattern(page, p);
      ASSERT_EQ(pwrite(file->fd(), page, kPage,
                       static_cast<off_t>(p) * kPage),
                static_cast<ssize_t>(kPage));
    }
  }
  pool.RegisterFile(file);

  constexpr int kThreads = 4;
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Random rng(static_cast<uint64_t>(t) * 977 + 5);
      for (int i = 0; i < 4000 && !failed.load(std::memory_order_relaxed);
           ++i) {
        const uint32_t p = static_cast<uint32_t>(rng.Uniform(kPages));
        BufferPool::Pin pin;
        Status st = pool.PinPage(1, p, &pin);
        if (!st.ok() || !CheckPattern(pin.data, p)) {
          failed.store(true, std::memory_order_relaxed);
          break;
        }
        pool.Unpin(pin.frame);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(failed.load());
  EXPECT_GT(pool.evictions(), 0u);
  // Conservation: every miss loaded into a frame that was either free or
  // evicted; the pool never grew past its fixed frame count.
  EXPECT_EQ(pool.frame_count(), 8u);
}

// ---------------------------------------------------------------------------
// Run files.
// ---------------------------------------------------------------------------

std::vector<RunEntry> MakeEntries(uint64_t n, Timestamp base_cts) {
  std::vector<RunEntry> entries;
  for (uint64_t i = 0; i < n; ++i) {
    RunEntry e;
    e.key = EncodeU64Key(i);
    e.value = "value-" + std::to_string(i);
    e.commit_ts = base_cts + i;
    e.tombstone = (i % 7) == 0;
    entries.push_back(std::move(e));
  }
  return entries;
}

TEST(RunFileTest, CreateLookupRoundTripAcrossPages) {
  ScratchDir dir;
  BufferPool pool(4 * kPage, kPage);
  const auto entries = MakeEntries(200, /*base_cts=*/100);
  std::shared_ptr<RunFile> run;
  ASSERT_TRUE(RunFile::Create(dir.path + "/t.run", /*table_id=*/3, /*seq=*/1,
                              /*file_id=*/1, kPage, RunFile::Over(entries),
                              &pool, /*fsync=*/true, &run)
                  .ok());
  EXPECT_EQ(run->entry_count(), 200u);
  EXPECT_GT(run->page_count(), 1u) << "entries must span several pages";

  // Every entry comes back exact: key, value, commit_ts, tombstone.
  for (const RunEntry& want : entries) {
    RunEntry got;
    bool found = false;
    ASSERT_TRUE(run->Lookup(&pool, want.key, &got, &found).ok());
    ASSERT_TRUE(found) << want.key;
    EXPECT_EQ(got.value, want.value);
    EXPECT_EQ(got.commit_ts, want.commit_ts);
    EXPECT_EQ(got.tombstone, want.tombstone);
  }
  // Absent keys (below, between, above) report not-found with OK status.
  for (const std::string& key :
       {std::string("\x00", 1), EncodeU64Key(5) + "x", EncodeU64Key(9999)}) {
    RunEntry got;
    bool found = true;
    ASSERT_TRUE(run->Lookup(&pool, key, &got, &found).ok());
    EXPECT_FALSE(found);
  }
}

TEST(RunFileTest, OpenValidatesAndForEachScans) {
  ScratchDir dir;
  const std::string path = dir.path + "/t.run";
  const auto entries = MakeEntries(64, /*base_cts=*/7);
  {
    BufferPool pool(4 * kPage, kPage);
    std::shared_ptr<RunFile> run;
    ASSERT_TRUE(RunFile::Create(path, 3, 9, 1, kPage, RunFile::Over(entries),
                                &pool, true, &run)
                    .ok());
  }
  BufferPool pool(4 * kPage, kPage);
  std::shared_ptr<RunFile> run;
  ASSERT_TRUE(RunFile::Open(path, /*file_id=*/5, &pool, &run).ok());
  EXPECT_EQ(run->table_id(), 3u);
  EXPECT_EQ(run->seq(), 9u);
  EXPECT_EQ(run->entry_count(), 64u);
  // ForEachEntry yields the full sorted contents (the compaction path).
  size_t i = 0;
  ASSERT_TRUE(run->ForEachEntry([&](const RunEntry& e) {
                    EXPECT_EQ(e.key, entries[i].key);
                    EXPECT_EQ(e.commit_ts, entries[i].commit_ts);
                    ++i;
                  })
                  .ok());
  EXPECT_EQ(i, 64u);
}

TEST(RunFileTest, CorruptDataPageIsDetectedByLookup) {
  ScratchDir dir;
  const std::string path = dir.path + "/t.run";
  const auto entries = MakeEntries(64, /*base_cts=*/7);
  {
    BufferPool pool(4 * kPage, kPage);
    std::shared_ptr<RunFile> run;
    ASSERT_TRUE(RunFile::Create(path, 3, 1, 1, kPage, RunFile::Over(entries),
                                &pool, true, &run)
                    .ok());
  }
  // Flip a byte in the middle of data page 1 (data pages start at file
  // page 0).
  {
    const int fd = ::open(path.c_str(), O_RDWR | O_CLOEXEC);
    ASSERT_GE(fd, 0);
    uint8_t b = 0;
    const off_t off = kPage + 100;
    ASSERT_EQ(pread(fd, &b, 1, off), 1);
    b ^= 0x40;
    ASSERT_EQ(pwrite(fd, &b, 1, off), 1);
    close(fd);
  }
  BufferPool pool(4 * kPage, kPage);
  std::shared_ptr<RunFile> run;
  ASSERT_TRUE(RunFile::Open(path, 1, &pool, &run).ok());
  // A key on the damaged page fails with corruption, not a wrong answer.
  bool hit_corruption = false;
  for (const RunEntry& want : entries) {
    RunEntry got;
    bool found = false;
    Status st = run->Lookup(&pool, want.key, &got, &found);
    if (!st.ok()) {
      EXPECT_TRUE(st.IsCorruption()) << st.ToString();
      hit_corruption = true;
    } else if (found) {
      EXPECT_EQ(got.value, want.value);
    }
  }
  EXPECT_TRUE(hit_corruption);
}

TEST(RunFileTest, TruncatedTrailerFailsOpen) {
  ScratchDir dir;
  const std::string path = dir.path + "/t.run";
  {
    BufferPool pool(4 * kPage, kPage);
    std::shared_ptr<RunFile> run;
    ASSERT_TRUE(RunFile::Create(path, 3, 1, 1, kPage,
                                RunFile::Over(MakeEntries(10, 1)), &pool, true,
                                &run)
                    .ok());
  }
  {
    // Chop the trailer off.
    std::error_code ec;
    const auto size = std::filesystem::file_size(path, ec);
    ASSERT_FALSE(ec);
    std::filesystem::resize_file(path, size - 8, ec);
    ASSERT_FALSE(ec);
  }
  BufferPool pool(4 * kPage, kPage);
  std::shared_ptr<RunFile> run;
  EXPECT_FALSE(RunFile::Open(path, 1, &pool, &run).ok());
}

/// Flip one byte of `path` at `offset`.
void FlipByte(const std::string& path, off_t offset) {
  const int fd = ::open(path.c_str(), O_RDWR | O_CLOEXEC);
  ASSERT_GE(fd, 0);
  uint8_t b = 0;
  ASSERT_EQ(pread(fd, &b, 1, offset), 1);
  b ^= 0x40;
  ASSERT_EQ(pwrite(fd, &b, 1, offset), 1);
  close(fd);
}

TEST(RunFileTest, FilterPassesEveryKeyAfterCreateAndOpen) {
  ScratchDir dir;
  const std::string path = dir.path + "/t.run";
  const auto entries = MakeEntries(300, /*base_cts=*/1);
  auto check_all = [&](const RunFile& run, BufferPool* pool) {
    for (const RunEntry& want : entries) {
      RunEntry got;
      bool found = false;
      bool pinned = false;
      ASSERT_TRUE(run.Lookup(pool, want.key, &got, &found, &pinned).ok());
      EXPECT_TRUE(found) << DecodeU64Key(want.key);
      EXPECT_TRUE(pinned) << "the filter ruled out a key of the run";
      EXPECT_EQ(got.value, want.value);
    }
  };
  {
    BufferPool pool(4 * kPage, kPage);
    std::shared_ptr<RunFile> run;
    ASSERT_TRUE(RunFile::Create(path, 3, 1, 1, kPage, RunFile::Over(entries),
                                &pool, true, &run)
                    .ok());
    ASSERT_GT(run->page_count(), 4u);
    check_all(*run, &pool);
  }
  BufferPool pool(4 * kPage, kPage);
  std::shared_ptr<RunFile> run;
  ASSERT_TRUE(RunFile::Open(path, 1, &pool, &run).ok());
  check_all(*run, &pool);
}

TEST(RunFileTest, FilterFalsePositiveRateIsLow) {
  ScratchDir dir;
  const std::string path = dir.path + "/t.run";
  constexpr uint64_t kKeys = 2000;
  {
    BufferPool pool(4 * kPage, kPage);
    std::shared_ptr<RunFile> run;
    ASSERT_TRUE(RunFile::Create(path, 3, 1, 1, kPage,
                                RunFile::Over(MakeEntries(kKeys, 1)), &pool,
                                true, &run)
                    .ok());
  }
  BufferPool pool(4 * kPage, kPage);
  std::shared_ptr<RunFile> run;
  ASSERT_TRUE(RunFile::Open(path, 1, &pool, &run).ok());
  // Absent keys inside the run's key range, so the fences put each on a
  // page and only the filter can save the page read.
  constexpr uint64_t kAbsent = 10000;
  uint64_t false_positives = 0;
  for (uint64_t i = 0; i < kAbsent; ++i) {
    const std::string key = EncodeU64Key(i % kKeys) + "/" + std::to_string(i);
    RunEntry got;
    bool found = true;
    bool pinned = false;
    ASSERT_TRUE(run->Lookup(&pool, key, &got, &found, &pinned).ok());
    EXPECT_FALSE(found);
    if (pinned) ++false_positives;
  }
  EXPECT_LE(false_positives, kAbsent * 3 / 100)
      << "false-positive rate above 3%";
}

TEST(RunFileTest, FlippedFilterByteFailsOpen) {
  ScratchDir dir;
  const std::string path = dir.path + "/t.run";
  {
    BufferPool pool(4 * kPage, kPage);
    std::shared_ptr<RunFile> run;
    ASSERT_TRUE(RunFile::Create(path, 3, 1, 1, kPage,
                                RunFile::Over(MakeEntries(50, 1)), &pool, true,
                                &run)
                    .ok());
  }
  // The filter block ends right before the footer CRC (4 bytes) and the
  // trailer (16 bytes): damage its last byte.
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  ASSERT_FALSE(ec);
  FlipByte(path, static_cast<off_t>(size - 16 - 4 - 1));
  BufferPool pool(4 * kPage, kPage);
  std::shared_ptr<RunFile> run;
  Status st = RunFile::Open(path, 1, &pool, &run);
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
}

TEST(RunFileTest, FilterHashKnownAnswers) {
  // The filter bits persist in run files: a changed hash or probe scheme
  // would make old runs hide keys. These values must never change (they
  // were cross-checked against an independent reference implementation of
  // the hash and the double-hashing probes).
  EXPECT_EQ(RunFilter::Hash(""), 0x9ca066f1a4ab2eeaull);
  EXPECT_EQ(RunFilter::Hash("a"), 0x3f8805a87949ecb3ull);
  EXPECT_EQ(RunFilter::Hash(EncodeU64Key(1)), 0x5c5866ce6e2940b5ull);
  EXPECT_EQ(RunFilter::Hash("a key longer than one word"),
            0x9e62f9b717e9ff3full);
  RunFilter filter(/*keys=*/16);
  for (uint64_t i = 0; i < 16; ++i) filter.Add(EncodeU64Key(i));
  ASSERT_EQ(filter.bits().size(), 20u);  // 16 keys x 10 bits.
  EXPECT_EQ(Crc32c(0, filter.bits().data(), filter.bits().size()),
            0x02a36802u);
}

/// Write a one-data-page run in an older layout: page 0 a header, the data
/// page at file page 1, then the footer. `with_filter` writes the
/// header-page layout (footer magic "SSIDBRIF" and a filter block);
/// without it, the layout that predates the filter ("SSIDBRIX", no filter).
void WriteLegacyRun(const std::string& path,
                    const std::vector<RunEntry>& entries, bool with_filter) {
  std::string file(std::string("SSIDBRUN", 8));
  PutBig32(&file, /*table_id=*/3);
  PutBig32(&file, kPage);
  PutBig64(&file, /*seq=*/1);
  file.resize(kPage, '\0');
  std::string payload;
  for (const RunEntry& e : entries) {
    PutLengthPrefixed(&payload, e.key);
    PutBig64(&payload, e.commit_ts);
    payload.push_back(e.tombstone ? 1 : 0);
    PutLengthPrefixed(&payload, e.value);
  }
  std::string body;
  PutBig32(&body, static_cast<uint32_t>(payload.size()));
  PutBig32(&body, static_cast<uint32_t>(entries.size()));
  body += payload;
  PutBig32(&file, Crc32c(0, body.data(), body.size()));
  file += body;
  ASSERT_LE(file.size(), 2u * kPage);
  file.resize(2 * kPage, '\0');
  std::string footer(std::string(with_filter ? "SSIDBRIF" : "SSIDBRIX", 8));
  PutBig32(&footer, /*page_count=*/1);
  PutBig32(&footer, static_cast<uint32_t>(entries.size()));
  PutLengthPrefixed(&footer, entries.front().key);
  if (with_filter) {
    RunFilter filter(entries.size());
    for (const RunEntry& e : entries) filter.Add(e.key);
    PutLengthPrefixed(&footer, filter.bits());
  }
  PutBig32(&footer, Crc32c(0, footer.data(), footer.size()));
  file += footer;
  PutBig64(&file, 2 * kPage);
  file.append("SSIDBEND", 8);
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(write(fd, file.data(), file.size()),
            static_cast<ssize_t>(file.size()));
  close(fd);
}

std::vector<RunEntry> LegacyEntries() {
  std::vector<RunEntry> entries;
  for (uint64_t i = 0; i < 10; ++i) {
    RunEntry e;
    e.key = EncodeU64Key(2 * i);
    e.value = std::to_string(100 + i);
    e.commit_ts = 10 + i;
    entries.push_back(std::move(e));
  }
  return entries;
}

/// One format per artifact: no writer has produced the pre-filter footer
/// since the filter landed, so such a file is corruption, not a layout.
TEST(RunFileTest, PreFilterFooterFailsOpen) {
  ScratchDir dir;
  const std::string path = dir.path + "/legacy.run";
  WriteLegacyRun(path, LegacyEntries(), /*with_filter=*/false);
  BufferPool pool(4 * kPage, kPage);
  std::shared_ptr<RunFile> run;
  const Status st = RunFile::Open(path, 1, &pool, &run);
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
}

/// The same for the layout with a header page: its table id, page size
/// and seq now sit in the footer, and such a run fails Open naming it.
TEST(RunFileTest, HeaderPageLayoutFailsOpenNamingTheFile) {
  ScratchDir dir;
  const std::string path = dir.path + "/header-page.run";
  WriteLegacyRun(path, LegacyEntries(), /*with_filter=*/true);
  BufferPool pool(4 * kPage, kPage);
  std::shared_ptr<RunFile> run;
  const Status st = RunFile::Open(path, 1, &pool, &run);
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  EXPECT_NE(st.ToString().find(path), std::string::npos) << st.ToString();
}

/// A run of N data pages takes N - 1 whole pages, its last frame unpadded
/// and the footer; its pages are read back from file page 0.
TEST(RunFileTest, LastFrameIsUnpaddedAndDataStartsAtPageZero) {
  ScratchDir dir;
  const std::string path = dir.path + "/t.run";
  const auto entries = MakeEntries(100, /*base_cts=*/1);
  uint32_t pages = 0;
  {
    BufferPool pool(4 * kPage, kPage);
    std::shared_ptr<RunFile> run;
    ASSERT_TRUE(RunFile::Create(path, 3, 1, 1, kPage, RunFile::Over(entries),
                                &pool, true, &run)
                    .ok());
    pages = run->page_count();
    ASSERT_GT(pages, 1u);
  }
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  ASSERT_FALSE(ec);
  EXPECT_GT(size, uint64_t{pages - 1} * kPage);
  EXPECT_LT(size, uint64_t{pages} * kPage + kPage);
  // Page 0 is a data page: its frame CRC covers its header fields and
  // payload (the layout with a header page began with "SSIDBRUN").
  std::string page(kPage, '\0');
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(pread(fd, page.data(), kPage, 0), static_cast<ssize_t>(kPage));
  close(fd);
  size_t off = 0;
  uint32_t crc = 0, payload_bytes = 0;
  ASSERT_TRUE(GetBig32(page, &off, &crc));
  ASSERT_TRUE(GetBig32(page, &off, &payload_bytes));
  ASSERT_LE(payload_bytes, kPage - 12);
  EXPECT_EQ(Crc32c(0, page.data() + 4, 8 + payload_bytes), crc);

  BufferPool pool(4 * kPage, kPage);
  std::shared_ptr<RunFile> run;
  ASSERT_TRUE(RunFile::Open(path, 2, &pool, &run).ok());
  EXPECT_EQ(run->page_count(), pages);
  size_t i = 0;
  ASSERT_TRUE(run->ForEachEntry([&](const RunEntry& e) {
                    EXPECT_EQ(e.key, entries[i].key);
                    EXPECT_EQ(e.value, entries[i].value);
                    ++i;
                  })
                  .ok());
  EXPECT_EQ(i, entries.size());
  for (const RunEntry& want : {entries.front(), entries.back()}) {
    RunEntry got;
    bool found = false;
    ASSERT_TRUE(run->Lookup(&pool, want.key, &got, &found).ok());
    ASSERT_TRUE(found);
    EXPECT_EQ(got.value, want.value);
  }
}

/// An entry larger than one page's payload gets a multi-page extent:
/// lookups (of it and of keys around it), a full scan and a reopen all
/// see it intact, and the small entries on either side keep their pages.
TEST(RunFileTest, EntryLargerThanAPageSpansAnExtent) {
  ScratchDir dir;
  const std::string path = dir.path + "/big.run";
  std::vector<RunEntry> entries;
  for (const char* key : {"a", "b", "c"}) {
    RunEntry e;
    e.key = key;
    e.value = e.key == "b" ? std::string(5 * kPage + 7, 'x') : "small";
    e.commit_ts = 5;
    entries.push_back(std::move(e));
  }
  ASSERT_GT(entries[1].value.size(), RunFile::MaxEntryBytes(kPage));
  const auto check = [&](const RunFile& run, BufferPool* pool) {
    for (const RunEntry& want : entries) {
      RunEntry got;
      bool found = false;
      ASSERT_TRUE(run.Lookup(pool, want.key, &got, &found).ok());
      ASSERT_TRUE(found) << want.key;
      EXPECT_EQ(got.value, want.value) << want.key;
    }
    for (const char* absent : {"bb", "d", "0"}) {
      RunEntry got;
      bool found = true;
      ASSERT_TRUE(run.Lookup(pool, absent, &got, &found).ok()) << absent;
      EXPECT_FALSE(found) << absent;
    }
    size_t i = 0;
    ASSERT_TRUE(run.ForEachEntry([&](const RunEntry& e) {
                     ASSERT_LT(i, entries.size());
                     EXPECT_EQ(e.key, entries[i].key);
                     EXPECT_EQ(e.value, entries[i].value);
                     ++i;
                   })
                    .ok());
    EXPECT_EQ(i, entries.size());
  };
  {
    BufferPool pool(4 * kPage, kPage);
    std::shared_ptr<RunFile> run;
    ASSERT_TRUE(RunFile::Create(path, 3, 1, 1, kPage, RunFile::Over(entries),
                                &pool, true, &run)
                    .ok());
    EXPECT_EQ(run->page_count(), 8u);  // a, the 6-page extent, c.
    check(*run, &pool);
  }
  BufferPool pool(4 * kPage, kPage);
  std::shared_ptr<RunFile> run;
  ASSERT_TRUE(RunFile::Open(path, 2, &pool, &run).ok());
  check(*run, &pool);
}

}  // namespace
}  // namespace ssidb
