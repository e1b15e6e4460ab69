// Write-ahead log tests: record format, group commit batching, the
// flush-on-commit regimes of §6.1.2/§6.1.3 and the §4.4 early-lock-release
// ablation.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "src/common/crc32c.h"
#include "src/common/encoding.h"
#include "src/db/db.h"
#include "src/recovery/wal.h"
#include "src/txn/log_manager.h"
#include "tests/test_util.h"

namespace ssidb {
namespace {

TEST(LogRecordTest, EncodeDecodeRoundTrip) {
  LogRecord r;
  r.txn_id = 42;
  r.commit_ts = 1234567;
  r.redo.push_back(RedoEntry{7, "alice", std::string("v\0zero", 6), false});
  r.redo.push_back(RedoEntry{9, "bob", "", true});
  LogRecord out;
  ASSERT_TRUE(LogRecord::Decode(r.Encode(), &out).ok());
  EXPECT_EQ(out.type, LogRecordType::kCommit);
  EXPECT_EQ(out.txn_id, 42u);
  EXPECT_EQ(out.commit_ts, 1234567u);
  ASSERT_EQ(out.redo.size(), 2u);
  EXPECT_EQ(out.redo[0].table, 7u);
  EXPECT_EQ(out.redo[0].key, "alice");
  EXPECT_EQ(out.redo[0].value, r.redo[0].value);
  EXPECT_FALSE(out.redo[0].tombstone);
  EXPECT_EQ(out.redo[1].key, "bob");
  EXPECT_TRUE(out.redo[1].tombstone);
}

TEST(LogRecordTest, TableCreateRoundTrip) {
  LogRecord r;
  r.type = LogRecordType::kTableCreate;
  r.redo.push_back(RedoEntry{3, "accounts", "", false});
  LogRecord out;
  ASSERT_TRUE(LogRecord::Decode(r.Encode(), &out).ok());
  EXPECT_EQ(out.type, LogRecordType::kTableCreate);
  ASSERT_EQ(out.redo.size(), 1u);
  EXPECT_EQ(out.redo[0].table, 3u);
  EXPECT_EQ(out.redo[0].key, "accounts");
}

// --- The corruption modes the recovery tail-scan distinguishes. ---

LogRecord SampleRecord() {
  LogRecord r;
  r.txn_id = 11;
  r.commit_ts = 22;
  r.redo.push_back(RedoEntry{1, "key", "value", false});
  return r;
}

TEST(LogRecordTest, DecodeShortHeaderIsTruncated) {
  // Fewer than the 8 header bytes: the torn-tail shape when the crash hit
  // inside the frame header.
  LogRecord out;
  EXPECT_TRUE(LogRecord::Decode("", &out).IsTruncated());
  EXPECT_TRUE(LogRecord::Decode("abc", &out).IsTruncated());
  const std::string frame = SampleRecord().Encode();
  EXPECT_TRUE(LogRecord::Decode(Slice(frame.data(), 7), &out).IsTruncated());
}

TEST(LogRecordTest, DecodeShortBodyIsTruncated) {
  // Header intact but the body stops early: torn mid-record.
  const std::string frame = SampleRecord().Encode();
  LogRecord out;
  for (size_t cut = 8; cut < frame.size(); ++cut) {
    EXPECT_TRUE(LogRecord::Decode(Slice(frame.data(), cut), &out)
                    .IsTruncated())
        << "cut at " << cut;
  }
}

TEST(LogRecordTest, DecodeBitFlipIsCorruption) {
  // Any damaged byte in a complete frame must fail the CRC, not parse.
  const std::string frame = SampleRecord().Encode();
  LogRecord out;
  for (size_t i = 8; i < frame.size(); ++i) {
    std::string bad = frame;
    bad[i] = static_cast<char>(bad[i] ^ 0x40);
    EXPECT_TRUE(LogRecord::Decode(bad, &out).IsCorruption())
        << "flip at " << i;
  }
}

TEST(LogRecordTest, DecodeImplausibleLengthIsCorruption) {
  // A huge frame length must be rejected before it drives an allocation
  // (a damaged length field would otherwise read as "truncated" forever).
  std::string bad;
  PutBig32(&bad, 0);            // crc (never checked: length bails first)
  PutBig32(&bad, 0x7fffffffu);  // body length ~2 GiB
  LogRecord out;
  EXPECT_TRUE(LogRecord::Decode(bad, &out).IsCorruption());
}

TEST(LogRecordTest, DecodeValidCrcMalformedBodyIsCorruption) {
  // A structurally bad body behind a *valid* CRC (an encoder bug or
  // deliberate tamper) is corruption, not truncation: redo_count promises
  // more entries than the body holds.
  std::string body;
  body.push_back(0);        // type kCommit
  PutBig64(&body, 1);       // txn_id
  PutBig64(&body, 2);       // commit_ts
  PutBig32(&body, 5);       // redo_count: lies
  std::string frame;
  PutBig32(&frame, Crc32c(body));
  PutBig32(&frame, static_cast<uint32_t>(body.size()));
  frame += body;
  LogRecord out;
  EXPECT_TRUE(LogRecord::Decode(frame, &out).IsCorruption());
}

TEST(LogRecordTest, DecodeUnknownTypeIsCorruption) {
  std::string body;
  body.push_back(9);  // no such record type
  PutBig64(&body, 1);
  PutBig64(&body, 2);
  PutBig32(&body, 0);
  std::string frame;
  PutBig32(&frame, Crc32c(body));
  PutBig32(&frame, static_cast<uint32_t>(body.size()));
  frame += body;
  LogRecord out;
  EXPECT_TRUE(LogRecord::Decode(frame, &out).IsCorruption());
}

TEST(LogRecordTest, DecodeFromAdvancesAcrossFrames) {
  LogRecord a = SampleRecord();
  LogRecord b = SampleRecord();
  b.txn_id = 99;
  const std::string stream = a.Encode() + b.Encode();
  size_t offset = 0;
  LogRecord out;
  ASSERT_TRUE(LogRecord::DecodeFrom(stream, &offset, &out).ok());
  EXPECT_EQ(out.txn_id, 11u);
  ASSERT_TRUE(LogRecord::DecodeFrom(stream, &offset, &out).ok());
  EXPECT_EQ(out.txn_id, 99u);
  EXPECT_EQ(offset, stream.size());
  // A truncated decode must not advance the offset.
  size_t torn_offset = 0;
  EXPECT_TRUE(LogRecord::DecodeFrom(Slice(stream.data(), 3), &torn_offset,
                                    &out)
                  .IsTruncated());
  EXPECT_EQ(torn_offset, 0u);
}

TEST(LogManagerTest, AppendAssignsMonotonicLsns) {
  LogOptions opts;
  LogManager log(opts);
  LogRecord r;
  r.txn_id = 1;
  const Lsn a = log.Append(r);
  const Lsn b = log.Append(r);
  EXPECT_LT(a, b);
  EXPECT_EQ(log.appended_records(), 2u);
}

TEST(LogManagerTest, NoFlushModeNeverBlocks) {
  LogOptions opts;
  opts.flush_on_commit = false;
  opts.flush_latency_us = 1000000;  // Would hurt if waited on.
  LogManager log(opts);
  LogRecord r;
  r.txn_id = 1;
  const auto start = std::chrono::steady_clock::now();
  const Lsn lsn = log.Append(r);
  log.WaitFlushed(lsn);  // Must return immediately.
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::milliseconds(100));
}

TEST(LogManagerTest, FlushModeWaitsForLatency) {
  LogOptions opts;
  opts.flush_on_commit = true;
  opts.flush_latency_us = 20000;  // 20ms.
  LogManager log(opts);
  LogRecord r;
  r.txn_id = 1;
  const auto start = std::chrono::steady_clock::now();
  const Lsn lsn = log.Append(r);
  log.WaitFlushed(lsn);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_GE(elapsed, std::chrono::milliseconds(15));
  EXPECT_GE(log.flush_batches(), 1u);
}

TEST(LogManagerTest, GroupCommitBatchesConcurrentCommitters) {
  // N threads appending concurrently should need far fewer flush batches
  // than N — the amortization that makes Fig 6.2 throughput climb with MPL.
  LogOptions opts;
  opts.flush_on_commit = true;
  opts.flush_latency_us = 10000;
  LogManager log(opts);
  constexpr int kThreads = 16;
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&log, i] {
      LogRecord r;
      r.txn_id = static_cast<TxnId>(i + 1);
      const Lsn lsn = log.Append(r);
      log.WaitFlushed(lsn);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(log.appended_records(), 16u);
  EXPECT_LE(log.flush_batches(), 8u);  // Batching happened.
}

TEST(LogManagerTest, RetainedRecordsDecodable) {
  LogOptions opts;
  LogManager log(opts);
  log.set_retain(true);
  LogRecord r;
  r.txn_id = 7;
  r.commit_ts = 9;
  r.redo.push_back(RedoEntry{0, "k", "p", false});
  log.Append(r);
  auto records = log.RetainedRecords();
  ASSERT_EQ(records.size(), 1u);
  LogRecord out;
  ASSERT_TRUE(LogRecord::Decode(records[0], &out).ok());
  EXPECT_EQ(out.txn_id, 7u);
}

// Eight threads append at once through a real WAL whose tiny segments
// force rotations in the middle of drains. Without fsync the appenders
// race for the writer role and drain the buffer themselves; with fsync
// the flusher drains. Either way the segments must hold every LSN exactly
// once, in LSN order, each frame decoding, and every flush subscription
// must fire exactly once, from a drain.
class ConcurrentAppendTest : public ::testing::TestWithParam<bool> {};

TEST_P(ConcurrentAppendTest, EveryLsnOnDiskOnceInOrder) {
  const bool fsync = GetParam();
  ScratchDir dir;
  LogOptions opts;
  opts.wal_dir = dir.path + "/wal";
  opts.flush_on_commit = true;
  opts.wal_fsync = fsync;
  opts.wal_segment_bytes = 256;  // About five frames per segment.
  constexpr int kThreads = 8;
  const int per_thread = fsync ? 40 : 250;
  const int total = kThreads * per_thread;
  // Indexed by LSN. Each slot is written by the one thread that got the
  // LSN and read after the threads are joined.
  std::vector<TxnId> txn_at(total + 1, 0);
  std::vector<std::atomic<int>> fired(total + 1);
  std::atomic<int> fired_total{0};
  std::atomic<int> ready{0};
  {
    LogManager log(opts);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        // Start together so appends overlap drains.
        ready.fetch_add(1);
        while (ready.load() < kThreads) std::this_thread::yield();
        for (int i = 0; i < per_thread; ++i) {
          LogRecord r;
          r.txn_id = static_cast<TxnId>(t * per_thread + i + 1);
          r.commit_ts = r.txn_id;
          r.redo.push_back(
              RedoEntry{1, "k" + std::to_string(r.txn_id), "v", false});
          const Lsn lsn = log.Append(r);
          if (lsn == 0 || lsn > static_cast<Lsn>(total)) {
            ADD_FAILURE() << "lsn out of range: " << lsn;
            continue;
          }
          txn_at[lsn] = r.txn_id;
          log.OnFlushed(lsn, [&fired, &fired_total, lsn](Status st) {
            EXPECT_TRUE(st.ok()) << st.ToString();
            fired[lsn].fetch_add(1);
            fired_total.fetch_add(1);
          });
        }
      });
    }
    for (auto& th : threads) th.join();
    // Drains fire the subscriptions, not shutdown: wait while the log is
    // still open.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (fired_total.load() < total &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_EQ(fired_total.load(), total);
    EXPECT_TRUE(log.io_status().ok());
    EXPECT_EQ(log.appended_records(), static_cast<uint64_t>(total));
  }
  for (int lsn = 1; lsn <= total; ++lsn) {
    EXPECT_EQ(fired[lsn].load(), 1) << "lsn " << lsn;
  }

  std::vector<std::string> segments;
  ASSERT_TRUE(recovery::ListWalSegments(opts.wal_dir, &segments).ok());
  EXPECT_GT(segments.size(), 10u);
  Lsn next = 1;
  for (const std::string& path : segments) {
    recovery::WalScanResult scan;
    ASSERT_TRUE(recovery::ScanWalSegment(path, &scan).ok());
    EXPECT_TRUE(scan.tail.ok()) << path << ": " << scan.tail.ToString();
    for (const LogRecord& r : scan.records) {
      ASSERT_LE(next, static_cast<Lsn>(total));
      EXPECT_EQ(r.txn_id, txn_at[next]) << "lsn " << next;
      EXPECT_EQ(r.commit_ts, r.txn_id);
      ++next;
    }
  }
  EXPECT_EQ(next, static_cast<Lsn>(total) + 1);
}

TEST(LogManagerTest, WriterRoleHolderDrainsFramesAddedMeanwhile) {
  // A frame appended while another drain holds the writer role is left
  // for that drain's loop. Deterministically: a flush callback fired by
  // the drain appends again on the same thread, which holds the role.
  ScratchDir dir;
  LogOptions opts;
  opts.wal_dir = dir.path + "/wal";
  opts.flush_on_commit = true;
  opts.wal_fsync = false;
  LogManager log(opts);
  LogRecord r;
  r.txn_id = 1;
  const Lsn first = log.Append(r);
  bool nested_flushed = false;
  log.OnFlushed(first + 1, [&](Status st) {
    EXPECT_TRUE(st.ok());
    const Lsn nested = log.Append(r);
    log.OnFlushed(nested, [&](Status st2) {
      EXPECT_TRUE(st2.ok());
      nested_flushed = true;
    });
    // The role is still held: the nested frame is not written yet.
    EXPECT_FALSE(nested_flushed);
  });
  EXPECT_EQ(log.Append(r), first + 1);
  // The drain that ran inside that Append looped until the buffer was
  // empty, nested frame included.
  EXPECT_TRUE(nested_flushed);
  EXPECT_EQ(log.flush_batches(), 3u);
}

INSTANTIATE_TEST_SUITE_P(Regimes, ConcurrentAppendTest, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? std::string("FlusherFsync")
                                             : std::string("InlineWriter");
                         });

TEST(LogIntegrationTest, CommitWritesOneRecordPerUpdateTxn) {
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open({}, &db).ok());
  TableId t = 0;
  ASSERT_TRUE(db->CreateTable("t", &t).ok());
  for (int i = 0; i < 3; ++i) {
    auto txn = db->Begin({IsolationLevel::kSnapshot});
    ASSERT_TRUE(txn->Put(t, "k" + std::to_string(i), "v").ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  EXPECT_EQ(Metric(db.get(), "log.records"), 3u);
}

TEST(LogIntegrationTest, ReadOnlyCommitAppendsNoRecord) {
  // Read-only transactions have nothing to redo: logging them would cost
  // a group-commit flush wait (a real fsync in durable mode) and
  // permanent WAL bytes for a no-op record.
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open({}, &db).ok());
  TableId t = 0;
  ASSERT_TRUE(db->CreateTable("t", &t).ok());
  {
    auto txn = db->Begin({IsolationLevel::kSnapshot});
    ASSERT_TRUE(txn->Put(t, "k", "v").ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  const uint64_t after_write = Metric(db.get(), "log.records");
  EXPECT_EQ(after_write, 1u);
  for (auto iso : {IsolationLevel::kSnapshot,
                   IsolationLevel::kSerializableSSI,
                   IsolationLevel::kSerializable2PL}) {
    auto txn = db->Begin({iso});
    std::string v;
    ASSERT_TRUE(txn->Get(t, "k", &v).ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  EXPECT_EQ(Metric(db.get(), "log.records"), after_write);
}

TEST(LogIntegrationTest, FlushOnCommitSlowsCommitsDown) {
  DBOptions opts;
  opts.log.flush_on_commit = true;
  opts.log.flush_latency_us = 10000;  // 10ms/commit when alone.
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(opts, &db).ok());
  TableId t = 0;
  ASSERT_TRUE(db->CreateTable("t", &t).ok());
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 3; ++i) {
    auto txn = db->Begin({IsolationLevel::kSnapshot});
    ASSERT_TRUE(txn->Put(t, "k", "v").ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_GE(elapsed, std::chrono::milliseconds(25));
}

TEST(LogIntegrationTest, EarlyLockReleaseShortensLockWaits) {
  // §4.4: InnoDB originally released locks *before* the commit flush,
  // shortening lock hold times by the flush latency. Measure how long a
  // conflicting writer waits for the lock under both orderings.
  auto measure_wait_ms = [](bool early_release) {
    DBOptions opts;
    opts.log.flush_on_commit = true;
    opts.log.flush_latency_us = 50000;  // 50ms.
    opts.log.early_lock_release = early_release;
    std::unique_ptr<DB> db;
    EXPECT_TRUE(DB::Open(opts, &db).ok());
    TableId t = 0;
    EXPECT_TRUE(db->CreateTable("t", &t).ok());
    {
      auto seed = db->Begin({IsolationLevel::kSnapshot});
      EXPECT_TRUE(seed->Put(t, "k", "0").ok());
      EXPECT_TRUE(seed->Commit().ok());
    }
    auto t1_txn = db->Begin({IsolationLevel::kSnapshot});
    EXPECT_TRUE(t1_txn->Put(t, "k", "1").ok());  // Holds the lock.
    std::thread committer([&t1_txn] { EXPECT_TRUE(t1_txn->Commit().ok()); });
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    auto txn2 = db->Begin({IsolationLevel::kSnapshot});
    const auto start = std::chrono::steady_clock::now();
    Status s = txn2->Put(t, "k", "2");  // Blocks until t1 releases.
    const double wait_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    EXPECT_TRUE(s.ok()) << s.ToString();
    EXPECT_TRUE(txn2->Commit().ok());
    committer.join();
    return wait_ms;
  };
  // Early release: the lock frees as soon as the commit record is
  // appended, long before the 50ms flush completes.
  EXPECT_LT(measure_wait_ms(true), 40.0);
  // Default ordering: the waiter sits out (most of) the flush.
  EXPECT_GT(measure_wait_ms(false), 30.0);
}

}  // namespace
}  // namespace ssidb
