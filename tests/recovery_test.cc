// Durability subsystem tests: WAL segment format, checkpoint images, and
// the crash-recovery kill-point matrix.
//
// The kill-point tests fork a child process that opens a DB on a WAL
// directory, commits transactions, reports each *acknowledged* commit to
// the parent over a pipe, and then dies by _exit — skipping every
// destructor, exactly like a crash: the flusher thread is torn down
// mid-flight and nothing past the last write() survives in the log. The
// parent then reopens the directory and asserts the recovery contract:
//   * every acknowledged flushed commit is present, atomically, with its
//     original commit timestamp;
//   * no unacknowledged write is visible;
//   * without flush_on_commit, the recovered state is a clean prefix of
//     the acknowledged sequence (group commit preserves append order).

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <initializer_list>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "src/common/encoding.h"
#include "src/db/db.h"
#include "src/db/session.h"
#include "src/io/env.h"
#include "src/recovery/checkpoint.h"
#include "src/recovery/recovery.h"
#include "src/recovery/wal.h"
#include "src/workloads/sibench.h"
#include "src/workloads/tpcc_workload.h"
#include "tests/test_util.h"

namespace ssidb {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Harness helpers.
// ---------------------------------------------------------------------------

/// A fresh scratch directory, removed on destruction.
struct TempDir {
  TempDir() {
    char tmpl[] = "/tmp/ssidb_recovery_XXXXXX";
    path = mkdtemp(tmpl);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string path;
};

DBOptions DurableOptions(const std::string& dir, bool flush_on_commit) {
  DBOptions opts;
  opts.log.wal_dir = dir;
  opts.log.flush_on_commit = flush_on_commit;
  return opts;
}

/// One acknowledgment from the child: a sequence number plus the commit
/// timestamp the engine assigned.
struct Ack {
  uint64_t seq = 0;
  uint64_t commit_ts = 0;
};

void SendAck(int fd, uint64_t seq, uint64_t commit_ts) {
  Ack a{seq, commit_ts};
  ssize_t n = write(fd, &a, sizeof(a));
  if (n != sizeof(a)) _exit(3);
}

struct ChildRun {
  std::vector<Ack> acks;
  int exit_code = -1;
};

/// Fork, run `body(ack_fd)` in the child (which must end in _exit), and
/// collect the acks the child streamed before dying.
ChildRun RunCrashingChild(const std::function<void(int)>& body) {
  int fds[2];
  EXPECT_EQ(pipe(fds), 0);
  fflush(nullptr);  // Do not duplicate buffered test output into the child.
  const pid_t pid = fork();
  EXPECT_GE(pid, 0);
  if (pid == 0) {
    close(fds[0]);
    body(fds[1]);
    _exit(0);
  }
  close(fds[1]);
  ChildRun run;
  Ack a;
  for (;;) {
    const ssize_t n = read(fds[0], &a, sizeof(a));
    if (n != sizeof(a)) break;
    run.acks.push_back(a);
  }
  close(fds[0]);
  int wstatus = 0;
  waitpid(pid, &wstatus, 0);
  run.exit_code = WIFEXITED(wstatus) ? WEXITSTATUS(wstatus) : -1;
  return run;
}

/// Keys written by kill-point transaction `seq`.
std::string TxnKey(uint64_t seq, int j) {
  return "txn" + std::to_string(seq) + ":k" + std::to_string(j);
}
std::string TxnValue(uint64_t seq, int j) {
  return "value-" + std::to_string(seq) + "-" + std::to_string(j);
}
constexpr int kKeysPerTxn = 3;

/// The child body shared by the kill-point tests: open the DB, commit
/// `txns` transactions of kKeysPerTxn keys each, ack each one, then start
/// one more transaction, write through it, and crash without committing.
void CommitterChild(const std::string& dir, bool flush_on_commit,
                    uint64_t txns, int ack_fd) {
  std::unique_ptr<DB> db;
  if (!DB::Open(DurableOptions(dir, flush_on_commit), &db).ok()) _exit(2);
  TableId t = 0;
  if (!db->CreateTable("kill", &t).ok()) _exit(2);
  for (uint64_t i = 1; i <= txns; ++i) {
    auto txn = db->Begin({IsolationLevel::kSerializableSSI});
    for (int j = 0; j < kKeysPerTxn; ++j) {
      if (!txn->Put(t, TxnKey(i, j), TxnValue(i, j)).ok()) _exit(2);
    }
    if (!txn->Commit().ok()) _exit(2);
    SendAck(ack_fd, i, txn->commit_ts());
  }
  // An unacknowledged, uncommitted transaction: must never be recovered.
  auto orphan = db->Begin({IsolationLevel::kSerializableSSI});
  for (int j = 0; j < kKeysPerTxn; ++j) {
    orphan->Put(t, TxnKey(txns + 1, j), TxnValue(txns + 1, j));
  }
  db.release();  // Crash: no destructors, no final flush.
  _exit(0);
}

/// Which of transactions 1..max_seq are fully present after recovery, and
/// assert per-transaction atomicity (all keys or none) and value fidelity.
std::vector<uint64_t> PresentTxns(DB* db, TableId t, uint64_t max_seq) {
  std::vector<uint64_t> present;
  auto txn = db->Begin({IsolationLevel::kSnapshot});
  for (uint64_t i = 1; i <= max_seq; ++i) {
    int found = 0;
    for (int j = 0; j < kKeysPerTxn; ++j) {
      std::string v;
      Status st = txn->Get(t, TxnKey(i, j), &v);
      if (st.ok()) {
        EXPECT_EQ(v, TxnValue(i, j));
        ++found;
      }
    }
    EXPECT_TRUE(found == 0 || found == kKeysPerTxn)
        << "transaction " << i << " recovered partially (" << found << "/"
        << kKeysPerTxn << " keys)";
    if (found == kKeysPerTxn) present.push_back(i);
  }
  EXPECT_TRUE(txn->Commit().ok());
  return present;
}

/// (name, size) of every file in `dir` — for asserting recovery writes
/// nothing.
std::map<std::string, uintmax_t> DirContents(const std::string& dir) {
  std::map<std::string, uintmax_t> out;
  for (const auto& entry : fs::directory_iterator(dir)) {
    out[entry.path().filename().string()] = fs::file_size(entry.path());
  }
  return out;
}

// ---------------------------------------------------------------------------
// WAL segment format.
// ---------------------------------------------------------------------------

LogRecord MakeCommitRecord(uint64_t seq) {
  LogRecord r;
  r.txn_id = seq;
  r.commit_ts = seq + 1000;
  r.redo.push_back(
      RedoEntry{0, "key" + std::to_string(seq), "val" + std::to_string(seq),
                false});
  return r;
}

recovery::WalBatch BatchOf(std::initializer_list<LogRecord> records) {
  recovery::WalBatch batch;
  for (const LogRecord& r : records) batch.Add(r);
  return batch;
}

TEST(WalTest, WriterReaderRoundTripWithRotation) {
  TempDir dir;
  const std::string wal = dir.path + "/wal";
  {
    recovery::WalWriter writer(wal, /*segment_bytes=*/128, /*fsync=*/false);
    recovery::WalBatch batch;
    for (uint64_t i = 1; i <= 20; ++i) batch.Add(MakeCommitRecord(i));
    ASSERT_TRUE(writer.AppendBatch(batch).ok());
    EXPECT_GT(writer.segments_created(), 1u);  // 128-byte segments rotate.
  }
  std::vector<std::string> segments;
  ASSERT_TRUE(recovery::ListWalSegments(wal, &segments).ok());
  ASSERT_GT(segments.size(), 1u);
  uint64_t next = 1;
  for (const std::string& path : segments) {
    recovery::WalScanResult scan;
    ASSERT_TRUE(recovery::ScanWalSegment(path, &scan).ok());
    EXPECT_TRUE(scan.tail.ok()) << scan.tail.ToString();
    for (const LogRecord& r : scan.records) {
      EXPECT_EQ(r.txn_id, next);
      EXPECT_EQ(r.commit_ts, next + 1000);
      ++next;
    }
  }
  EXPECT_EQ(next, 21u);  // All 20 records, in order, across segments.
}

/// Counts the write() calls that reach the filesystem.
class CountingWritesEnv : public io::Env {
 public:
  ssize_t Write(int fd, const void* buf, size_t count) override {
    ++writes;
    return io::Env::Write(fd, buf, count);
  }
  int writes = 0;
};

TEST(WalTest, OneWritePerSegmentRun) {
  TempDir dir;
  recovery::WalBatch batch;
  for (uint64_t i = 1; i <= 20; ++i) batch.Add(MakeCommitRecord(i));
  {
    // Everything fits one segment: the whole batch is one write.
    CountingWritesEnv env;
    recovery::WalWriter writer(dir.path + "/big", 1 << 20, false, &env);
    ASSERT_TRUE(writer.AppendBatch(batch).ok());
    EXPECT_EQ(env.writes, 1);
  }
  {
    // Rotation splits the batch at frame boundaries, one write per
    // segment it touches.
    CountingWritesEnv env;
    recovery::WalWriter writer(dir.path + "/small", 128, false, &env);
    ASSERT_TRUE(writer.AppendBatch(batch).ok());
    EXPECT_GT(writer.segments_created(), 1u);
    EXPECT_EQ(static_cast<uint64_t>(env.writes), writer.segments_created());
    EXPECT_EQ(writer.bytes_written(), batch.bytes.size());
  }
}

TEST(WalTest, NewWriterNeverAppendsToExistingSegments) {
  TempDir dir;
  const std::string wal = dir.path + "/wal";
  {
    recovery::WalWriter writer(wal, 1 << 20, false);
    ASSERT_TRUE(writer.AppendBatch(BatchOf({MakeCommitRecord(1)})).ok());
  }
  {
    recovery::WalWriter writer(wal, 1 << 20, false);
    ASSERT_TRUE(writer.AppendBatch(BatchOf({MakeCommitRecord(2)})).ok());
  }
  std::vector<std::string> segments;
  ASSERT_TRUE(recovery::ListWalSegments(wal, &segments).ok());
  // Each writer opened a fresh segment: a possibly-torn pre-crash tail is
  // never buried mid-segment.
  EXPECT_EQ(segments.size(), 2u);
}

TEST(WalTest, TornTailStopsScanCleanly) {
  TempDir dir;
  const std::string wal = dir.path + "/wal";
  {
    recovery::WalWriter writer(wal, 1 << 20, false);
    ASSERT_TRUE(
        writer.AppendBatch(BatchOf({MakeCommitRecord(1), MakeCommitRecord(2)}))
            .ok());
  }
  std::vector<std::string> segments;
  ASSERT_TRUE(recovery::ListWalSegments(wal, &segments).ok());
  ASSERT_EQ(segments.size(), 1u);
  // Tear the final record: drop its last byte.
  const uintmax_t size = fs::file_size(segments[0]);
  fs::resize_file(segments[0], size - 1);
  recovery::WalScanResult scan;
  ASSERT_TRUE(recovery::ScanWalSegment(segments[0], &scan).ok());
  ASSERT_EQ(scan.records.size(), 1u);  // The complete prefix survives.
  EXPECT_EQ(scan.records[0].txn_id, 1u);
  EXPECT_TRUE(scan.tail.IsTruncated()) << scan.tail.ToString();
}

// ---------------------------------------------------------------------------
// Checkpoint images.
// ---------------------------------------------------------------------------

TEST(CheckpointTest, WriteLoadRoundTrip) {
  TempDir dir;
  Catalog catalog;
  TableId accounts = 0, audit = 0;
  ASSERT_TRUE(catalog.CreateTable("accounts", &accounts).ok());
  ASSERT_TRUE(catalog.CreateTable("audit", &audit).ok());
  catalog.table(accounts)->RecoverVersion("alice", "100", false, 5);
  catalog.table(accounts)->RecoverVersion("bob", "200", false, 7);
  // A tombstone at the watermark: the key is omitted from the image.
  catalog.table(accounts)->RecoverVersion("carol", "", true, 8);
  // Committed after the watermark: invisible to the sweep.
  catalog.table(audit)->RecoverVersion("evt1", "late", false, 50);

  ASSERT_TRUE(recovery::WriteCheckpoint(catalog, /*watermark=*/10,
                                        /*prev_watermark=*/0, dir.path, false)
                  .ok());

  recovery::CheckpointData data;
  bool found = false;
  ASSERT_TRUE(
      recovery::LoadLatestCheckpoint(dir.path, &data, &found).ok());
  ASSERT_TRUE(found);
  EXPECT_EQ(data.watermark, 10u);
  ASSERT_EQ(data.tables.size(), 2u);
  EXPECT_EQ(data.tables[0].name, "accounts");
  ASSERT_EQ(data.tables[0].entries.size(), 2u);  // carol's tombstone omitted
  EXPECT_EQ(data.tables[0].entries[0].key, "alice");
  EXPECT_EQ(data.tables[0].entries[0].value, "100");
  EXPECT_EQ(data.tables[0].entries[0].commit_ts, 5u);
  EXPECT_EQ(data.tables[1].name, "audit");
  EXPECT_TRUE(data.tables[1].entries.empty());  // ts 50 > watermark 10
}

TEST(CheckpointTest, DamagedNewerImageFallsBackToOlderValid) {
  TempDir dir;
  Catalog catalog;
  TableId t = 0;
  ASSERT_TRUE(catalog.CreateTable("t", &t).ok());
  catalog.table(t)->RecoverVersion("k", "v", false, 3);
  ASSERT_TRUE(recovery::WriteCheckpoint(catalog, 5, 0, dir.path, false).ok());

  // A "newer" checkpoint that a crash cut short: a valid prefix with no
  // footer, plus an abandoned .tmp. Neither may be trusted.
  const std::string valid =
      dir.path + "/" + recovery::CheckpointFileName(5);
  std::string prefix;
  {
    FILE* f = fopen(valid.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    char buf[4096];
    const size_t n = fread(buf, 1, sizeof(buf), f);
    fclose(f);
    prefix.assign(buf, n / 2);
  }
  const std::string torn =
      dir.path + "/" + recovery::CheckpointFileName(99);
  {
    FILE* f = fopen(torn.c_str(), "wb");
    fwrite(prefix.data(), 1, prefix.size(), f);
    fclose(f);
  }
  {
    FILE* f = fopen((torn + ".tmp").c_str(), "wb");
    fwrite(prefix.data(), 1, prefix.size(), f);
    fclose(f);
  }

  recovery::CheckpointData data;
  bool found = false;
  ASSERT_TRUE(
      recovery::LoadLatestCheckpoint(dir.path, &data, &found).ok());
  ASSERT_TRUE(found);
  EXPECT_EQ(data.watermark, 5u);  // The torn watermark-99 image was skipped.
}

// ---------------------------------------------------------------------------
// End-to-end recovery through DB::Open.
// ---------------------------------------------------------------------------

TEST(RecoveryTest, CleanCloseReopenRestoresEverything) {
  TempDir dir;
  Timestamp cts_alice = 0;
  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(
        DB::Open(DurableOptions(dir.path, /*flush=*/false), &db).ok());
    TableId t = 0;
    ASSERT_TRUE(db->CreateTable("t", &t).ok());
    auto txn = db->Begin();
    ASSERT_TRUE(txn->Put(t, "alice", "1").ok());
    ASSERT_TRUE(txn->Commit().ok());
    cts_alice = txn->commit_ts();
    auto txn2 = db->Begin();
    ASSERT_TRUE(txn2->Put(t, "bob", "2").ok());
    ASSERT_TRUE(txn2->Delete(t, "alice").ok());
    ASSERT_TRUE(txn2->Commit().ok());
    // Clean close: the LogManager destructor drains the pending batches.
  }
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(DurableOptions(dir.path, false), &db).ok());
  TableId t = 0;
  ASSERT_TRUE(db->FindTable("t", &t).ok());
  auto txn = db->Begin();
  std::string v;
  EXPECT_TRUE(txn->Get(t, "bob", &v).ok());
  EXPECT_EQ(v, "2");
  EXPECT_TRUE(txn->Get(t, "alice", &v).IsNotFound());  // Tombstone replayed.
  EXPECT_TRUE(txn->Commit().ok());
  // Original commit timestamps survive in the version chains.
  Timestamp cts = 0;
  bool tombstone = false;
  ASSERT_TRUE(
      db->table(t)->Find("alice")->LatestCommitted(&cts, &tombstone));
  EXPECT_TRUE(tombstone);
  EXPECT_GT(cts, cts_alice);
}

/// WAL replay installs each replayed update of a key in commit order, but
/// after Open every snapshot is at or past the recovered maximum, so none
/// but the newest is reachable: recovery keeps one version per key by
/// itself, with no prune to wait for.
TEST(RecoveryTest, ReplayKeepsOneVersionPerKey) {
  TempDir dir;
  constexpr int kUpdates = 8;
  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(DurableOptions(dir.path, false), &db).ok());
    TableId t = 0;
    ASSERT_TRUE(db->CreateTable("t", &t).ok());
    auto first = db->Begin();
    ASSERT_TRUE(first->Put(t, "k", "base").ok());
    ASSERT_TRUE(first->Commit().ok());
    ASSERT_TRUE(db->Checkpoint().ok());
    for (int i = 0; i < kUpdates; ++i) {
      auto txn = db->Begin();
      ASSERT_TRUE(txn->Put(t, "k", std::to_string(i)).ok());
      ASSERT_TRUE(txn->Commit().ok());
    }
  }
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(DurableOptions(dir.path, false), &db).ok());
  EXPECT_TRUE(db->recovery_stats().used_checkpoint);
  EXPECT_EQ(db->recovery_stats().commit_records_applied,
            static_cast<uint64_t>(kUpdates));
  TableId t = 0;
  ASSERT_TRUE(db->FindTable("t", &t).ok());
  EXPECT_EQ(db->table(t)->Find("k")->size(), 1u);
  auto txn = db->Begin();
  std::string v;
  ASSERT_TRUE(txn->Get(t, "k", &v).ok());
  EXPECT_EQ(v, std::to_string(kUpdates - 1));
  EXPECT_TRUE(txn->Commit().ok());
}

TEST(RecoveryTest, KillAfterFlushedCommitsRecoversAcknowledgedExactly) {
  TempDir dir;
  constexpr uint64_t kTxns = 25;
  ChildRun run = RunCrashingChild([&](int ack_fd) {
    CommitterChild(dir.path, /*flush_on_commit=*/true, kTxns, ack_fd);
  });
  ASSERT_EQ(run.exit_code, 0);
  ASSERT_EQ(run.acks.size(), kTxns);

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(DurableOptions(dir.path, true), &db).ok());
  TableId t = 0;
  ASSERT_TRUE(db->FindTable("kill", &t).ok());
  // Every acknowledged commit is present (flush_on_commit: the ack implies
  // the record was fsynced); the orphan transaction is not.
  const std::vector<uint64_t> present =
      PresentTxns(db.get(), t, kTxns + 1);
  ASSERT_EQ(present.size(), kTxns);
  for (uint64_t i = 0; i < kTxns; ++i) EXPECT_EQ(present[i], i + 1);
  // Original commit timestamps survive recovery.
  for (const Ack& a : run.acks) {
    Timestamp cts = 0;
    ASSERT_TRUE(db->table(t)
                    ->Find(TxnKey(a.seq, 0))
                    ->LatestCommitted(&cts, nullptr));
    EXPECT_EQ(cts, a.commit_ts) << "txn " << a.seq;
  }
  // New transactions draw timestamps above every recovered commit.
  auto txn = db->Begin();
  ASSERT_TRUE(txn->Put(t, "post", "1").ok());
  ASSERT_TRUE(txn->Commit().ok());
  EXPECT_GT(txn->commit_ts(), run.acks.back().commit_ts);
}

TEST(RecoveryTest, KillBeforeFlushRecoversCleanPrefix) {
  TempDir dir;
  constexpr uint64_t kTxns = 40;
  ChildRun run = RunCrashingChild([&](int ack_fd) {
    CommitterChild(dir.path, /*flush_on_commit=*/false, kTxns, ack_fd);
  });
  ASSERT_EQ(run.exit_code, 0);
  ASSERT_EQ(run.acks.size(), kTxns);

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(DurableOptions(dir.path, false), &db).ok());
  TableId t = 0;
  // Without flush_on_commit the tail may be lost — but what survives must
  // be a gap-free prefix of the acknowledged sequence, each transaction
  // atomic. (The table itself may be lost if the crash beat the flusher.)
  if (db->FindTable("kill", &t).IsNotFound()) return;
  const std::vector<uint64_t> present =
      PresentTxns(db.get(), t, kTxns + 1);
  EXPECT_LE(present.size(), kTxns);
  for (size_t i = 0; i < present.size(); ++i) {
    EXPECT_EQ(present[i], i + 1) << "recovered set is not a prefix";
  }
}

TEST(RecoveryTest, TornFinalRecordLosesOnlyTheLastCommit) {
  TempDir dir;
  constexpr uint64_t kTxns = 8;
  ChildRun run = RunCrashingChild([&](int ack_fd) {
    CommitterChild(dir.path, true, kTxns, ack_fd);
  });
  ASSERT_EQ(run.exit_code, 0);
  // Tear the final record of the newest segment, as a crash mid-write
  // would.
  std::vector<std::string> segments;
  ASSERT_TRUE(recovery::ListWalSegments(dir.path, &segments).ok());
  ASSERT_FALSE(segments.empty());
  const std::string& last = segments.back();
  fs::resize_file(last, fs::file_size(last) - 3);

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(DurableOptions(dir.path, true), &db).ok());
  EXPECT_TRUE(db->recovery_stats().torn_tail);
  TableId t = 0;
  ASSERT_TRUE(db->FindTable("kill", &t).ok());
  const std::vector<uint64_t> present =
      PresentTxns(db.get(), t, kTxns + 1);
  // Exactly the acknowledged prefix minus the single torn record.
  ASSERT_EQ(present.size(), kTxns - 1);
  for (size_t i = 0; i < present.size(); ++i) EXPECT_EQ(present[i], i + 1);
}

TEST(RecoveryTest, TornTailIsRepairedSoLaterSessionsStillOpen) {
  // The session after a crash tolerates the torn tail; because recovery
  // truncates it, the session after THAT (whose newest segment is now a
  // later one) must not find the tear mid-log and refuse to open.
  TempDir dir;
  constexpr uint64_t kTxns = 6;
  ChildRun run = RunCrashingChild([&](int ack_fd) {
    CommitterChild(dir.path, true, kTxns, ack_fd);
  });
  ASSERT_EQ(run.exit_code, 0);
  std::vector<std::string> segments;
  ASSERT_TRUE(recovery::ListWalSegments(dir.path, &segments).ok());
  const std::string& first_log = segments.back();
  fs::resize_file(first_log, fs::file_size(first_log) - 3);  // The tear.

  // Session 2: opens past the tear, writes (a new segment), closes clean.
  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(DurableOptions(dir.path, true), &db).ok());
    EXPECT_TRUE(db->recovery_stats().torn_tail);
    TableId t = 0;
    ASSERT_TRUE(db->FindTable("kill", &t).ok());
    auto txn = db->Begin();
    ASSERT_TRUE(txn->Put(t, "session2", "alive").ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  // Session 3: the once-torn segment is no longer the newest; it must
  // scan clean (repaired), not fail as mid-log corruption.
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(DurableOptions(dir.path, true), &db).ok());
  EXPECT_FALSE(db->recovery_stats().torn_tail);
  TableId t = 0;
  ASSERT_TRUE(db->FindTable("kill", &t).ok());
  EXPECT_EQ(PresentTxns(db.get(), t, kTxns).size(), kTxns - 1);
  auto txn = db->Begin({IsolationLevel::kSnapshot});
  std::string v;
  EXPECT_TRUE(txn->Get(t, "session2", &v).ok());
  EXPECT_EQ(v, "alive");
  EXPECT_TRUE(txn->Commit().ok());
}

TEST(RecoveryTest, CheckpointGarbageCollectsCoveredSegments) {
  TempDir dir;
  DBOptions opts = DurableOptions(dir.path, true);
  opts.log.wal_segment_bytes = 96;  // Tiny: force many segments.
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(opts, &db).ok());
  TableId t = 0;
  ASSERT_TRUE(db->CreateTable("t", &t).ok());
  for (int i = 0; i < 30; ++i) {
    auto txn = db->Begin();
    ASSERT_TRUE(txn->Put(t, "k" + std::to_string(i), "v").ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  std::vector<std::string> before;
  ASSERT_TRUE(recovery::ListWalSegments(dir.path, &before).ok());
  ASSERT_GT(before.size(), 3u);
  const uint64_t scans_before = recovery::ScanWalSegmentCalls();
  ASSERT_TRUE(db->Checkpoint().ok());
  // Metadata-driven GC: coverage was decided from per-segment counters,
  // never by re-reading a segment from disk.
  EXPECT_EQ(recovery::ScanWalSegmentCalls(), scans_before);
  std::vector<std::string> after;
  ASSERT_TRUE(recovery::ListWalSegments(dir.path, &after).ok());
  // Every sealed segment is covered by the base image — including the
  // first one, whose table-create record binds an id the image captured
  // (the create-watermark rule). Only the flusher's live (highest)
  // segment survives.
  EXPECT_LT(after.size(), before.size());
  ASSERT_EQ(after.size(), 1u);
  uint64_t remaining_seq = 0;
  ASSERT_TRUE(recovery::ParseWalSegmentSeq(after[0], &remaining_seq));
  EXPECT_GT(remaining_seq, 1u);  // Segment 1 (the create) was reclaimed.
  EXPECT_GT(Metric(db.get(), "wal.segments_deleted"), 0u);
  db.reset();

  // The pruned directory still recovers everything.
  std::unique_ptr<DB> reopened;
  ASSERT_TRUE(DB::Open(DurableOptions(dir.path, true), &reopened).ok());
  EXPECT_TRUE(reopened->recovery_stats().used_checkpoint);
  ASSERT_TRUE(reopened->FindTable("t", &t).ok());
  auto txn = reopened->Begin({IsolationLevel::kSnapshot});
  std::string v;
  for (int i = 0; i < 30; ++i) {
    EXPECT_TRUE(txn->Get(t, "k" + std::to_string(i), &v).ok()) << i;
  }
  EXPECT_TRUE(txn->Commit().ok());
}

TEST(WalTest, SegmentMetadataTracksCommitsAndCreates) {
  TempDir dir;
  const std::string wal = dir.path + "/wal";
  recovery::WalWriter writer(wal, /*segment_bytes=*/128, /*fsync=*/false);
  LogRecord create;
  create.type = LogRecordType::kTableCreate;
  create.redo.push_back(RedoEntry{3, "orders", "", false});
  recovery::WalBatch batch;
  batch.Add(create);
  for (uint64_t i = 1; i <= 10; ++i) batch.Add(MakeCommitRecord(i));
  ASSERT_TRUE(writer.AppendBatch(batch).ok());
  const auto meta = writer.SegmentMetadata();
  ASSERT_GT(meta.size(), 1u);  // 128-byte segments rotate.
  uint64_t records = 0;
  Timestamp max_cts = 0, min_cts = 0;
  bool create_seen = false;
  uint32_t max_created_id = 0;
  for (const auto& [seq, m] : meta) {
    EXPECT_EQ(m.seq, seq);
    records += m.record_count;
    if (m.max_commit_ts > max_cts) max_cts = m.max_commit_ts;
    if (m.min_commit_ts != 0 &&
        (min_cts == 0 || m.min_commit_ts < min_cts)) {
      min_cts = m.min_commit_ts;
    }
    if (m.has_table_create) {
      create_seen = true;
      if (m.max_table_id_created > max_created_id) {
        max_created_id = m.max_table_id_created;
      }
    }
  }
  EXPECT_EQ(records, 11u);
  EXPECT_EQ(min_cts, 1001u);  // MakeCommitRecord(i) commits at i + 1000.
  EXPECT_EQ(max_cts, 1010u);
  EXPECT_TRUE(create_seen);
  EXPECT_EQ(max_created_id, 3u);
}

TEST(CheckpointTest, DeltaRoundTripChainsOffBaseWithTombstones) {
  TempDir dir;
  Catalog catalog;
  TableId t = 0;
  ASSERT_TRUE(catalog.CreateTable("t", &t).ok());
  catalog.table(t)->RecoverVersion("a", "1", false, 5);
  catalog.table(t)->RecoverVersion("c", "x", false, 4);
  // Base at watermark 10 captures a@5 and c@4.
  ASSERT_TRUE(recovery::WriteCheckpoint(catalog, 10, 0, dir.path, false).ok());
  // Window (10, 20]: b inserted, c deleted; a untouched.
  catalog.table(t)->RecoverVersion("b", "2", false, 12);
  catalog.table(t)->RecoverVersion("c", "", true, 13);
  recovery::CheckpointWriteResult res;
  ASSERT_TRUE(
      recovery::WriteCheckpoint(catalog, 20, /*prev=*/10, dir.path, false,
                                &res)
          .ok());
  EXPECT_EQ(res.entries, 2u);  // b + c's tombstone; a is in the base cut.

  recovery::LoadedCheckpointChain chain;
  bool found = false;
  ASSERT_TRUE(recovery::LoadCheckpointChain(dir.path, &chain, &found).ok());
  ASSERT_TRUE(found);
  EXPECT_EQ(chain.base.watermark, 10u);
  ASSERT_EQ(chain.deltas.size(), 1u);
  EXPECT_EQ(chain.tip, 20u);
  EXPECT_FALSE(chain.truncated);
  const recovery::CheckpointData& delta = chain.deltas[0];
  EXPECT_EQ(delta.prev_watermark, 10u);
  ASSERT_EQ(delta.tables.size(), 1u);
  ASSERT_EQ(delta.tables[0].entries.size(), 2u);
  EXPECT_EQ(delta.tables[0].entries[0].key, "b");
  EXPECT_EQ(delta.tables[0].entries[0].value, "2");
  EXPECT_FALSE(delta.tables[0].entries[0].tombstone);
  EXPECT_EQ(delta.tables[0].entries[1].key, "c");
  EXPECT_TRUE(delta.tables[0].entries[1].tombstone);
  EXPECT_EQ(delta.tables[0].entries[1].commit_ts, 13u);
}

TEST(RecoveryTest, DeltaCheckpointIsIncrementalAndGcScanFree) {
  TempDir dir;
  constexpr int kKeys = 1200;
  constexpr int kTouched = 9;
  DBOptions opts = DurableOptions(dir.path, /*flush=*/false);
  opts.log.checkpoint_max_deltas = 8;
  uint64_t base_bytes = 0, delta_bytes = 0;
  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(opts, &db).ok());
    TableId t = 0;
    ASSERT_TRUE(db->CreateTable("t", &t).ok());
    const std::string pad(48, 'v');
    for (int i = 0; i < kKeys; i += 100) {
      auto txn = db->Begin();
      for (int j = i; j < i + 100; ++j) {
        ASSERT_TRUE(txn->Put(t, "key" + std::to_string(j), pad).ok());
      }
      ASSERT_TRUE(txn->Commit().ok());
    }
    const uint64_t scans_before = recovery::ScanWalSegmentCalls();
    ASSERT_TRUE(db->Checkpoint().ok());  // First image: a full base, O(N).
    base_bytes = Metric(db.get(), "ckpt.bytes_written");
    auto touch = db->Begin();
    for (int j = 0; j < kTouched; ++j) {
      ASSERT_TRUE(
          touch->Put(t, "key" + std::to_string(j), "updated").ok());
    }
    ASSERT_TRUE(touch->Commit().ok());
    ASSERT_TRUE(db->Checkpoint().ok());  // Second image: a delta, O(k).
    delta_bytes = Metric(db.get(), "ckpt.bytes_written") - base_bytes;
    // Incrementality, demonstrated: the delta after touching k of N keys
    // is a small fraction of the base sweep.
    EXPECT_GT(delta_bytes, 0u);
    EXPECT_LT(delta_bytes * 20, base_bytes);
    // O(1) GC: no ScanWalSegment re-read happened in either checkpoint.
    EXPECT_EQ(recovery::ScanWalSegmentCalls(), scans_before);
    EXPECT_EQ(Metric(db.get(), "ckpt.taken"), 2u);
    EXPECT_EQ(Metric(db.get(), "ckpt.bytes_written"),
              base_bytes + delta_bytes);
    // A checkpoint with nothing new is a no-op, not an empty delta.
    ASSERT_TRUE(db->Checkpoint().ok());
    EXPECT_EQ(Metric(db.get(), "ckpt.taken"), 2u);
  }
  // The delta file exists on disk alongside the base.
  bool saw_delta = false;
  for (const auto& entry : fs::directory_iterator(dir.path)) {
    Timestamp prev = 0, wm = 0;
    if (recovery::ParseDeltaCheckpointFileName(
            entry.path().filename().string(), &prev, &wm)) {
      saw_delta = true;
      EXPECT_GT(prev, 0u);
      EXPECT_GT(wm, prev);
    }
  }
  EXPECT_TRUE(saw_delta);

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(opts, &db).ok());
  EXPECT_TRUE(db->recovery_stats().used_checkpoint);
  EXPECT_EQ(db->recovery_stats().delta_links_applied, 1u);
  EXPECT_GT(db->recovery_stats().base_watermark, 0u);
  EXPECT_GT(db->recovery_stats().checkpoint_ts,
            db->recovery_stats().base_watermark);
  TableId t = 0;
  ASSERT_TRUE(db->FindTable("t", &t).ok());
  auto txn = db->Begin({IsolationLevel::kSnapshot});
  std::string v;
  for (int j = 0; j < kKeys; ++j) {
    ASSERT_TRUE(txn->Get(t, "key" + std::to_string(j), &v).ok()) << j;
    EXPECT_EQ(v, j < kTouched ? "updated" : std::string(48, 'v')) << j;
  }
  EXPECT_TRUE(txn->Commit().ok());
}

TEST(RecoveryTest, DeltaChainCompactsIntoFreshBase) {
  TempDir dir;
  DBOptions opts = DurableOptions(dir.path, false);
  opts.log.checkpoint_max_deltas = 2;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(opts, &db).ok());
  TableId t = 0;
  ASSERT_TRUE(db->CreateTable("t", &t).ok());
  const auto commit_one = [&](const std::string& key) {
    auto txn = db->Begin();
    ASSERT_TRUE(txn->Put(t, key, "v").ok());
    ASSERT_TRUE(txn->Commit().ok());
  };
  // base, delta, delta, then the chain is full: the 4th image compacts.
  for (int i = 0; i < 4; ++i) {
    commit_one("k" + std::to_string(i));
    ASSERT_TRUE(db->Checkpoint().ok());
  }
  EXPECT_EQ(Metric(db.get(), "ckpt.taken"), 4u);
  size_t bases = 0, deltas = 0;
  for (const auto& entry : fs::directory_iterator(dir.path)) {
    const std::string name = entry.path().filename().string();
    Timestamp a = 0, b = 0;
    if (recovery::ParseDeltaCheckpointFileName(name, &a, &b)) {
      ++deltas;
    } else if (name.rfind("checkpoint-", 0) == 0 &&
               name.find(".ckpt") != std::string::npos &&
               name.find(".tmp") == std::string::npos) {
      ++bases;
    }
  }
  // Compaction superseded the old base and its whole delta chain.
  EXPECT_EQ(bases, 1u);
  EXPECT_EQ(deltas, 0u);
  db.reset();
  std::unique_ptr<DB> reopened;
  ASSERT_TRUE(DB::Open(opts, &reopened).ok());
  EXPECT_TRUE(reopened->recovery_stats().used_checkpoint);
  EXPECT_EQ(reopened->recovery_stats().delta_links_applied, 0u);
  ASSERT_TRUE(reopened->FindTable("t", &t).ok());
  auto txn = reopened->Begin({IsolationLevel::kSnapshot});
  std::string v;
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(txn->Get(t, "k" + std::to_string(i), &v).ok()) << i;
  }
  EXPECT_TRUE(txn->Commit().ok());
}

TEST(RecoveryTest, CrashBetweenBaseAndDeltaRecoversBasePlusWal) {
  TempDir dir;
  constexpr uint64_t kTxns = 12;
  ChildRun run = RunCrashingChild([&](int ack_fd) {
    std::unique_ptr<DB> db;
    DBOptions opts = DurableOptions(dir.path, true);
    opts.log.checkpoint_max_deltas = 8;
    if (!DB::Open(opts, &db).ok()) _exit(2);
    TableId t = 0;
    if (!db->CreateTable("kill", &t).ok()) _exit(2);
    for (uint64_t i = 1; i <= kTxns; ++i) {
      auto txn = db->Begin();
      for (int j = 0; j < kKeysPerTxn; ++j) {
        if (!txn->Put(t, TxnKey(i, j), TxnValue(i, j)).ok()) _exit(2);
      }
      if (!txn->Commit().ok()) _exit(2);
      SendAck(ack_fd, i, txn->commit_ts());
      if (i == kTxns / 2) {
        if (!db->Checkpoint().ok()) _exit(2);  // The base image.
      }
    }
    db.release();  // Crash before any delta is written.
    _exit(0);
  });
  ASSERT_EQ(run.exit_code, 0);

  DBOptions opts = DurableOptions(dir.path, true);
  opts.log.checkpoint_max_deltas = 8;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(opts, &db).ok());
  EXPECT_TRUE(db->recovery_stats().used_checkpoint);
  EXPECT_EQ(db->recovery_stats().delta_links_applied, 0u);
  EXPECT_EQ(db->recovery_stats().checkpoint_ts,
            db->recovery_stats().base_watermark);
  TableId t = 0;
  ASSERT_TRUE(db->FindTable("kill", &t).ok());
  // Base covers the first half; WAL replay past it restores the rest.
  ASSERT_EQ(PresentTxns(db.get(), t, kTxns + 1).size(), kTxns);
}

TEST(RecoveryTest, KillMidDeltaWriteFallsBackToBasePlusWal) {
  TempDir dir;
  constexpr uint64_t kTxns = 16;
  ChildRun run = RunCrashingChild([&](int ack_fd) {
    std::unique_ptr<DB> db;
    DBOptions opts = DurableOptions(dir.path, true);
    opts.log.checkpoint_max_deltas = 8;
    if (!DB::Open(opts, &db).ok()) _exit(2);
    TableId t = 0;
    if (!db->CreateTable("kill", &t).ok()) _exit(2);
    for (uint64_t i = 1; i <= kTxns; ++i) {
      auto txn = db->Begin();
      for (int j = 0; j < kKeysPerTxn; ++j) {
        if (!txn->Put(t, TxnKey(i, j), TxnValue(i, j)).ok()) _exit(2);
      }
      if (!txn->Commit().ok()) _exit(2);
      SendAck(ack_fd, i, txn->commit_ts());
      if (i == kTxns / 4) {
        if (!db->Checkpoint().ok()) _exit(2);  // Base.
      } else if (i == kTxns / 2) {
        if (!db->Checkpoint().ok()) _exit(2);  // Delta.
      }
    }
    db.release();
    _exit(0);
  });
  ASSERT_EQ(run.exit_code, 0);

  // Simulate the checkpointer dying mid-delta-write: truncate the delta so
  // its footer is gone, and strand a .tmp from a younger attempt.
  bool damaged = false;
  for (const auto& entry : fs::directory_iterator(dir.path)) {
    Timestamp prev = 0, wm = 0;
    if (recovery::ParseDeltaCheckpointFileName(
            entry.path().filename().string(), &prev, &wm)) {
      const size_t half = static_cast<size_t>(fs::file_size(entry.path()) / 2);
      std::string partial;
      {
        FILE* f = fopen(entry.path().string().c_str(), "rb");
        ASSERT_NE(f, nullptr);
        partial.resize(half);
        ASSERT_EQ(fread(partial.data(), 1, half, f), half);
        fclose(f);
      }
      {
        FILE* f = fopen((entry.path().string() + ".tmp").c_str(), "wb");
        fwrite(partial.data(), 1, partial.size(), f);
        fclose(f);
      }
      fs::resize_file(entry.path(), half);
      damaged = true;
    }
  }
  ASSERT_TRUE(damaged);

  DBOptions opts = DurableOptions(dir.path, true);
  opts.log.checkpoint_max_deltas = 8;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(opts, &db).ok());
  // The chain was cut before the torn delta; the base plus WAL replay
  // (segment GC never reclaims past the base watermark) restores all.
  EXPECT_TRUE(db->recovery_stats().used_checkpoint);
  EXPECT_TRUE(db->recovery_stats().chain_truncated);
  EXPECT_EQ(db->recovery_stats().delta_links_applied, 0u);
  TableId t = 0;
  ASSERT_TRUE(db->FindTable("kill", &t).ok());
  ASSERT_EQ(PresentTxns(db.get(), t, kTxns + 1).size(), kTxns);
}

TEST(RecoveryTest, DamagedMiddleDeltaLinkFallsBackToOlderCutPlusWal) {
  TempDir dir;
  DBOptions opts = DurableOptions(dir.path, true);
  opts.log.checkpoint_max_deltas = 8;
  constexpr int kBatches = 5;  // base + 3 deltas, batch 5 only in the WAL.
  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(opts, &db).ok());
    TableId t = 0;
    ASSERT_TRUE(db->CreateTable("t", &t).ok());
    for (int b = 0; b < kBatches; ++b) {
      auto txn = db->Begin();
      for (int j = 0; j < 4; ++j) {
        ASSERT_TRUE(txn->Put(t,
                             "b" + std::to_string(b) + ":" +
                                 std::to_string(j),
                             "v" + std::to_string(b))
                        .ok());
      }
      ASSERT_TRUE(txn->Commit().ok());
      if (b < kBatches - 1) {
        ASSERT_TRUE(db->Checkpoint().ok());
      }
    }
    ASSERT_EQ(Metric(db.get(), "ckpt.taken"), 4u);
  }
  // Damage the *middle* delta link (the second of three by watermark).
  std::vector<std::pair<Timestamp, std::string>> deltas;
  for (const auto& entry : fs::directory_iterator(dir.path)) {
    Timestamp prev = 0, wm = 0;
    if (recovery::ParseDeltaCheckpointFileName(
            entry.path().filename().string(), &prev, &wm)) {
      deltas.emplace_back(wm, entry.path().string());
    }
  }
  ASSERT_EQ(deltas.size(), 3u);
  std::sort(deltas.begin(), deltas.end());
  {
    const std::string& middle = deltas[1].second;
    FILE* f = fopen(middle.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    const long mid = static_cast<long>(fs::file_size(middle) / 2);
    fseek(f, mid, SEEK_SET);
    const int original = fgetc(f);
    fseek(f, mid, SEEK_SET);
    fputc(original ^ 0x5a, f);
    fclose(f);
  }

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(opts, &db).ok());
  EXPECT_TRUE(db->recovery_stats().used_checkpoint);
  // Chain cut at the damaged middle link: only the first delta applied...
  EXPECT_EQ(db->recovery_stats().delta_links_applied, 1u);
  EXPECT_TRUE(db->recovery_stats().chain_truncated);
  EXPECT_EQ(db->recovery_stats().checkpoint_ts, deltas[0].first);
  // ...and WAL replay past the older cut still restores every batch.
  TableId t = 0;
  ASSERT_TRUE(db->FindTable("t", &t).ok());
  auto txn = db->Begin({IsolationLevel::kSnapshot});
  std::string v;
  for (int b = 0; b < kBatches; ++b) {
    for (int j = 0; j < 4; ++j) {
      ASSERT_TRUE(
          txn->Get(t, "b" + std::to_string(b) + ":" + std::to_string(j), &v)
              .ok())
          << b << ":" << j;
      EXPECT_EQ(v, "v" + std::to_string(b));
    }
  }
  EXPECT_TRUE(txn->Commit().ok());
}

TEST(RecoveryTest, CorruptFinalRecordIsAlsoATornWrite) {
  // A torn write need not be short: the crash can leave a full-length
  // frame of garbage (partial sector). Damage — not truncation — at the
  // newest segment's tail must recover like a torn tail, losing only the
  // damaged record.
  TempDir dir;
  constexpr uint64_t kTxns = 8;
  ChildRun run = RunCrashingChild([&](int ack_fd) {
    CommitterChild(dir.path, true, kTxns, ack_fd);
  });
  ASSERT_EQ(run.exit_code, 0);
  std::vector<std::string> segments;
  ASSERT_TRUE(recovery::ListWalSegments(dir.path, &segments).ok());
  ASSERT_FALSE(segments.empty());
  const std::string& last = segments.back();
  {
    FILE* f = fopen(last.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    const long pos = static_cast<long>(fs::file_size(last)) - 5;
    fseek(f, pos, SEEK_SET);
    const int original = fgetc(f);
    fseek(f, pos, SEEK_SET);
    fputc(original ^ 0x5a, f);
    fclose(f);
  }
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(DurableOptions(dir.path, true), &db).ok());
  EXPECT_TRUE(db->recovery_stats().torn_tail);
  TableId t = 0;
  ASSERT_TRUE(db->FindTable("kill", &t).ok());
  const std::vector<uint64_t> present =
      PresentTxns(db.get(), t, kTxns + 1);
  ASSERT_EQ(present.size(), kTxns - 1);
  for (size_t i = 0; i < present.size(); ++i) EXPECT_EQ(present[i], i + 1);
}

TEST(RecoveryTest, MidLogCorruptionFailsOpen) {
  TempDir dir;
  {
    // Tiny segments force multiple files.
    DBOptions opts = DurableOptions(dir.path, true);
    opts.log.wal_segment_bytes = 96;
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(opts, &db).ok());
    TableId t = 0;
    ASSERT_TRUE(db->CreateTable("t", &t).ok());
    for (int i = 0; i < 10; ++i) {
      auto txn = db->Begin();
      ASSERT_TRUE(
          txn->Put(t, "k" + std::to_string(i), "v").ok());
      ASSERT_TRUE(txn->Commit().ok());
    }
  }
  std::vector<std::string> segments;
  ASSERT_TRUE(recovery::ListWalSegments(dir.path, &segments).ok());
  ASSERT_GT(segments.size(), 1u);
  // Damage a byte in the middle of the FIRST segment: not a torn tail, and
  // recovery must refuse rather than resurrect a hole-y history.
  {
    FILE* f = fopen(segments[0].c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    const long mid = static_cast<long>(fs::file_size(segments[0]) / 2);
    fseek(f, mid, SEEK_SET);
    const int original = fgetc(f);
    fseek(f, mid, SEEK_SET);
    fputc(original ^ 0x5a, f);  // XOR: guaranteed to change the byte.
    fclose(f);
  }
  std::unique_ptr<DB> db;
  EXPECT_TRUE(DB::Open(DurableOptions(dir.path, true), &db).IsCorruption());
}

TEST(RecoveryTest, KillMidCheckpointFallsBackToWal) {
  TempDir dir;
  constexpr uint64_t kTxns = 12;
  ChildRun run = RunCrashingChild([&](int ack_fd) {
    std::unique_ptr<DB> db;
    if (!DB::Open(DurableOptions(dir.path, true), &db).ok()) _exit(2);
    TableId t = 0;
    if (!db->CreateTable("kill", &t).ok()) _exit(2);
    for (uint64_t i = 1; i <= kTxns; ++i) {
      auto txn = db->Begin();
      for (int j = 0; j < kKeysPerTxn; ++j) {
        if (!txn->Put(t, TxnKey(i, j), TxnValue(i, j)).ok()) _exit(2);
      }
      if (!txn->Commit().ok()) _exit(2);
      SendAck(ack_fd, i, txn->commit_ts());
      if (i == kTxns / 2) {
        if (!db->Checkpoint().ok()) _exit(2);
      }
    }
    db.release();
    _exit(0);
  });
  ASSERT_EQ(run.exit_code, 0);

  // Simulate the checkpointer dying mid-write: truncate the image so its
  // footer is gone, and strand a .tmp from a second, younger attempt.
  bool damaged = false;
  for (const auto& entry : fs::directory_iterator(dir.path)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("checkpoint-", 0) == 0 &&
        name.find(".ckpt") != std::string::npos) {
      fs::resize_file(entry.path(), fs::file_size(entry.path()) / 2);
      damaged = true;
    }
  }
  ASSERT_TRUE(damaged);

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(DurableOptions(dir.path, true), &db).ok());
  // The WAL alone reconstructs everything the damaged image covered.
  EXPECT_FALSE(db->recovery_stats().used_checkpoint);
  TableId t = 0;
  ASSERT_TRUE(db->FindTable("kill", &t).ok());
  const std::vector<uint64_t> present =
      PresentTxns(db.get(), t, kTxns + 1);
  ASSERT_EQ(present.size(), kTxns);
}

TEST(RecoveryTest, CheckpointPlusTailReplayAndIdempotentReopen) {
  TempDir dir;
  constexpr uint64_t kTxns = 16;
  Timestamp last_cts = 0;
  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(DurableOptions(dir.path, true), &db).ok());
    TableId t = 0;
    ASSERT_TRUE(db->CreateTable("kill", &t).ok());
    for (uint64_t i = 1; i <= kTxns; ++i) {
      auto txn = db->Begin();
      for (int j = 0; j < kKeysPerTxn; ++j) {
        ASSERT_TRUE(txn->Put(t, TxnKey(i, j), TxnValue(i, j)).ok());
      }
      ASSERT_TRUE(txn->Commit().ok());
      last_cts = txn->commit_ts();
      if (i == kTxns / 2) {
        ASSERT_TRUE(db->Checkpoint().ok());
      }
    }
    ASSERT_EQ(Metric(db.get(), "ckpt.taken"), 1u);
  }
  // First reopen: checkpoint covers the first half, WAL replay the rest
  // (records below the watermark replay idempotently over the image).
  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(DurableOptions(dir.path, true), &db).ok());
    EXPECT_TRUE(db->recovery_stats().used_checkpoint);
    EXPECT_GT(db->recovery_stats().commit_records_applied, 0u);
    TableId t = 0;
    ASSERT_TRUE(db->FindTable("kill", &t).ok());
    EXPECT_EQ(PresentTxns(db.get(), t, kTxns).size(), kTxns);
    EXPECT_EQ(db->recovery_stats().max_commit_ts, last_cts);
  }
  // "Crash during replay": recovery is read-only, so a process that dies
  // right after recovering (before committing anything new) leaves the
  // directory byte-identical — any number of reopens recover the same
  // state. Verified twice: once with a clean close, once comparing
  // recovered contents.
  const auto before = DirContents(dir.path);
  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(DurableOptions(dir.path, true), &db).ok());
    TableId t = 0;
    ASSERT_TRUE(db->FindTable("kill", &t).ok());
    EXPECT_TRUE(db->recovery_stats().used_checkpoint);
    // >= rather than ==: the previous block's verification transactions
    // committed (empty-redo records with fresh timestamps) before closing.
    EXPECT_GE(db->recovery_stats().max_commit_ts, last_cts);
  }
  EXPECT_EQ(DirContents(dir.path), before);
  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(DurableOptions(dir.path, true), &db).ok());
    TableId t = 0;
    ASSERT_TRUE(db->FindTable("kill", &t).ok());
    EXPECT_EQ(PresentTxns(db.get(), t, kTxns).size(), kTxns);
  }
}

TEST(RecoveryTest, BackgroundCheckpointerProducesUsableImages) {
  TempDir dir;
  {
    DBOptions opts = DurableOptions(dir.path, false);
    opts.log.checkpoint_interval_ms = 20;
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(opts, &db).ok());
    TableId t = 0;
    ASSERT_TRUE(db->CreateTable("t", &t).ok());
    for (int i = 0; i < 50; ++i) {
      auto txn = db->Begin();
      ASSERT_TRUE(txn->Put(t, "k" + std::to_string(i), "v").ok());
      ASSERT_TRUE(txn->Commit().ok());
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    // The write loop can outrun the first checkpoint's fsync on a loaded
    // machine; give the checkpointer a bounded deadline to land one.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (Metric(db.get(), "ckpt.taken") < 1 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_GE(Metric(db.get(), "ckpt.taken"), 1u);
  }
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(DurableOptions(dir.path, false), &db).ok());
  EXPECT_TRUE(db->recovery_stats().used_checkpoint);
  TableId t = 0;
  ASSERT_TRUE(db->FindTable("t", &t).ok());
  auto txn = db->Begin();
  std::string v;
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(txn->Get(t, "k" + std::to_string(i), &v).ok()) << i;
  }
  EXPECT_TRUE(txn->Commit().ok());
}

TEST(RecoveryTest, KillMidAsyncPipelineRecoversAckedNeverTorn) {
  // The asynchronous commit pipeline under crash: a session submits a
  // burst of CommitAsync transactions and the child _exits from INSIDE the
  // acknowledgment callback once kAckTarget acks have streamed out — the
  // process dies on the flusher thread, mid-pipeline, with most of the
  // burst submitted-but-unacknowledged. The recovery contract is exactly
  // the blocking one: every acknowledged commit is present atomically
  // (flush_on_commit: the ack fired only after the covering fsync), and
  // every unacknowledged submission is all-or-nothing — never torn.
  TempDir dir;
  constexpr uint64_t kSubmit = 40;
  constexpr uint64_t kAckTarget = 12;
  ChildRun run = RunCrashingChild([&](int ack_fd) {
    std::unique_ptr<DB> db;
    if (!DB::Open(DurableOptions(dir.path, /*flush_on_commit=*/true), &db)
             .ok()) {
      _exit(2);
    }
    TableId t = 0;
    if (!db->CreateTable("kill", &t).ok()) _exit(2);
    auto session = db->CreateSession();
    static std::atomic<uint64_t> acked{0};
    for (uint64_t i = 1; i <= kSubmit; ++i) {
      const TxnHandle h = session->Begin({IsolationLevel::kSerializableSSI});
      for (int j = 0; j < kKeysPerTxn; ++j) {
        if (!session->Put(h, t, TxnKey(i, j), TxnValue(i, j)).ok()) _exit(2);
      }
      session->CommitAsync(h, [ack_fd, i](Status st) {
        if (!st.ok()) _exit(2);
        SendAck(ack_fd, i, 0);
        if (acked.fetch_add(1) + 1 == kAckTarget) _exit(0);  // The crash.
      });
    }
    // Park: the acknowledgment thread kills the process. (The pipeline
    // will certainly reach kAckTarget acks — all kSubmit are submitted.)
    for (;;) std::this_thread::sleep_for(std::chrono::seconds(1));
  });
  ASSERT_EQ(run.exit_code, 0);
  ASSERT_EQ(run.acks.size(), kAckTarget);

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(DurableOptions(dir.path, true), &db).ok());
  TableId t = 0;
  ASSERT_TRUE(db->FindTable("kill", &t).ok());
  // PresentTxns asserts per-transaction atomicity for everything 1..40:
  // no submission — acked or not — may recover torn.
  const std::vector<uint64_t> present = PresentTxns(db.get(), t, kSubmit);
  std::vector<bool> is_present(kSubmit + 1, false);
  for (const uint64_t seq : present) is_present[seq] = true;
  for (const Ack& a : run.acks) {
    EXPECT_TRUE(is_present[a.seq])
        << "acknowledged transaction " << a.seq << " lost";
  }
  // Unacknowledged submissions may go either way (flushed-but-unacked
  // survives, unflushed is lost) — but never below the acked floor.
  EXPECT_GE(present.size(), kAckTarget);
}

// ---------------------------------------------------------------------------
// Workload-level recovery: sibench and a small TPC-C load.
// ---------------------------------------------------------------------------

TEST(RecoveryWorkloadTest, SibenchAcknowledgedIncrementsSurviveKill) {
  TempDir dir;
  constexpr uint64_t kItems = 20;
  constexpr uint64_t kIncrements = 30;
  ChildRun run = RunCrashingChild([&](int ack_fd) {
    std::unique_ptr<DB> db;
    if (!DB::Open(DurableOptions(dir.path, true), &db).ok()) _exit(2);
    workloads::SiBenchConfig config;
    config.items = kItems;
    std::unique_ptr<workloads::SiBench> workload;
    if (!workloads::SiBench::Setup(db.get(), config, &workload).ok()) {
      _exit(2);
    }
    bench::SeriesConfig ssi{"SSI", IsolationLevel::kSerializableSSI, {}};
    uint64_t committed = 0;
    for (uint64_t i = 0; committed < kIncrements; ++i) {
      if (workload->IncrementValue(db.get(), ssi, i % kItems).ok()) {
        ++committed;
        SendAck(ack_fd, committed, 0);
      }
    }
    db.release();
    _exit(0);
  });
  ASSERT_EQ(run.exit_code, 0);
  ASSERT_EQ(run.acks.size(), kIncrements);

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(DurableOptions(dir.path, true), &db).ok());
  TableId t = 0;
  ASSERT_TRUE(db->FindTable("sitest", &t).ok());
  // The sibench oracle: the sum of all values equals the number of
  // acknowledged committed increments.
  int64_t sum = 0;
  uint64_t rows = 0;
  auto txn = db->Begin({IsolationLevel::kSnapshot});
  ASSERT_TRUE(txn->Scan(t, EncodeU64Key(0), EncodeU64Key(UINT64_MAX),
                        [&](Slice, Slice value) {
                          size_t off = 0;
                          int64_t v = 0;
                          EXPECT_TRUE(GetI64(value, &off, &v));
                          sum += v;
                          ++rows;
                          return true;
                        })
                  .ok());
  ASSERT_TRUE(txn->Commit().ok());
  EXPECT_EQ(rows, kItems);
  EXPECT_EQ(sum, static_cast<int64_t>(kIncrements));
}

TEST(RecoveryWorkloadTest, TinyTpccLoadSurvivesKillAfterCheckpoint) {
  TempDir dir;
  // Table name -> entry count, reported by the child after its checkpoint.
  const std::vector<std::string> tables = {
      "warehouse", "district", "customer", "item",
      "stock",     "order",    "new_order"};
  ChildRun run = RunCrashingChild([&](int ack_fd) {
    std::unique_ptr<DB> db;
    // Async WAL (no per-commit fsync) to keep the load fast; the explicit
    // checkpoint below makes the loaded state durable.
    if (!DB::Open(DurableOptions(dir.path, false), &db).ok()) _exit(2);
    workloads::tpcc::TpccConfig config;
    config.warehouses = 1;
    config.tiny = true;
    std::unique_ptr<workloads::tpcc::TpccWorkload> workload;
    if (!workloads::tpcc::TpccWorkload::Setup(db.get(), config, 7, &workload)
             .ok()) {
      _exit(2);
    }
    bench::SeriesConfig ssi{"SSI", IsolationLevel::kSerializableSSI, {}};
    Random rng(99);
    uint64_t committed = 0;
    while (committed < 5) {
      Status st = workload->RunOp(db.get(), ssi,
                                  workloads::tpcc::TpccOp::kNewOrder, &rng);
      if (st.ok()) ++committed;
      if (st.IsInvalidArgument()) _exit(2);
    }
    if (!db->Checkpoint().ok()) _exit(2);
    for (size_t i = 0; i < tables.size(); ++i) {
      TableId id = 0;
      if (!db->FindTable(tables[i], &id).ok()) _exit(2);
      SendAck(ack_fd, i, db->table(id)->EntryCount());
    }
    db.release();
    _exit(0);
  });
  ASSERT_EQ(run.exit_code, 0);
  ASSERT_EQ(run.acks.size(), tables.size());

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(DurableOptions(dir.path, false), &db).ok());
  EXPECT_TRUE(db->recovery_stats().used_checkpoint);
  for (size_t i = 0; i < tables.size(); ++i) {
    TableId id = 0;
    ASSERT_TRUE(db->FindTable(tables[i], &id).ok()) << tables[i];
    EXPECT_EQ(db->table(id)->EntryCount(), run.acks[i].commit_ts)
        << tables[i];
  }
  // The recovered engine keeps serving reads against the reloaded schema.
  TableId district = 0;
  ASSERT_TRUE(db->FindTable("district", &district).ok());
  EXPECT_EQ(db->table(district)->EntryCount(), 10u);  // 10 districts/WH.
}

}  // namespace
}  // namespace ssidb
