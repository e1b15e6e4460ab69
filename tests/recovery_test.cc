// Durability subsystem tests: WAL segment format, the checkpoint manifest
// and runs, and the crash-recovery kill-point matrix.
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
#include <cstring>
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
#include "src/recovery/manifest.h"
#include "src/recovery/recovery.h"
#include "src/recovery/wal.h"
#include "src/storage/buffer_pool.h"
#include "src/storage/run_file.h"
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

/// (path, size) of every file under `dir`, runs included — for asserting
/// recovery writes nothing.
std::map<std::string, uintmax_t> DirContents(const std::string& dir) {
  std::map<std::string, uintmax_t> out;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) {
      out[entry.path().string()] = fs::file_size(entry.path());
    }
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
// Checkpoint manifest.
// ---------------------------------------------------------------------------

TEST(ManifestTest, RoundTripIgnoresStrandedTmp) {
  TempDir tmp;
  // Not created yet: the WAL writer makes it lazily, on its first append,
  // which may still be in flight when a checkpoint runs.
  const std::string dir = tmp.path + "/wal";
  recovery::Manifest none;
  bool found = true;
  ASSERT_TRUE(recovery::ReadManifest(dir, &none, &found).ok());
  EXPECT_FALSE(found);

  const recovery::Manifest written{/*watermark=*/10, {"accounts", "audit"}};
  uint64_t bytes = 0;
  ASSERT_TRUE(recovery::WriteManifest(dir, written, /*fsync=*/false,
                                      nullptr, &bytes)
                  .ok());
  EXPECT_EQ(bytes, fs::file_size(dir + "/MANIFEST"));
  // A crash mid-write of a newer manifest leaves only a torn .tmp, which
  // is never consulted.
  {
    FILE* f = fopen((dir + "/MANIFEST.tmp").c_str(), "wb");
    ASSERT_NE(f, nullptr);
    fputs("SSIDBMF1 torn", f);
    fclose(f);
  }
  recovery::Manifest read;
  ASSERT_TRUE(recovery::ReadManifest(dir, &read, &found).ok());
  ASSERT_TRUE(found);
  EXPECT_EQ(read.watermark, 10u);
  EXPECT_EQ(read.tables, written.tables);
}

TEST(ManifestTest, DamagedManifestIsNamedCorruption) {
  TempDir dir;
  ASSERT_TRUE(
      recovery::WriteManifest(dir.path, {7, {"t"}}, false, nullptr).ok());
  const std::string path = dir.path + "/MANIFEST";
  {
    FILE* f = fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    fseek(f, 9, SEEK_SET);  // Inside the watermark.
    const int original = fgetc(f);
    fseek(f, 9, SEEK_SET);
    fputc(original ^ 0x5a, f);
    fclose(f);
  }
  recovery::Manifest read;
  bool found = false;
  const Status st = recovery::ReadManifest(dir.path, &read, &found);
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  EXPECT_NE(st.message().find(path), std::string::npos) << st.ToString();
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
  // Every sealed segment is covered by the manifest — including the
  // first one, whose table-create record binds an id the manifest lists
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

/// The run files of `dir` (a run directory), oldest first.
std::vector<std::string> RunPaths(const std::string& dir) {
  std::vector<std::string> paths;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".run") {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

/// Every entry of the run file at `path`, opened outside any engine.
std::vector<RunEntry> ReadRun(const std::string& path) {
  const uint32_t page_bytes = DBOptions{}.run_page_bytes;
  BufferPool pool(4 * page_bytes, page_bytes);
  std::shared_ptr<RunFile> run;
  std::vector<RunEntry> entries;
  const Status st = RunFile::Open(path, /*file_id=*/1, &pool, &run);
  EXPECT_TRUE(st.ok()) << st.ToString();
  if (st.ok()) {
    EXPECT_TRUE(run->ForEachEntry([&](const RunEntry& e) {
                     entries.push_back(e);
                   }).ok());
  }
  return entries;
}

TEST(RecoveryTest, CheckpointRunIsIncrementalAndGcScanFree) {
  TempDir dir;
  constexpr int kKeys = 1200;
  constexpr int kTouched = 9;  // kTouched - 1 updates plus one delete.
  DBOptions opts = DurableOptions(dir.path, /*flush=*/false);
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
    ASSERT_TRUE(db->Checkpoint().ok());  // Everything is new: O(N).
    auto touch = db->Begin();
    for (int j = 0; j + 1 < kTouched; ++j) {
      ASSERT_TRUE(touch->Put(t, "key" + std::to_string(j), "updated").ok());
    }
    ASSERT_TRUE(touch->Delete(t, "key" + std::to_string(kTouched - 1)).ok());
    ASSERT_TRUE(touch->Commit().ok());
    ASSERT_TRUE(db->Checkpoint().ok());  // Only the window: O(k).
    // O(1) GC: no ScanWalSegment re-read happened in either checkpoint.
    EXPECT_EQ(recovery::ScanWalSegmentCalls(), scans_before);
    EXPECT_EQ(Metric(db.get(), "ckpt.taken"), 2u);
    // A checkpoint with nothing new is a no-op, not an empty run.
    ASSERT_TRUE(db->Checkpoint().ok());
    EXPECT_EQ(Metric(db.get(), "ckpt.taken"), 2u);
    EXPECT_EQ(db->storage_tier()->run_count(t), 2u);
  }
  // One run per checkpoint: the first holds all N keys, the second only
  // the k touched ones — the delete as a tombstone, since an older run
  // still holds the key.
  const std::vector<std::string> runs = RunPaths(dir.path + "/runs");
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(ReadRun(runs[0]).size(), static_cast<size_t>(kKeys));
  const std::vector<RunEntry> window = ReadRun(runs[1]);
  ASSERT_EQ(window.size(), static_cast<size_t>(kTouched));
  for (const RunEntry& e : window) {
    const bool deleted = e.key == "key" + std::to_string(kTouched - 1);
    EXPECT_EQ(e.tombstone, deleted) << e.key;
    EXPECT_EQ(e.value, deleted ? "" : "updated") << e.key;
  }

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(opts, &db).ok());
  EXPECT_TRUE(db->recovery_stats().used_checkpoint);
  EXPECT_GT(db->recovery_stats().checkpoint_ts, 0u);
  TableId t = 0;
  ASSERT_TRUE(db->FindTable("t", &t).ok());
  auto txn = db->Begin({IsolationLevel::kSnapshot});
  std::string v;
  for (int j = 0; j < kKeys; ++j) {
    const Status st = txn->Get(t, "key" + std::to_string(j), &v);
    if (j == kTouched - 1) {
      EXPECT_TRUE(st.IsNotFound()) << j;
      continue;
    }
    ASSERT_TRUE(st.ok()) << j;
    EXPECT_EQ(v, j < kTouched ? "updated" : std::string(48, 'v')) << j;
  }
  EXPECT_TRUE(txn->Commit().ok());
}

TEST(RecoveryTest, CheckpointRunsCompactAtTheTrigger) {
  TempDir dir;
  DBOptions opts = DurableOptions(dir.path, false);
  const uint32_t trigger = opts.run_compaction_min_runs;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(opts, &db).ok());
  TableId t = 0;
  ASSERT_TRUE(db->CreateTable("t", &t).ok());
  for (uint32_t i = 0; i < trigger; ++i) {
    auto txn = db->Begin();
    ASSERT_TRUE(txn->Put(t, "k" + std::to_string(i), "v").ok());
    ASSERT_TRUE(txn->Commit().ok());
    ASSERT_TRUE(db->Checkpoint().ok());
    // The checkpoint that brings the table to the trigger merges its runs.
    EXPECT_EQ(db->storage_tier()->run_count(t), i + 1 < trigger ? i + 1 : 1)
        << i;
  }
  EXPECT_EQ(Metric(db.get(), "ckpt.taken"), trigger);
  EXPECT_EQ(RunPaths(dir.path + "/runs").size(), 1u);
  db.reset();
  std::unique_ptr<DB> reopened;
  ASSERT_TRUE(DB::Open(opts, &reopened).ok());
  EXPECT_TRUE(reopened->recovery_stats().used_checkpoint);
  ASSERT_TRUE(reopened->FindTable("t", &t).ok());
  auto txn = reopened->Begin({IsolationLevel::kSnapshot});
  std::string v;
  for (uint32_t i = 0; i < trigger; ++i) {
    EXPECT_TRUE(txn->Get(t, "k" + std::to_string(i), &v).ok()) << i;
  }
  EXPECT_TRUE(txn->Commit().ok());
}

TEST(RecoveryTest, CrashAfterCheckpointRecoversRunsPlusWal) {
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
    db.release();  // Crash before a second checkpoint.
    _exit(0);
  });
  ASSERT_EQ(run.exit_code, 0);

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(DurableOptions(dir.path, true), &db).ok());
  EXPECT_TRUE(db->recovery_stats().used_checkpoint);
  EXPECT_GE(db->recovery_stats().checkpoint_ts,
            run.acks[kTxns / 2 - 1].commit_ts);
  EXPECT_LT(db->recovery_stats().checkpoint_ts, run.acks[kTxns / 2].commit_ts);
  TableId t = 0;
  ASSERT_TRUE(db->FindTable("kill", &t).ok());
  // The runs cover the first half; WAL replay past the watermark the rest.
  ASSERT_EQ(PresentTxns(db.get(), t, kTxns + 1).size(), kTxns);
}

/// Dies (as a crash: _exit, no destructors) when the engine opens the
/// manifest's tmp file once armed — a kill point between a checkpoint's
/// runs, which are durable by then, and its manifest.
class KillAtManifestEnv : public io::Env {
 public:
  int Open(const char* path, int flags, int mode) override {
    if (armed && std::strstr(path, "MANIFEST") != nullptr) _exit(0);
    return io::Env::Open(path, flags, mode);
  }
  bool armed = false;
};

TEST(RecoveryTest, KillBetweenRunsAndManifestRecovers) {
  TempDir dir;
  constexpr uint64_t kTxns = 16;
  ChildRun run = RunCrashingChild([&](int ack_fd) {
    KillAtManifestEnv env;
    DBOptions opts = DurableOptions(dir.path, true);
    opts.env = &env;
    std::unique_ptr<DB> db;
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
        if (!db->Checkpoint().ok()) _exit(2);  // Runs plus a manifest.
      }
    }
    env.armed = true;
    db->Checkpoint();  // Writes its run, then dies at the manifest.
    _exit(2);
  });
  ASSERT_EQ(run.exit_code, 0);
  ASSERT_EQ(run.acks.size(), kTxns);
  // Both checkpoints' runs are on disk; only the first one's manifest.
  ASSERT_EQ(RunPaths(dir.path + "/runs").size(), 2u);

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(DurableOptions(dir.path, true), &db).ok());
  EXPECT_TRUE(db->recovery_stats().used_checkpoint);
  EXPECT_GE(db->recovery_stats().checkpoint_ts,
            run.acks[kTxns / 4 - 1].commit_ts);
  EXPECT_LT(db->recovery_stats().checkpoint_ts, run.acks[kTxns / 4].commit_ts);
  TableId t = 0;
  ASSERT_TRUE(db->FindTable("kill", &t).ok());
  // The orphan run repeats commits the WAL past the first manifest still
  // holds, so the newest version per key is the same either way.
  ASSERT_EQ(PresentTxns(db.get(), t, kTxns + 1).size(), kTxns);
  for (const Ack& a : run.acks) {
    Timestamp cts = 0;
    ASSERT_TRUE(
        db->table(t)->Find(TxnKey(a.seq, 0))->LatestCommitted(&cts, nullptr));
    EXPECT_EQ(cts, a.commit_ts) << "txn " << a.seq;
  }
}

TEST(RecoveryTest, DamagedCheckpointRunFailsOpen) {
  TempDir dir;
  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(DurableOptions(dir.path, true), &db).ok());
    TableId t = 0;
    ASSERT_TRUE(db->CreateTable("t", &t).ok());
    for (int i = 0; i < 20; ++i) {
      auto txn = db->Begin();
      ASSERT_TRUE(txn->Put(t, "k" + std::to_string(i), "v").ok());
      ASSERT_TRUE(txn->Commit().ok());
    }
    ASSERT_TRUE(db->Checkpoint().ok());
  }
  // Flip a byte inside the run's first data page (file page 1). No base
  // image is left to fall back to, and the WAL the run covers may be gone:
  // recovery must refuse rather than resurrect a hole-y state.
  const std::vector<std::string> runs = RunPaths(dir.path + "/runs");
  ASSERT_EQ(runs.size(), 1u);
  {
    FILE* f = fopen(runs[0].c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    const long pos = static_cast<long>(DBOptions{}.run_page_bytes) + 20;
    fseek(f, pos, SEEK_SET);
    const int original = fgetc(f);
    fseek(f, pos, SEEK_SET);
    fputc(original ^ 0x5a, f);
    fclose(f);
  }
  std::unique_ptr<DB> db;
  const Status st = DB::Open(DurableOptions(dir.path, true), &db);
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  EXPECT_NE(st.message().find(runs[0]), std::string::npos) << st.ToString();
}

TEST(RecoveryTest, OlderFormatCheckpointImageFailsOpen) {
  TempDir dir;
  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(DurableOptions(dir.path, true), &db).ok());
    TableId t = 0;
    ASSERT_TRUE(db->CreateTable("t", &t).ok());
  }
  // A base image of the format runs replaced, and no manifest: the WAL
  // segments it covered may already be gone, so replaying the WAL alone
  // could silently lose commits.
  const std::string image = "checkpoint-00000000000000000005.ckpt";
  {
    FILE* f = fopen((dir.path + "/" + image).c_str(), "wb");
    ASSERT_NE(f, nullptr);
    fputs("SSIDBCK1", f);
    fclose(f);
  }
  const auto before = DirContents(dir.path);
  std::unique_ptr<DB> db;
  const Status st = DB::Open(DurableOptions(dir.path, true), &db);
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  EXPECT_NE(st.message().find(image), std::string::npos) << st.ToString();
  EXPECT_EQ(DirContents(dir.path), before);
}

/// A value larger than one run page's payload (40 KiB against 16 KiB
/// pages) is checkpointed as a multi-page extent, survives WAL GC, its
/// table's compaction and a reopen — loaded with a zero pool, left on disk
/// and faulted back through the extent with a 4 MiB one.
class LargeValueTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LargeValueTest, SurvivesCheckpointGcCompactionAndReopen) {
  TempDir dir;
  DBOptions opts = DurableOptions(dir.path, true);
  opts.buffer_pool_bytes = GetParam();
  opts.log.wal_segment_bytes = 4096;  // Every large commit seals a segment.
  const auto big = [](int round) {
    return std::string(40 << 10, static_cast<char>('a' + round));
  };
  const uint32_t rounds = opts.run_compaction_min_runs;
  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(opts, &db).ok());
    TableId t = 0;
    ASSERT_TRUE(db->CreateTable("t", &t).ok());
    for (uint32_t r = 0; r < rounds; ++r) {
      auto txn = db->Begin();
      ASSERT_TRUE(txn->Put(t, "big", big(static_cast<int>(r))).ok());
      ASSERT_TRUE(txn->Put(t, "small" + std::to_string(r), "s").ok());
      ASSERT_TRUE(txn->Commit().ok());
      ASSERT_TRUE(db->Checkpoint().ok());
    }
    EXPECT_GT(Metric(db.get(), "wal.segments_deleted"), 0u);
    EXPECT_EQ(db->storage_tier()->run_count(t), 1u);  // Compacted.
  }
  for (int reopen = 0; reopen < 2; ++reopen) {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(opts, &db).ok());
    TableId t = 0;
    ASSERT_TRUE(db->FindTable("t", &t).ok());
    EXPECT_EQ(db->table(t)->Find("big")->evicted(), GetParam() > 0);
    auto txn = db->Begin({IsolationLevel::kSnapshot});
    std::string v;
    ASSERT_TRUE(txn->Get(t, "big", &v).ok());
    EXPECT_EQ(v, big(static_cast<int>(rounds) - 1));
    for (uint32_t r = 0; r < rounds; ++r) {
      EXPECT_TRUE(txn->Get(t, "small" + std::to_string(r), &v).ok()) << r;
    }
    EXPECT_TRUE(txn->Commit().ok());
  }
}

INSTANTIATE_TEST_SUITE_P(Pools, LargeValueTest,
                         ::testing::Values(uint64_t{0}, uint64_t{4} << 20),
                         [](const auto& info) {
                           return info.param == 0 ? std::string("ZeroPool")
                                                  : std::string("Pool4MiB");
                         });

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

TEST(RecoveryTest, TornCheckpointTmpFilesAreIgnored) {
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

  // Simulate the checkpointer dying mid-write of a second checkpoint: a
  // crash can only leave torn .tmp files, as every artifact is renamed into
  // place once complete. Neither is consulted.
  for (const std::string& tmp :
       {dir.path + "/MANIFEST.tmp",
        dir.path + "/runs/run-000000-00000000000000000099.run.tmp"}) {
    FILE* f = fopen(tmp.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    fputs("torn", f);
    fclose(f);
  }

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(DurableOptions(dir.path, true), &db).ok());
  // The first checkpoint's runs plus WAL replay reconstruct everything.
  EXPECT_TRUE(db->recovery_stats().used_checkpoint);
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
  // (records below the watermark replay idempotently over the runs).
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

TEST(RecoveryTest, BackgroundCheckpointerProducesUsableCheckpoints) {
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
