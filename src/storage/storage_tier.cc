#include "src/storage/storage_tier.h"

#include <algorithm>
#include <cassert>
#include <filesystem>

#include "src/obs/trace_ring.h"
#include "src/recovery/fs_util.h"
#include "src/storage/catalog.h"

namespace ssidb {

namespace fs = std::filesystem;

StorageTier::StorageTier(const DBOptions& options, std::string dir)
    : options_(options),
      dir_(std::move(dir)),
      env_(io::ResolveEnv(options.env)),
      pool_(options.buffer_pool_bytes, options.run_page_bytes, options.env) {}

StorageTier::~StorageTier() {
  // Run lists drop first (each RunFile purges its pool pages), then the
  // pool — member order guarantees it; nothing to do here.
}

Status StorageTier::Init(bool wipe) {
  std::error_code ec;
  Status st = env_->CreateDirs(dir_);
  if (!st.ok()) return st;
  if (wipe) {
    for (const auto& entry : fs::directory_iterator(dir_, ec)) {
      if (entry.path().extension() == ".run" ||
          entry.path().extension() == ".tmp") {
        fs::remove(entry.path(), ec);
      }
    }
  }
  return Status::OK();
}

std::string StorageTier::RunPath(uint32_t table_id, uint64_t seq) const {
  char name[64];
  snprintf(name, sizeof(name), "run-%06u-%020llu.run", table_id,
           static_cast<unsigned long long>(seq));
  return dir_ + "/" + name;
}

Status StorageTier::NoteIOError(const Status& st, uint32_t table_id) {
  io_errors_.fetch_add(1, std::memory_order_relaxed);
  if (obs::TraceRing* trace = trace_.load(std::memory_order_acquire)) {
    trace->Emit(obs::TraceEvent::kIOError, 0, /*arg16=*/4,
                /*arg32=*/table_id, /*payload=*/0);
  }
  return st;
}

std::shared_ptr<const StorageTier::RunList> StorageTier::Runs(
    uint32_t table_id) const {
  std::shared_lock<std::shared_mutex> guard(runs_mu_);
  auto it = runs_.find(table_id);
  return it == runs_.end() ? nullptr : it->second;
}

void StorageTier::Publish(uint32_t table_id,
                          std::shared_ptr<const RunList> runs) {
  std::unique_lock<std::shared_mutex> guard(runs_mu_);
  runs_[table_id] = std::move(runs);
}

Status StorageTier::WriteRun([[maybe_unused]] const ProducerLock& producer,
                             uint32_t table_id,
                             const RunFile::Source& source,
                             uint64_t* bytes) {
  assert(producer.mutex() == &producer_mu_ && producer.owns_lock());
  const uint64_t seq = next_seq_++;
  const uint64_t file_id = next_file_id_++;
  std::shared_ptr<RunFile> run;
  Status st = RunFile::Create(RunPath(table_id, seq), table_id, seq, file_id,
                              options_.run_page_bytes, source, &pool_,
                              options_.log.wal_fsync, &run, env_);
  if (!st.ok()) return NoteIOError(st, table_id);
  if (bytes != nullptr) {
    std::error_code ec;
    *bytes = fs::file_size(run->path(), ec);
  }
  // Only producers change the lists, and they hold producer_mu_: the list
  // read here is still current when the new one is published.
  auto list = std::make_shared<RunList>();
  list->push_back(std::move(run));  // Newest first.
  if (const auto old = Runs(table_id)) {
    list->insert(list->end(), old->begin(), old->end());
  }
  Publish(table_id, std::move(list));
  return Status::OK();
}

Status StorageTier::Lookup(uint32_t table_id, Slice key, RunEntry* out,
                           bool* found) {
  *found = false;
  // Holding the list keeps its runs alive through the I/O, even if a
  // compaction replaces them meanwhile (deleted files stay readable
  // through their open descriptors).
  const std::shared_ptr<const RunList> runs = Runs(table_id);
  if (runs == nullptr) return Status::OK();
  for (const std::shared_ptr<RunFile>& run : *runs) {
    bool pinned = false;
    Status st = run->Lookup(&pool_, key, out, found, &pinned);
    if (pinned) pages_probed_.fetch_add(1, std::memory_order_relaxed);
    if (!st.ok()) return st;
    if (*found) return Status::OK();  // Newest-first: first hit wins.
  }
  return Status::OK();
}

Status StorageTier::MaybeCompact(uint32_t table_id) {
  const uint32_t min_runs = std::max<uint32_t>(
      2, options_.run_compaction_min_runs);
  const ProducerLock producer = LockProducers();
  const std::shared_ptr<const RunList> inputs = Runs(table_id);
  if (inputs == nullptr || inputs->size() < min_runs) return Status::OK();
  // Merge: a k-way merge over the sorted inputs, holding one decoded frame
  // per input, with direct preads (bypassing the pool so a full-table pass
  // cannot evict hot pages); newest commit_ts per key wins. Tombstones are
  // kept — an evicted chain whose anchor is a tombstone still faults it
  // back as the §3.5 delete marker.
  std::vector<RunFile::Cursor> cursors;
  for (const std::shared_ptr<RunFile>& run : *inputs) {
    Status st = cursors.emplace_back(run.get()).Next();
    if (!st.ok()) return st;
  }
  RunEntry merged;
  const RunFile::Source source = [&](const RunEntry** next) {
    RunFile::Cursor* pick = nullptr;
    for (RunFile::Cursor& c : cursors) {
      if (!c.valid()) continue;
      const int cmp = pick == nullptr
                          ? -1
                          : Slice(c.entry().key).compare(pick->entry().key);
      if (cmp < 0 ||
          (cmp == 0 && c.entry().commit_ts > pick->entry().commit_ts)) {
        pick = &c;
      }
    }
    *next = nullptr;
    if (pick == nullptr) return Status::OK();
    merged = pick->entry();
    for (RunFile::Cursor& c : cursors) {  // Keys are unique within a run.
      if (c.valid() && c.entry().key == merged.key) {
        Status st = c.Next();
        if (!st.ok()) return st;
      }
    }
    *next = &merged;
    return Status::OK();
  };

  const uint64_t seq = next_seq_++;
  const uint64_t file_id = next_file_id_++;
  std::shared_ptr<RunFile> replacement;
  Status st = RunFile::Create(RunPath(table_id, seq), table_id, seq, file_id,
                              options_.run_page_bytes, source, &pool_,
                              options_.log.wal_fsync, &replacement, env_);
  if (!st.ok()) return NoteIOError(st, table_id);
  std::error_code ec;
  compaction_bytes_written_.fetch_add(fs::file_size(replacement->path(), ec),
                                      std::memory_order_relaxed);

  // Publish the replacement and unlink the inputs. Only after the rename +
  // dir fsync above: a crash in between leaves both generations on disk,
  // which recovery resolves by seq (the merged run is the newest and
  // carries the newest entry per key). No run was published since the
  // snapshot (producers are serialized), so the replacement is the whole
  // list.
  Publish(table_id, std::make_shared<const RunList>(
                        RunList{std::move(replacement)}));
  for (const std::shared_ptr<RunFile>& run : *inputs) {
    env_->RemoveFile(run->path());  // In-flight faulters read the open fd.
  }
  return Status::OK();
}

Status StorageTier::RecoverRuns(Catalog* catalog, Timestamp* max_commit_ts) {
  *max_commit_ts = 0;
  std::error_code ec;
  std::vector<std::string> paths;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    if (entry.path().extension() == ".run") {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  Timestamp max_cts = 0;
  const bool evict = options_.buffer_pool_bytes > 0;
  const ProducerLock producer = LockProducers();
  std::unordered_map<uint32_t, RunList> lists;
  for (const std::string& path : paths) {
    const uint64_t file_id = next_file_id_++;
    std::shared_ptr<RunFile> run;
    Status st = RunFile::Open(path, file_id, &pool_, &run, env_);
    if (!st.ok()) return st;
    Table* table = catalog->table(run->table_id());
    if (table == nullptr) {
      // A run for a table the manifest/WAL never saw cannot happen: the
      // table-create record is durable before any commit (hence any run)
      // against the table. Treat it as corruption.
      return Status::Corruption("run for unknown table: " + path);
    }
    st = run->ForEachEntry([&](const RunEntry& e) {
      if (evict) {
        table->RecoverEvicted(e.key, e.commit_ts);
      } else {
        table->RecoverVersion(e.key, e.value, e.tombstone, e.commit_ts);
      }
      max_cts = std::max(max_cts, e.commit_ts);
    });
    if (!st.ok()) return st;
    next_seq_ = std::max(next_seq_, run->seq() + 1);
    lists[run->table_id()].push_back(std::move(run));
  }
  for (auto& [tid, list] : lists) {
    std::sort(list.begin(), list.end(),
              [](const auto& a, const auto& b) { return a->seq() > b->seq(); });
    Publish(tid, std::make_shared<const RunList>(std::move(list)));
  }
  *max_commit_ts = max_cts;
  return Status::OK();
}

size_t StorageTier::run_count(uint32_t table_id) const {
  const std::shared_ptr<const RunList> runs = Runs(table_id);
  return runs == nullptr ? 0 : runs->size();
}

}  // namespace ssidb
