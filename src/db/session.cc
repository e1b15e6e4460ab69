#include "src/db/session.h"

namespace ssidb {

Session::Session(DB* db) : db_(db), executor_(db->executor_.get()) {}

Session::~Session() {
  // Swap the map out first: an Abort below must not run under mu_ (it
  // takes engine locks), and nothing else can touch the session once its
  // destructor runs.
  std::unordered_map<TxnHandle, std::unique_ptr<Executor::TxnCtx>> open;
  {
    std::lock_guard<std::mutex> guard(mu_);
    open.swap(open_);
  }
  for (auto& entry : open) {
    if (!entry.second->finished) {
      executor_->Abort(*entry.second);
    }
  }
  db_->sessions_open_.fetch_sub(1, std::memory_order_relaxed);
}

TxnHandle Session::Begin(const TxnOptions& options) {
  auto ctx = std::make_unique<Executor::TxnCtx>(
      db_->txn_manager_->Begin(options.isolation));
  std::lock_guard<std::mutex> guard(mu_);
  const TxnHandle h = next_handle_++;
  open_.emplace(h, std::move(ctx));
  return h;
}

Executor::TxnCtx* Session::Find(TxnHandle h) const {
  std::lock_guard<std::mutex> guard(mu_);
  auto it = open_.find(h);
  return it == open_.end() ? nullptr : it->second.get();
}

std::unique_ptr<Executor::TxnCtx> Session::Take(TxnHandle h) {
  std::lock_guard<std::mutex> guard(mu_);
  auto it = open_.find(h);
  if (it == open_.end()) return nullptr;
  std::unique_ptr<Executor::TxnCtx> ctx = std::move(it->second);
  open_.erase(it);
  return ctx;
}

namespace {
Status UnknownHandle() {
  return Status::TxnInvalid("unknown transaction handle");
}
}  // namespace

// Each operation runs outside mu_ on the stable heap context; an abort
// outcome retires the handle (the executor already rolled the transaction
// back, so the context holds nothing a client may legally revisit).

Status Session::Get(TxnHandle h, TableId table, Slice key,
                    std::string* value) {
  Executor::TxnCtx* ctx = Find(h);
  if (ctx == nullptr) return UnknownHandle();
  const Status st = executor_->Get(*ctx, table, key, value);
  if (st.IsAbort()) Take(h);
  return st;
}

Status Session::GetForUpdate(TxnHandle h, TableId table, Slice key,
                             std::string* value) {
  Executor::TxnCtx* ctx = Find(h);
  if (ctx == nullptr) return UnknownHandle();
  const Status st = executor_->GetForUpdate(*ctx, table, key, value);
  if (st.IsAbort()) Take(h);
  return st;
}

Status Session::Put(TxnHandle h, TableId table, Slice key, Slice value) {
  Executor::TxnCtx* ctx = Find(h);
  if (ctx == nullptr) return UnknownHandle();
  const Status st = executor_->Put(*ctx, table, key, value);
  if (st.IsAbort()) Take(h);
  return st;
}

Status Session::Insert(TxnHandle h, TableId table, Slice key, Slice value) {
  Executor::TxnCtx* ctx = Find(h);
  if (ctx == nullptr) return UnknownHandle();
  const Status st = executor_->Insert(*ctx, table, key, value);
  if (st.IsAbort()) Take(h);
  return st;
}

Status Session::Delete(TxnHandle h, TableId table, Slice key) {
  Executor::TxnCtx* ctx = Find(h);
  if (ctx == nullptr) return UnknownHandle();
  const Status st = executor_->Delete(*ctx, table, key);
  if (st.IsAbort()) Take(h);
  return st;
}

Status Session::Scan(TxnHandle h, TableId table, Slice lo, Slice hi,
                     const ScanCallback& fn) {
  Executor::TxnCtx* ctx = Find(h);
  if (ctx == nullptr) return UnknownHandle();
  const Status st = executor_->Scan(*ctx, table, lo, hi, fn);
  if (st.IsAbort()) Take(h);
  return st;
}

Status Session::Commit(TxnHandle h) {
  std::unique_ptr<Executor::TxnCtx> ctx = Take(h);
  if (ctx == nullptr) return UnknownHandle();
  return executor_->Commit(*ctx);
}

void Session::CommitAsync(TxnHandle h, TxnManager::CommitCallback done) {
  std::unique_ptr<Executor::TxnCtx> ctx = Take(h);
  if (ctx == nullptr) {
    done(UnknownHandle());
    return;
  }
  executor_->CommitAsync(*ctx, std::move(done));
  // The context dies here — Executor::CommitAsync finishes it at submit;
  // everything the in-flight acknowledgment needs travels in the callback.
}

Status Session::Abort(TxnHandle h) {
  std::unique_ptr<Executor::TxnCtx> ctx = Take(h);
  if (ctx == nullptr) return Status::OK();
  return executor_->Abort(*ctx);
}

size_t Session::open_transactions() const {
  std::lock_guard<std::mutex> guard(mu_);
  return open_.size();
}

TxnId Session::id(TxnHandle h) const {
  std::lock_guard<std::mutex> guard(mu_);
  auto it = open_.find(h);
  return it == open_.end() ? 0 : it->second->id;
}

Timestamp Session::snapshot_ts(TxnHandle h) const {
  std::lock_guard<std::mutex> guard(mu_);
  auto it = open_.find(h);
  if (it == open_.end()) return 0;
  // An abort whose status is not an abort code (an I/O failure) finishes
  // the context but leaves the handle open: read the copy taken then.
  const Executor::TxnCtx& ctx = *it->second;
  return ctx.finished ? ctx.outcome.snapshot_ts : ctx.state->read_ts.load();
}

}  // namespace ssidb
