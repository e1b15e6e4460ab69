#include "src/txn/transaction.h"

namespace ssidb {

void ConflictRef::Tidy() {
  if (kind != Kind::kOther) return;
  // seq_cst: TxnManager's "TxnState lifetime" (3) orders this load against
  // the partner's final status store and the clock read at its retire.
  const TxnStatus st = other->status.load(std::memory_order_seq_cst);
  if (st == TxnStatus::kCommitted) {
    // The thesis's Fig 3.10 lines 9-12, made precise: remember the commit
    // time, drop the pointer so reference chains cannot accumulate.
    Collapse(other->commit_ts.load(std::memory_order_acquire));
  } else if (st == TxnStatus::kAborted) {
    // Aborted transactions never appear in the MVSG; the edge is gone.
    Clear();
  }
}

}  // namespace ssidb
