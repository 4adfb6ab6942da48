#ifndef TABBENCH_EXEC_IN_SET_H_
#define TABBENCH_EXEC_IN_SET_H_

#include <cstdint>
#include <map>
#include <memory>
#include <unordered_set>
#include <vector>

#include "exec/exec_context.h"
#include "exec/plan.h"
#include "exec/plan_executor.h"
#include "types/value.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace tabbench {

/// One materialized IN-subquery value set. Immutable and shared, so a memo
/// hit hands out the stored set without copying it.
using InSet = std::shared_ptr<const std::unordered_set<Value, ValueHash>>;

/// Materialized IN-subquery value sets, one per PhysicalPlan::in_sets entry.
using InSets = std::vector<InSet>;

/// Completed IN-set frequency scans, kept so that a query re-running a
/// subquery over unchanged storage scans it once. One per Database, handed
/// to both executors through ObjectResolver::in_set_memo().
///
/// An entry is keyed by the scanned structure (the BTree of an index-only
/// scan, else the HeapTable), the column read, and the HAVING filter. It
/// holds the value set, the scan's *charge script* — every page the scan
/// touched, in order, with the number of rows read after it — and whether
/// the scan read a heap. It is valid while the structure's content epoch
/// (storage/page_store.h) equals the one recorded when it was filled:
/// every storage mutator renews the epoch before it changes anything, and
/// a new structure takes a fresh one, so a stale entry, or one left by a
/// freed structure whose address was reused, can never match.
///
/// A hit replays the script through the same ExecContext calls, in the
/// same order, that the live scan makes, so simulated time, buffer-pool
/// state, recorded traces, and the row at which a timeout or injected fault
/// surfaces are identical to a live scan.
///
/// Thread-safe: concurrent readers may fill the memo at once. Their
/// contents are identical, so which fill lands last does not matter.
class InSetMemo {
 public:
  struct Key {
    const void* object = nullptr;  // scanned BTree or HeapTable
    int column = 0;                // key column 0, or the heap column read
    char cmp = '<';
    int64_t k = 0;

    bool operator<(const Key& o) const;
  };

  /// One touched page of a recorded scan and the rows read after it,
  /// before the next page touch.
  struct Step {
    PageId page = kInvalidPageId;
    uint64_t rows = 0;
  };

  struct Entry {
    uint64_t epoch = 0;  // content epoch of the scanned structure
    bool heap = false;   // replay fires the `storage.heap_scan` trigger
    std::vector<Step> script;
    InSet values;
  };

  /// The entry for `key` if it was filled at content epoch `epoch`.
  std::shared_ptr<const Entry> Find(const Key& key, uint64_t epoch) const
      TB_EXCLUDES(mu_);
  void Store(const Key& key, std::shared_ptr<const Entry> entry)
      TB_EXCLUDES(mu_);
  /// Drops every entry (bounds memory across configuration changes).
  void Clear() TB_EXCLUDES(mu_);
  size_t size() const TB_EXCLUDES(mu_);

 private:
  mutable Mutex mu_;
  std::map<Key, std::shared_ptr<const Entry>> entries_ TB_GUARDED_BY(mu_);
};

/// Builds the value set for one InSetSpec by a frequency scan of the
/// subquery table (index-only when the spec names an index), charging all
/// work to `ctx` and respecting its timeout and latched faults. With a memo
/// on `resolver`, a scan of unchanged storage is replayed from the memo
/// instead; only a scan that completes is stored.
Result<InSet> MaterializeInSet(const InSetSpec& spec,
                               const ObjectResolver& resolver,
                               ExecContext* ctx);

/// Materializes every IN-set of `plan`, in order — the first step of both
/// executors. A Timeout status means the query timed out.
Result<InSets> MaterializeInSets(const PhysicalPlan& plan,
                                 const ObjectResolver& resolver,
                                 ExecContext* ctx);

}  // namespace tabbench

#endif  // TABBENCH_EXEC_IN_SET_H_
