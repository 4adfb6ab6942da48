#ifndef TABBENCH_EXEC_IN_SET_H_
#define TABBENCH_EXEC_IN_SET_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "exec/exec_context.h"
#include "exec/plan.h"
#include "exec/plan_executor.h"
#include "storage/tuple_codec.h"
#include "types/value.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace tabbench {

/// One materialized IN-subquery value set: a flat, open-addressing set of
/// normalized keys, with no Value inside. An INT member is held as its
/// int64, a DOUBLE as its bits with -0.0 folded to 0.0, a STRING as its
/// bytes in one arena; NULL is never a member. Membership is therefore
/// Value::operator== equality, except that a NaN matches only the same NaN
/// bits (Value::Compare calls a NaN equal to everything; no benchmark column
/// holds one). Every
/// member has one type, the first inserted one's; a probe of another type is
/// no member. A probe reads a ColumnView, so a heap row is tested on its page
/// bytes (TupleCodec::Column) and a B-tree key in its leaf.
class FlatInSet {
 public:
  /// Ordinal Insert returns for a NULL key, which it does not add.
  static constexpr size_t kNoOrdinal = static_cast<size_t>(-1);

  /// Adds `key` unless it is NULL or already a member; returns its ordinal.
  /// Members are numbered 0, 1, ... in the order they were first inserted.
  size_t Insert(const ColumnView& key);
  size_t Insert(const Value& v) { return Insert(ColumnView::Of(v)); }

  bool Contains(const ColumnView& key) const;
  bool Contains(const Value& v) const { return Contains(ColumnView::Of(v)); }

  /// The member with ordinal `i`.
  ColumnView member(size_t i) const;
  size_t size() const { return entries_.size(); }

  /// True iff both sets have the same members.
  bool operator==(const FlatInSet& o) const;

 private:
  /// A member: an INT's or DOUBLE's normalized bits, or a STRING's hash
  /// and the place of its bytes in arena_.
  struct Entry {
    uint64_t word = 0;
    uint32_t offset = 0;
    uint32_t length = 0;
  };

  /// `key`'s hash (a non-NULL key of this set's type).
  uint64_t Hash(const ColumnView& key) const;
  /// `key`'s ordinal, or kNoOrdinal.
  size_t Find(const ColumnView& key, uint64_t hash) const;
  /// Places ordinal `ordinal`, whose hash is `hash`, in the first free slot
  /// of its probe sequence.
  void Place(uint64_t hash, size_t ordinal);
  void Grow();

  TypeId type_ = TypeId::kInt;
  std::vector<Entry> entries_;  // by ordinal
  /// Open addressing with linear probing, at most half full: 0 is a free
  /// slot, else the high 32 bits of the member's hash over its ordinal + 1,
  /// so most probes that miss never read entries_.
  std::vector<uint64_t> slots_;
  std::string arena_;  // STRING members' bytes, back to back
};

/// A shared, immutable FlatInSet, so a memo hit hands out the stored set
/// without copying it.
using InSet = std::shared_ptr<const FlatInSet>;

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
