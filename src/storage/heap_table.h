#ifndef TABBENCH_STORAGE_HEAP_TABLE_H_
#define TABBENCH_STORAGE_HEAP_TABLE_H_

#include <functional>
#include <string>
#include <vector>

#include "storage/page_store.h"
#include "storage/tuple_codec.h"
#include "types/tuple.h"
#include "util/status.h"

namespace tabbench {

/// Physical address of a row: (ordinal of the page within the table,
/// slot on that page).
struct Rid {
  uint32_t page_ordinal = 0;
  uint32_t slot = 0;

  bool operator==(const Rid& o) const {
    return page_ordinal == o.page_ordinal && slot == o.slot;
  }
  bool operator<(const Rid& o) const {
    return page_ordinal != o.page_ordinal ? page_ordinal < o.page_ordinal
                                          : slot < o.slot;
  }
};

/// Callback invoked once per page touched, for buffer-pool / cost
/// accounting. Storage itself never charges time — callers decide.
using PageTouchFn = std::function<void(PageId)>;

/// An append-only heap table: rows encoded back-to-back on 8 KiB pages.
/// Record format on a page: [uint16 length][TupleCodec bytes] repeated;
/// Page::used is the fill offset and Page::num_slots the record count.
/// Deletes are tombstones (a per-page slot bitmap in the table header, the
/// slotted-page "dead" bit): the record bytes stay where they are, scans and
/// fetches skip them, and an UPDATE is modeled as delete + re-append — which
/// is also what makes index clustering decay under churn, the physical
/// effect the paper's stats-staleness story needs.
class HeapTable {
 public:
  HeapTable(std::string name, TupleCodec codec, PageStore* store);

  /// Appends a row; returns its Rid. Allocates a new page when the current
  /// one cannot hold the record.
  Rid Append(const Tuple& t);

  /// Append with write-path accounting: reports the written (tail) page
  /// through `touch` and can fail via the `storage.heap_insert` fault point
  /// (before any mutation). The plain Append above stays for bulk loaders,
  /// which charge sequentially per page instead.
  Result<Rid> Insert(const Tuple& t, const PageTouchFn& touch);

  /// Tombstones the row at `rid`; NotFound if out of range or already
  /// deleted. Fault point: `storage.heap_delete` (before any mutation).
  Status Delete(const Rid& rid, const PageTouchFn& touch);

  /// True iff `rid` addresses a live (non-tombstoned, in-range) row.
  bool IsLive(const Rid& rid) const;

  /// Reads the row at `rid`. `touch` (if set) is called for the page.
  /// NotFound for tombstoned rows.
  Result<Tuple> Fetch(const Rid& rid, const PageTouchFn& touch) const;

  /// Forward scan over all rows.
  class Cursor {
   public:
    Cursor(const HeapTable* table, PageTouchFn touch);
    /// Advances; returns false at end. On true, `*t` (and `*rid`, if
    /// non-null) are set.
    bool Next(Tuple* t, Rid* rid);

   private:
    const HeapTable* table_;
    PageTouchFn touch_;
    size_t page_ordinal_ = 0;
    size_t slot_ = 0;
    size_t offset_ = 0;
  };

  Cursor Scan(PageTouchFn touch) const { return Cursor(this, std::move(touch)); }

  const std::string& name() const { return name_; }
  const TupleCodec& codec() const { return codec_; }
  /// Live rows (tombstones excluded).
  uint64_t num_rows() const { return num_rows_; }
  /// Tombstoned rows still occupying page bytes.
  uint64_t num_deleted() const { return num_deleted_; }
  size_t num_pages() const { return pages_.size(); }
  const std::vector<PageId>& pages() const { return pages_; }
  uint64_t total_bytes() const { return total_bytes_; }
  /// Content epoch (NextContentEpoch): renewed at construction and at the
  /// entry of Append, Insert, Delete and Drop.
  uint64_t content_epoch() const { return epoch_; }

  /// Frees all pages (dropping a materialized view).
  void Drop();

 private:
  bool IsDeleted(size_t page_ordinal, size_t slot) const;

  std::string name_;
  TupleCodec codec_;
  PageStore* store_;
  std::vector<PageId> pages_;
  /// Tombstone bitmap, parallel to pages_; a page's vector is sized lazily
  /// on its first delete, so insert-only tables pay nothing.
  std::vector<std::vector<uint8_t>> deleted_;
  uint64_t num_rows_ = 0;
  uint64_t num_deleted_ = 0;
  uint64_t total_bytes_ = 0;
  uint64_t epoch_ = NextContentEpoch();
};

}  // namespace tabbench

#endif  // TABBENCH_STORAGE_HEAP_TABLE_H_
