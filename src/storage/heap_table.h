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
/// A record must fit one page (kMaxRecordBytes); Insert rejects a larger
/// row with InvalidArgument before changing anything.
/// Deletes are tombstones (a per-page slot bitmap in the table header, the
/// slotted-page "dead" bit): the record bytes stay where they are, scans and
/// fetches skip them, and an UPDATE is modeled as delete + re-append — which
/// is also what makes index clustering decay under churn.
///
/// Slot directory: beside each page (not in its bytes) the table keeps the
/// byte offset of every record, filled by Append, so Fetch jumps straight to
/// its slot instead of walking the record lengths before it. It lives in
/// memory only, like the tombstone bitmap, so page counts and every
/// simulated charge are those of the plain back-to-back layout.
///
/// Reads decode into the caller's tuple (TupleCodec::DecodeInto): Cursor::
/// Next and FetchInto overwrite `*t` in place, so an operator that passes
/// the same tuple row after row allocates nothing once its string buffers
/// have grown. Fetch is FetchInto a fresh tuple. Cursor::NextRecord and
/// FetchRecord stop short of the decode and hand out the encoded row on its
/// page, so a filter can test it in place (TupleCodec::Column) and decode
/// only a row that passes.
class HeapTable {
 public:
  HeapTable(std::string name, TupleCodec codec, PageStore* store);

  /// Largest encoded row a page holds, after its 2-byte length header.
  static constexpr size_t kMaxRecordBytes = kPageSize - 2;

  /// InvalidArgument iff `t` encodes to more than kMaxRecordBytes.
  Status CheckRecordFits(const Tuple& t) const;

  /// Appends a row; returns its Rid. Allocates a new page when the current
  /// one cannot hold the record. The row must fit (CheckRecordFits).
  Rid Append(const Tuple& t);

  /// Append with write-path accounting: reports the written (tail) page
  /// through `touch` and can fail via the `storage.heap_insert` fault point
  /// (before any mutation). A row that does not fit a page is rejected with
  /// InvalidArgument first, before the content epoch is renewed. The plain
  /// Append above stays for bulk loaders, which charge sequentially per page
  /// instead.
  Result<Rid> Insert(const Tuple& t, const PageTouchFn& touch);

  /// Tombstones the row at `rid`; NotFound if out of range or already
  /// deleted. Fault point: `storage.heap_delete` (before any mutation).
  Status Delete(const Rid& rid, const PageTouchFn& touch);

  /// True iff `rid` addresses a live (non-tombstoned, in-range) row.
  bool IsLive(const Rid& rid) const;

  /// Decodes the row at `rid` into `*out` (in place, see the class
  /// comment). `touch` (if set) is called for the page. NotFound for
  /// tombstoned or out-of-range rows, which leave `*out` untouched.
  Status FetchInto(const Rid& rid, const PageTouchFn& touch, Tuple* out) const;

  /// FetchInto without the decode: the fault point, checks and page touch
  /// are FetchInto's, so a row rejected on its bytes costs what a full fetch
  /// costs in simulated time. The encoded row (TupleCodec format) stays
  /// valid until the table changes.
  Result<const uint8_t*> FetchRecord(const Rid& rid,
                                     const PageTouchFn& touch) const;

  /// FetchInto a fresh tuple.
  Result<Tuple> Fetch(const Rid& rid, const PageTouchFn& touch) const;

  /// Forward scan over all rows.
  class Cursor {
   public:
    Cursor(const HeapTable* table, PageTouchFn touch);
    /// Advances; returns false at end. On true, the row is decoded into
    /// `*t` in place and `*rid` (if non-null) is set.
    bool Next(Tuple* t, Rid* rid);

    /// Next without the decode: the encoded row on its page, or nullptr at
    /// end. Page touches and fault triggers are those of Next.
    const uint8_t* NextRecord();

    /// Decodes the whole row the last successful Next/NextRecord stopped on
    /// into `*t`.
    void DecodeRow(Tuple* t) const;

    /// The Rid of the row the last successful Next/NextRecord stopped on.
    Rid rid() const {
      return Rid{static_cast<uint32_t>(page_ordinal_),
                 static_cast<uint32_t>(slot_)};
    }

   private:
    /// Moves to the next live row (touching each page on entry); false at
    /// end. On true the row is (page_ordinal_, slot_) on page_.
    bool Advance();

    const HeapTable* table_;
    PageTouchFn touch_;
    size_t page_ordinal_ = 0;
    size_t slot_ = 0;
    const Page* page_ = nullptr;
    bool on_row_ = false;  // slot_ is the row last returned
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
  /// The encoded row in `slot` of `page` (the page at `page_ordinal`), past
  /// its length header.
  const uint8_t* RecordAt(const Page* page, size_t page_ordinal,
                          size_t slot) const {
    return page->data + slot_offsets_[page_ordinal][slot] + 2u;
  }

  std::string name_;
  TupleCodec codec_;
  PageStore* store_;
  std::vector<PageId> pages_;
  /// Slot directory, parallel to pages_: the byte offset of each record's
  /// length header on its page.
  std::vector<std::vector<uint16_t>> slot_offsets_;
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
