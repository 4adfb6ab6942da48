#ifndef TABBENCH_STORAGE_PAGE_STORE_H_
#define TABBENCH_STORAGE_PAGE_STORE_H_

#include <cstdint>
#include <memory>
#include <vector>

namespace tabbench {

/// Disk page size. 8 KiB, the common unit in 2005-era commercial systems.
inline constexpr size_t kPageSize = 8192;

using PageId = uint64_t;
inline constexpr PageId kInvalidPageId = ~PageId{0};

/// Draws a fresh *content epoch* from one process-wide counter (never 0,
/// never reused). Every HeapTable and BTree takes one when constructed and
/// again at the entry of every mutator, before it changes anything, so an
/// equal epoch means unchanged contents — the validity check of the
/// executor's IN-set memo (exec/in_set.h). Thread-safe.
uint64_t NextContentEpoch();

/// A disk page: a fixed-size byte buffer.
struct Page {
  uint8_t data[kPageSize];
  /// Bytes used (append-only heap pages track their fill level here).
  uint32_t used = 0;
  /// Number of records on the page.
  uint32_t num_slots = 0;
};

/// The simulated disk: an append-only collection of pages. All *timed*
/// access goes through the buffer pool / ExecContext so that misses are
/// charged to simulated elapsed time; the store itself is a dumb byte array.
class PageStore {
 public:
  PageStore() = default;
  PageStore(const PageStore&) = delete;
  PageStore& operator=(const PageStore&) = delete;

  PageId Allocate();
  Page* GetPage(PageId id);
  const Page* GetPage(PageId id) const;

  /// Releases a page's buffer (drop index/view). The id is never reused.
  void Free(PageId id);

  size_t allocated_pages() const { return live_pages_; }

 private:
  std::vector<std::unique_ptr<Page>> pages_;
  size_t live_pages_ = 0;
};

}  // namespace tabbench

#endif  // TABBENCH_STORAGE_PAGE_STORE_H_
