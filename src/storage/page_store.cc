#include "storage/page_store.h"

#include <atomic>
#include <cassert>

#include "util/fault_injection.h"

namespace tabbench {

uint64_t NextContentEpoch() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1);
}

PageId PageStore::Allocate() {
  // Latched: Allocate cannot return Status; a firing fault surfaces at the
  // executor's next safe point (util/fault_injection.h).
  TB_FAULT_TRIGGER("storage.page_alloc");
  pages_.push_back(std::make_unique<Page>());
  ++live_pages_;
  return pages_.size() - 1;
}

Page* PageStore::GetPage(PageId id) {
  assert(id < pages_.size() && pages_[id] != nullptr);
  return pages_[id].get();
}

const Page* PageStore::GetPage(PageId id) const {
  TB_FAULT_TRIGGER("storage.page_read");
  assert(id < pages_.size() && pages_[id] != nullptr);
  return pages_[id].get();
}

void PageStore::Free(PageId id) {
  assert(id < pages_.size());
  if (pages_[id] != nullptr) {
    pages_[id].reset();
    --live_pages_;
  }
}

}  // namespace tabbench
