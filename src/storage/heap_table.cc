#include "storage/heap_table.h"

#include <cassert>
#include <cstring>

#include "util/fault_injection.h"

namespace tabbench {

namespace {
void PutRecord(Page* page, const std::vector<uint8_t>& rec) {
  uint16_t len = static_cast<uint16_t>(rec.size());
  std::memcpy(page->data + page->used, &len, 2);
  std::memcpy(page->data + page->used + 2, rec.data(), rec.size());
  page->used += 2 + static_cast<uint32_t>(rec.size());
  page->num_slots += 1;
}
}  // namespace

HeapTable::HeapTable(std::string name, TupleCodec codec, PageStore* store)
    : name_(std::move(name)), codec_(std::move(codec)), store_(store) {}

Rid HeapTable::Append(const Tuple& t) {
  epoch_ = NextContentEpoch();
  std::vector<uint8_t> rec;
  codec_.Encode(t, &rec);
  assert(rec.size() + 2 <= kPageSize && "record larger than a page");
  if (pages_.empty() ||
      store_->GetPage(pages_.back())->used + rec.size() + 2 > kPageSize) {
    pages_.push_back(store_->Allocate());
  }
  Page* page = store_->GetPage(pages_.back());
  uint32_t slot = page->num_slots;
  PutRecord(page, rec);
  ++num_rows_;
  total_bytes_ += rec.size();
  return Rid{static_cast<uint32_t>(pages_.size() - 1), slot};
}

Result<Rid> HeapTable::Insert(const Tuple& t, const PageTouchFn& touch) {
  epoch_ = NextContentEpoch();
  TB_FAULT_POINT("storage.heap_insert");
  Rid rid = Append(t);
  if (touch) touch(pages_[rid.page_ordinal]);
  return rid;
}

bool HeapTable::IsDeleted(size_t page_ordinal, size_t slot) const {
  return page_ordinal < deleted_.size() && slot < deleted_[page_ordinal].size() &&
         deleted_[page_ordinal][slot] != 0;
}

bool HeapTable::IsLive(const Rid& rid) const {
  if (rid.page_ordinal >= pages_.size()) return false;
  const Page* page = store_->GetPage(pages_[rid.page_ordinal]);
  if (rid.slot >= page->num_slots) return false;
  return !IsDeleted(rid.page_ordinal, rid.slot);
}

Status HeapTable::Delete(const Rid& rid, const PageTouchFn& touch) {
  epoch_ = NextContentEpoch();
  TB_FAULT_POINT("storage.heap_delete");
  if (rid.page_ordinal >= pages_.size()) {
    return Status::NotFound("rid page out of range in " + name_);
  }
  PageId pid = pages_[rid.page_ordinal];
  if (touch) touch(pid);
  const Page* page = store_->GetPage(pid);
  if (rid.slot >= page->num_slots) {
    return Status::NotFound("rid slot out of range in " + name_);
  }
  if (IsDeleted(rid.page_ordinal, rid.slot)) {
    return Status::NotFound("row already deleted in " + name_);
  }
  if (deleted_.size() <= rid.page_ordinal) deleted_.resize(pages_.size());
  auto& bitmap = deleted_[rid.page_ordinal];
  if (bitmap.size() <= rid.slot) bitmap.resize(page->num_slots, 0);
  bitmap[rid.slot] = 1;
  --num_rows_;
  ++num_deleted_;
  return Status::OK();
}

Result<Tuple> HeapTable::Fetch(const Rid& rid, const PageTouchFn& touch) const {
  TB_FAULT_POINT("storage.heap_fetch");
  if (rid.page_ordinal >= pages_.size()) {
    return Status::NotFound("rid page out of range in " + name_);
  }
  if (IsDeleted(rid.page_ordinal, rid.slot)) {
    return Status::NotFound("row deleted in " + name_);
  }
  PageId pid = pages_[rid.page_ordinal];
  if (touch) touch(pid);
  const Page* page = store_->GetPage(pid);
  if (rid.slot >= page->num_slots) {
    return Status::NotFound("rid slot out of range in " + name_);
  }
  size_t off = 0;
  for (uint32_t s = 0; s < rid.slot; ++s) {
    uint16_t len;
    std::memcpy(&len, page->data + off, 2);
    off += 2 + len;
  }
  off += 2;  // skip the record's own length header
  return codec_.Decode(page->data, &off);
}

HeapTable::Cursor::Cursor(const HeapTable* table, PageTouchFn touch)
    : table_(table), touch_(std::move(touch)) {}

bool HeapTable::Cursor::Next(Tuple* t, Rid* rid) {
  while (page_ordinal_ < table_->pages_.size()) {
    PageId pid = table_->pages_[page_ordinal_];
    const Page* page = table_->store_->GetPage(pid);
    if (slot_ == 0) {
      // Once per scanned page, like the I/O it models; latched because a
      // cursor cannot propagate Status.
      TB_FAULT_TRIGGER("storage.heap_scan");
      if (touch_) touch_(pid);
    }
    if (slot_ < page->num_slots) {
      if (table_->IsDeleted(page_ordinal_, slot_)) {
        // Tombstone: still decode past the record bytes (records are
        // back-to-back), but don't surface the row.
        uint16_t len;
        std::memcpy(&len, page->data + offset_, 2);
        offset_ += 2u + len;
        ++slot_;
        continue;
      }
      offset_ += 2;  // record length header
      *t = table_->codec_.Decode(page->data, &offset_);
      if (rid != nullptr) {
        *rid = Rid{static_cast<uint32_t>(page_ordinal_),
                   static_cast<uint32_t>(slot_)};
      }
      ++slot_;
      return true;
    }
    ++page_ordinal_;
    slot_ = 0;
    offset_ = 0;
  }
  return false;
}

void HeapTable::Drop() {
  epoch_ = NextContentEpoch();
  for (PageId pid : pages_) store_->Free(pid);
  pages_.clear();
  deleted_.clear();
  num_rows_ = 0;
  num_deleted_ = 0;
  total_bytes_ = 0;
}

}  // namespace tabbench
