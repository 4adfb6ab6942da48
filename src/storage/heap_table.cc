#include "storage/heap_table.h"

#include <cassert>
#include <cstring>
#include <string>

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

Status HeapTable::CheckRecordFits(const Tuple& t) const {
  size_t bytes = codec_.EncodedSize(t);
  if (bytes > kMaxRecordBytes) {
    return Status::InvalidArgument(
        "row of " + std::to_string(bytes) + " encoded bytes exceeds a page (" +
        std::to_string(kMaxRecordBytes) + ") in " + name_);
  }
  return Status::OK();
}

Rid HeapTable::Append(const Tuple& t) {
  epoch_ = NextContentEpoch();
  std::vector<uint8_t> rec;
  codec_.Encode(t, &rec);
  assert(rec.size() <= kMaxRecordBytes && "record larger than a page");
  if (pages_.empty() ||
      store_->GetPage(pages_.back())->used + rec.size() + 2 > kPageSize) {
    pages_.push_back(store_->Allocate());
    slot_offsets_.emplace_back();
  }
  Page* page = store_->GetPage(pages_.back());
  uint32_t slot = page->num_slots;
  slot_offsets_.back().push_back(static_cast<uint16_t>(page->used));
  PutRecord(page, rec);
  ++num_rows_;
  total_bytes_ += rec.size();
  return Rid{static_cast<uint32_t>(pages_.size() - 1), slot};
}

Result<Rid> HeapTable::Insert(const Tuple& t, const PageTouchFn& touch) {
  TB_RETURN_IF_ERROR(CheckRecordFits(t));
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

void HeapTable::DecodeSlot(const Page* page, size_t page_ordinal,
                           size_t slot, Tuple* out) const {
  // Skip the record's own length header.
  size_t off = slot_offsets_[page_ordinal][slot] + 2u;
  codec_.DecodeInto(page->data, &off, out);
}

Status HeapTable::FetchInto(const Rid& rid, const PageTouchFn& touch,
                            Tuple* out) const {
  TB_RETURN_IF_ERROR(FetchColumnsInto(rid, touch, nullptr, out));
  DecodeRowAt(rid, out);
  return Status::OK();
}

Status HeapTable::FetchColumnsInto(const Rid& rid, const PageTouchFn& touch,
                                   const std::vector<uint8_t>* cols,
                                   Tuple* out) const {
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
  if (cols != nullptr) {
    size_t off = slot_offsets_[rid.page_ordinal][rid.slot] + 2u;
    codec_.DecodeColumnsInto(page->data, &off, *cols, out);
  }
  return Status::OK();
}

void HeapTable::DecodeRowAt(const Rid& rid, Tuple* out) const {
  DecodeSlot(store_->GetPage(pages_[rid.page_ordinal]), rid.page_ordinal,
             rid.slot, out);
}

Result<Tuple> HeapTable::Fetch(const Rid& rid, const PageTouchFn& touch) const {
  Tuple t;
  TB_RETURN_IF_ERROR(FetchInto(rid, touch, &t));
  return t;
}

HeapTable::Cursor::Cursor(const HeapTable* table, PageTouchFn touch)
    : table_(table), touch_(std::move(touch)) {}

bool HeapTable::Cursor::Advance() {
  if (on_row_) {
    ++slot_;
    on_row_ = false;
  }
  while (page_ordinal_ < table_->pages_.size()) {
    PageId pid = table_->pages_[page_ordinal_];
    page_ = table_->store_->GetPage(pid);
    if (slot_ == 0) {
      // Once per scanned page, like the I/O it models; latched because a
      // cursor cannot propagate Status.
      TB_FAULT_TRIGGER("storage.heap_scan");
      if (touch_) touch_(pid);
    }
    for (; slot_ < page_->num_slots; ++slot_) {
      // Tombstones keep their bytes but never surface.
      if (!table_->IsDeleted(page_ordinal_, slot_)) {
        on_row_ = true;
        return true;
      }
    }
    ++page_ordinal_;
    slot_ = 0;
  }
  return false;
}

bool HeapTable::Cursor::Next(Tuple* t, Rid* rid) {
  if (!Advance()) return false;
  DecodeRow(t);
  if (rid != nullptr) *rid = this->rid();
  return true;
}

bool HeapTable::Cursor::NextColumns(Tuple* t,
                                    const std::vector<uint8_t>& cols) {
  if (!Advance()) return false;
  size_t off = table_->slot_offsets_[page_ordinal_][slot_] + 2u;
  table_->codec_.DecodeColumnsInto(page_->data, &off, cols, t);
  return true;
}

void HeapTable::Cursor::DecodeRow(Tuple* t) const {
  table_->DecodeSlot(page_, page_ordinal_, slot_, t);
}

void HeapTable::Drop() {
  epoch_ = NextContentEpoch();
  for (PageId pid : pages_) store_->Free(pid);
  pages_.clear();
  slot_offsets_.clear();
  deleted_.clear();
  num_rows_ = 0;
  num_deleted_ = 0;
  total_bytes_ = 0;
}

}  // namespace tabbench
