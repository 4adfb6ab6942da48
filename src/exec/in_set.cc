#include "exec/in_set.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <functional>
#include <string_view>
#include <tuple>

#include "util/fault_injection.h"

namespace tabbench {

namespace {

constexpr uint64_t kNegativeZeroBits = uint64_t{1} << 63;

/// A numeric key's stored bits: its word, with -0.0 folded to 0.0.
uint64_t NumericBits(const ColumnView& key) {
  return key.type == TypeId::kDouble && key.word == kNegativeZeroBits
             ? 0
             : key.word;
}

/// murmur3's 64-bit finalizer: spreads an integer key over every bit, so
/// the low bits index slots and the high bits make the slot tag.
uint64_t Mix(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

constexpr uint64_t kOrdinalMask = 0xffffffffULL;

}  // namespace

inline uint64_t FlatInSet::Hash(const ColumnView& key) const {
  if (key.type == TypeId::kString) {
    return std::hash<std::string_view>()(key.bytes);
  }
  return Mix(NumericBits(key));
}

inline size_t FlatInSet::Find(const ColumnView& key, uint64_t hash) const {
  const size_t mask = slots_.size() - 1;
  const uint64_t tag = hash >> 32;
  const bool string = type_ == TypeId::kString;
  const uint64_t bits = string ? hash : NumericBits(key);
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    const uint64_t slot = slots_[i];
    if (slot == 0) return kNoOrdinal;
    if ((slot >> 32) != tag) continue;
    const size_t ordinal = (slot & kOrdinalMask) - 1;
    const Entry& e = entries_[ordinal];
    if (e.word != bits) continue;
    if (!string || (e.length == key.bytes.size() &&
                    std::memcmp(arena_.data() + e.offset, key.bytes.data(),
                                e.length) == 0)) {
      return ordinal;
    }
  }
}

bool FlatInSet::Contains(const ColumnView& key) const {
  return !key.null && key.type == type_ && !entries_.empty() &&
         Find(key, Hash(key)) != kNoOrdinal;
}

void FlatInSet::Place(uint64_t hash, size_t ordinal) {
  const size_t mask = slots_.size() - 1;
  size_t i = hash & mask;
  while (slots_[i] != 0) i = (i + 1) & mask;
  slots_[i] = (hash >> 32 << 32) | (ordinal + 1);
}

void FlatInSet::Grow() {
  slots_.assign(std::max<size_t>(16, slots_.size() * 2), 0);
  for (size_t ordinal = 0; ordinal < entries_.size(); ++ordinal) {
    const Entry& e = entries_[ordinal];
    Place(type_ == TypeId::kString ? e.word : Mix(e.word), ordinal);
  }
}

size_t FlatInSet::Insert(const ColumnView& key) {
  if (key.null) return kNoOrdinal;
  if (entries_.empty()) type_ = key.type;
  assert(key.type == type_ && "an IN-set holds one type");
  const uint64_t hash = Hash(key);
  if (!entries_.empty()) {
    const size_t found = Find(key, hash);
    if (found != kNoOrdinal) return found;
  }
  assert(entries_.size() < kOrdinalMask);
  if (2 * (entries_.size() + 1) > slots_.size()) Grow();
  Entry e;
  if (type_ == TypeId::kString) {
    e.word = hash;
    e.offset = static_cast<uint32_t>(arena_.size());
    e.length = static_cast<uint32_t>(key.bytes.size());
    arena_.append(key.bytes);
  } else {
    e.word = NumericBits(key);
  }
  entries_.push_back(e);
  Place(hash, entries_.size() - 1);
  return entries_.size() - 1;
}

ColumnView FlatInSet::member(size_t i) const {
  const Entry& e = entries_[i];
  ColumnView v;
  v.type = type_;
  v.null = false;
  if (type_ == TypeId::kString) {
    v.bytes = std::string_view(arena_).substr(e.offset, e.length);
  } else {
    v.word = e.word;
  }
  return v;
}

bool FlatInSet::operator==(const FlatInSet& o) const {
  if (size() != o.size()) return false;
  for (size_t i = 0; i < size(); ++i) {
    if (!o.Contains(member(i))) return false;
  }
  return true;
}

bool InSetMemo::Key::operator<(const Key& o) const {
  if (object != o.object) return std::less<const void*>()(object, o.object);
  return std::tie(column, cmp, k) < std::tie(o.column, o.cmp, o.k);
}

std::shared_ptr<const InSetMemo::Entry> InSetMemo::Find(const Key& key,
                                                        uint64_t epoch) const {
  MutexLock lock(&mu_);
  auto it = entries_.find(key);
  if (it == entries_.end() || it->second->epoch != epoch) return nullptr;
  return it->second;
}

void InSetMemo::Store(const Key& key, std::shared_ptr<const Entry> entry) {
  MutexLock lock(&mu_);
  entries_[key] = std::move(entry);
}

void InSetMemo::Clear() {
  MutexLock lock(&mu_);
  entries_.clear();
}

size_t InSetMemo::size() const {
  MutexLock lock(&mu_);
  return entries_.size();
}

namespace {

/// Charges one scanned row exactly as the live scan does.
Status ChargeRow(ExecContext* ctx) {
  ctx->ChargeTuples(1);
  ctx->ChargeHashOps(1);
  return ctx->CheckTimeout();
}

/// Re-issues a recorded scan's charges: each page touch, preceded for a
/// heap by the `storage.heap_scan` trigger where HeapTable::Cursor::Next
/// fires it, then the page's rows.
Status ReplayScan(const InSetMemo::Entry& entry, ExecContext* ctx) {
  for (const InSetMemo::Step& step : entry.script) {
    if (entry.heap) TB_FAULT_TRIGGER("storage.heap_scan");
    ctx->TouchPage(step.page);
    for (uint64_t r = 0; r < step.rows; ++r) {
      TB_RETURN_IF_ERROR(ChargeRow(ctx));
    }
  }
  return Status::OK();
}

}  // namespace

Result<InSet> MaterializeInSet(const InSetSpec& spec,
                               const ObjectResolver& resolver,
                               ExecContext* ctx) {
  const BTree* btree = nullptr;
  const HeapTable* heap = nullptr;
  InSetMemo::Key key;
  key.cmp = spec.cmp;
  key.k = spec.k;
  if (!spec.index_name.empty()) {
    const IndexInfo* idx = resolver.FindIndex(spec.index_name);
    if (idx == nullptr) {
      return Status::NotFound("IN-set index " + spec.index_name);
    }
    btree = idx->btree;
    key.object = btree;
  } else {
    heap = resolver.FindHeap(spec.table);
    if (heap == nullptr) {
      return Status::NotFound("IN-set table " + spec.table);
    }
    if (spec.column_pos < 0) {
      return Status::Internal("IN-set spec missing column position for " +
                              spec.table + "." + spec.column);
    }
    key.object = heap;
    key.column = spec.column_pos;
  }
  const uint64_t epoch =
      btree != nullptr ? btree->content_epoch() : heap->content_epoch();
  InSetMemo* memo = resolver.in_set_memo();
  if (memo != nullptr) {
    if (auto hit = memo->Find(key, epoch)) {
      TB_RETURN_IF_ERROR(ReplayScan(*hit, ctx));
      return hit->values;
    }
  }

  auto entry = std::make_shared<InSetMemo::Entry>();
  entry->epoch = epoch;
  entry->heap = heap != nullptr;
  std::vector<InSetMemo::Step>& script = entry->script;
  auto touch = [ctx, &script](PageId id) {
    ctx->TouchPage(id);
    script.push_back({id, 0});
  };
  // Keys are counted where they lie, in their leaves or on their heap
  // pages; only the kept ones are copied, into the result.
  FlatInSet seen;
  std::vector<uint64_t> counts;  // by ordinal in `seen`
  auto count = [&seen, &counts](const ColumnView& k) {
    const size_t ordinal = seen.Insert(k);
    if (ordinal == FlatInSet::kNoOrdinal) return;  // NULL
    if (ordinal == counts.size()) counts.push_back(0);
    ++counts[ordinal];
  };
  if (btree != nullptr) {
    auto iter = btree->ScanAll(touch);
    Rid rid;
    while (const IndexKey* k = iter.NextKey(&rid)) {
      ++script.back().rows;
      TB_RETURN_IF_ERROR(ChargeRow(ctx));
      count(ColumnView::Of((*k)[0]));
    }
  } else {
    const size_t pos = static_cast<size_t>(spec.column_pos);
    const TupleCodec& codec = heap->codec();
    auto cursor = heap->Scan(touch);
    while (const uint8_t* row = cursor.NextRecord()) {
      ++script.back().rows;
      TB_RETURN_IF_ERROR(ChargeRow(ctx));
      count(codec.Column(row, pos));
    }
  }
  auto out = std::make_shared<FlatInSet>();
  for (size_t i = 0; i < counts.size(); ++i) {
    const uint64_t c = counts[i];
    bool keep = (spec.cmp == '<') ? (c < static_cast<uint64_t>(spec.k))
                                  : (c == static_cast<uint64_t>(spec.k));
    if (keep) out->Insert(seen.member(i));
  }
  entry->values = std::move(out);
  if (memo != nullptr) memo->Store(key, entry);
  return entry->values;
}

Result<InSets> MaterializeInSets(const PhysicalPlan& plan,
                                 const ObjectResolver& resolver,
                                 ExecContext* ctx) {
  InSets sets;
  sets.reserve(plan.in_sets.size());
  for (const auto& spec : plan.in_sets) {
    InSet set;
    TB_ASSIGN_OR_RETURN(set, MaterializeInSet(spec, resolver, ctx));
    sets.push_back(std::move(set));
  }
  return sets;
}

}  // namespace tabbench
