#include "exec/in_set.h"

#include <functional>
#include <tuple>
#include <unordered_map>

#include "util/fault_injection.h"

namespace tabbench {

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
  std::unordered_map<Value, uint64_t, ValueHash> counts;
  if (btree != nullptr) {
    auto iter = btree->ScanAll(touch);
    Rid rid;
    // Keys are counted in place in their leaves, never copied.
    while (const IndexKey* k = iter.NextKey(&rid)) {
      ++script.back().rows;
      TB_RETURN_IF_ERROR(ChargeRow(ctx));
      counts[(*k)[0]] += 1;
    }
  } else {
    size_t pos = static_cast<size_t>(spec.column_pos);
    // Only the counted column is read, so only it is decoded.
    std::vector<uint8_t> cols(heap->codec().types().size(), 0);
    cols[pos] = 1;
    auto cursor = heap->Scan(touch);
    Tuple t;
    while (cursor.NextColumns(&t, cols)) {
      ++script.back().rows;
      TB_RETURN_IF_ERROR(ChargeRow(ctx));
      counts[t.at(pos)] += 1;
    }
  }
  std::unordered_set<Value, ValueHash> out;
  // Order-insensitive: fills another unordered set (membership probes
  // only), so hash-iteration order never reaches any ordered output.
  for (const auto& [v, c] : counts) {  // NOLINT(tabbench-unordered-iter)
    bool keep = (spec.cmp == '<') ? (c < static_cast<uint64_t>(spec.k))
                                  : (c == static_cast<uint64_t>(spec.k));
    if (keep && !v.is_null()) out.insert(v);
  }
  entry->values =
      std::make_shared<const std::unordered_set<Value, ValueHash>>(
          std::move(out));
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
