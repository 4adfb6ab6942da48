#include <algorithm>
#include <cmath>

#include "engine/database.h"
#include "exec/operators.h"
#include "optimizer/planner.h"
#include "storage/abbrev_sort.h"
#include "util/fault_injection.h"
#include "util/strings.h"

namespace tabbench {

namespace {
/// Configuration builds are long-running DDL, not queries: they are not
/// subject to the 30-minute query timeout (paper Table 1 reports build
/// times of up to 2860 minutes).
CostParams BuildParams(CostParams p) {
  p.timeout_seconds = 1e18;
  return p;
}
}  // namespace

Status Database::BuildIndex(const IndexDef& def, ExecContext* ctx,
                            std::vector<std::unique_ptr<BuiltIndex>>* out) {
  if (FindBuiltIndex(def.name) != nullptr) {
    return Status::AlreadyExists("index " + def.name);
  }
  const HeapTable* heap = FindHeap(def.target);
  if (heap == nullptr) {
    return Status::NotFound("index target " + def.target);
  }

  // Resolve key columns to heap positions and estimate the key width.
  std::vector<int> key_cols;
  double key_width = 0.0;
  const TableDef* tdef = catalog_.FindTable(def.target);
  if (tdef != nullptr) {
    for (const auto& c : def.columns) {
      int pos = tdef->ColumnIndex(c);
      if (pos < 0) {
        return Status::NotFound("column " + c + " in " + def.target);
      }
      key_cols.push_back(pos);
      key_width += tdef->columns[static_cast<size_t>(pos)].avg_width;
    }
  } else {
    // Index over a materialized view: columns are view column names.
    const BuiltView* view = nullptr;
    for (const auto& bv : views_) {
      if (bv->def.name == def.target) view = bv.get();
    }
    if (view == nullptr) return Status::NotFound("view " + def.target);
    for (const auto& c : def.columns) {
      int pos = -1;
      for (size_t i = 0; i < view->def.projection.size(); ++i) {
        if (view->def.projection[i].view_name == c) {
          pos = static_cast<int>(i);
          break;
        }
      }
      if (pos < 0) {
        return Status::NotFound("view column " + c + " in " + def.target);
      }
      key_cols.push_back(pos);
      const TableDef* base =
          catalog_.FindTable(view->def.projection[static_cast<size_t>(pos)].table);
      int bc = base == nullptr
                   ? -1
                   : base->ColumnIndex(
                         view->def.projection[static_cast<size_t>(pos)].column);
      key_width += (base != nullptr && bc >= 0)
                       ? base->columns[static_cast<size_t>(bc)].avg_width
                       : 8;
    }
  }

  // Scan the heap extracting (key, rid) pairs, and each pair's sort record
  // while its key is at hand; only key columns decode.
  std::vector<uint8_t> decode(heap->codec().types().size(), 0);
  for (int pos : key_cols) decode[static_cast<size_t>(pos)] = 1;
  std::vector<std::pair<IndexKey, Rid>> entries;
  entries.reserve(heap->num_rows());
  std::vector<AbbrevEntry> order;
  order.reserve(heap->num_rows());
  auto cursor = heap->Scan([ctx](PageId id) { ctx->TouchPage(id); });
  Tuple t;
  while (cursor.NextColumns(&t, decode)) {
    ctx->ChargeTuples(1);
    IndexKey key;
    key.reserve(key_cols.size());
    for (int pos : key_cols) key.push_back(t.at(static_cast<size_t>(pos)));
    // The leading column's prefix; the scan visits Rids in ascending order,
    // so positions order as Rids do.
    const size_t pos = entries.size();
    AbbrevEntry e = key.empty()
                        ? AbbrevEntry{0, static_cast<uint32_t>(pos), false}
                        : Abbreviate(key.front(), pos);
    e.whole = e.whole && key.size() == 1;
    order.push_back(e);
    entries.emplace_back(std::move(key), cursor.rid());
  }

  // External sort charge: n log2(n) comparisons plus a spill pass when the
  // run exceeds work memory.
  double n = static_cast<double>(entries.size());
  if (n > 1) {
    ctx->ChargeHashOps(static_cast<uint64_t>(n * std::log2(n)));
    double bytes = n * (key_width + 8.0);
    double pages = bytes / static_cast<double>(kPageSize);
    if (pages > static_cast<double>(ctx->params().work_mem_pages)) {
      ctx->ChargeIoPages(static_cast<uint64_t>(2.0 * pages));
    }
  }
  // Sort by (key, Rid) on abbreviated keys.
  SortAbbreviated(&order, [&entries](uint32_t a, uint32_t b) {
    return CompareKeys(entries[a].first, entries[b].first);
  });
  std::vector<std::pair<IndexKey, Rid>> sorted;
  sorted.reserve(entries.size());
  for (const AbbrevEntry& e : order) sorted.push_back(std::move(entries[e.pos]));

  auto bi = std::make_unique<BuiltIndex>();
  bi->def = def;
  bi->btree = std::make_unique<BTree>(
      def.name, def.columns.size(),
      static_cast<size_t>(std::max(4.0, key_width)), &store_);
  bi->btree->BulkBuild(std::move(sorted));
  // Writing out the tree.
  ctx->ChargeIoPages(bi->btree->num_pages());
  bi->info.btree = bi->btree.get();
  bi->info.heap = heap;
  bi->info.key_cols = key_cols;
  out->push_back(std::move(bi));
  return Status::OK();
}

Result<uint64_t> Database::SecondaryIndexFingerprint(
    const std::string& name) const {
  for (const auto& bi : secondary_indexes_) {
    if (bi->def.name == name) return bi->btree->Fingerprint();
  }
  return Status::NotFound("secondary index " + name);
}

Status Database::BuildView(const ViewDef& def, ExecContext* ctx,
                           std::vector<std::unique_ptr<BuiltView>>* out) {
  for (const auto& bv : views_) {
    if (bv->def.name == def.name) {
      return Status::AlreadyExists("view " + def.name);
    }
  }
  // Synthesize the defining query: SELECT projection FROM tables WHERE joins.
  BoundQuery q;
  for (const auto& t : def.tables) {
    if (catalog_.FindTable(t) == nullptr) {
      return Status::NotFound("view base table " + t);
    }
    q.relations.push_back(t);
    q.aliases.push_back(t);
  }
  auto resolve = [&](const std::string& table,
                     const std::string& column) -> Result<BoundColumn> {
    BoundColumn c;
    for (int r = 0; r < q.num_relations(); ++r) {
      if (q.relations[static_cast<size_t>(r)] != table) continue;
      const TableDef* tdef = catalog_.FindTable(table);
      int ci = tdef->ColumnIndex(column);
      if (ci < 0) return Status::NotFound("column " + column);
      c.rel = r;
      c.col = ci;
      c.table = table;
      c.column = column;
      c.type = tdef->columns[static_cast<size_t>(ci)].type;
      return c;
    }
    return Status::NotFound("view table " + table);
  };
  for (const auto& j : def.joins) {
    BoundJoin bj;
    TB_ASSIGN_OR_RETURN(bj.left, resolve(j.left_table, j.left_column));
    TB_ASSIGN_OR_RETURN(bj.right, resolve(j.right_table, j.right_column));
    q.joins.push_back(std::move(bj));
  }
  std::vector<TypeId> types;
  for (const auto& pc : def.projection) {
    BoundSelectItem s;
    s.kind = BoundSelectItem::Kind::kColumn;
    TB_ASSIGN_OR_RETURN(s.column, resolve(pc.table, pc.column));
    types.push_back(s.column.type);
    q.select.push_back(std::move(s));
  }

  ConfigView view = CurrentView();
  PhysicalPlan plan;
  TB_ASSIGN_OR_RETURN(plan, PlanQuery(q, view));

  auto bv = std::make_unique<BuiltView>();
  bv->def = def;
  bv->types = types;
  bv->heap =
      std::make_unique<HeapTable>(def.name, TupleCodec(types), &store_);

  // Stream the defining query straight into the view heap.
  InSets empty_sets;
  std::unique_ptr<Operator> root;
  TB_ASSIGN_OR_RETURN(root, BuildOperator(*plan.root, *this, empty_sets, ctx));
  TB_RETURN_IF_ERROR(root->Open());
  Tuple t;
  for (;;) {
    auto more = root->Next(&t);
    if (!more.ok()) return more.status();
    if (!*more) break;
    TB_RETURN_IF_ERROR(bv->heap->CheckRecordFits(t));
    bv->heap->Append(t);
  }
  ctx->ChargeIoPages(bv->heap->num_pages());  // writing the view out
  out->push_back(std::move(bv));
  return Status::OK();
}

Result<BuildReport> Database::ApplyConfiguration(const Configuration& config) {
  TB_FAULT_POINT("engine.apply_config");
  TB_RETURN_IF_ERROR(ResetToPrimary());
  BuildReport report;
  ExecContext ctx(&store_, &pool_, BuildParams(options_.cost));

  // Views first so that indexes over them can find their heaps.
  for (const auto& vd : config.views) {
    double before = ctx.sim_time();
    TB_RETURN_IF_ERROR(BuildView(vd, &ctx, &views_));
    ObjectBuild ob;
    ob.name = vd.name;
    ob.kind = ObjectBuild::Kind::kView;
    ob.pages = views_.back()->heap->num_pages();
    ob.build_seconds = ctx.sim_time() - before;
    report.secondary_pages += ob.pages;
    report.objects.push_back(std::move(ob));
  }
  for (const auto& idx : config.indexes) {
    if (idx.is_primary) continue;
    double before = ctx.sim_time();
    TB_RETURN_IF_ERROR(BuildIndex(idx, &ctx, &secondary_indexes_));
    ObjectBuild ob;
    ob.name = idx.name;
    ob.kind = ObjectBuild::Kind::kIndex;
    ob.pages = secondary_indexes_.back()->btree->num_pages();
    ob.build_seconds = ctx.sim_time() - before;
    report.secondary_pages += ob.pages;
    report.objects.push_back(std::move(ob));
  }
  report.build_seconds = ctx.sim_time();
  current_config_ = config;
  // Builds churn the cache; benchmark runs start cold, as the paper's
  // dedicated-machine runs effectively did after configuration builds.
  pool_.Clear();
  return report;
}

Status Database::ResetToPrimary() {
  for (auto& bi : secondary_indexes_) bi->btree->Drop();
  secondary_indexes_.clear();
  for (auto& bv : views_) bv->heap->Drop();
  views_.clear();
  current_config_.name = "P";
  current_config_.indexes.clear();
  current_config_.views.clear();
  pool_.Clear();
  in_set_memo_.Clear();
  return Status::OK();
}

}  // namespace tabbench
