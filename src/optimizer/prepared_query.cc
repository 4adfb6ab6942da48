#include "optimizer/prepared_query.h"

#include <algorithm>

#include "optimizer/cardinality.h"

namespace tabbench {

namespace {

SlotRef Slot(const BoundColumn& c) { return SlotRef{c.rel, c.col}; }

}  // namespace

Result<PreparedQuery> PrepareQuery(const BoundQuery& q, const Catalog& catalog,
                                   const DatabaseStats& stats) {
  // Relation and join sets travel as 64-bit masks.
  if (q.num_relations() > 64 || q.joins.size() > 64) {
    return Status::InvalidArgument(
        "planner supports at most 64 relations and 64 joins");
  }
  PreparedQuery pq;
  pq.query = &q;
  pq.catalog = &catalog;
  pq.stats = &stats;

  pq.in_sets.reserve(q.in_preds.size());
  pq.in_selectivity.reserve(q.in_preds.size());
  for (const auto& p : q.in_preds) {
    PreparedInSet in_set;
    const TableDef* def = catalog.FindTable(p.sub_table);
    if (def == nullptr) return Status::NotFound("table " + p.sub_table);
    in_set.column_pos = def->ColumnIndex(p.sub_column);
    if (in_set.column_pos < 0) {
      return Status::NotFound("column " + p.sub_column);
    }
    const TableStats* ts = stats.FindTable(p.sub_table);
    in_set.rows = TableRowsOf(ts);
    in_set.pages = TablePagesOf(ts);
    pq.in_sets.push_back(in_set);
    pq.in_selectivity.push_back(
        InFreqSelectivity(stats, p.sub_table, p.sub_column, p.cmp, p.k));
  }

  // Per-side distinct counts, and from them the join selectivity.
  pq.joins.reserve(q.joins.size());
  for (const auto& j : q.joins) {
    JoinInfo ji;
    ji.left = Slot(j.left);
    ji.right = Slot(j.right);
    ji.left_distinct = DistinctOf(stats, j.left.table, j.left.column);
    ji.right_distinct = DistinctOf(stats, j.right.table, j.right.column);
    ji.selectivity = JoinSelectivityOf(ji.left_distinct, ji.right_distinct);
    pq.joins.push_back(ji);
  }

  pq.filter_selectivity.reserve(q.filters.size());
  for (const auto& f : q.filters) {
    pq.filter_selectivity.push_back(
        EqSelectivity(stats, f.column.table, f.column.column, f.literal));
  }
  pq.group_distinct.reserve(q.group_by.size());
  for (const auto& g : q.group_by) {
    pq.group_distinct.push_back(DistinctOf(stats, g.table, g.column));
  }

  // Needed slots per relation occurrence.
  pq.needed.resize(static_cast<size_t>(q.num_relations()));
  auto add_needed = [&](const BoundColumn& c) {
    auto& v = pq.needed[static_cast<size_t>(c.rel)];
    const SlotRef s = Slot(c);
    if (std::find(v.begin(), v.end(), s) == v.end()) v.push_back(s);
  };
  for (const auto& j : q.joins) {
    add_needed(j.left);
    add_needed(j.right);
  }
  for (const auto& f : q.filters) add_needed(f.column);
  for (const auto& p : q.in_preds) add_needed(p.column);
  for (const auto& g : q.group_by) add_needed(g);
  for (const auto& s : q.select) {
    if (s.kind != BoundSelectItem::Kind::kCountStar) add_needed(s.column);
  }

  // Base units: an occurrence exposes every column of its table, so a
  // predicate binds to it exactly when its columns are on the occurrence.
  // Selectivities multiply in the planner's unit order: filters, IN
  // predicates, then residual joins.
  pq.occurrences.resize(static_cast<size_t>(q.num_relations()));
  for (int r = 0; r < q.num_relations(); ++r) {
    PreparedOccurrence& o = pq.occurrences[static_cast<size_t>(r)];
    const std::string& table = q.relations[static_cast<size_t>(r)];
    const TableDef* def = catalog.FindTable(table);
    if (def == nullptr) return Status::NotFound("table " + table);
    const TableStats* ts = stats.FindTable(table);
    o.rows = TableRowsOf(ts);
    o.pages = TablePagesOf(ts);
    o.row_bytes = RowBytesOf(ts);
    o.layout.reserve(def->columns.size());
    o.col_names.reserve(def->columns.size());
    for (size_t c = 0; c < def->columns.size(); ++c) {
      o.layout.push_back(SlotRef{r, static_cast<int>(c)});
      o.col_names.push_back(&def->columns[c].name);
    }
    double sel = 1.0;
    for (size_t i = 0; i < q.filters.size(); ++i) {
      const BoundFilter& f = q.filters[i];
      if (f.column.rel != r) continue;
      FilterBinding fb;
      fb.slot = Slot(f.column);
      fb.object_column = o.col_names[static_cast<size_t>(f.column.col)];
      fb.literal = &f.literal;
      fb.selectivity = pq.filter_selectivity[i];
      sel *= fb.selectivity;
      o.filters.push_back(fb);
    }
    for (size_t i = 0; i < q.in_preds.size(); ++i) {
      const BoundInFreq& p = q.in_preds[i];
      if (p.column.rel != r) continue;
      InBinding ib;
      ib.slot = Slot(p.column);
      ib.set_id = static_cast<int>(i);
      ib.selectivity = pq.in_selectivity[i];
      sel *= ib.selectivity;
      o.in_preds.push_back(ib);
    }
    for (const JoinInfo& ji : pq.joins) {
      if (ji.left.rel != r || ji.right.rel != r) continue;
      o.residual_joins.emplace_back(ji.left, ji.right);
      sel *= ji.selectivity;
    }
    o.filtered_rows = std::max(1e-6, o.rows * sel);
  }
  return pq;
}

}  // namespace tabbench
