#include "optimizer/whatif.h"

#include <algorithm>
#include <span>
#include <vector>

#include "optimizer/cardinality.h"
#include "storage/page_store.h"

namespace tabbench {

namespace {

double ColumnWidth(const Catalog& catalog, const std::string& table,
                   const std::string& column) {
  const TableDef* def = catalog.FindTable(table);
  if (def == nullptr) return 8.0;
  int ci = def->ColumnIndex(column);
  if (ci < 0) return 8.0;
  return static_cast<double>(def->columns[static_cast<size_t>(ci)].avg_width);
}

/// Appends the NDV of each key column of `def` on its target table to
/// `ndvs`, in key order, and returns the key's width in bytes.
double TableKey(const IndexDef& def, const Catalog& catalog,
                const DatabaseStats& stats, std::vector<double>* ndvs) {
  double key_bytes = 0.0;
  for (const auto& c : def.columns) {
    key_bytes += ColumnWidth(catalog, def.target, c);
    ndvs->push_back(DistinctOf(stats, def.target, c));
  }
  return key_bytes;
}

/// The same for an index on `view`: each key column reads the base-table
/// column the view projects it from, so widths and NDVs come from real
/// stats. A key column the view does not project is skipped.
double ViewKey(const IndexDef& def, const ViewDef& view,
               const Catalog& catalog, const DatabaseStats& stats,
               std::vector<double>* ndvs) {
  double key_bytes = 0.0;
  for (const auto& c : def.columns) {
    for (const auto& pc : view.projection) {
      if (pc.view_name != c) continue;
      ndvs->push_back(DistinctOf(stats, pc.table, pc.column));
      key_bytes += ColumnWidth(catalog, pc.table, pc.column);
      break;
    }
  }
  return key_bytes;
}

/// `target_rows`, or the row count of `table` when it is <= 0.
double TargetRows(const DatabaseStats& stats, const std::string& table,
                  double target_rows) {
  return target_rows > 0 ? target_rows : TableRowsOf(stats.FindTable(table));
}

/// The one derivation behind every unbuilt-index figure. Sets `out`'s
/// entries, leaf pages, height and distinct keys for `rows` entries of
/// `key_bytes`-wide keys whose columns hold `ndvs` distinct values each, in
/// key order, with leaves `leaf_fill` full, and returns the tree's size in
/// pages. The distinct-key estimate is the capped product of the NDVs when
/// `ndv_product`, else the leading column's NDV.
double ShapeUnbuiltIndex(double rows, double key_bytes,
                         std::span<const double> ndvs, double leaf_fill,
                         bool ndv_product, PhysicalIndex* out) {
  out->entries = std::max(1.0, rows);
  const double entry_bytes = std::max(12.0, key_bytes + 8.0);
  const double fanout =
      std::max(8.0, (static_cast<double>(kPageSize) - 64.0) / entry_bytes) *
      leaf_fill;
  out->leaf_pages = std::max(1.0, out->entries / fanout);
  out->height = 1.0;
  for (double level = out->leaf_pages; level > 1.0;
       level /= std::max(8.0, fanout)) {
    out->height += 1.0;
  }
  double distinct = ndvs.empty() ? 1.0 : ndvs.front();
  if (ndv_product) {
    distinct = 1.0;
    for (double d : ndvs) {
      distinct *= d;
      if (distinct > out->entries) break;
    }
  }
  out->distinct_keys = std::max(1.0, std::min(distinct, out->entries));
  // Interior levels add ~1/fanout overhead per level; geometric sum.
  return out->leaf_pages * (1.0 + 2.0 / fanout) + 1.0;
}

/// `def`'s what-if statistics from its target's rows and its key columns'
/// widths and NDVs.
PhysicalIndex Derive(const IndexDef& def, double rows, double key_bytes,
                     std::span<const double> ndvs,
                     const HypotheticalRules& rules) {
  PhysicalIndex out;
  out.def = def;
  out.hypothetical = true;
  out.allow_index_only = rules.credit_index_only;
  ShapeUnbuiltIndex(rows, key_bytes, ndvs, kUnbuiltLeafFill,
                    rules.composite_ndv_product, &out);
  out.clustering_factor = out.entries;  // a fresh heap page per fetch
  return out;
}

}  // namespace

double EstimateIndexPages(const IndexDef& def, const Catalog& catalog,
                          const DatabaseStats& stats, double leaf_fill,
                          double target_rows) {
  std::vector<double> ndvs;
  const double key_bytes = TableKey(def, catalog, stats, &ndvs);
  PhysicalIndex shape;
  return ShapeUnbuiltIndex(TargetRows(stats, def.target, target_rows),
                           key_bytes, ndvs, leaf_fill, false, &shape);
}

PhysicalIndex DeriveHypotheticalIndex(const IndexDef& def,
                                      const Catalog& catalog,
                                      const DatabaseStats& stats,
                                      const HypotheticalRules& rules,
                                      double target_rows) {
  std::vector<double> ndvs;
  const double key_bytes = TableKey(def, catalog, stats, &ndvs);
  return Derive(def, TargetRows(stats, def.target, target_rows), key_bytes,
                ndvs, rules);
}

ViewSizeEstimate EstimateViewSize(const ViewDef& def, const Catalog& catalog,
                                  const DatabaseStats& stats) {
  ViewSizeEstimate out;
  double rows = 1.0;
  for (const auto& t : def.tables) rows *= TableRowsOf(stats.FindTable(t));
  for (const auto& j : def.joins) {
    rows /= std::max(
        {DistinctOf(stats, j.left_table, j.left_column),
         DistinctOf(stats, j.right_table, j.right_column), 1.0});
  }
  out.rows = std::max(1.0, rows);
  double row_bytes = 0;
  for (const auto& pc : def.projection) {
    row_bytes += ColumnWidth(catalog, pc.table, pc.column);
  }
  row_bytes = std::max(16.0, row_bytes + 2.0 * def.projection.size());
  out.pages =
      std::max(1.0, out.rows * row_bytes / static_cast<double>(kPageSize));
  return out;
}

Result<ConfigView> MakeHypotheticalView(const Configuration& config,
                                        const ConfigView& base,
                                        const HypotheticalRules& rules) {
  if (base.catalog == nullptr || base.stats == nullptr) {
    return Status::InvalidArgument("base view missing catalog or stats");
  }
  const Catalog& catalog = *base.catalog;
  const DatabaseStats& stats = *base.stats;
  ConfigView out;
  out.catalog = base.catalog;
  out.stats = base.stats;
  out.params = base.params;

  // Primary-key indexes exist in every configuration; inherit them (with
  // their measured stats) from the current built view.
  for (const auto& idx : base.indexes) {
    if (idx.def.is_primary) out.indexes.push_back(idx);
  }

  // Hypothetical views first, so hypothetical indexes over views can size
  // themselves from the view's estimated row count.
  for (const auto& vd : config.views) {
    ViewSizeEstimate est = EstimateViewSize(vd, catalog, stats);
    PhysicalView pv;
    pv.def = vd;
    pv.rows = est.rows;
    pv.pages = est.pages;
    pv.hypothetical = true;
    out.views.push_back(std::move(pv));
  }

  std::vector<double> ndvs;  // reused across indexes
  for (const auto& def : config.indexes) {
    if (def.is_primary) continue;  // already inherited
    const PhysicalView* pv = out.FindView(def.target);
    ndvs.clear();
    const double key_bytes =
        pv == nullptr ? TableKey(def, catalog, stats, &ndvs)
                      : ViewKey(def, pv->def, catalog, stats, &ndvs);
    const double rows =
        pv == nullptr ? TargetRows(stats, def.target, -1.0) : pv->rows;
    out.indexes.push_back(Derive(def, rows, key_bytes, ndvs, rules));
  }
  return out;
}

}  // namespace tabbench
