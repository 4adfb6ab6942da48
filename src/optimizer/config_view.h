#ifndef TABBENCH_OPTIMIZER_CONFIG_VIEW_H_
#define TABBENCH_OPTIMIZER_CONFIG_VIEW_H_

#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "catalog/configuration.h"
#include "exec/exec_context.h"
#include "stats/table_stats.h"

namespace tabbench {

/// The optimizer's view of one index: its definition plus the statistics the
/// cost model consumes. For *built* indexes these are measured off the
/// actual B+-tree; for *hypothetical* indexes (what-if mode, Section 5 of
/// the paper) they are derived from base-table statistics — necessarily
/// coarser, which is precisely the mechanism behind recommender conservatism
/// that the paper investigates.
struct PhysicalIndex {
  IndexDef def;
  /// Resolver key of the built structure; empty for hypothetical indexes.
  std::string physical_name;
  double height = 2;
  double leaf_pages = 1;
  double entries = 0;
  /// Distinct full composite keys.
  double distinct_keys = 1;
  /// Heap page switches over a full in-key-order walk (Oracle-style
  /// clustering factor). Heap cost per fetched entry ~ clustering/entries.
  double clustering_factor = 0;
  bool hypothetical = false;
  /// Whether the planner may use this index for covering (index-only)
  /// access. Real what-if implementations differ on crediting hypothetical
  /// indexes with index-only plans; advisor profiles toggle this to model
  /// that conservatism (see advisor/profiles.h).
  bool allow_index_only = true;
};

/// The optimizer's view of one materialized view.
struct PhysicalView {
  ViewDef def;
  std::string physical_name;  // empty for hypothetical views
  double rows = 0;
  double pages = 1;
  bool hypothetical = false;
};

/// Everything the planner knows about a configuration: base-table stats
/// (always real — the paper's systems collect statistics up front) plus the
/// index/view inventory with measured or derived stats.
struct ConfigView {
  const Catalog* catalog = nullptr;
  const DatabaseStats* stats = nullptr;
  CostParams params;
  std::vector<PhysicalIndex> indexes;
  std::vector<PhysicalView> views;

  const PhysicalView* FindView(const std::string& name) const {
    for (const auto& v : views) {
      if (v.def.name == name) return &v;
    }
    return nullptr;
  }
};

}  // namespace tabbench

#endif  // TABBENCH_OPTIMIZER_CONFIG_VIEW_H_
