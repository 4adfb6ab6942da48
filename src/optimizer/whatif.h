#ifndef TABBENCH_OPTIMIZER_WHATIF_H_
#define TABBENCH_OPTIMIZER_WHATIF_H_

#include "catalog/catalog.h"
#include "catalog/configuration.h"
#include "optimizer/config_view.h"
#include "util/status.h"

namespace tabbench {

/// Leaf fill factor assumed when sizing an unbuilt index.
inline constexpr double kUnbuiltLeafFill = 0.67;

/// How hypothetical-index statistics are derived from base-table stats.
/// These rules model the conservatism of real what-if implementations that
/// Section 5 of the paper identifies: a what-if call cannot measure the
/// index it has not built, so H(q, C_h, C_a) is systematically more
/// pessimistic than E(q, C_h) evaluated in the built target configuration.
/// Two assumptions hold for every profile and are fixed: an unbuilt index
/// fetches a fresh heap page per entry (clustering factor = entries; built
/// indexes carry their *measured*, typically much lower, factor) and its
/// leaves are kUnbuiltLeafFill full (built trees are bulk-loaded at ~0.9).
struct HypotheticalRules {
  /// Whether hypothetical indexes are credited with covering (index-only)
  /// plans. Advisor profile B models a what-if that cannot.
  bool credit_index_only = true;
  /// Composite-key distinct estimate: when false, use only the leading
  /// column's NDV (conservative: overestimates rows per probe); when true,
  /// use the capped product of column NDVs.
  bool composite_ndv_product = false;
  /// When true, the advisors' trial costing ignores MCVs and histograms and
  /// falls back to uniform value densities (rows / NDV) — the dominant
  /// what-if simplification of the paper's era. Harmless on uniform data;
  /// badly misleading on Zipf-skewed data, which is the mechanism behind
  /// the paper's Fig 8 (skewed) vs Fig 9 (uniform) recommender-quality
  /// contrast. Only TrialCosts (advisor/trial_costs.h) applies it;
  /// MakeHypotheticalView derives from the statistics its base view holds.
  bool uniform_value_assumption = false;

  bool operator==(const HypotheticalRules&) const = default;
};

/// Builds a planner view of `config` *without building anything*: every
/// secondary index and view in `config` appears with statistics derived
/// from `stats` under `rules`. Primary-key indexes are inherited from
/// `base`, the view of the currently-built configuration (they exist in
/// every configuration).
Result<ConfigView> MakeHypotheticalView(const Configuration& config,
                                        const ConfigView& base,
                                        const HypotheticalRules& rules);

/// Derived statistics for one unbuilt index on a base table, over
/// `target_rows` entries (<= 0: the table's row count). MakeHypotheticalView
/// derives an index on a view the same way, from the base columns its key
/// columns project.
PhysicalIndex DeriveHypotheticalIndex(const IndexDef& def,
                                      const Catalog& catalog,
                                      const DatabaseStats& stats,
                                      const HypotheticalRules& rules,
                                      double target_rows);

/// Estimated size, in pages, of an unbuilt index whose leaves are
/// `leaf_fill` full (the advisors' budget accounting). Sized by the same
/// derivation as DeriveHypotheticalIndex; `target_rows` <= 0 means the
/// target table's row count.
double EstimateIndexPages(const IndexDef& def, const Catalog& catalog,
                          const DatabaseStats& stats, double leaf_fill,
                          double target_rows);

/// Estimated rows and pages of an unbuilt view.
struct ViewSizeEstimate {
  double rows = 0;
  double pages = 1;
};
ViewSizeEstimate EstimateViewSize(const ViewDef& def, const Catalog& catalog,
                                  const DatabaseStats& stats);

}  // namespace tabbench

#endif  // TABBENCH_OPTIMIZER_WHATIF_H_
