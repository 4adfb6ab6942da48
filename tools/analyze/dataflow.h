#ifndef TABBENCH_TOOLS_ANALYZE_DATAFLOW_H_
#define TABBENCH_TOOLS_ANALYZE_DATAFLOW_H_

#include <functional>
#include <set>
#include <string>
#include <vector>

#include "cfg.h"

/// A generic forward dataflow solver over the CFGs of cfg.h: gen/kill
/// transfer functions supplied as callbacks, facts as sets of interned
/// strings, fixpoint by round-robin over reverse postorder. Both meet
/// flavors are supported:
///
///   kUnion      — may-analysis ("a path exists on which the fact holds"):
///                 leaked-lock detection.
///   kIntersect  — must-analysis ("the fact holds on every path"):
///                 append+fsync definitely happened before this
///                 externalization, variable definitely holds an error.
///
/// Transfers run per block; an optional edge transfer refines facts along
/// a specific edge kind (branch polarity, error-return edges), which is
/// what makes the client passes path-sensitive.
namespace tabbench_analyze {

enum class MeetKind { kUnion, kIntersect };

using Facts = std::set<std::string>;

struct DataflowSpec {
  MeetKind meet = MeetKind::kUnion;
  Facts entry_facts;
  /// Applies the block's gen/kill to *facts (facts arrive as the block's
  /// IN set). Required.
  std::function<void(size_t block, Facts* facts)> transfer;
  /// Refines the facts flowing along one edge (called with the source
  /// block's OUT set). Optional; identity when absent.
  std::function<void(size_t from, const CfgEdge& edge, Facts* facts)>
      edge_transfer;
};

struct DataflowResult {
  std::vector<Facts> in, out;
  /// Blocks never reached from the entry keep empty in/out and
  /// reached=false; clients must not report findings in them.
  std::vector<bool> reached;
};

DataflowResult SolveForward(const Cfg& cfg, const DataflowSpec& spec);

}  // namespace tabbench_analyze

#endif  // TABBENCH_TOOLS_ANALYZE_DATAFLOW_H_
