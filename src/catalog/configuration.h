#ifndef TABBENCH_CATALOG_CONFIGURATION_H_
#define TABBENCH_CATALOG_CONFIGURATION_H_

#include <string>
#include <vector>

namespace tabbench {

/// Definition of a (B+-tree) index over 1..4 columns of a base table or a
/// materialized view. The paper observed no recommended index wider than 4
/// columns (Tables 2 and 3); we allow arbitrary width but advisors cap at 4.
struct IndexDef {
  std::string name;
  /// Base-table name, or a view name for indexes over materialized views.
  std::string target;
  std::vector<std::string> columns;
  /// True for the automatically-created primary-key index (P configuration).
  bool is_primary = false;

  bool operator==(const IndexDef& o) const {
    return target == o.target && columns == o.columns;
  }
};

/// A column of a materialized view, referencing `table.column` of one of the
/// view's base tables.
struct ViewColumn {
  std::string table;
  std::string column;
  /// Name of the column inside the view ("<table>_<column>" by default).
  std::string view_name;

  bool operator==(const ViewColumn&) const = default;
};

/// An equi-join predicate between two base tables of a view.
struct ViewJoin {
  std::string left_table, left_column;
  std::string right_table, right_column;

  bool operator==(const ViewJoin&) const = default;
};

/// Definition of a materialized view: the join of `tables` under the
/// conjunction of `joins`, projected onto `projection`. Single-table views
/// (vertical partitions of one table) have empty `joins`.
///
/// This structural form — rather than arbitrary SQL — is exactly what the
/// paper's recommenders produced ("materialized views over joins of base
/// tables", Section 3.2.3) and what the planner's view-matching understands.
struct ViewDef {
  std::string name;
  std::vector<std::string> tables;
  std::vector<ViewJoin> joins;
  std::vector<ViewColumn> projection;

  bool operator==(const ViewDef&) const = default;

  /// Index of the view column that exposes `table.column`, or -1.
  int ViewColumnIndex(const std::string& table,
                      const std::string& column) const;
};

/// A physical-design configuration C_i (Section 2.2): the set of secondary
/// indexes and materialized views layered on top of the base tables.
/// Primary-key indexes always exist and belong to every configuration.
struct Configuration {
  std::string name;
  std::vector<IndexDef> indexes;
  std::vector<ViewDef> views;

  bool HasIndex(const IndexDef& def) const;
  /// Number of secondary (non-PK) indexes with exactly `width` columns on
  /// `target` (Table 2 / Table 3 accounting).
  int CountIndexes(const std::string& target, int width) const;
};

}  // namespace tabbench

#endif  // TABBENCH_CATALOG_CONFIGURATION_H_
