#include "advisor/candidates.h"

#include <algorithm>
#include <set>

#include "optimizer/whatif.h"
#include "util/strings.h"

namespace tabbench {

namespace {

/// Widest composite index proposed.
constexpr size_t kMaxIndexWidth = 4;
/// Generation keeps the first this many distinct index candidates, and an
/// eighth as many view candidates.
constexpr size_t kMaxCandidates = 512;

std::string IndexName(const IndexDef& def) {
  std::string name = "ix_" + def.target;
  for (const auto& c : def.columns) name += "_" + c;
  return name;
}

std::string ViewName(const ViewDef& def) {
  std::string name = "mv";
  for (const auto& t : def.tables) name += "_" + t;
  for (const auto& j : def.joins) name += "_" + j.left_column;
  name += StrFormat("_w%zu", def.projection.size());
  return name;
}

bool IsSelfJoinCountDistinct(const BoundQuery& q) {
  bool self_join = false;
  for (const auto& j : q.joins) {
    if (j.left.rel != j.right.rel &&
        j.left.table == j.right.table) {
      self_join = true;
    }
  }
  if (!self_join) return false;
  for (const auto& s : q.select) {
    if (s.kind == BoundSelectItem::Kind::kCountDistinct) return true;
  }
  return false;
}

class Generator {
 public:
  Generator(const Catalog& catalog, const DatabaseStats& stats,
            const CandidateOptions& opts)
      : catalog_(catalog), stats_(stats), opts_(opts) {}

  void AddQuery(const BoundQuery& q) {
    if (opts_.reject_count_distinct_self_joins &&
        IsSelfJoinCountDistinct(q)) {
      ++out_.unsupported_queries;
      return;
    }
    // Per relation occurrence: collect the column roles.
    for (int r = 0; r < q.num_relations(); ++r) {
      const std::string& table = q.relations[static_cast<size_t>(r)];
      std::vector<std::string> filter_cols, join_cols, group_cols;
      for (const auto& f : q.filters) {
        if (f.column.rel == r) Push(&filter_cols, f.column.column);
      }
      for (const auto& j : q.joins) {
        if (j.left.rel == r) Push(&join_cols, j.left.column);
        if (j.right.rel == r) Push(&join_cols, j.right.column);
      }
      for (const auto& g : q.group_by) {
        if (g.rel == r) Push(&group_cols, g.column);
      }
      // IN-frequency predicates: a single-column index on the subquery
      // column enables the index-only frequency walk — but only advisors
      // that analyze nested blocks propose it.
      for (const auto& p : q.in_preds) {
        if (p.column.rel == r) Push(&join_cols, p.column.column);
        if (opts_.analyze_subquery_columns) {
          AddIndex(p.sub_table, {p.sub_column});
        }
      }

      // Single-column candidates for every predicate column.
      for (const auto& c : filter_cols) AddIndex(table, {c});
      for (const auto& c : join_cols) AddIndex(table, {c});

      // Covering composites: seed with the most useful leading column
      // (filters first, then joins), extend with the remaining predicate
      // and group columns.
      std::vector<std::string> lead = filter_cols;
      for (const auto& c : join_cols) Push(&lead, c);
      for (const auto& seed : lead) {
        std::vector<std::string> cols{seed};
        for (const auto& c : lead) {
          if (cols.size() >= kMaxIndexWidth) break;
          Push(&cols, c);
        }
        for (const auto& c : group_cols) {
          if (cols.size() >= kMaxIndexWidth) break;
          Push(&cols, c);
        }
        if (cols.size() > 1) AddIndex(table, cols);
      }
    }
    if (opts_.enable_views) AddViewCandidates(q);
  }

  CandidateSet Take() { return std::move(out_); }

 private:
  static void Push(std::vector<std::string>* v, const std::string& c) {
    if (std::find(v->begin(), v->end(), c) == v->end()) v->push_back(c);
  }

  bool Indexable(const std::string& table, const std::string& col) const {
    const TableDef* def = catalog_.FindTable(table);
    if (def == nullptr) return false;
    int ci = def->ColumnIndex(col);
    if (ci < 0) return false;
    return def->columns[static_cast<size_t>(ci)].indexable;
  }

  void AddIndex(const std::string& table,
                const std::vector<std::string>& cols) {
    if (out_.indexes.size() >= kMaxCandidates) return;
    for (const auto& c : cols) {
      if (!Indexable(table, c)) return;
    }
    IndexDef def;
    def.target = table;
    def.columns = cols;
    def.name = IndexName(def);
    for (const auto& existing : out_.indexes) {
      if (existing.def == def) return;
    }
    IndexCandidate cand;
    cand.est_pages =
        EstimateIndexPages(def, catalog_, stats_, kUnbuiltLeafFill,
                           /*target_rows=*/-1.0);
    cand.def = std::move(def);
    out_.indexes.push_back(std::move(cand));
  }

  void AddViewCandidates(const BoundQuery& q) {
    // Join views: one per PK/FK join edge between distinct tables,
    // projecting the columns the query needs from both sides. Non-key join
    // edges are skipped — pre-joining them materializes the very blow-ups
    // the advisor is supposed to avoid (and DB2-style MV candidates come
    // from referential join subgraphs).
    for (const auto& j : q.joins) {
      if (j.left.table == j.right.table) continue;
      auto fk = catalog_.ForeignKeyJoin(j.left.table, j.right.table);
      if (fk.empty()) {
        fk = catalog_.ForeignKeyJoin(j.right.table, j.left.table);
      }
      bool edge_in_fk = false;
      for (const auto& [child, parent] : fk) {
        if ((child.column == j.left.column &&
             parent.column == j.right.column) ||
            (child.column == j.right.column &&
             parent.column == j.left.column)) {
          edge_in_fk = true;
        }
      }
      if (!edge_in_fk) continue;
      ViewDef def;
      def.tables = {j.left.table, j.right.table};
      // Join on the complete FK correspondence, not just this edge.
      for (const auto& [child, parent] : fk) {
        def.joins.push_back(
            ViewJoin{child.table, child.column, parent.table, parent.column});
      }
      AppendNeededColumns(q, j.left.rel, j.left.table, &def);
      AppendNeededColumns(q, j.right.rel, j.right.table, &def);
      if (def.projection.empty()) continue;
      def.name = ViewName(def);
      AddView(q, def);
    }
    // Single-table projection views (vertical partitions) for wide tables
    // of which the query needs only a few columns.
    for (int r = 0; r < q.num_relations(); ++r) {
      const std::string& table = q.relations[static_cast<size_t>(r)];
      const TableDef* tdef = catalog_.FindTable(table);
      if (tdef == nullptr || tdef->num_columns() < 6) continue;
      ViewDef def;
      def.tables = {table};
      AppendNeededColumns(q, r, table, &def);
      if (def.projection.size() < 2 ||
          def.projection.size() + 2 >= tdef->num_columns()) {
        continue;
      }
      def.name = ViewName(def);
      AddView(q, def);
    }
  }

  void AppendNeededColumns(const BoundQuery& q, int rel,
                           const std::string& table, ViewDef* def) {
    auto add = [&](const std::string& col) {
      if (!Indexable(table, col)) return;
      if (def->ViewColumnIndex(table, col) >= 0) return;
      def->projection.push_back(ViewColumn{table, col, table + "_" + col});
    };
    for (const auto& j : q.joins) {
      if (j.left.rel == rel) add(j.left.column);
      if (j.right.rel == rel) add(j.right.column);
    }
    for (const auto& f : q.filters) {
      if (f.column.rel == rel) add(f.column.column);
    }
    for (const auto& p : q.in_preds) {
      if (p.column.rel == rel) add(p.column.column);
    }
    for (const auto& g : q.group_by) {
      if (g.rel == rel) add(g.column);
    }
    for (const auto& s : q.select) {
      if (s.kind != BoundSelectItem::Kind::kCountStar && s.column.rel == rel) {
        add(s.column.column);
      }
    }
  }

  void AddView(const BoundQuery& q, const ViewDef& def) {
    if (out_.views.size() >= kMaxCandidates / 8) return;
    for (const auto& existing : out_.views) {
      if (existing.def.name == def.name) return;
    }
    ViewCandidate cand;
    cand.def = def;
    const ViewSizeEstimate est = EstimateViewSize(def, catalog_, stats_);
    cand.est_pages = est.pages;
    // Index the view on its filter columns (seekable) followed by group-by
    // columns — the shapes the paper's System C recommended (Table 3).
    std::vector<std::string> lead;
    for (const auto& f : q.filters) {
      int vc = -1;
      for (size_t i = 0; i < def.projection.size(); ++i) {
        if (def.projection[i].table == f.column.table &&
            def.projection[i].column == f.column.column) {
          vc = static_cast<int>(i);
        }
      }
      if (vc >= 0) Push(&lead, def.projection[static_cast<size_t>(vc)].view_name);
    }
    for (const auto& g : q.group_by) {
      int vc = def.ViewColumnIndex(
          q.relations[static_cast<size_t>(g.rel)], g.column);
      if (vc >= 0) Push(&lead, def.projection[static_cast<size_t>(vc)].view_name);
    }
    if (!lead.empty()) {
      IndexDef idx;
      idx.target = def.name;
      idx.columns.assign(lead.begin(),
                         lead.begin() + std::min(lead.size(), kMaxIndexWidth));
      idx.name = IndexName(idx);
      cand.est_pages += EstimateIndexPages(idx, catalog_, stats_,
                                           kUnbuiltLeafFill, est.rows);
      cand.indexes.push_back(std::move(idx));
    }
    out_.views.push_back(std::move(cand));
  }

  const Catalog& catalog_;
  const DatabaseStats& stats_;
  const CandidateOptions& opts_;
  CandidateSet out_;
};

}  // namespace

CandidateSet GenerateCandidates(const std::vector<BoundQuery>& workload,
                                const Catalog& catalog,
                                const DatabaseStats& stats,
                                const CandidateOptions& opts) {
  Generator gen(catalog, stats, opts);
  for (const auto& q : workload) gen.AddQuery(q);
  return gen.Take();
}

}  // namespace tabbench
