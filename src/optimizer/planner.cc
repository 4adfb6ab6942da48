#include "optimizer/planner.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory_resource>
#include <string>

#include "optimizer/cardinality.h"
#include "optimizer/cost_model.h"

namespace tabbench {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Bytes of the stack buffer behind each call's arena. The largest search
/// of the benchmark families (SkTH3J on a System C recommendation) uses
/// about 11 KB; a larger query spills to the heap and plans the same.
constexpr size_t kArenaBytes = 16 * 1024;

/// Per-call scratch: every container of one search draws from the call's
/// arena, which `PlanQuery`/`EstimateCost` release on return.
template <typename T>
using ArenaVec = std::pmr::vector<T>;
using Arena = std::pmr::memory_resource*;

/// An index on a unit's object whose key columns the unit exposes.
struct UnitIndex {
  explicit UnitIndex(Arena arena) : key_pos(arena), key_filter(arena) {}

  const PhysicalIndex* idx = nullptr;
  ArenaVec<int> key_pos;  // unit column position of each key column
  /// The unit's first literal filter on each key column, or -1.
  ArenaVec<int> key_filter;
  bool covering = false;
};

/// One access path of a unit, costed but not built. Every path yields the
/// unit's `filtered_rows`: all unit predicates are applied by its end.
struct AccessPath {
  enum class Kind { kSeqScan, kIndexSeek, kIndexOnlyScan };
  Kind kind = Kind::kSeqScan;
  int index = -1;  // into UnitDesc::indexes for the index paths
  double cost = 0;
  double row_bytes = 64;
};

/// A scannable unit: one base relation occurrence, or a materialized view
/// standing in for several joined occurrences.
struct UnitDesc {
  explicit UnitDesc(Arena arena)
      : layout(arena),
        col_names(arena),
        filters(arena),
        in_preds(arena),
        residual_joins(arena),
        needed(arena),
        indexes(arena),
        paths(arena) {}

  uint64_t rel_mask = 0;  // the relation occurrences it covers
  /// Table or view name, owned by the bound query or the view's ViewDef.
  const std::string* object = nullptr;
  bool is_view = false;
  const PhysicalView* view = nullptr;
  double base_rows = 0;
  double pages = 1;
  double row_bytes = 64;
  /// Exposed columns in object order; layout[i] is the slot the i-th
  /// object column carries.
  ArenaVec<SlotRef> layout;
  /// Object column names, same order; owned as `object_column` is.
  ArenaVec<const std::string*> col_names;
  ArenaVec<FilterBinding> filters;
  ArenaVec<InBinding> in_preds;
  /// Join predicates entirely inside this unit that the physical object
  /// does not pre-apply (e.g. r.a = r.b on one occurrence, or a query join
  /// not among a matched view's join conditions).
  ArenaVec<std::pair<SlotRef, SlotRef>> residual_joins;
  ArenaVec<SlotRef> needed;
  double filtered_rows = 0;
  /// Usable indexes and access paths, costed once per unit: the sequential
  /// scan, then per index its literal seek and its covering full scan.
  ArenaVec<UnitIndex> indexes;
  ArenaVec<AccessPath> paths;

  int ColumnPos(const std::string& name) const {
    for (size_t i = 0; i < col_names.size(); ++i) {
      if (*col_names[i] == name) return static_cast<int>(i);
    }
    return -1;
  }
  /// Position of slot `s` in the layout, or -1 when not exposed.
  int SlotPos(const SlotRef& s) const {
    for (size_t i = 0; i < layout.size(); ++i) {
      if (layout[i] == s) return static_cast<int>(i);
    }
    return -1;
  }
  bool Exposes(const SlotRef& s) const { return SlotPos(s) >= 0; }
};

/// A join oriented from the already-joined side (outer) to a unit (inner).
struct OrientedJoin {
  SlotRef outer, inner;
  double inner_distinct = 1.0;
};

/// The cost-only state of a left-deep plan prefix.
struct Acc {
  double rows = 0;
  double cost = kInf;
  double row_bytes = 64;
  uint64_t rels = 0;
};

/// How one join step attaches its unit: a hash join with one of the unit's
/// access paths, or an index nested-loop join probing one of its indexes
/// (the seek binding is a function of the step's inputs and is re-derived
/// by the builder).
struct JoinChoice {
  bool index_nl = false;
  int path = -1;           // hash join: into UnitDesc::paths
  bool build_acc = false;  // hash join: the joined side is the build input
  int index = -1;          // index NL join: into UnitDesc::indexes
  double rows = 0;         // the step's output estimates
  double cost = 0;
};

/// The cheapest left-deep order of one partition's units, with the choices
/// the builder needs to make its tree.
struct PartitionPlan {
  explicit PartitionPlan(Arena arena) : units(arena), steps(arena) {}

  ArenaVec<const UnitDesc*> units;  // in join order
  int first_path = -1;
  ArenaVec<JoinChoice> steps;  // steps[i] attaches units[i + 1]
  Acc acc;
  double total = kInf;  // E(q, C) of this partition's plan
};

/// The seek prefix an index offers an index NL join.
struct SeekBinding {
  double selectivity = 1.0;
  size_t parts = 0;
  bool used_outer = false;
  uint64_t used_joins = 0;  // bit i: query join i bound a key column
};

struct ViewMatch {
  const PhysicalView* view = nullptr;
  /// rel occurrence assigned to each view table (by view-table position).
  ArenaVec<int> rel_of_table;
};

/// How one IN-frequency subquery is materialized, as the search needs it:
/// its cost and the index walked instead of the heap (null: heap scan).
/// `Finalize` turns it into the plan's InSetSpec.
struct InSetChoice {
  int column_pos = -1;
  double cost = 0;
  const PhysicalIndex* index = nullptr;
};

/// The object columns whose literal filters a seek consumed (builder only).
using ConsumedColumns = ArenaVec<const std::string*>;

bool Consumed(const ConsumedColumns& consumed, const std::string& column) {
  for (const std::string* c : consumed) {
    if (*c == column) return true;
  }
  return false;
}

/// Cost-first planning: the search costs every partition and join order on
/// per-unit path costs and a `{rows, cost, row_bytes, rels}` accumulator,
/// and the builder allocates plan nodes for the winner alone. All search
/// state lives in `arena`; only `Build`'s plan tree is heap-allocated, and
/// nothing in it points into the arena. What depends on the query and the
/// statistics alone comes from the PreparedQuery.
class Planner {
 public:
  Planner(const PreparedQuery& pq, const ConfigView& view, Arena arena)
      : pq_(pq),
        q_(*pq.query),
        view_(view),
        arena_(arena),
        cost_(view.params),
        joins_(pq.joins),
        in_sets_(arena),
        base_units_(arena),
        view_units_(arena),
        best_(arena) {}

  /// Finds the cheapest plan; its E(q, C) is then `best_.total`.
  Status Search() {
    ChooseInSets();

    // Unit partitions: all base units, or one view match replacing its rels.
    base_units_.reserve(q_.relations.size());
    for (int r = 0; r < q_.num_relations(); ++r) {
      base_units_.push_back(MakeBaseUnit(r));
    }
    ArenaVec<ViewMatch> matches = FindViewMatches();
    view_units_.reserve(matches.size());
    for (const auto& m : matches) view_units_.push_back(MakeViewUnit(m));

    ArenaVec<const UnitDesc*> units(arena_);
    units.reserve(base_units_.size());
    for (const auto& u : base_units_) units.push_back(&u);
    SearchPartition(units);
    for (const auto& vu : view_units_) {
      units.assign(1, &vu);
      for (const auto& u : base_units_) {
        if ((u.rel_mask & vu.rel_mask) == 0) units.push_back(&u);
      }
      SearchPartition(units);
    }
    if (best_.total == kInf) {
      return Status::Internal("no plan found for query");
    }
    return Status::OK();
  }

  double EstimatedCost() const { return best_.total; }

  /// Builds the tree of the plan Search() found.
  PhysicalPlan Build() const {
    const UnitDesc& first = *best_.units[0];
    std::unique_ptr<PlanNode> node =
        ScanNode(first, first.paths[static_cast<size_t>(best_.first_path)]);
    uint64_t rels = first.rel_mask;
    for (size_t i = 0; i < best_.steps.size(); ++i) {
      const UnitDesc& u = *best_.units[i + 1];
      node = JoinNode(std::move(node), rels, u, best_.steps[i]);
      rels |= u.rel_mask;
    }
    return Finalize(std::move(node));
  }

 private:
  // ------------------------------------------------------------ preparation

  /// Picks each IN-frequency subquery's evaluation: a heap scan or an
  /// index-only frequency walk, whichever costs less under this view.
  void ChooseInSets() {
    in_sets_.reserve(q_.in_preds.size());
    for (size_t i = 0; i < q_.in_preds.size(); ++i) {
      const BoundInFreq& p = q_.in_preds[i];
      const PreparedInSet& prepared = pq_.in_sets[i];
      InSetChoice in_set;
      in_set.column_pos = prepared.column_pos;
      double best_cost = cost_.SeqScan(prepared.pages, prepared.rows) +
                         prepared.rows * view_.params.cpu_hash_seconds;
      for (const PhysicalIndex& idx : view_.indexes) {
        if (idx.def.target != p.sub_table || idx.def.columns.empty() ||
            idx.def.columns[0] != p.sub_column) {
          continue;
        }
        if (!idx.allow_index_only) continue;
        double c = cost_.IndexOnlyScan(idx) +
                   idx.entries * view_.params.cpu_hash_seconds;
        if (c < best_cost) {
          best_cost = c;
          in_set.index = &idx;
        }
      }
      in_set.cost = best_cost;
      in_sets_.push_back(in_set);
    }
  }

  // Base unit for relation occurrence `r`: the prepared occurrence, with
  // this view's access paths.
  UnitDesc MakeBaseUnit(int r) const {
    const PreparedOccurrence& o = pq_.occurrences[static_cast<size_t>(r)];
    const std::vector<SlotRef>& needed = pq_.needed[static_cast<size_t>(r)];
    UnitDesc u(arena_);
    u.rel_mask = uint64_t{1} << r;
    u.object = &q_.relations[static_cast<size_t>(r)];
    u.base_rows = o.rows;
    u.pages = o.pages;
    u.row_bytes = o.row_bytes;
    u.layout.assign(o.layout.begin(), o.layout.end());
    u.col_names.assign(o.col_names.begin(), o.col_names.end());
    u.filters.assign(o.filters.begin(), o.filters.end());
    u.in_preds.assign(o.in_preds.begin(), o.in_preds.end());
    u.residual_joins.assign(o.residual_joins.begin(), o.residual_joins.end());
    u.needed.assign(needed.begin(), needed.end());
    u.filtered_rows = o.filtered_rows;
    CostPaths(&u);
    return u;
  }

  /// A view unit's predicates, selectivities taken from the preparation and
  /// multiplied in the order PrepareQuery uses for base units.
  void FillUnitPredicates(UnitDesc* u) const {
    double sel = 1.0;
    for (size_t i = 0; i < q_.filters.size(); ++i) {
      const BoundFilter& f = q_.filters[i];
      SlotRef s{f.column.rel, f.column.col};
      const int pos = u->SlotPos(s);
      if (pos < 0) continue;
      FilterBinding fb;
      fb.slot = s;
      fb.object_column = u->col_names[static_cast<size_t>(pos)];
      fb.literal = &f.literal;
      fb.selectivity = pq_.filter_selectivity[i];
      sel *= fb.selectivity;
      u->filters.push_back(fb);
    }
    for (size_t i = 0; i < q_.in_preds.size(); ++i) {
      const auto& p = q_.in_preds[i];
      SlotRef s{p.column.rel, p.column.col};
      if (!u->Exposes(s)) continue;
      InBinding ib;
      ib.slot = s;
      ib.set_id = static_cast<int>(i);
      ib.selectivity = pq_.in_selectivity[i];
      sel *= ib.selectivity;
      u->in_preds.push_back(ib);
    }
    for (size_t i = 0; i < q_.joins.size(); ++i) {
      const BoundJoin& j = q_.joins[i];
      const JoinInfo& ji = joins_[i];
      if (!u->Exposes(ji.left) || !u->Exposes(ji.right)) continue;
      if (ViewPreApplies(u->view->def, j)) continue;
      u->residual_joins.emplace_back(ji.left, ji.right);
      sel *= ji.selectivity;
    }
    for (int r = 0; r < q_.num_relations(); ++r) {
      if (((u->rel_mask >> r) & 1) == 0) continue;
      for (const auto& s : pq_.needed[static_cast<size_t>(r)]) {
        if (u->Exposes(s)) u->needed.push_back(s);
      }
    }
    u->filtered_rows = std::max(1e-6, u->base_rows * sel);
  }

  static bool ViewPreApplies(const ViewDef& vd, const BoundJoin& j) {
    for (const auto& vj : vd.joins) {
      auto is = [&](const BoundColumn& a, const std::string& table,
                    const std::string& column) {
        return a.table == table && a.column == column;
      };
      if ((is(j.left, vj.left_table, vj.left_column) &&
           is(j.right, vj.right_table, vj.right_column)) ||
          (is(j.left, vj.right_table, vj.right_column) &&
           is(j.right, vj.left_table, vj.left_column))) {
        return true;
      }
    }
    return false;
  }

  // --------------------------------------------------------- view matching

  ArenaVec<ViewMatch> FindViewMatches() const {
    ArenaVec<ViewMatch> matches(arena_);
    ArenaVec<ArenaVec<int>> cands(arena_);
    ArenaVec<int> assign(arena_);
    for (const auto& pv : view_.views) {
      const ViewDef& vd = pv.def;
      // Candidate rels per view table.
      cands.resize(vd.tables.size());
      for (size_t t = 0; t < vd.tables.size(); ++t) {
        cands[t].clear();
        for (int r = 0; r < q_.num_relations(); ++r) {
          if (q_.relations[static_cast<size_t>(r)] == vd.tables[t]) {
            cands[t].push_back(r);
          }
        }
        if (cands[t].empty()) goto next_view;
      }
      // Enumerate injective assignments (view tables <= 3 in practice).
      assign.assign(vd.tables.size(), -1);
      EnumerateAssignments(pv, cands, 0, &assign, &matches);
    next_view:;
    }
    return matches;
  }

  void EnumerateAssignments(const PhysicalView& pv,
                            const ArenaVec<ArenaVec<int>>& cands, size_t t,
                            ArenaVec<int>* assign,
                            ArenaVec<ViewMatch>* out) const {
    const ViewDef& vd = pv.def;
    if (t == cands.size()) {
      if (ViewJoinsPresent(vd, *assign) && ViewCoversNeeded(vd, *assign)) {
        // Copy-constructing a pmr vector would take the default resource.
        out->push_back(ViewMatch{
            &pv, ArenaVec<int>(assign->begin(), assign->end(), arena_)});
      }
      return;
    }
    for (int r : cands[t]) {
      bool used = false;
      for (size_t i = 0; i < t; ++i) {
        if ((*assign)[i] == r) used = true;
      }
      if (used) continue;
      (*assign)[t] = r;
      EnumerateAssignments(pv, cands, t + 1, assign, out);
      (*assign)[t] = -1;
    }
  }

  int RelOfViewTable(const ViewDef& vd, const ArenaVec<int>& assign,
                     const std::string& table) const {
    for (size_t t = 0; t < vd.tables.size(); ++t) {
      if (vd.tables[t] == table) return assign[t];
    }
    return -1;
  }

  bool ViewJoinsPresent(const ViewDef& vd,
                        const ArenaVec<int>& assign) const {
    for (const auto& vj : vd.joins) {
      int lr = RelOfViewTable(vd, assign, vj.left_table);
      int rr = RelOfViewTable(vd, assign, vj.right_table);
      if (lr < 0 || rr < 0) return false;
      bool found = false;
      for (const auto& qj : q_.joins) {
        auto is = [&](const BoundColumn& a, int rel, const std::string& col) {
          return a.rel == rel && a.column == col;
        };
        if ((is(qj.left, lr, vj.left_column) &&
             is(qj.right, rr, vj.right_column)) ||
            (is(qj.left, rr, vj.right_column) &&
             is(qj.right, lr, vj.left_column))) {
          found = true;
          break;
        }
      }
      if (!found) return false;
    }
    return true;
  }

  bool ViewCoversNeeded(const ViewDef& vd,
                        const ArenaVec<int>& assign) const {
    auto covered = [&](int rel) {
      return std::find(assign.begin(), assign.end(), rel) != assign.end();
    };
    for (size_t t = 0; t < vd.tables.size(); ++t) {
      int r = assign[t];
      const TableDef* def = view_.catalog->FindTable(vd.tables[t]);
      for (const auto& s : pq_.needed[static_cast<size_t>(r)]) {
        // A slot whose only uses are join predicates *internal* to the view
        // need not be projected: the view pre-applied those joins.
        bool needed_externally = false;
        for (const auto& f : q_.filters) {
          if (SlotRef{f.column.rel, f.column.col} == s) {
            needed_externally = true;
          }
        }
        for (const auto& p : q_.in_preds) {
          if (SlotRef{p.column.rel, p.column.col} == s) {
            needed_externally = true;
          }
        }
        for (const auto& g : q_.group_by) {
          if (SlotRef{g.rel, g.col} == s) needed_externally = true;
        }
        for (const auto& sel : q_.select) {
          if (sel.kind != BoundSelectItem::Kind::kCountStar &&
              SlotRef{sel.column.rel, sel.column.col} == s) {
            needed_externally = true;
          }
        }
        for (const auto& j : q_.joins) {
          bool left_is_s = SlotRef{j.left.rel, j.left.col} == s;
          bool right_is_s = SlotRef{j.right.rel, j.right.col} == s;
          if (!left_is_s && !right_is_s) continue;
          int other = left_is_s ? j.right.rel : j.left.rel;
          if (!covered(other)) {
            needed_externally = true;
            continue;
          }
          // Both sides covered; internal only if the view pre-applies this
          // exact predicate — otherwise it must run as a residual and needs
          // the column.
          if (!ViewPreApplies(vd, j)) needed_externally = true;
        }
        if (!needed_externally) continue;
        const std::string& col =
            def->columns[static_cast<size_t>(s.col)].name;
        if (vd.ViewColumnIndex(vd.tables[t], col) < 0) return false;
      }
    }
    return true;
  }

  UnitDesc MakeViewUnit(const ViewMatch& m) const {
    UnitDesc vu(arena_);
    vu.is_view = true;
    vu.view = m.view;
    vu.object = &m.view->def.name;
    for (int r : m.rel_of_table) vu.rel_mask |= uint64_t{1} << r;
    vu.base_rows = std::max(1.0, m.view->rows);
    vu.pages = std::max(1.0, m.view->pages);
    vu.row_bytes = 0;
    const ViewDef& vd = m.view->def;
    for (const auto& pc : vd.projection) {
      int rel = RelOfViewTable(vd, m.rel_of_table, pc.table);
      const TableDef* def = view_.catalog->FindTable(pc.table);
      int ci = def->ColumnIndex(pc.column);
      vu.layout.push_back(SlotRef{rel, ci});
      vu.col_names.push_back(&pc.view_name);
      vu.row_bytes += def->columns[static_cast<size_t>(ci)].avg_width;
    }
    vu.row_bytes = std::max(16.0, vu.row_bytes);
    FillUnitPredicates(&vu);
    CostPaths(&vu);
    return vu;
  }

  // ---------------------------------------------------------- access paths

  /// Costs the unit's access paths: the sequential scan, then for each
  /// index whose key columns the unit exposes, a seek on its leading
  /// literal filters and, when covering, an index-only full scan.
  void CostPaths(UnitDesc* u) const {
    u->paths.push_back(AccessPath{AccessPath::Kind::kSeqScan, -1,
                                  cost_.SeqScan(u->pages, u->base_rows),
                                  u->row_bytes});
    for (const PhysicalIndex& candidate : view_.indexes) {
      if (candidate.def.target != *u->object) continue;
      const PhysicalIndex* idx = &candidate;
      UnitIndex ix(arena_);
      ix.idx = idx;
      bool ok = true;
      for (const auto& kc : idx->def.columns) {
        int pos = u->ColumnPos(kc);
        if (pos < 0) {
          ok = false;
          break;
        }
        ix.key_pos.push_back(pos);
      }
      if (!ok) continue;
      ix.covering = idx->allow_index_only && Covers(*u, ix.key_pos);
      for (int pos : ix.key_pos) {
        const SlotRef& slot = u->layout[static_cast<size_t>(pos)];
        int found = -1;
        for (size_t f = 0; f < u->filters.size(); ++f) {
          if (u->filters[f].slot == slot) {
            found = static_cast<int>(f);
            break;
          }
        }
        ix.key_filter.push_back(found);
      }
      const int id = static_cast<int>(u->indexes.size());
      u->indexes.push_back(std::move(ix));
      const UnitIndex& added = u->indexes.back();

      SeekBinding seek = BindSeek(*u, added, 0, nullptr, nullptr);
      if (seek.parts > 0) {
        double matching = std::max(1e-6, u->base_rows * seek.selectivity);
        u->paths.push_back(
            AccessPath{AccessPath::Kind::kIndexSeek, id,
                       cost_.IndexProbe(*idx, matching, added.covering),
                       u->row_bytes});
      }
      if (added.covering) {
        u->paths.push_back(AccessPath{AccessPath::Kind::kIndexOnlyScan, id,
                                      cost_.IndexOnlyScan(*idx),
                                      std::max(16.0, u->row_bytes / 2.0)});
      }
    }
  }

  bool Covers(const UnitDesc& u, const ArenaVec<int>& key_pos) const {
    for (const auto& need : u.needed) {
      bool found = false;
      for (int pos : key_pos) {
        if (u.layout[static_cast<size_t>(pos)] == need) {
          found = true;
          break;
        }
      }
      if (!found) return false;
    }
    return true;
  }

  // ------------------------------------------------------------------ joins

  /// Orients query join `ji` from the joined rels `acc` to `unit`; false
  /// when it does not connect them.
  bool Connects(size_t ji, uint64_t acc, uint64_t unit,
                OrientedJoin* out) const {
    const JoinInfo& j = joins_[ji];
    auto in = [](uint64_t mask, const SlotRef& s) {
      return (mask >> s.rel) & 1;
    };
    if (in(acc, j.left) && in(unit, j.right)) {
      *out = OrientedJoin{j.left, j.right, j.right_distinct};
      return true;
    }
    if (in(acc, j.right) && in(unit, j.left)) {
      *out = OrientedJoin{j.right, j.left, j.left_distinct};
      return true;
    }
    return false;
  }

  /// Binds `ix`'s leading key columns for an index NL join from the joined
  /// rels `acc` into `u`: each key column takes the first unused connecting
  /// join whose inner column it is, else the unit's first literal filter on
  /// it, and binding stops at the first column neither covers. With `acc`
  /// empty this is the literal seek prefix of an index scan. With `node`
  /// set, also appends the seek parts to it and the consumed filters'
  /// columns to `consumed`.
  SeekBinding BindSeek(const UnitDesc& u, const UnitIndex& ix, uint64_t acc,
                       PlanNode* node, ConsumedColumns* consumed) const {
    SeekBinding b;
    for (size_t k = 0; k < ix.key_pos.size(); ++k) {
      const SlotRef& slot = u.layout[static_cast<size_t>(ix.key_pos[k])];
      // Prefer a join binding for this key column.
      bool bound = false;
      for (size_t ji = 0; ji < joins_.size(); ++ji) {
        OrientedJoin j;
        if ((b.used_joins >> ji) & 1) continue;
        if (!Connects(ji, acc, u.rel_mask, &j) || !(j.inner == slot)) {
          continue;
        }
        if (node != nullptr) {
          SeekKeyPart part;
          part.from_outer = true;
          part.outer = j.outer;
          node->seek.push_back(std::move(part));
        }
        b.used_joins |= uint64_t{1} << ji;
        b.selectivity /= j.inner_distinct;
        bound = true;
        b.used_outer = true;
        break;
      }
      if (!bound && ix.key_filter[k] >= 0) {
        const FilterBinding& f =
            u.filters[static_cast<size_t>(ix.key_filter[k])];
        if (node != nullptr) {
          SeekKeyPart part;
          part.from_outer = false;
          part.literal = *f.literal;
          node->seek.push_back(std::move(part));
          consumed->push_back(f.object_column);
        }
        b.selectivity *= f.selectivity;
        bound = true;
      }
      if (!bound) break;
      ++b.parts;
    }
    return b;
  }

  /// Extends `acc` with unit `u` by its cheapest join method; false when
  /// none applies.
  bool JoinStep(Acc* acc, const UnitDesc& u, JoinChoice* choice) const {
    OrientedJoin j;
    bool connected = false;
    double rows = acc->rows * u.filtered_rows;
    for (size_t ji = 0; ji < joins_.size(); ++ji) {
      if (!Connects(ji, acc->rels, u.rel_mask, &j)) continue;
      connected = true;
      rows *= joins_[ji].selectivity;
    }
    const double out_rows = std::max(1e-6, rows);
    double best = kInf;

    // Option A: hash join (build on the smaller input).
    const bool build_acc = acc->rows <= u.filtered_rows;
    const double build_rows = build_acc ? acc->rows : u.filtered_rows;
    const double probe_rows = build_acc ? u.filtered_rows : acc->rows;
    for (size_t p = 0; p < u.paths.size(); ++p) {
      const AccessPath& up = u.paths[p];
      double build_bytes = build_acc ? acc->row_bytes : up.row_bytes;
      double probe_bytes = build_acc ? up.row_bytes : acc->row_bytes;
      bool spilled = cost_.WouldSpill(build_rows, build_bytes);
      double cost = acc->cost + up.cost +
                    cost_.HashBuild(build_rows, build_bytes) +
                    cost_.HashProbe(probe_rows, out_rows, spilled,
                                    probe_bytes);
      if (cost >= best) continue;
      best = cost;
      *choice = JoinChoice{false, static_cast<int>(p), build_acc, -1,
                           out_rows, cost};
    }

    // Option B: index nested-loop join (single-object inner with an index
    // whose leading key columns are bound by join columns or literals).
    if (connected) {
      for (size_t i = 0; i < u.indexes.size(); ++i) {
        const UnitIndex& ix = u.indexes[i];
        SeekBinding b = BindSeek(u, ix, acc->rels, nullptr, nullptr);
        if (!b.used_outer || b.parts == 0) continue;
        double matching = std::max(1e-6, u.base_rows * b.selectivity);
        double per_probe = cost_.IndexProbe(*ix.idx, matching, ix.covering);
        double cost = acc->cost + acc->rows * per_probe;
        if (cost >= best) continue;
        best = cost;
        *choice = JoinChoice{true, -1, false, static_cast<int>(i), out_rows,
                             cost};
      }
    }

    if (best == kInf) return false;
    acc->rows = out_rows;
    acc->cost = best;
    acc->row_bytes += u.row_bytes;
    acc->rels |= u.rel_mask;
    return true;
  }

  // ----------------------------------------------------------- enumeration

  /// Costs every left-deep order of `units` and keeps the partition's
  /// cheapest plan in `best_` when its total beats the best so far.
  void SearchPartition(const ArenaVec<const UnitDesc*>& units) {
    const size_t n = units.size();
    if (n == 0) return;
    ArenaVec<size_t> perm(n, arena_);
    for (size_t i = 0; i < n; ++i) perm[i] = i;
    ArenaVec<JoinChoice> steps(n - 1, arena_);

    PartitionPlan plan(arena_);
    ArenaVec<size_t> best_perm(arena_);
    do {
      // Leftmost unit: cheapest access path.
      const UnitDesc& first = *units[perm[0]];
      Acc acc;
      int first_path = -1;
      for (size_t p = 0; p < first.paths.size(); ++p) {
        if (first.paths[p].cost < acc.cost) {
          acc.cost = first.paths[p].cost;
          acc.row_bytes = first.paths[p].row_bytes;
          first_path = static_cast<int>(p);
        }
      }
      if (first_path < 0) continue;
      acc.rows = first.filtered_rows;
      acc.rels = first.rel_mask;
      bool ok = true;
      for (size_t i = 1; i < n && ok; ++i) {
        ok = JoinStep(&acc, *units[perm[i]], &steps[i - 1]);
      }
      if (!ok || !(acc.cost < plan.acc.cost)) continue;
      plan.acc = acc;
      plan.first_path = first_path;
      plan.steps = steps;
      best_perm = perm;
    } while (std::next_permutation(perm.begin(), perm.end()));

    if (plan.acc.cost == kInf) return;
    plan.total = Finish(plan.acc).total;
    if (!(plan.total < best_.total)) return;
    plan.units.reserve(n);
    for (size_t i : best_perm) plan.units.push_back(units[i]);
    best_ = std::move(plan);
  }

  /// E(q, C) of a complete join (IN-set materializations and the root
  /// operator added) and the root's output rows.
  struct Finished {
    double total = 0;
    double rows = 0;
  };
  Finished Finish(const Acc& acc) const {
    double total = acc.cost;
    for (const InSetChoice& s : in_sets_) total += s.cost;
    if (!q_.IsAggregate()) return Finished{total, acc.rows};
    double groups = GroupCountOf(pq_.group_distinct, acc.rows);
    bool has_distinct = false;
    for (const auto& s : q_.select) {
      if (s.kind == BoundSelectItem::Kind::kCountDistinct) {
        has_distinct = true;
      }
    }
    double key_bytes = 16.0 * static_cast<double>(q_.group_by.size());
    total += cost_.Aggregate(acc.rows, groups, key_bytes,
                             has_distinct ? acc.rows : 0.0);
    return Finished{total, groups};
  }

  // --------------------------------------------------------------- builder

  /// Residual predicates for the unit, excluding filters whose columns
  /// appear in `consumed_filters` (already used for an index seek).
  std::vector<ResidualPred> UnitResiduals(
      const UnitDesc& u, const ConsumedColumns& consumed_filters) const {
    std::vector<ResidualPred> out;
    for (const auto& f : u.filters) {
      if (Consumed(consumed_filters, *f.object_column)) continue;
      ResidualPred p;
      p.kind = ResidualPred::Kind::kColEqLit;
      p.a = f.slot;
      p.literal = *f.literal;
      out.push_back(std::move(p));
    }
    for (const auto& ip : u.in_preds) {
      ResidualPred p;
      p.kind = ResidualPred::Kind::kInSet;
      p.a = ip.slot;
      p.in_set = ip.set_id;
      out.push_back(std::move(p));
    }
    for (const auto& [ls, rs] : u.residual_joins) {
      ResidualPred p;
      p.kind = ResidualPred::Kind::kColEqCol;
      p.a = ls;
      p.b = rs;
      out.push_back(std::move(p));
    }
    return out;
  }

  /// Appends the slots a scan of `u` outputs: the index's key columns
  /// when it is read index-only, else the unit's whole layout.
  static void AppendOutput(const UnitDesc& u, const UnitIndex* index_only,
                           std::vector<SlotRef>* out) {
    if (index_only == nullptr) {
      out->insert(out->end(), u.layout.begin(), u.layout.end());
      return;
    }
    for (int pos : index_only->key_pos) {
      out->push_back(u.layout[static_cast<size_t>(pos)]);
    }
  }

  static std::string IndexName(const PhysicalIndex& idx) {
    return idx.physical_name.empty() ? idx.def.name : idx.physical_name;
  }

  std::unique_ptr<PlanNode> ScanNode(const UnitDesc& u,
                                     const AccessPath& path) const {
    auto node = std::make_unique<PlanNode>();
    node->object = *u.object;
    node->is_view = u.is_view;
    node->est_rows = u.filtered_rows;
    node->est_cost = path.cost;
    ConsumedColumns consumed(arena_);
    if (path.kind == AccessPath::Kind::kSeqScan) {
      node->kind = PlanNode::Kind::kSeqScan;
      AppendOutput(u, nullptr, &node->output_cols);
      node->residual = UnitResiduals(u, consumed);
      return node;
    }
    const UnitIndex& ix = u.indexes[static_cast<size_t>(path.index)];
    node->kind = PlanNode::Kind::kIndexScan;
    node->index_name = IndexName(*ix.idx);
    if (path.kind == AccessPath::Kind::kIndexSeek) {
      BindSeek(u, ix, 0, node.get(), &consumed);
      node->index_only = ix.covering;
    } else {
      node->index_only = true;
    }
    AppendOutput(u, node->index_only ? &ix : nullptr, &node->output_cols);
    node->residual = UnitResiduals(u, consumed);
    return node;
  }

  /// The node `choice` describes, joining `acc` (over rels `acc_rels`)
  /// with unit `u`; `acc` moves in as a child.
  std::unique_ptr<PlanNode> JoinNode(std::unique_ptr<PlanNode> acc,
                                     uint64_t acc_rels, const UnitDesc& u,
                                     const JoinChoice& choice) const {
    auto node = std::make_unique<PlanNode>();
    node->est_rows = choice.rows;
    node->est_cost = choice.cost;
    OrientedJoin j;
    if (!choice.index_nl) {
      node->kind = PlanNode::Kind::kHashJoin;
      auto scan = ScanNode(u, u.paths[static_cast<size_t>(choice.path)]);
      for (size_t ji = 0; ji < joins_.size(); ++ji) {
        if (!Connects(ji, acc_rels, u.rel_mask, &j)) continue;
        if (choice.build_acc) {
          node->hash_keys.emplace_back(j.outer, j.inner);
        } else {
          node->hash_keys.emplace_back(j.inner, j.outer);
        }
      }
      if (choice.build_acc) {
        node->children.push_back(std::move(acc));
        node->children.push_back(std::move(scan));
      } else {
        node->children.push_back(std::move(scan));
        node->children.push_back(std::move(acc));
      }
      node->output_cols = node->children[0]->output_cols;
      node->output_cols.insert(node->output_cols.end(),
                               node->children[1]->output_cols.begin(),
                               node->children[1]->output_cols.end());
      return node;
    }

    const UnitIndex& ix = u.indexes[static_cast<size_t>(choice.index)];
    node->kind = PlanNode::Kind::kIndexNLJoin;
    node->object = *u.object;
    node->is_view = u.is_view;
    node->index_name = IndexName(*ix.idx);
    node->index_only = ix.covering;
    ConsumedColumns consumed(arena_);
    SeekBinding b = BindSeek(u, ix, acc_rels, node.get(), &consumed);
    node->output_cols = acc->output_cols;
    AppendOutput(u, ix.covering ? &ix : nullptr, &node->output_cols);
    node->children.push_back(std::move(acc));
    // Residuals: unit predicates not consumed by the seek, plus join
    // predicates not used as seek columns.
    node->residual = UnitResiduals(u, consumed);
    for (size_t ji = 0; ji < joins_.size(); ++ji) {
      if ((b.used_joins >> ji) & 1) continue;
      if (!Connects(ji, acc_rels, u.rel_mask, &j)) continue;
      ResidualPred p;
      p.kind = ResidualPred::Kind::kColEqCol;
      p.a = j.outer;
      p.b = j.inner;
      node->residual.push_back(std::move(p));
    }
    return node;
  }

  PhysicalPlan Finalize(std::unique_ptr<PlanNode> child) const {
    PhysicalPlan plan;
    plan.in_sets.reserve(in_sets_.size());
    for (size_t i = 0; i < in_sets_.size(); ++i) {
      const BoundInFreq& p = q_.in_preds[i];
      InSetSpec spec;
      spec.table = p.sub_table;
      spec.column = p.sub_column;
      spec.column_pos = in_sets_[i].column_pos;
      spec.cmp = p.cmp;
      spec.k = p.k;
      if (in_sets_[i].index != nullptr) {
        spec.index_name = IndexName(*in_sets_[i].index);
      }
      plan.in_sets.push_back(std::move(spec));
    }
    const Finished fin = Finish(best_.acc);
    auto root = std::make_unique<PlanNode>();
    root->kind = q_.IsAggregate() ? PlanNode::Kind::kHashAggregate
                                  : PlanNode::Kind::kProject;
    root->select = q_.select;
    if (q_.IsAggregate()) root->group_by = q_.group_by;
    // Aggregate output: select-list shape; output_cols unused above root.
    root->est_rows = fin.rows;
    root->est_cost = fin.total;
    root->children.push_back(std::move(child));
    plan.root = std::move(root);
    plan.est_cost = fin.total;
    return plan;
  }

  const PreparedQuery& pq_;
  const BoundQuery& q_;
  const ConfigView& view_;
  Arena arena_;
  CostModel cost_;
  const std::vector<JoinInfo>& joins_;
  ArenaVec<InSetChoice> in_sets_;  // by IN-set id (q order)
  ArenaVec<UnitDesc> base_units_;
  ArenaVec<UnitDesc> view_units_;
  PartitionPlan best_;
};

/// The view must carry the catalog and statistics `pq` was prepared
/// against: selectivities from other statistics would plan silently wrong.
Status CheckPreparedFor(const PreparedQuery& pq, const ConfigView& view) {
  if (view.catalog == nullptr || view.stats == nullptr) {
    return Status::InvalidArgument("ConfigView missing catalog or stats");
  }
  if (pq.catalog != view.catalog || pq.stats != view.stats) {
    return Status::InvalidArgument(
        "query prepared against another catalog or other statistics");
  }
  return Status::OK();
}

}  // namespace

Result<PhysicalPlan> PlanQuery(const PreparedQuery& pq,
                               const ConfigView& view) {
  TB_RETURN_IF_ERROR(CheckPreparedFor(pq, view));
  alignas(std::max_align_t) std::byte buffer[kArenaBytes];
  std::pmr::monotonic_buffer_resource arena(buffer, sizeof(buffer));
  Planner p(pq, view, &arena);
  TB_RETURN_IF_ERROR(p.Search());
  return p.Build();
}

Result<double> EstimateCost(const PreparedQuery& pq, const ConfigView& view) {
  TB_RETURN_IF_ERROR(CheckPreparedFor(pq, view));
  alignas(std::max_align_t) std::byte buffer[kArenaBytes];
  std::pmr::monotonic_buffer_resource arena(buffer, sizeof(buffer));
  Planner p(pq, view, &arena);
  TB_RETURN_IF_ERROR(p.Search());
  return p.EstimatedCost();
}

Result<PhysicalPlan> PlanQuery(const BoundQuery& q, const ConfigView& view) {
  if (view.catalog == nullptr || view.stats == nullptr) {
    return Status::InvalidArgument("ConfigView missing catalog or stats");
  }
  PreparedQuery pq;
  TB_ASSIGN_OR_RETURN(pq, PrepareQuery(q, *view.catalog, *view.stats));
  return PlanQuery(pq, view);
}

Result<double> EstimateCost(const BoundQuery& q, const ConfigView& view) {
  if (view.catalog == nullptr || view.stats == nullptr) {
    return Status::InvalidArgument("ConfigView missing catalog or stats");
  }
  PreparedQuery pq;
  TB_ASSIGN_OR_RETURN(pq, PrepareQuery(q, *view.catalog, *view.stats));
  return EstimateCost(pq, view);
}

}  // namespace tabbench
