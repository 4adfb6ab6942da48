#include "sql/binder.h"

#include <algorithm>

#include "sql/parser.h"

namespace tabbench {

bool BoundQuery::IsAggregate() const {
  if (!group_by.empty()) return true;
  for (const auto& s : select) {
    if (s.kind != BoundSelectItem::Kind::kColumn) return true;
  }
  return false;
}

std::vector<BoundColumn> BoundQuery::ColumnsOf(int rel) const {
  std::vector<BoundColumn> out;
  auto add = [&](const BoundColumn& c) {
    if (c.rel != rel) return;
    for (const auto& e : out) {
      if (e.SameAs(c)) return;
    }
    out.push_back(c);
  };
  for (const auto& j : joins) {
    add(j.left);
    add(j.right);
  }
  for (const auto& f : filters) add(f.column);
  for (const auto& p : in_preds) add(p.column);
  for (const auto& g : group_by) add(g);
  return out;
}

namespace {

class Binder {
 public:
  Binder(const SelectStmt& stmt, const Catalog& catalog)
      : stmt_(stmt), catalog_(catalog) {}

  Result<BoundQuery> Run() {
    BoundQuery q;
    const size_t n_from = stmt_.from.size();
    q.relations.reserve(n_from);
    q.aliases.reserve(n_from);
    defs_.reserve(n_from);
    q.select.reserve(stmt_.items.size());
    q.group_by.reserve(stmt_.group_by.size());
    size_t n_joins = 0, n_filters = 0;
    for (const auto& p : stmt_.where) {
      n_joins += p.kind == AstPredicate::Kind::kColEqCol;
      n_filters += p.kind == AstPredicate::Kind::kColEqLiteral;
    }
    q.joins.reserve(n_joins);
    q.filters.reserve(n_filters);
    q.in_preds.reserve(stmt_.where.size() - n_joins - n_filters);
    // FROM: register relation occurrences.
    if (stmt_.from.empty()) {
      return Status::InvalidArgument("empty FROM clause");
    }
    for (const auto& t : stmt_.from) {
      const TableDef* def = catalog_.FindTable(t.table);
      if (def == nullptr) {
        return Status::NotFound("unknown table " + t.table);
      }
      for (const auto& a : q.aliases) {
        if (a == t.alias) {
          return Status::InvalidArgument("duplicate alias " + t.alias);
        }
      }
      q.relations.push_back(t.table);
      q.aliases.push_back(t.alias);
      defs_.push_back(def);
    }

    // WHERE conjuncts.
    for (const auto& p : stmt_.where) {
      switch (p.kind) {
        case AstPredicate::Kind::kColEqCol: {
          BoundJoin& j = q.joins.emplace_back();
          TB_RETURN_IF_ERROR(Resolve(p.left, q, &j.left));
          TB_RETURN_IF_ERROR(Resolve(p.right, q, &j.right));
          if (j.left.type != j.right.type) {
            return Status::InvalidArgument("join type mismatch: " +
                                           p.ToSql());
          }
          break;
        }
        case AstPredicate::Kind::kColEqLiteral: {
          BoundFilter& f = q.filters.emplace_back();
          TB_RETURN_IF_ERROR(Resolve(p.left, q, &f.column));
          if (!LiteralMatches(f.column.type, p.literal)) {
            return Status::InvalidArgument("literal type mismatch: " +
                                           p.ToSql());
          }
          // An integer compared with a DOUBLE column binds as a double:
          // the planner and executors compare values of one type only.
          f.literal = f.column.type == TypeId::kDouble && p.literal.is_int()
                          ? Value(static_cast<double>(p.literal.as_int()))
                          : p.literal;
          break;
        }
        case AstPredicate::Kind::kColInSubquery: {
          BoundInFreq& in = q.in_preds.emplace_back();
          TB_RETURN_IF_ERROR(Resolve(p.left, q, &in.column));
          const TableDef* sub = catalog_.FindTable(p.sub.table);
          if (sub == nullptr) {
            return Status::NotFound("unknown table " + p.sub.table);
          }
          int ci = sub->ColumnIndex(p.sub.column);
          if (ci < 0) {
            return Status::NotFound("unknown column " + p.sub.table + "." +
                                    p.sub.column);
          }
          if (sub->columns[static_cast<size_t>(ci)].type != in.column.type) {
            return Status::InvalidArgument("IN subquery type mismatch: " +
                                           p.ToSql());
          }
          if (p.sub.cmp != '<' && p.sub.cmp != '=') {
            return Status::Unsupported("HAVING comparison " +
                                       std::string(1, p.sub.cmp));
          }
          if (p.sub.k <= 0) {
            return Status::InvalidArgument("HAVING COUNT(*) bound must be positive");
          }
          in.sub_table = p.sub.table;
          in.sub_column = p.sub.column;
          in.cmp = p.sub.cmp;
          in.k = p.sub.k;
          break;
        }
      }
    }

    // GROUP BY.
    for (const auto& g : stmt_.group_by) {
      TB_RETURN_IF_ERROR(Resolve(g, q, &q.group_by.emplace_back()));
    }

    // SELECT list.
    bool has_aggregate = false;
    for (const auto& item : stmt_.items) {
      if (item.kind != AstSelectItem::Kind::kColumn) has_aggregate = true;
    }
    for (const auto& item : stmt_.items) {
      BoundSelectItem& s = q.select.emplace_back();
      switch (item.kind) {
        case AstSelectItem::Kind::kCountStar:
          s.kind = BoundSelectItem::Kind::kCountStar;
          break;
        case AstSelectItem::Kind::kCountDistinct: {
          s.kind = BoundSelectItem::Kind::kCountDistinct;
          TB_RETURN_IF_ERROR(Resolve(item.column, q, &s.column));
          break;
        }
        case AstSelectItem::Kind::kColumn: {
          s.kind = BoundSelectItem::Kind::kColumn;
          TB_RETURN_IF_ERROR(Resolve(item.column, q, &s.column));
          if (has_aggregate || !stmt_.group_by.empty()) {
            bool in_group = std::any_of(
                q.group_by.begin(), q.group_by.end(),
                [&](const BoundColumn& g) { return g.SameAs(s.column); });
            if (!in_group) {
              return Status::InvalidArgument(
                  "select column " + item.column.ToSql() +
                  " not in GROUP BY");
            }
          }
          break;
        }
      }
    }
    if (q.select.empty()) {
      return Status::InvalidArgument("empty SELECT list");
    }
    return q;
  }

 private:
  /// Resolves `ref` into `*out`, which the caller has just added to `q`'s
  /// lists in place (an error discards the whole query).
  Status Resolve(const AstColumnRef& ref, const BoundQuery& q,
                 BoundColumn* out) {
    int found = -1;
    for (int i = 0; i < q.num_relations(); ++i) {
      const TableDef* def = defs_[static_cast<size_t>(i)];
      if (!ref.qualifier.empty() &&
          q.aliases[static_cast<size_t>(i)] != ref.qualifier) {
        continue;
      }
      int ci = def->ColumnIndex(ref.column);
      if (ci < 0) continue;
      if (found >= 0) {
        return Status::InvalidArgument("ambiguous column " + ref.ToSql());
      }
      found = i;
      out->rel = i;
      out->col = ci;
      out->table = def->name;
      out->column = ref.column;
      out->type = def->columns[static_cast<size_t>(ci)].type;
    }
    if (found < 0) {
      return Status::NotFound("unresolved column " + ref.ToSql());
    }
    return Status::OK();
  }

  bool LiteralMatches(TypeId t, const Value& v) {
    if (v.is_null()) return true;
    switch (t) {
      case TypeId::kInt:
        return v.is_int();
      case TypeId::kDouble:
        return v.is_double() || v.is_int();
      case TypeId::kString:
        return v.is_string();
    }
    return false;
  }

  const SelectStmt& stmt_;
  const Catalog& catalog_;
  /// Definition of each FROM occurrence, looked up once per bind.
  std::vector<const TableDef*> defs_;
};

}  // namespace

Result<BoundQuery> Bind(const SelectStmt& stmt, const Catalog& catalog) {
  Binder b(stmt, catalog);
  return b.Run();
}

Result<BoundQuery> ParseAndBind(const std::string& sql,
                                const Catalog& catalog) {
  SelectStmt stmt;
  TB_ASSIGN_OR_RETURN(stmt, ParseSelect(sql));
  return Bind(stmt, catalog);
}

}  // namespace tabbench
