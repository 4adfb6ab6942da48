#include "sql/ast.h"

#include <charconv>

#include "util/strings.h"

namespace tabbench {

namespace {

/// A literal as SQL that lexes back to the same Value. Value::ToString
/// prints doubles with %g, which drops digits past the sixth and prints an
/// integral double as an integer; here a double takes the shortest fixed
/// notation that round-trips, always with a '.'.
std::string LiteralSql(const Value& v) {
  if (!v.is_double()) return v.ToString();
  // Fixed notation of any finite double fits: at most 309 integer digits,
  // or 17 significant digits after at most 323 fractional zeros.
  char buf[400];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v.as_double(),
                                       std::chars_format::fixed);
  if (ec != std::errc()) return v.ToString();
  std::string out(buf, end);
  if (out.find('.') == std::string::npos) out += ".0";
  return out;
}

}  // namespace

std::string AstSelectItem::ToSql() const {
  switch (kind) {
    case Kind::kColumn:
      return column.ToSql();
    case Kind::kCountStar:
      return "COUNT(*)";
    case Kind::kCountDistinct:
      return "COUNT(DISTINCT " + column.ToSql() + ")";
  }
  return "";
}

std::string AstInSubquery::ToSql() const {
  return StrFormat("(SELECT %s FROM %s GROUP BY %s HAVING COUNT(*) %c %lld)",
                   column.c_str(), table.c_str(), column.c_str(), cmp,
                   static_cast<long long>(k));
}

std::string AstPredicate::ToSql() const {
  switch (kind) {
    case Kind::kColEqCol:
      return left.ToSql() + " = " + right.ToSql();
    case Kind::kColEqLiteral:
      return left.ToSql() + " = " + LiteralSql(literal);
    case Kind::kColInSubquery:
      return left.ToSql() + " IN " + sub.ToSql();
  }
  return "";
}

std::string SelectStmt::ToSql() const {
  std::vector<std::string> parts;
  for (const auto& i : items) parts.push_back(i.ToSql());
  std::string sql = "SELECT " + StrJoin(parts, ", ");

  parts.clear();
  for (const auto& t : from) parts.push_back(t.ToSql());
  sql += " FROM " + StrJoin(parts, ", ");

  if (!where.empty()) {
    parts.clear();
    for (const auto& p : where) parts.push_back(p.ToSql());
    sql += " WHERE " + StrJoin(parts, " AND ");
  }
  if (!group_by.empty()) {
    parts.clear();
    for (const auto& g : group_by) parts.push_back(g.ToSql());
    sql += " GROUP BY " + StrJoin(parts, ", ");
  }
  return sql;
}

}  // namespace tabbench
