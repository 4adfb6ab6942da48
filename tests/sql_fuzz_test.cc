// Seeded mutation fuzzer for the SQL front end (lexer, parser, binder).
//
// Every NREF2J, NREF3J and SkTH3J family query is mutated with fixed seeds:
// byte flips, token deletion and duplication, digit-run extension (which
// pushes integer literals past int64) and quote insertion. For each mutant,
// ParseAndBind must return without throwing or crashing, with status OK,
// InvalidArgument, NotFound or Unsupported; an OK statement must survive a
// round trip: ParseSelect(stmt.ToSql()) yields the same statement, and it
// binds to the same BoundQuery.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/nref_families.h"
#include "core/tpch_families.h"
#include "sql/binder.h"
#include "sql/lexer.h"
#include "sql/parser.h"
#include "test_util.h"
#include "util/rng.h"

namespace tabbench {
namespace {

constexpr int kMutantsPerQuery = 12;

// ------------------------------------------------------------ equality

bool SameLiteral(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return a.is_null() && b.is_null();
  if (a.is_int() != b.is_int() || a.is_double() != b.is_double()) return false;
  return a == b;
}

bool SameItem(const AstSelectItem& a, const AstSelectItem& b) {
  return a.kind == b.kind && a.column == b.column;
}

bool SameTable(const AstTableRef& a, const AstTableRef& b) {
  return a.table == b.table && a.alias == b.alias;
}

bool SamePredicate(const AstPredicate& a, const AstPredicate& b) {
  if (a.kind != b.kind || !(a.left == b.left)) return false;
  switch (a.kind) {
    case AstPredicate::Kind::kColEqCol:
      return a.right == b.right;
    case AstPredicate::Kind::kColEqLiteral:
      return SameLiteral(a.literal, b.literal);
    case AstPredicate::Kind::kColInSubquery:
      return a.sub.table == b.sub.table && a.sub.column == b.sub.column &&
             a.sub.cmp == b.sub.cmp && a.sub.k == b.sub.k;
  }
  return false;
}

template <typename T, typename Eq>
bool SameList(const std::vector<T>& a, const std::vector<T>& b, Eq eq) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(), eq);
}

bool SameStmt(const SelectStmt& a, const SelectStmt& b) {
  return SameList(a.items, b.items, SameItem) &&
         SameList(a.from, b.from, SameTable) &&
         SameList(a.where, b.where, SamePredicate) &&
         a.group_by == b.group_by;
}

bool SameColumn(const BoundColumn& a, const BoundColumn& b) {
  return a.rel == b.rel && a.col == b.col && a.table == b.table &&
         a.column == b.column && a.type == b.type;
}

bool SameBound(const BoundQuery& a, const BoundQuery& b) {
  return a.relations == b.relations && a.aliases == b.aliases &&
         SameList(a.select, b.select,
                  [](const BoundSelectItem& x, const BoundSelectItem& y) {
                    return x.kind == y.kind && SameColumn(x.column, y.column);
                  }) &&
         SameList(a.group_by, b.group_by, SameColumn) &&
         SameList(a.joins, b.joins,
                  [](const BoundJoin& x, const BoundJoin& y) {
                    return SameColumn(x.left, y.left) &&
                           SameColumn(x.right, y.right);
                  }) &&
         SameList(a.filters, b.filters,
                  [](const BoundFilter& x, const BoundFilter& y) {
                    return SameColumn(x.column, y.column) &&
                           SameLiteral(x.literal, y.literal);
                  }) &&
         SameList(a.in_preds, b.in_preds,
                  [](const BoundInFreq& x, const BoundInFreq& y) {
                    return SameColumn(x.column, y.column) &&
                           x.sub_table == y.sub_table &&
                           x.sub_column == y.sub_column && x.cmp == y.cmp &&
                           x.k == y.k;
                  });
}

// ------------------------------------------------------------- mutator

/// Byte spans of `sql`'s tokens (each up to the next token's start), from a
/// lex of the unmutated query.
std::vector<std::pair<size_t, size_t>> TokenSpans(const std::string& sql) {
  std::vector<std::pair<size_t, size_t>> spans;
  auto toks = Lex(sql);
  if (!toks.ok()) return spans;
  for (size_t i = 0; i + 1 < toks->size(); ++i) {
    spans.emplace_back((*toks)[i].position, (*toks)[i + 1].position);
  }
  return spans;
}

std::string Mutate(const std::string& sql, Rng* rng) {
  std::string out = sql;
  const int ops = 1 + static_cast<int>(rng->Uniform(3));
  for (int op = 0; op < ops && !out.empty(); ++op) {
    const uint64_t kind = rng->Uniform(5);
    switch (kind) {
      case 0: {  // byte flip
        const size_t at = rng->Uniform(out.size());
        out[at] = static_cast<char>(out[at] ^ (1u << rng->Uniform(8)));
        break;
      }
      case 1:    // token deletion
      case 2: {  // token duplication
        const auto spans = TokenSpans(out);
        if (spans.empty()) break;
        const auto [begin, end] = spans[rng->Uniform(spans.size())];
        const std::string token = out.substr(begin, end - begin);
        if (kind == 1) {
          out.erase(begin, end - begin);
        } else {
          out.insert(begin, token);
        }
        break;
      }
      case 3: {  // digit-run extension
        std::vector<size_t> digits;
        for (size_t i = 0; i < out.size(); ++i) {
          if (out[i] >= '0' && out[i] <= '9') digits.push_back(i);
        }
        if (digits.empty()) break;
        const size_t at = digits[rng->Uniform(digits.size())];
        std::string run;
        const size_t len = 1 + rng->Uniform(24);
        for (size_t i = 0; i < len; ++i) {
          run += static_cast<char>('0' + rng->Uniform(10));
        }
        out.insert(at, run);
        break;
      }
      default: {  // quote insertion
        out.insert(rng->Uniform(out.size() + 1), 1, '\'');
        break;
      }
    }
  }
  return out;
}

// --------------------------------------------------------------- suite

struct Outcomes {
  size_t ok = 0;
  size_t rejected = 0;
  size_t out_of_range = 0;
};

/// Runs `sql` through the front end and checks the contract; records what
/// happened in `*seen`.
void CheckOne(const std::string& sql, const Catalog& catalog, Outcomes* seen) {
  Result<BoundQuery> bound = Status::Internal("not run");
  try {
    bound = ParseAndBind(sql, catalog);
  } catch (...) {
    ADD_FAILURE() << "ParseAndBind threw on: " << sql;
    return;
  }
  if (!bound.ok()) {
    const Status& st = bound.status();
    EXPECT_TRUE(st.IsInvalidArgument() || st.IsNotFound() ||
                st.IsUnsupported())
        << st.ToString() << " on: " << sql;
    ++seen->rejected;
    if (st.message().find("out of range") != std::string::npos) {
      ++seen->out_of_range;
    }
    return;
  }
  ++seen->ok;
  auto stmt = ParseSelect(sql);
  ASSERT_TRUE(stmt.ok()) << sql;
  const std::string printed = stmt->ToSql();
  auto again = ParseSelect(printed);
  ASSERT_TRUE(again.ok()) << again.status().ToString() << " on: " << printed;
  EXPECT_TRUE(SameStmt(*stmt, *again)) << sql << "\n  printed: " << printed;
  auto rebound = Bind(*again, catalog);
  ASSERT_TRUE(rebound.ok()) << rebound.status().ToString() << " on: "
                            << printed;
  EXPECT_TRUE(SameBound(*bound, *rebound)) << sql << "\n  printed: "
                                           << printed;
}

class SqlFuzzTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    nref_ = testing::MakeMiniNref();
    tpch_ = testing::MakeMiniTpch(4000.0, /*zipf_theta=*/1.0);
  }
  static void TearDownTestSuite() {
    nref_.reset();
    tpch_.reset();
  }
  void SetUp() override {
    ASSERT_NE(nref_, nullptr);
    ASSERT_NE(tpch_, nullptr);
  }

  /// Fuzzes every query of `family` with seeds derived from `seed`.
  static void FuzzFamily(const QueryFamily& family, const Catalog& catalog,
                         uint64_t seed) {
    ASSERT_FALSE(family.queries.empty());
    Outcomes seen;
    for (size_t q = 0; q < family.queries.size(); ++q) {
      const std::string& sql = family.queries[q].sql;
      const size_t ok_before = seen.ok;
      CheckOne(sql, catalog, &seen);
      ASSERT_EQ(seen.ok, ok_before + 1) << "family query does not bind: "
                                        << sql;
      Rng rng(seed * 1000003 + q);
      for (int m = 0; m < kMutantsPerQuery; ++m) {
        CheckOne(Mutate(sql, &rng), catalog, &seen);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
    // The mutators must reach both outcomes and the int64 overflow path.
    EXPECT_GT(seen.ok, family.queries.size());
    EXPECT_GT(seen.rejected, 0u);
    EXPECT_GT(seen.out_of_range, 0u);
  }

  static std::unique_ptr<Database> nref_, tpch_;
};

std::unique_ptr<Database> SqlFuzzTest::nref_;
std::unique_ptr<Database> SqlFuzzTest::tpch_;

TEST_F(SqlFuzzTest, Nref2jMutants) {
  FuzzFamily(GenerateNref2J(nref_->catalog(), nref_->stats()),
             nref_->catalog(), 1);
}

TEST_F(SqlFuzzTest, Nref3jMutants) {
  FuzzFamily(GenerateNref3J(nref_->catalog(), nref_->stats()),
             nref_->catalog(), 2);
}

TEST_F(SqlFuzzTest, Skth3jMutants) {
  FuzzFamily(GenerateTpch3J(tpch_->catalog(), tpch_->stats(), "SkTH3J"),
             tpch_->catalog(), 3);
}

TEST(SqlFuzzLiteralTest, DoubleLiteralsRoundTripExactly) {
  // %g would print 0.1234567 as 0.123457 and 40.0 as the integer 40.
  for (const char* sql : {"SELECT a FROM t WHERE b = 0.1234567",
                          "SELECT a FROM t WHERE b = 40.0",
                          "SELECT a FROM t WHERE b = 123456789012.25"}) {
    auto stmt = ParseSelect(sql);
    ASSERT_TRUE(stmt.ok()) << sql;
    auto again = ParseSelect(stmt->ToSql());
    ASSERT_TRUE(again.ok()) << stmt->ToSql();
    EXPECT_TRUE(SameStmt(*stmt, *again)) << sql << " -> " << stmt->ToSql();
  }
}

}  // namespace
}  // namespace tabbench
