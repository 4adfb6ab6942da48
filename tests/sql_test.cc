#include <gtest/gtest.h>

#include "datagen/nref_gen.h"
#include "sql/binder.h"
#include "sql/lexer.h"
#include "sql/parser.h"

namespace tabbench {
namespace {

// ------------------------------------------------------------------ Lexer

TEST(LexerTest, KeywordsCaseInsensitive) {
  auto toks = Lex("select FROM Group bY");
  ASSERT_TRUE(toks.ok());
  ASSERT_EQ(toks->size(), 5u);  // + EOF
  EXPECT_EQ((*toks)[0].type, TokenType::kKeyword);
  EXPECT_EQ((*toks)[0].text, "SELECT");
  EXPECT_EQ((*toks)[3].text, "BY");
}

TEST(LexerTest, IdentifiersKeepCase) {
  auto toks = Lex("Lineitem l_orderkey");
  ASSERT_TRUE(toks.ok());
  EXPECT_EQ((*toks)[0].type, TokenType::kIdentifier);
  EXPECT_EQ((*toks)[0].text, "Lineitem");
  EXPECT_EQ((*toks)[1].text, "l_orderkey");
}

TEST(LexerTest, NumbersAndSymbols) {
  auto toks = Lex("a = 42 AND b = 3.5 < > ( ) , . *");
  ASSERT_TRUE(toks.ok());
  EXPECT_EQ((*toks)[2].type, TokenType::kInt);
  EXPECT_EQ((*toks)[2].int_value, 42);
  EXPECT_EQ((*toks)[6].type, TokenType::kDouble);
  EXPECT_DOUBLE_EQ((*toks)[6].double_value, 3.5);
}

TEST(LexerTest, NegativeNumbers) {
  auto toks = Lex("x = -7");
  ASSERT_TRUE(toks.ok());
  EXPECT_EQ((*toks)[2].int_value, -7);
}

TEST(LexerTest, StringLiteralsWithEscapes) {
  auto toks = Lex("name = 'Simian Virus 40' AND x = 'it''s'");
  ASSERT_TRUE(toks.ok());
  EXPECT_EQ((*toks)[2].type, TokenType::kString);
  EXPECT_EQ((*toks)[2].text, "Simian Virus 40");
  EXPECT_EQ((*toks)[6].text, "it's");
}

TEST(LexerTest, UnterminatedStringFails) {
  EXPECT_FALSE(Lex("x = 'oops").ok());
}

TEST(LexerTest, UnexpectedCharacterFails) {
  EXPECT_FALSE(Lex("a ; b").ok());
}

TEST(LexerTest, OutOfRangeIntegerFailsWithOffset) {
  auto toks = Lex("x = 99999999999999999999");
  ASSERT_FALSE(toks.ok());
  EXPECT_TRUE(toks.status().IsInvalidArgument());
  EXPECT_NE(toks.status().message().find("offset 4"), std::string::npos)
      << toks.status().ToString();
  // The extremes of int64 still lex.
  auto edge = Lex("a = 9223372036854775807 AND b = -9223372036854775808");
  ASSERT_TRUE(edge.ok()) << edge.status().ToString();
  EXPECT_EQ((*edge)[2].int_value, INT64_MAX);
  EXPECT_EQ((*edge)[6].int_value, INT64_MIN);
}

TEST(LexerTest, MalformedDoubleFailsWithOffset) {
  for (const char* sql : {"x = 1.2.3", "a = 1..5"}) {
    auto toks = Lex(sql);
    ASSERT_FALSE(toks.ok()) << sql;
    EXPECT_TRUE(toks.status().IsInvalidArgument()) << sql;
    EXPECT_NE(toks.status().message().find("offset 4"), std::string::npos)
        << toks.status().ToString();
  }
  // One trailing dot is still a well-formed double, as before.
  auto toks = Lex("a = 1.");
  ASSERT_TRUE(toks.ok()) << toks.status().ToString();
  EXPECT_EQ((*toks)[2].type, TokenType::kDouble);
  EXPECT_EQ((*toks)[2].double_value, 1.0);
  EXPECT_EQ((*toks)[2].text, "1.");
}

TEST(LexerTest, MixedCaseKeywordsAndKeywordPrefixes) {
  auto toks = Lex("sElEcT Selection group_by byte distinctly In _AND");
  ASSERT_TRUE(toks.ok());
  ASSERT_EQ(toks->size(), 8u);
  EXPECT_EQ((*toks)[0].type, TokenType::kKeyword);
  EXPECT_EQ((*toks)[0].text, "SELECT");
  for (size_t i : {1, 2, 3, 4, 6}) {
    EXPECT_EQ((*toks)[i].type, TokenType::kIdentifier) << (*toks)[i].text;
  }
  EXPECT_EQ((*toks)[1].text, "Selection");
  EXPECT_EQ((*toks)[5].type, TokenType::kKeyword);
  EXPECT_EQ((*toks)[5].text, "IN");
  EXPECT_EQ((*toks)[6].text, "_AND");
  EXPECT_EQ((*toks)[7].type, TokenType::kEof);
  EXPECT_EQ((*toks)[7].position, 49u);
}

// ----------------------------------------------------------------- Parser

TEST(ParserTest, MinimalSelect) {
  auto stmt = ParseSelect("SELECT a FROM t");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  ASSERT_EQ(stmt->items.size(), 1u);
  EXPECT_EQ(stmt->items[0].column.column, "a");
  ASSERT_EQ(stmt->from.size(), 1u);
  EXPECT_EQ(stmt->from[0].table, "t");
  EXPECT_EQ(stmt->from[0].alias, "t");
}

TEST(ParserTest, AliasesAndQualifiedColumns) {
  auto stmt = ParseSelect("SELECT x.a, y.b FROM t x, u AS y WHERE x.a = y.b");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_EQ(stmt->from[0].alias, "x");
  EXPECT_EQ(stmt->from[1].alias, "y");
  ASSERT_EQ(stmt->where.size(), 1u);
  EXPECT_EQ(stmt->where[0].kind, AstPredicate::Kind::kColEqCol);
  EXPECT_EQ(stmt->where[0].left.qualifier, "x");
}

TEST(ParserTest, CountStarAndCountDistinct) {
  auto stmt = ParseSelect(
      "SELECT t.a, COUNT(*), COUNT(DISTINCT t.b) FROM t GROUP BY t.a");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_EQ(stmt->items[1].kind, AstSelectItem::Kind::kCountStar);
  EXPECT_EQ(stmt->items[2].kind, AstSelectItem::Kind::kCountDistinct);
  EXPECT_EQ(stmt->items[2].column.column, "b");
  ASSERT_EQ(stmt->group_by.size(), 1u);
}

TEST(ParserTest, Literals) {
  auto stmt = ParseSelect(
      "SELECT a FROM t WHERE a = 5 AND b = 2.5 AND c = 'xy'");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->where[0].literal, Value(int64_t{5}));
  EXPECT_EQ(stmt->where[1].literal, Value(2.5));
  EXPECT_EQ(stmt->where[2].literal, Value(std::string("xy")));
}

TEST(ParserTest, InFrequencySubquery) {
  auto stmt = ParseSelect(
      "SELECT a FROM t WHERE t.c IN "
      "(SELECT c FROM t GROUP BY c HAVING COUNT(*) < 4)");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  ASSERT_EQ(stmt->where.size(), 1u);
  const auto& p = stmt->where[0];
  EXPECT_EQ(p.kind, AstPredicate::Kind::kColInSubquery);
  EXPECT_EQ(p.sub.table, "t");
  EXPECT_EQ(p.sub.column, "c");
  EXPECT_EQ(p.sub.cmp, '<');
  EXPECT_EQ(p.sub.k, 4);
}

TEST(ParserTest, InSubqueryWithEquality) {
  auto stmt = ParseSelect(
      "SELECT a FROM t WHERE c IN "
      "(SELECT c FROM t GROUP BY c HAVING COUNT(*) = 10)");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->where[0].sub.cmp, '=');
  EXPECT_EQ(stmt->where[0].sub.k, 10);
}

TEST(ParserTest, SubqueryGroupByMismatchFails) {
  EXPECT_FALSE(ParseSelect("SELECT a FROM t WHERE c IN "
                           "(SELECT c FROM t GROUP BY d "
                           "HAVING COUNT(*) < 4)")
                   .ok());
}

TEST(ParserTest, ErrorCases) {
  EXPECT_FALSE(ParseSelect("").ok());
  EXPECT_FALSE(ParseSelect("SELECT FROM t").ok());
  EXPECT_FALSE(ParseSelect("SELECT a").ok());
  EXPECT_FALSE(ParseSelect("SELECT a FROM t WHERE").ok());
  EXPECT_FALSE(ParseSelect("SELECT a FROM t GROUP a").ok());
  EXPECT_FALSE(ParseSelect("SELECT a FROM t extra junk").ok());
  EXPECT_FALSE(ParseSelect("SELECT COUNT(a) FROM t").ok());
}

TEST(ParserTest, ToSqlRoundTrips) {
  const char* queries[] = {
      "SELECT t.lineage, COUNT(DISTINCT t2.nref_id) FROM taxonomy t, "
      "taxonomy t2, source s WHERE t.lineage = t2.lineage AND "
      "t.nref_id = s.nref_id AND s.p_name = 'Simian Virus 40' "
      "GROUP BY t.lineage",
      "SELECT r.a, COUNT(*) FROM t r, u s WHERE r.a = s.b AND r.a IN "
      "(SELECT a FROM t GROUP BY a HAVING COUNT(*) < 4) GROUP BY r.a",
  };
  for (const char* q : queries) {
    auto stmt = ParseSelect(q);
    ASSERT_TRUE(stmt.ok()) << q;
    std::string sql = stmt->ToSql();
    auto again = ParseSelect(sql);
    ASSERT_TRUE(again.ok()) << sql;
    EXPECT_EQ(again->ToSql(), sql);
  }
}

// ----------------------------------------------------------------- Binder

class BinderTest : public ::testing::Test {
 protected:
  void SetUp() override { AddNrefSchema(&catalog_); }
  Catalog catalog_;
};

TEST_F(BinderTest, ResolvesQualifiedColumns) {
  auto q = ParseAndBind(
      "SELECT t.lineage, COUNT(*) FROM taxonomy t, source s "
      "WHERE t.nref_id = s.nref_id GROUP BY t.lineage",
      catalog_);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->num_relations(), 2);
  ASSERT_EQ(q->joins.size(), 1u);
  EXPECT_EQ(q->joins[0].left.rel, 0);
  EXPECT_EQ(q->joins[0].right.rel, 1);
  EXPECT_EQ(q->joins[0].left.table, "taxonomy");
}

TEST_F(BinderTest, SelfJoinAliasesResolveToDistinctOccurrences) {
  auto q = ParseAndBind(
      "SELECT t.lineage, COUNT(DISTINCT t2.nref_id) FROM taxonomy t, "
      "taxonomy t2 WHERE t.lineage = t2.lineage GROUP BY t.lineage",
      catalog_);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->joins[0].left.rel, 0);
  EXPECT_EQ(q->joins[0].right.rel, 1);
  EXPECT_NE(q->joins[0].left.rel, q->joins[0].right.rel);
}

TEST_F(BinderTest, UnqualifiedUniqueColumnResolves) {
  auto q = ParseAndBind("SELECT lineage FROM taxonomy", catalog_);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->select[0].column.column, "lineage");
}

TEST_F(BinderTest, AmbiguousColumnFails) {
  // nref_id exists in both tables.
  auto q = ParseAndBind(
      "SELECT nref_id FROM taxonomy t, source s "
      "WHERE t.nref_id = s.nref_id GROUP BY nref_id",
      catalog_);
  EXPECT_FALSE(q.ok());
}

TEST_F(BinderTest, UnknownTableFails) {
  EXPECT_TRUE(ParseAndBind("SELECT a FROM nope", catalog_)
                  .status()
                  .IsNotFound());
}

TEST_F(BinderTest, UnknownColumnFails) {
  EXPECT_FALSE(ParseAndBind("SELECT t.bogus FROM taxonomy t", catalog_).ok());
}

TEST_F(BinderTest, DuplicateAliasFails) {
  EXPECT_FALSE(
      ParseAndBind("SELECT t.lineage FROM taxonomy t, source t", catalog_)
          .ok());
}

TEST_F(BinderTest, LiteralTypeMismatchFails) {
  EXPECT_FALSE(ParseAndBind(
                   "SELECT t.lineage FROM taxonomy t WHERE t.lineage = 42",
                   catalog_)
                   .ok());
}

TEST_F(BinderTest, IntLiteralOnDoubleColumnBindsAsDouble) {
  auto q = ParseAndBind(
      "SELECT s.nref_id_1 FROM neighboring_seq s WHERE s.score = 40",
      catalog_);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q->filters.size(), 1u);
  ASSERT_TRUE(q->filters[0].literal.is_double());
  EXPECT_EQ(q->filters[0].literal.as_double(), 40.0);
}

TEST_F(BinderTest, JoinTypeMismatchFails) {
  // lineage (string) vs nref_id (int).
  EXPECT_FALSE(
      ParseAndBind("SELECT t.lineage, COUNT(*) FROM taxonomy t, source s "
                   "WHERE t.lineage = s.nref_id GROUP BY t.lineage",
                   catalog_)
          .ok());
}

TEST_F(BinderTest, SelectColumnNotInGroupByFails) {
  EXPECT_FALSE(
      ParseAndBind("SELECT t.lineage, t.species_name, COUNT(*) FROM "
                   "taxonomy t GROUP BY t.lineage",
                   catalog_)
          .ok());
}

TEST_F(BinderTest, InSubqueryBinds) {
  auto q = ParseAndBind(
      "SELECT t.lineage, COUNT(*) FROM taxonomy t WHERE t.lineage IN "
      "(SELECT lineage FROM taxonomy GROUP BY lineage "
      "HAVING COUNT(*) < 4) GROUP BY t.lineage",
      catalog_);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q->in_preds.size(), 1u);
  EXPECT_EQ(q->in_preds[0].sub_table, "taxonomy");
  EXPECT_EQ(q->in_preds[0].cmp, '<');
  EXPECT_EQ(q->in_preds[0].k, 4);
}

TEST_F(BinderTest, InSubqueryTypeMismatchFails) {
  EXPECT_FALSE(ParseAndBind(
                   "SELECT t.lineage, COUNT(*) FROM taxonomy t WHERE "
                   "t.taxon_id IN (SELECT lineage FROM taxonomy GROUP BY "
                   "lineage HAVING COUNT(*) < 4) GROUP BY t.lineage",
                   catalog_)
                   .ok());
}

TEST_F(BinderTest, NonPositiveHavingBoundFails) {
  EXPECT_FALSE(ParseAndBind(
                   "SELECT t.lineage, COUNT(*) FROM taxonomy t WHERE "
                   "t.lineage IN (SELECT lineage FROM taxonomy GROUP BY "
                   "lineage HAVING COUNT(*) < 0) GROUP BY t.lineage",
                   catalog_)
                   .ok());
}

TEST_F(BinderTest, IsAggregateDetection) {
  auto plain = ParseAndBind("SELECT lineage FROM taxonomy", catalog_);
  ASSERT_TRUE(plain.ok());
  EXPECT_FALSE(plain->IsAggregate());
  auto agg = ParseAndBind(
      "SELECT lineage, COUNT(*) FROM taxonomy GROUP BY lineage", catalog_);
  ASSERT_TRUE(agg.ok());
  EXPECT_TRUE(agg->IsAggregate());
}

TEST_F(BinderTest, ColumnsOfCollectsPerRelation) {
  auto q = ParseAndBind(
      "SELECT t.lineage, COUNT(*) FROM taxonomy t, source s "
      "WHERE t.nref_id = s.nref_id AND s.p_name = 'x' GROUP BY t.lineage",
      catalog_);
  ASSERT_TRUE(q.ok());
  auto cols0 = q->ColumnsOf(0);
  auto cols1 = q->ColumnsOf(1);
  EXPECT_EQ(cols0.size(), 2u);  // nref_id, lineage
  EXPECT_EQ(cols1.size(), 2u);  // nref_id, p_name
}

}  // namespace
}  // namespace tabbench
