#include <gtest/gtest.h>

#include "advisor/trial_costs.h"
#include "core/query_family.h"
#include "core/runner.h"
#include "datagen/tpch_gen.h"
#include "storage/buffer_pool.h"
#include "test_util.h"

namespace tabbench {
namespace {

// ------------------------------------------------- BufferPool::SetCapacity

TEST(BufferPoolResizeTest, ShrinkEvictsLru) {
  BufferPool p(8);
  for (PageId i = 0; i < 8; ++i) p.Touch(i);
  p.Touch(0);  // 0 becomes MRU
  p.SetCapacity(2);
  EXPECT_EQ(p.resident(), 2u);
  EXPECT_TRUE(p.Touch(0));   // survived (MRU)
  EXPECT_FALSE(p.Touch(1));  // evicted
}

TEST(BufferPoolResizeTest, GrowKeepsContents) {
  BufferPool p(2);
  p.Touch(1);
  p.Touch(2);
  p.SetCapacity(100);
  EXPECT_TRUE(p.Touch(1));
  EXPECT_TRUE(p.Touch(2));
  p.Touch(3);
  EXPECT_EQ(p.resident(), 3u);
}

TEST(BufferPoolResizeTest, ZeroClampsToOne) {
  BufferPool p(4);
  p.Touch(1);
  p.SetCapacity(0);
  EXPECT_EQ(p.capacity(), 1u);
  EXPECT_LE(p.resident(), 1u);
}

// ------------------------------------------------------- UsableColumns

TEST(UsableColumnsTest, PrefersCrossTableNonKeyColumns) {
  Catalog catalog;
  AddTpchSchema(&catalog);
  DatabaseStats stats;
  FamilyRestrictions r;
  auto cols = UsableColumns(catalog, stats, "lineitem", r);
  ASSERT_EQ(cols.size(), r.max_columns_per_table);
  // The non-key joinable columns must out-rank the PK members.
  for (const auto& c : cols) {
    EXPECT_NE(c, "l_linenumber") << "PK/ordinal column should rank last";
  }
  // l_shipdate joins orders.o_orderdate: must make the cut.
  EXPECT_NE(std::find(cols.begin(), cols.end(), "l_shipdate"), cols.end());
}

TEST(UsableColumnsTest, SkipsNonIndexableAndDomainless) {
  Catalog catalog;
  AddTpchSchema(&catalog);
  DatabaseStats stats;
  auto cols = UsableColumns(catalog, stats, "part", {});
  for (const auto& c : cols) {
    EXPECT_NE(c, "p_retailprice");  // non-indexable double
  }
}

// --------------------------------------------------- EstimateJoinFanout

TEST(JoinFanoutTest, UniformColumn) {
  ColumnStats cs;
  cs.row_count = 1000;
  cs.num_distinct = 100;
  // No MCVs: pure uniform remainder -> |T| / ndv.
  EXPECT_NEAR(EstimateJoinFanout(cs), 10.0, 1e-9);
}

TEST(JoinFanoutTest, SkewRaisesFanout) {
  ColumnStats uniform;
  uniform.row_count = 1000;
  uniform.num_distinct = 100;
  ColumnStats skewed = uniform;
  skewed.mcvs = {{Value(int64_t{1}), 500}};  // one value holds half the rows
  EXPECT_GT(EstimateJoinFanout(skewed), EstimateJoinFanout(uniform) * 10);
}

TEST(JoinFanoutTest, EmptyColumnIsZero) {
  ColumnStats cs;
  EXPECT_EQ(EstimateJoinFanout(cs), 0.0);
}

// --------------------------------------------------- DegradeToUniform

TEST(DegradeToUniformTest, StripsValueDistributionDetail) {
  auto tiny = testing::TinyDb::Make(2000, 20);
  const DatabaseStats& real = tiny.db->stats();
  DatabaseStats degraded = DegradeToUniform(real);

  const ColumnStats* real_city = real.FindColumn("people", "city");
  const ColumnStats* flat_city = degraded.FindColumn("people", "city");
  ASSERT_NE(real_city, nullptr);
  ASSERT_NE(flat_city, nullptr);
  ASSERT_FALSE(real_city->mcvs.empty());
  EXPECT_TRUE(flat_city->mcvs.empty());
  EXPECT_TRUE(flat_city->histogram.empty());
  // Scalar stats survive.
  EXPECT_EQ(flat_city->num_distinct, real_city->num_distinct);
  EXPECT_EQ(flat_city->row_count, real_city->row_count);
  // Equality estimates now ignore skew: the hottest city estimates at the
  // uniform density instead of its true (higher) frequency.
  Value hottest = real_city->mcvs[0].first;
  EXPECT_LT(flat_city->EstimateEqRows(hottest),
            real_city->EstimateEqRows(hottest));
}

// ------------------------------------------------------------- runner

TEST(RunnerTest, ColdStartClearsPool) {
  auto tiny = testing::TinyDb::Make(3000, 20);
  std::vector<std::string> sql = {
      "SELECT p.dept, COUNT(*) FROM people p WHERE p.dept = 3 "
      "GROUP BY p.dept"};
  RunOptions opts;
  opts.cold_start = true;
  auto first = RunWorkload(tiny.db.get(), sql, opts);
  auto second = RunWorkload(tiny.db.get(), sql, opts);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  // Identical cold-start runs are bit-identical (determinism).
  EXPECT_DOUBLE_EQ(first->timings[0].seconds, second->timings[0].seconds);
}

TEST(RunnerTest, WarmStartKeepsPoolContents) {
  auto tiny = testing::TinyDb::Make(3000, 20);
  Database* db = tiny.db.get();
  const std::vector<std::string> sql = {
      "SELECT p.dept, COUNT(*) FROM people p WHERE p.dept = 3 "
      "GROUP BY p.dept"};
  RunOptions cold;
  cold.cold_start = true;
  auto first = RunWorkload(db, sql, cold);
  ASSERT_TRUE(first.ok());

  // cold_start=false reuses the pool the previous run warmed: strictly
  // cheaper, and identical to a manual back-to-back warm run.
  db->buffer_pool()->Clear();
  auto c = db->Run(sql[0]);
  auto w = db->Run(sql[0]);
  ASSERT_TRUE(c.ok());
  ASSERT_TRUE(w.ok());

  RunOptions warm;
  warm.cold_start = false;
  auto again = RunWorkload(db, sql, cold);   // re-warms from cold
  auto warm_run = RunWorkload(db, sql, warm);  // rides the warm pool
  ASSERT_TRUE(again.ok());
  ASSERT_TRUE(warm_run.ok());
  EXPECT_EQ(again->timings[0].seconds, c->sim_seconds);
  EXPECT_EQ(warm_run->timings[0].seconds, w->sim_seconds);
  EXPECT_LT(warm_run->timings[0].seconds, again->timings[0].seconds);
}

TEST(RunnerTest, TotalsClampAtTimeout) {
  DatabaseOptions opts;
  opts.cost.timeout_seconds = 1e-7;
  Database db(opts);
  TableDef t;
  t.name = "t";
  t.columns = {{"a", TypeId::kInt, "d", true, 8}};
  t.primary_key = {"a"};
  ASSERT_TRUE(db.CreateTable(t).ok());
  for (int64_t i = 0; i < 500; ++i) {
    ASSERT_TRUE(db.Insert("t", Tuple({Value(i)})).ok());
  }
  ASSERT_TRUE(db.FinishLoad().ok());
  auto res = RunWorkload(&db, {"SELECT COUNT(*) FROM t WHERE t.a = 1"});
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->timeouts, 1u);
  EXPECT_DOUBLE_EQ(res->total_clamped_seconds, 1e-7);
}

}  // namespace
}  // namespace tabbench
