#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/configurations.h"
#include "optimizer/cardinality.h"
#include "optimizer/cost_model.h"
#include "optimizer/planner.h"
#include "optimizer/whatif.h"
#include "test_util.h"

namespace tabbench {
namespace {

using testing::TinyDb;

class OptimizerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { tiny_ = std::make_unique<TinyDb>(TinyDb::Make(8000, 60)); }
  static void TearDownTestSuite() {
    tiny_.reset();
  }
  Database* db() { return tiny_->db.get(); }
  static std::unique_ptr<TinyDb> tiny_;
};

std::unique_ptr<TinyDb> OptimizerTest::tiny_;

// ------------------------------------------------------------ cardinality

TEST_F(OptimizerTest, TableRowsMatchesData) {
  const DatabaseStats& stats = db()->stats();
  EXPECT_DOUBLE_EQ(TableRowsOf(stats.FindTable("people")), 8000.0);
  EXPECT_DOUBLE_EQ(TableRowsOf(stats.FindTable("depts")), 60.0);
}

TEST_F(OptimizerTest, EqSelectivityBounded) {
  double sel =
      EqSelectivity(db()->stats(), "people", "dept", Value(int64_t{5}));
  EXPECT_GT(sel, 0.0);
  EXPECT_LT(sel, 0.2);
}

TEST_F(OptimizerTest, McvSelectivityIsExact) {
  // city0 is by construction the most common city; the MCV list should make
  // the estimate exact.
  const DatabaseStats& stats = db()->stats();
  const HeapTable* heap = db()->FindHeap("people");
  auto cur = heap->Scan(nullptr);
  Tuple t;
  double actual = 0;
  while (cur.Next(&t, nullptr)) {
    if (t.at(2) == Value(std::string("city0"))) ++actual;
  }
  double est =
      EqSelectivity(stats, "people", "city", Value(std::string("city0"))) *
      TableRowsOf(stats.FindTable("people"));
  EXPECT_NEAR(est, actual, 1.0);
}

TEST_F(OptimizerTest, JoinSelectivityUsesMaxNdv) {
  const DatabaseStats& stats = db()->stats();
  double sel = JoinSelectivityOf(DistinctOf(stats, "people", "dept"),
                                 DistinctOf(stats, "depts", "dept_id"));
  EXPECT_NEAR(sel, 1.0 / 60.0, 1e-9);
}

TEST_F(OptimizerTest, GroupCountCappedByInput) {
  const double ids = DistinctOf(db()->stats(), "people", "id");
  EXPECT_LE(GroupCountOf({ids, ids}, 100.0), 100.0);
  EXPECT_GE(GroupCountOf({}, 100.0), 1.0);
}

// -------------------------------------------------------------- cost model

TEST(CostModelTest, SeqScanScalesWithPages) {
  CostParams p;
  CostModel m(p);
  EXPECT_GT(m.SeqScan(100, 1000), m.SeqScan(10, 1000));
  EXPECT_GT(m.SeqScan(10, 10000), m.SeqScan(10, 1000));
}

TEST(CostModelTest, IndexProbeCheaperThanScanForSelectiveLookups) {
  CostParams p;
  CostModel m(p);
  PhysicalIndex idx;
  idx.height = 3;
  idx.leaf_pages = 1000;
  idx.entries = 500000;
  idx.distinct_keys = 100000;
  idx.clustering_factor = 500000;
  double probe = m.IndexProbe(idx, 5.0, /*index_only=*/false);
  double scan = m.SeqScan(6000, 500000);
  EXPECT_LT(probe, scan / 100.0);
}

TEST(CostModelTest, IndexOnlyCheaperThanFetching) {
  CostParams p;
  CostModel m(p);
  PhysicalIndex idx;
  idx.height = 3;
  idx.leaf_pages = 1000;
  idx.entries = 500000;
  idx.clustering_factor = 500000;  // worst case
  EXPECT_LT(m.IndexProbe(idx, 1000.0, true), m.IndexProbe(idx, 1000.0, false));
}

TEST(CostModelTest, ClusteringReducesFetchCost) {
  CostParams p;
  CostModel m(p);
  PhysicalIndex scattered, clustered;
  scattered.entries = clustered.entries = 100000;
  scattered.leaf_pages = clustered.leaf_pages = 300;
  scattered.height = clustered.height = 3;
  scattered.clustering_factor = 100000;
  clustered.clustering_factor = 1000;
  EXPECT_LT(m.HeapFetch(clustered, 500.0), m.HeapFetch(scattered, 500.0));
}

TEST(CostModelTest, SpillKicksInBeyondWorkMem) {
  CostParams p;
  p.work_mem_pages = 10;
  CostModel m(p);
  EXPECT_DOUBLE_EQ(m.Spill(5.0 * kPageSize), 0.0);
  EXPECT_GT(m.Spill(50.0 * kPageSize), 0.0);
  EXPECT_TRUE(m.WouldSpill(kPageSize * 2, 100.0));
  EXPECT_FALSE(m.WouldSpill(10, 10));
}

// ----------------------------------------------------------------- planner

TEST_F(OptimizerTest, PlansHaveFiniteCosts) {
  auto plan = db()->Plan(
      "SELECT p.city, COUNT(*) FROM people p, depts d "
      "WHERE p.dept = d.dept_id GROUP BY p.city");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_GT(plan->est_cost, 0.0);
  ASSERT_NE(plan->root, nullptr);
  EXPECT_EQ(plan->root->kind, PlanNode::Kind::kHashAggregate);
}

// The search carries relation and join sets as 64-bit masks, so a query
// with more FROM occurrences is rejected up front (it could never finish
// enumerating 65! join orders anyway), through both entry points.
TEST_F(OptimizerTest, RejectsMoreThan64Relations) {
  std::string sql = "SELECT COUNT(*) FROM people p0";
  for (int i = 1; i <= 64; ++i) sql += ", people p" + std::to_string(i);
  auto plan = db()->Plan(sql);
  ASSERT_FALSE(plan.ok());
  EXPECT_TRUE(plan.status().IsInvalidArgument()) << plan.status().ToString();
  EXPECT_NE(plan.status().ToString().find("at most 64 relations"),
            std::string::npos)
      << plan.status().ToString();
  auto cost = db()->Estimate(sql);
  ASSERT_FALSE(cost.ok());
  EXPECT_EQ(cost.status().ToString(), plan.status().ToString());
}

TEST_F(OptimizerTest, PicksIndexForSelectiveFilterIn1C) {
  ASSERT_TRUE(
      db()->ApplyConfiguration(Make1CConfig(db()->catalog())).ok());
  auto plan = db()->Plan(
      "SELECT p.id, COUNT(*) FROM people p WHERE p.id = 17 GROUP BY p.id");
  ASSERT_TRUE(plan.ok());
  // The leaf should be an index access, not a 8000-row scan.
  const PlanNode* n = plan->root.get();
  while (!n->children.empty()) n = n->children[0].get();
  EXPECT_EQ(n->kind, PlanNode::Kind::kIndexScan);
  ASSERT_TRUE(db()->ResetToPrimary().ok());
}

TEST_F(OptimizerTest, EstimateDropsWithIndexes) {
  const std::string q =
      "SELECT p.city, COUNT(*) FROM people p, depts d WHERE p.dept = "
      "d.dept_id AND p.score = 17 GROUP BY p.city";
  ASSERT_TRUE(db()->ResetToPrimary().ok());
  auto ep = db()->Estimate(q);
  ASSERT_TRUE(ep.ok());
  ASSERT_TRUE(
      db()->ApplyConfiguration(Make1CConfig(db()->catalog())).ok());
  auto e1c = db()->Estimate(q);
  ASSERT_TRUE(e1c.ok());
  EXPECT_LT(*e1c, *ep);
  ASSERT_TRUE(db()->ResetToPrimary().ok());
}

TEST_F(OptimizerTest, EstimateInActualBallpark) {
  // E(q, P) should be within an order of magnitude of A(q, P) for simple
  // scans (the model does not know the buffer pool, so exactness is not
  // expected).
  const std::string q =
      "SELECT p.dept, COUNT(*) FROM people p GROUP BY p.dept";
  db()->buffer_pool()->Clear();
  auto est = db()->Estimate(q);
  auto act = db()->Run(q);
  ASSERT_TRUE(est.ok());
  ASSERT_TRUE(act.ok());
  EXPECT_LT(*est, act->sim_seconds * 10);
  EXPECT_GT(*est, act->sim_seconds / 10);
}

TEST_F(OptimizerTest, InSetUsesIndexOnlyWalkWhenAvailable) {
  const std::string q =
      "SELECT COUNT(*) FROM people p WHERE p.city IN (SELECT city FROM "
      "people GROUP BY city HAVING COUNT(*) < 10)";
  ASSERT_TRUE(db()->ResetToPrimary().ok());
  auto plan_p = db()->Plan(q);
  ASSERT_TRUE(plan_p.ok());
  EXPECT_TRUE(plan_p->in_sets[0].index_name.empty());
  ASSERT_TRUE(
      db()->ApplyConfiguration(Make1CConfig(db()->catalog())).ok());
  auto plan_1c = db()->Plan(q);
  ASSERT_TRUE(plan_1c.ok());
  EXPECT_FALSE(plan_1c->in_sets[0].index_name.empty());
  ASSERT_TRUE(db()->ResetToPrimary().ok());
}

// ------------------------------------------------------------------ whatif

TEST_F(OptimizerTest, HypotheticalIndexDerivation) {
  IndexDef def;
  def.name = "hx";
  def.target = "people";
  def.columns = {"dept", "city"};
  HypotheticalRules rules;
  PhysicalIndex pi = DeriveHypotheticalIndex(def, db()->catalog(),
                                             db()->stats(), rules, -1.0);
  EXPECT_TRUE(pi.hypothetical);
  EXPECT_DOUBLE_EQ(pi.entries, 8000.0);
  EXPECT_GE(pi.height, 1.0);
  EXPECT_GT(pi.leaf_pages, 0.0);
  // Conservative NDV: leading column only.
  EXPECT_DOUBLE_EQ(pi.distinct_keys, 60.0);
  // Worst-case clustering.
  EXPECT_DOUBLE_EQ(pi.clustering_factor, 8000.0);
}

TEST_F(OptimizerTest, CompositeNdvProductRule) {
  IndexDef def;
  def.target = "people";
  def.columns = {"dept", "city"};
  HypotheticalRules rules;
  rules.composite_ndv_product = true;
  PhysicalIndex pi = DeriveHypotheticalIndex(def, db()->catalog(),
                                             db()->stats(), rules, -1.0);
  EXPECT_GT(pi.distinct_keys, 60.0);
  EXPECT_LE(pi.distinct_keys, 8000.0);
}

TEST_F(OptimizerTest, ViewIndexDerivesAsItsBaseTableIndex) {
  // An index over a hypothetical single-table projection view reads its
  // key columns' widths and NDVs off the base columns they project, so it
  // derives as the same index on the table would over the view's rows.
  ViewDef v;
  v.name = "pv";
  v.tables = {"people"};
  v.projection = {{"people", "dept", "people_dept"},
                  {"people", "city", "people_city"},
                  {"people", "score", "people_score"}};
  const IndexDef on_view{"ix_pv", "pv", {"people_city", "people_dept"}, false};
  const IndexDef on_table{"ix_pv", "people", {"city", "dept"}, false};
  Configuration config;
  config.views = {v};
  config.indexes = {on_view};
  const ConfigView base = db()->CurrentView();
  for (bool credit : {false, true}) {
    for (bool product : {false, true}) {
      SCOPED_TRACE(::testing::Message()
                   << "credit_index_only=" << credit
                   << " composite_ndv_product=" << product);
      HypotheticalRules rules;
      rules.credit_index_only = credit;
      rules.composite_ndv_product = product;
      auto view = MakeHypotheticalView(config, base, rules);
      ASSERT_TRUE(view.ok()) << view.status().ToString();
      const PhysicalView* pv = view->FindView("pv");
      ASSERT_NE(pv, nullptr);
      const PhysicalIndex* got = nullptr;
      for (const auto& pi : view->indexes) {
        if (pi.def.target == "pv") got = &pi;
      }
      ASSERT_NE(got, nullptr);
      const PhysicalIndex want = DeriveHypotheticalIndex(
          on_table, db()->catalog(), db()->stats(), rules, pv->rows);
      // EXPECT_EQ on doubles is exact ==: bit-equal results.
      EXPECT_EQ(got->entries, want.entries);
      EXPECT_EQ(got->leaf_pages, want.leaf_pages);
      EXPECT_EQ(got->height, want.height);
      EXPECT_EQ(got->distinct_keys, want.distinct_keys);
      EXPECT_EQ(got->clustering_factor, want.clustering_factor);
      EXPECT_EQ(got->allow_index_only, want.allow_index_only);
      EXPECT_TRUE(got->hypothetical);
      EXPECT_EQ(got->def.columns, on_view.columns);
    }
  }
}

TEST_F(OptimizerTest, HypotheticalAtLeastAsConservativeAsBuilt) {
  // H(q, 1C, P) >= E(q, 1C built): the what-if derivation must not be more
  // optimistic than measured statistics (Section 5's direction).
  const std::string queries[] = {
      "SELECT p.id, COUNT(*) FROM people p WHERE p.id = 4000 GROUP BY p.id",
      "SELECT p.city, COUNT(*) FROM people p, depts d WHERE p.dept = "
      "d.dept_id AND p.score = 3 GROUP BY p.city",
  };
  Configuration one_c = Make1CConfig(db()->catalog());
  ASSERT_TRUE(db()->ResetToPrimary().ok());
  HypotheticalRules rules;  // defaults: pessimistic clustering
  std::vector<double> h;
  for (const auto& q : queries) {
    auto est = db()->HypotheticalEstimate(q, one_c, rules);
    ASSERT_TRUE(est.ok());
    h.push_back(*est);
  }
  ASSERT_TRUE(db()->ApplyConfiguration(one_c).ok());
  for (size_t i = 0; i < 2; ++i) {
    auto e = db()->Estimate(queries[i]);
    ASSERT_TRUE(e.ok());
    EXPECT_GE(h[i], *e * 0.99) << queries[i];
  }
  ASSERT_TRUE(db()->ResetToPrimary().ok());
}

TEST_F(OptimizerTest, CreditIndexOnlyToggleMatters) {
  Configuration one_c = Make1CConfig(db()->catalog());
  const std::string q =
      "SELECT COUNT(*) FROM people p WHERE p.city IN (SELECT city FROM "
      "people GROUP BY city HAVING COUNT(*) < 10)";
  HypotheticalRules credit;
  credit.credit_index_only = true;
  HypotheticalRules no_credit;
  no_credit.credit_index_only = false;
  auto with_credit = db()->HypotheticalEstimate(q, one_c, credit);
  auto without = db()->HypotheticalEstimate(q, one_c, no_credit);
  ASSERT_TRUE(with_credit.ok());
  ASSERT_TRUE(without.ok());
  EXPECT_LT(*with_credit, *without);
}

TEST_F(OptimizerTest, EstimateIndexPagesGrowsWithWidth) {
  IndexDef narrow, wide;
  narrow.target = wide.target = "people";
  narrow.columns = {"id"};
  wide.columns = {"id", "dept", "city", "score"};
  double pn = EstimateIndexPages(narrow, db()->catalog(), db()->stats(),
                                 0.67, -1.0);
  double pw =
      EstimateIndexPages(wide, db()->catalog(), db()->stats(), 0.67, -1.0);
  EXPECT_GT(pw, pn);
}

TEST_F(OptimizerTest, ViewSizeEstimateForFkJoin) {
  ViewDef v;
  v.name = "pv";
  v.tables = {"people", "depts"};
  v.joins = {{"people", "dept", "depts", "dept_id"}};
  v.projection = {{"people", "city", "people_city"},
                  {"depts", "region", "depts_region"}};
  ViewSizeEstimate est = EstimateViewSize(v, db()->catalog(), db()->stats());
  // FK join: about one row per person.
  EXPECT_NEAR(est.rows, 8000.0, 8000.0 * 0.2);
  EXPECT_GE(est.pages, 1.0);
}

TEST_F(OptimizerTest, ViewMatchingUsedWhenProfitable) {
  // Build a view pre-joining people x depts and check the planner uses it.
  Configuration cfg;
  cfg.name = "V";
  ViewDef v;
  v.name = "people_depts";
  v.tables = {"people", "depts"};
  v.joins = {{"people", "dept", "depts", "dept_id"}};
  v.projection = {{"people", "city", "people_city"},
                  {"depts", "region", "depts_region"}};
  cfg.views.push_back(v);
  ASSERT_TRUE(db()->ApplyConfiguration(cfg).ok());
  auto plan = db()->Plan(
      "SELECT d.region, COUNT(*) FROM people p, depts d "
      "WHERE p.dept = d.dept_id GROUP BY d.region");
  ASSERT_TRUE(plan.ok());
  // Scanning the single materialized view beats scanning + joining.
  const PlanNode* n = plan->root.get();
  while (!n->children.empty()) n = n->children[0].get();
  EXPECT_TRUE(n->is_view) << plan->ToString();
  // And executing through the view gives the same answer as P.
  auto via_view = db()->Run(
      "SELECT d.region, COUNT(*) FROM people p, depts d "
      "WHERE p.dept = d.dept_id GROUP BY d.region");
  ASSERT_TRUE(via_view.ok());
  ASSERT_TRUE(db()->ResetToPrimary().ok());
  auto via_base = db()->Run(
      "SELECT d.region, COUNT(*) FROM people p, depts d "
      "WHERE p.dept = d.dept_id GROUP BY d.region");
  ASSERT_TRUE(via_base.ok());
  EXPECT_EQ(via_view->rows.size(), via_base->rows.size());
}

}  // namespace
}  // namespace tabbench
