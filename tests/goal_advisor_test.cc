#include <gtest/gtest.h>

#include <memory>

#include "advisor/goal_advisor.h"
#include "advisor/profiles.h"
#include "core/benchmark_suite.h"
#include "test_util.h"

namespace tabbench {
namespace {

using testing::TinyDb;

class GoalAdvisorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { tiny_ = std::make_unique<TinyDb>(TinyDb::Make(8000, 60)); }
  static void TearDownTestSuite() {
    tiny_.reset();
  }
  Database* db() { return tiny_->db.get(); }

  std::vector<BoundQuery> Workload() {
    std::vector<std::string> sql = {
        "SELECT p.city, COUNT(*) FROM people p WHERE p.score = 17 "
        "GROUP BY p.city",
        "SELECT p.city, COUNT(*) FROM people p WHERE p.score = 400 "
        "GROUP BY p.city",
        "SELECT p.city, COUNT(*) FROM people p, depts d WHERE p.dept = "
        "d.dept_id AND d.region = 2 GROUP BY p.city",
        "SELECT p.dept, COUNT(*) FROM people p WHERE p.id = 55 "
        "GROUP BY p.dept",
    };
    std::vector<BoundQuery> out;
    for (const auto& q : sql) {
      auto b = ParseAndBind(q, db()->catalog());
      EXPECT_TRUE(b.ok()) << q;
      if (b.ok()) out.push_back(b.TakeValue());
    }
    return out;
  }

  static std::unique_ptr<TinyDb> tiny_;
};

std::unique_ptr<TinyDb> GoalAdvisorTest::tiny_;

TEST_F(GoalAdvisorTest, TrivialGoalPicksNothing) {
  // A goal the P configuration already meets: no structures needed.
  PerformanceGoal lax =
      PerformanceGoal::FromSteps({{1e9, 0.5}});  // half within forever
  GoalDrivenAdvisor advisor(db()->CurrentView(), SystemAProfile(), lax);
  auto rec = advisor.Recommend(Workload());
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_TRUE(rec->goal_met_by_estimates);
  EXPECT_TRUE(rec->config.indexes.empty());
  EXPECT_DOUBLE_EQ(rec->est_pages, 0.0);
}

TEST_F(GoalAdvisorTest, TightGoalPicksStructures) {
  // Demand most queries complete in ~50ms (estimates): only index probes
  // get there, so structures are required.
  PerformanceGoal tight = PerformanceGoal::FromSteps({{0.05, 0.75}});
  GoalDrivenAdvisor advisor(db()->CurrentView(), SystemAProfile(), tight);
  auto rec = advisor.Recommend(Workload());
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_FALSE(rec->config.indexes.empty());
  EXPECT_LE(rec->est_shortfall_after, rec->est_shortfall_before);
}

TEST_F(GoalAdvisorTest, ShortfallNeverIncreases) {
  PerformanceGoal goal =
      PerformanceGoal::FromSteps({{0.5, 0.25}, {2.0, 0.75}});
  GoalDrivenAdvisor advisor(db()->CurrentView(), SystemAProfile(), goal);
  auto rec = advisor.Recommend(Workload());
  ASSERT_TRUE(rec.ok());
  EXPECT_LE(rec->est_shortfall_after, rec->est_shortfall_before + 1e-12);
}

TEST_F(GoalAdvisorTest, BudgetStillRespected) {
  PerformanceGoal tight = PerformanceGoal::FromSteps({{0.1, 0.9}});
  AdvisorOptions opts = SystemAProfile();
  opts.space_budget_pages = 15.0;
  GoalDrivenAdvisor advisor(db()->CurrentView(), opts, tight);
  auto rec = advisor.Recommend(Workload());
  ASSERT_TRUE(rec.ok());
  EXPECT_LE(rec->est_pages, 15.0);
}

TEST_F(GoalAdvisorTest, UsesLessSpaceThanTotalCostAdvisorForModestGoal) {
  // The headline property: a modest goal needs less space than minimizing
  // the total.
  PerformanceGoal modest = PerformanceGoal::FromSteps({{5.0, 0.5}});
  AdvisorOptions opts = SystemAProfile();
  GoalDrivenAdvisor goal_advisor(db()->CurrentView(), opts, modest);
  auto rec_goal = goal_advisor.Recommend(Workload());
  Advisor cost_advisor(db()->CurrentView(), opts);
  auto rec_cost = cost_advisor.Recommend(Workload());
  ASSERT_TRUE(rec_goal.ok());
  ASSERT_TRUE(rec_cost.ok());
  if (rec_goal->goal_met_by_estimates) {
    EXPECT_LE(rec_goal->est_pages, rec_cost->est_pages);
  }
}

TEST_F(GoalAdvisorTest, EmptyWorkloadRejected) {
  GoalDrivenAdvisor advisor(db()->CurrentView(), SystemAProfile(),
                            PerformanceGoal::PaperExample2());
  EXPECT_FALSE(advisor.Recommend({}).ok());
}

}  // namespace
}  // namespace tabbench
