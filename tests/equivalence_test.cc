#include <gtest/gtest.h>

#include <map>
#include <ostream>
#include <set>

#include "advisor/profiles.h"
#include "core/benchmark_suite.h"
#include "core/nref_families.h"
#include "core/tpch_families.h"
#include "exec/plan_validate.h"
#include "test_util.h"

namespace tabbench {
namespace {

/// The library's strongest correctness property: the physical design must
/// never change query answers. For real family workloads, run every query
/// under P, under 1C, and under a recommended configuration, and require
/// identical result multisets — while also validating every plan the
/// optimizer produces.
std::multiset<std::string> Rows(const QueryResult& r) {
  std::multiset<std::string> out;
  for (const auto& row : r.rows) out.insert(row.ToString());
  return out;
}

struct EquivalenceCase {
  const char* name;
  bool tpch;       // else NREF
  bool three_way;  // 3J family (else 2J / 3Js)
};

// Printing the family name (not the default raw bytes, which hold the
// address of `name`) keeps the parameter's printed form the same in every
// build and run; test discovery folds it into the listed test name.
void PrintTo(const EquivalenceCase& c, std::ostream* os) { *os << c.name; }

class EquivalenceTest : public ::testing::TestWithParam<EquivalenceCase> {};

TEST_P(EquivalenceTest, ResultsInvariantUnderConfiguration) {
  EquivalenceCase c = GetParam();
  std::unique_ptr<Database> db =
      c.tpch ? testing::MakeMiniTpch(2000.0, 1.0)
             : testing::MakeMiniNref(2000.0);
  ASSERT_NE(db, nullptr);

  QueryFamily family;
  if (c.tpch) {
    family = c.three_way
                 ? GenerateTpch3J(db->catalog(), db->stats(), "SkTH3J")
                 : GenerateTpch3Js(db->catalog(), db->stats());
  } else {
    family = c.three_way ? GenerateNref3J(db->catalog(), db->stats())
                         : GenerateNref2J(db->catalog(), db->stats());
  }
  ASSERT_FALSE(family.queries.empty());

  ExperimentOptions eopts;
  eopts.workload_size = 14;
  FamilyExperiment exp(db.get(), family, eopts);
  ASSERT_TRUE(exp.Prepare().ok());
  std::vector<std::string> sql = exp.workload().Sql();

  // Reference results on P (skip rare queries that time out even at mini
  // scale: both sides would be clamped anyway).
  ASSERT_TRUE(db->ResetToPrimary().ok());
  std::map<size_t, std::multiset<std::string>> reference;
  for (size_t i = 0; i < sql.size(); ++i) {
    auto plan = db->Plan(sql[i]);
    ASSERT_TRUE(plan.ok()) << sql[i];
    TB_ASSERT_OK(ValidatePlan(*plan));
    auto res = db->Run(sql[i]);
    ASSERT_TRUE(res.ok()) << sql[i];
    if (!res->timed_out) reference[i] = Rows(*res);
  }
  ASSERT_FALSE(reference.empty());

  // A recommended configuration (B tolerates every family) and 1C.
  std::vector<Configuration> configs;
  auto rec = exp.Recommend(SystemBProfile());
  if (rec.ok()) configs.push_back(rec->config);
  configs.push_back(Make1CConfig(db->catalog()));

  for (const auto& config : configs) {
    ASSERT_TRUE(db->ApplyConfiguration(config).ok());
    for (const auto& [i, expected] : reference) {
      auto plan = db->Plan(sql[i]);
      ASSERT_TRUE(plan.ok()) << sql[i];
      TB_ASSERT_OK(ValidatePlan(*plan));
      auto res = db->Run(sql[i]);
      ASSERT_TRUE(res.ok()) << sql[i];
      if (res->timed_out) continue;
      EXPECT_EQ(Rows(*res), expected)
          << "config " << config.name << " changed results of: " << sql[i];
    }
  }
  ASSERT_TRUE(db->ResetToPrimary().ok());
}

INSTANTIATE_TEST_SUITE_P(
    Families, EquivalenceTest,
    ::testing::Values(EquivalenceCase{"nref2j", false, false},
                      EquivalenceCase{"nref3j", false, true},
                      EquivalenceCase{"tpch3j", true, true},
                      EquivalenceCase{"tpch3js", true, false}));

TEST(PlanValidateTest, RejectsMalformedPlans) {
  PhysicalPlan plan;
  EXPECT_FALSE(ValidatePlan(plan).ok());  // no root

  plan.root = std::make_unique<PlanNode>();
  plan.root->kind = PlanNode::Kind::kSeqScan;
  EXPECT_FALSE(ValidatePlan(plan).ok());  // no object / output

  plan.root->object = "t";
  plan.root->output_cols = {SlotRef{0, 0}};
  TB_EXPECT_OK(ValidatePlan(plan));

  // Residual referencing a slot the node does not produce.
  ResidualPred bad;
  bad.kind = ResidualPred::Kind::kColEqLit;
  bad.a = SlotRef{3, 9};
  plan.root->residual.push_back(bad);
  EXPECT_FALSE(ValidatePlan(plan).ok());
  plan.root->residual.clear();

  // IN-set out of range.
  ResidualPred in;
  in.kind = ResidualPred::Kind::kInSet;
  in.a = SlotRef{0, 0};
  in.in_set = 2;
  plan.root->residual.push_back(in);
  EXPECT_FALSE(ValidatePlan(plan).ok());
}

TEST(PlanValidateTest, RejectsBadJoinShapes) {
  PhysicalPlan plan;
  plan.root = std::make_unique<PlanNode>();
  plan.root->kind = PlanNode::Kind::kHashJoin;
  EXPECT_FALSE(ValidatePlan(plan).ok());  // no children

  auto scan = [] {
    auto n = std::make_unique<PlanNode>();
    n->kind = PlanNode::Kind::kSeqScan;
    n->object = "t";
    n->output_cols = {SlotRef{0, 0}};
    return n;
  };
  plan.root->children.push_back(scan());
  plan.root->children.push_back(scan());
  plan.root->output_cols = {SlotRef{0, 0}};  // wrong arity (should be 2)
  EXPECT_FALSE(ValidatePlan(plan).ok());
  plan.root->output_cols = {SlotRef{0, 0}, SlotRef{0, 0}};
  TB_EXPECT_OK(ValidatePlan(plan));

  plan.root->hash_keys.emplace_back(SlotRef{7, 7}, SlotRef{0, 0});
  EXPECT_FALSE(ValidatePlan(plan).ok());  // key not in build child
}

}  // namespace
}  // namespace tabbench
