// Plan-snapshot golden: every NREF2J and NREF3J query and the SkTH3J
// family, planned on P, on 1C (built indexes, measured statistics) and on
// a System C recommendation (hypothetical indexes and views), must produce
// exactly the plans recorded in tests/golden/plan_snapshot.txt. Each entry
// records est_cost printed with %a and the EXPLAIN text. A 64-bit FNV-1a
// digest stands in for the per-node detail EXPLAIN omits (output columns,
// seek parts, residuals, hash keys, IN-set strategy, every node's
// estimates with %a), so a rounding or ordering change anywhere in the
// search shows up as a diff without a multi-megabyte golden.
//
// On a mismatch the test writes the actual snapshot to
// plan_snapshot.actual, and the undigested detail to plan_snapshot.detail,
// in its working directory, and names the first differing line. A
// deliberate re-baseline copies plan_snapshot.actual over the golden and
// says why in CHANGES.md.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/configurations.h"
#include "core/nref_families.h"
#include "core/tpch_families.h"
#include "optimizer/planner.h"
#include "test_util.h"
#include "util/strings.h"

namespace tabbench {
namespace {

std::string Slot(const SlotRef& s) { return StrFormat("%d.%d", s.rel, s.col); }

const char* ResidualKind(ResidualPred::Kind k) {
  switch (k) {
    case ResidualPred::Kind::kColEqLit:
      return "lit";
    case ResidualPred::Kind::kColEqCol:
      return "col";
    case ResidualPred::Kind::kInSet:
      return "in";
  }
  return "?";
}

/// One line per node, pre-order: everything the executor consumes that
/// EXPLAIN does not print, plus the node's estimates bit-exactly.
void DescribeNodes(const PlanNode& n, int depth, std::string* out) {
  std::string line = std::string(static_cast<size_t>(depth) * 2, ' ') + "|";
  line += " out=";
  for (const auto& s : n.output_cols) line += Slot(s) + ",";
  if (!n.seek.empty()) {
    line += " seek=";
    for (const auto& p : n.seek) {
      line += p.from_outer ? "o" + Slot(p.outer)
                           : "'" + p.literal.ToString() + "'";
      line += ",";
    }
  }
  if (!n.residual.empty()) {
    line += " resid=";
    for (const auto& r : n.residual) {
      line += ResidualKind(r.kind);
      line += ":" + Slot(r.a);
      if (r.kind == ResidualPred::Kind::kColEqCol) line += "=" + Slot(r.b);
      if (r.kind == ResidualPred::Kind::kColEqLit) {
        line += "='" + r.literal.ToString() + "'";
      }
      if (r.kind == ResidualPred::Kind::kInSet) {
        line += StrFormat("#%d", r.in_set);
      }
      line += ",";
    }
  }
  if (!n.hash_keys.empty()) {
    line += " keys=";
    for (const auto& [l, r] : n.hash_keys) {
      line += Slot(l) + "=" + Slot(r) + ",";
    }
  }
  line += StrFormat(" rows=%a cost=%a\n", n.est_rows, n.est_cost);
  *out += line;
  for (const auto& c : n.children) DescribeNodes(*c, depth + 1, out);
}

/// The detail EXPLAIN does not print, one line per node plus the IN-sets.
std::string PlanDetail(const PhysicalPlan& plan) {
  std::string out;
  if (plan.root != nullptr) DescribeNodes(*plan.root, 1, &out);
  for (size_t i = 0; i < plan.in_sets.size(); ++i) {
    out += StrFormat("  | InSet[%zu] pos=%d index=%s\n", i,
                     plan.in_sets[i].column_pos,
                     plan.in_sets[i].index_name.c_str());
  }
  return out;
}

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// One planning problem: a bound query under one configuration's view.
struct Case {
  std::string label;  // "<family> <config> q<i>"
  std::string sql;
  BoundQuery query;
  const ConfigView* view = nullptr;
};

class PlanGoldenTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    nref_ = testing::MakeMiniNref();
    tpch_ = testing::MakeMiniTpch(4000.0, /*zipf_theta=*/1.0);
    if (nref_ == nullptr || tpch_ == nullptr) return;
    const QueryFamily families[] = {
        GenerateNref2J(nref_->catalog(), nref_->stats()),
        GenerateNref3J(nref_->catalog(), nref_->stats()),
    };
    for (const QueryFamily& family : families) {
      auto f = testing::MakePlannerFamily(nref_.get(), family);
      if (!f.ok()) return;
      families_.push_back(f.TakeValue());
    }
    auto sk = testing::MakePlannerFamily(
        tpch_.get(),
        GenerateTpch3J(tpch_->catalog(), tpch_->stats(), "SkTH3J"));
    if (!sk.ok()) return;
    families_.push_back(sk.TakeValue());
  }
  static void TearDownTestSuite() {
    families_.clear();
    nref_.reset();
    tpch_.reset();
  }
  void SetUp() override { ASSERT_EQ(families_.size(), 3u); }

  static std::vector<Case> Cases() {
    std::vector<Case> out;
    for (const testing::PlannerFamily& f : families_) {
      const std::pair<const char*, const ConfigView*> configs[] = {
          {"P", &f.p}, {"1C", &f.one_c}, {"C", &f.system_c}};
      for (const auto& [config, view] : configs) {
        for (size_t i = 0; i < f.bound.size(); ++i) {
          out.push_back(Case{StrFormat("%s %s q%zu", f.name.c_str(), config, i),
                             f.sql[i], f.bound[i], view});
        }
      }
    }
    return out;
  }

  static std::unique_ptr<Database> nref_, tpch_;
  static std::vector<testing::PlannerFamily> families_;
};

std::unique_ptr<Database> PlanGoldenTest::nref_;
std::unique_ptr<Database> PlanGoldenTest::tpch_;
std::vector<testing::PlannerFamily> PlanGoldenTest::families_;

uint64_t Bits(double d) {
  uint64_t u;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

TEST_F(PlanGoldenTest, PlansMatchSnapshot) {
  std::string actual, detail;
  size_t view_plans = 0;
  for (const Case& c : Cases()) {
    auto plan = PlanQuery(c.query, *c.view);
    ASSERT_TRUE(plan.ok()) << c.label << ": " << plan.status().ToString();
    const std::string explain = plan->ToString();
    const std::string nodes = PlanDetail(*plan);
    if (explain.find("(view)") != std::string::npos) ++view_plans;
    actual += StrFormat("== %s est_cost=%a detail=%016llx\n", c.label.c_str(),
                        plan->est_cost,
                        static_cast<unsigned long long>(Fnv1a(nodes)));
    actual += explain;
    detail += "== " + c.label + "\n" + c.sql + "\n" + explain + nodes;
  }
  // The view partitions must be exercised, or the snapshot proves nothing
  // about view matching.
  EXPECT_GT(view_plans, 0u);

  const std::string path =
      std::string(TABBENCH_SOURCE_DIR) + "/tests/golden/plan_snapshot.txt";
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden " << path;
  std::stringstream golden;
  golden << in.rdbuf();
  if (golden.str() == actual) return;

  std::ofstream("plan_snapshot.actual", std::ios::binary) << actual;
  std::ofstream("plan_snapshot.detail", std::ios::binary) << detail;
  std::istringstream g(golden.str()), a(actual);
  std::string gl, al;
  for (size_t line = 1;; ++line) {
    const bool g_ok = static_cast<bool>(std::getline(g, gl));
    const bool a_ok = static_cast<bool>(std::getline(a, al));
    if (!g_ok && !a_ok) break;
    if (!g_ok || !a_ok || gl != al) {
      FAIL() << "plan snapshot differs at line " << line
             << "\n  golden: " << (g_ok ? gl : "<eof>")
             << "\n  actual: " << (a_ok ? al : "<eof>")
             << "\nactual snapshot written to plan_snapshot.actual, "
                "per-node detail to plan_snapshot.detail";
    }
  }
}

// EstimateCost is the cost-only entry point and PlanQuery builds the tree;
// both must report the same E(q, C) to the bit, on every configuration.
TEST_F(PlanGoldenTest, EstimateCostBitEqualsPlanQuery) {
  size_t checked = 0;
  for (const Case& c : Cases()) {
    auto plan = PlanQuery(c.query, *c.view);
    auto cost = EstimateCost(c.query, *c.view);
    ASSERT_TRUE(plan.ok()) << c.label;
    ASSERT_TRUE(cost.ok()) << c.label;
    EXPECT_EQ(Bits(*cost), Bits(plan->est_cost)) << c.label;
    ++checked;
  }
  EXPECT_GT(checked, 0u);
}

// The same split one level up: Database::Estimate must bit-equal
// Database::Plan's est_cost, on P and with 1C built.
TEST_F(PlanGoldenTest, DatabaseEstimateBitEqualsPlan) {
  Database* db = nref_.get();
  size_t checked = 0;
  auto check_all = [&](const char* config) {
    for (size_t fi = 0; fi < 2; ++fi) {
      for (const std::string& sql : families_[fi].sql) {
        auto plan = db->Plan(sql);
        auto cost = db->Estimate(sql);
        ASSERT_TRUE(plan.ok()) << config << ": " << sql;
        ASSERT_TRUE(cost.ok()) << config << ": " << sql;
        EXPECT_EQ(Bits(*cost), Bits(plan->est_cost)) << config << ": " << sql;
        ++checked;
      }
    }
  };
  check_all("P");
  TB_ASSERT_OK(db->ApplyConfiguration(Make1CConfig(db->catalog())).status());
  check_all("1C");
  TB_ASSERT_OK(db->ResetToPrimary());
  EXPECT_GT(checked, 0u);
}

}  // namespace
}  // namespace tabbench
