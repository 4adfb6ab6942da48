#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "advisor/advisor.h"
#include "advisor/candidates.h"
#include "advisor/goal_advisor.h"
#include "advisor/profiles.h"
#include "advisor/trial_costs.h"
#include "core/benchmark_suite.h"
#include "core/nref_families.h"
#include "core/tpch_families.h"
#include "optimizer/planner.h"
#include "test_util.h"
#include "util/rng.h"

namespace tabbench {
namespace {

using testing::TinyDb;

class AdvisorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { tiny_ = std::make_unique<TinyDb>(TinyDb::Make(6000, 50)); }
  static void TearDownTestSuite() {
    tiny_.reset();
  }
  Database* db() { return tiny_->db.get(); }

  std::vector<BoundQuery> BindAll(const std::vector<std::string>& sql) {
    std::vector<BoundQuery> out;
    for (const auto& q : sql) {
      auto b = ParseAndBind(q, db()->catalog());
      EXPECT_TRUE(b.ok()) << q << ": " << b.status().ToString();
      if (b.ok()) out.push_back(b.TakeValue());
    }
    return out;
  }

  static std::unique_ptr<TinyDb> tiny_;
};

std::unique_ptr<TinyDb> AdvisorTest::tiny_;

TEST_F(AdvisorTest, CandidatesIncludeFilterAndJoinColumns) {
  auto workload = BindAll({
      "SELECT p.city, COUNT(*) FROM people p, depts d WHERE p.dept = "
      "d.dept_id AND p.score = 17 GROUP BY p.city",
  });
  CandidateOptions opts;
  CandidateSet cs =
      GenerateCandidates(workload, db()->catalog(), db()->stats(), opts);
  auto has = [&](const std::string& target,
                 const std::vector<std::string>& cols) {
    for (const auto& c : cs.indexes) {
      if (c.def.target == target && c.def.columns == cols) return true;
    }
    return false;
  };
  EXPECT_TRUE(has("people", {"score"}));
  EXPECT_TRUE(has("people", {"dept"}));
  EXPECT_TRUE(has("depts", {"dept_id"}));
}

TEST_F(AdvisorTest, CompositeCandidatesCapAtFourColumns) {
  auto workload = BindAll({
      "SELECT p.city, p.score, COUNT(*) FROM people p, depts d WHERE "
      "p.dept = d.dept_id AND p.id = 3 AND p.score = 17 "
      "GROUP BY p.city, p.score",
  });
  CandidateOptions opts;
  CandidateSet cs =
      GenerateCandidates(workload, db()->catalog(), db()->stats(), opts);
  bool found_composite = false;
  for (const auto& c : cs.indexes) {
    EXPECT_LE(c.def.columns.size(), 4u);
    if (c.def.columns.size() > 1) found_composite = true;
    EXPECT_GT(c.est_pages, 0.0);
  }
  EXPECT_TRUE(found_composite);
}

TEST_F(AdvisorTest, SubqueryColumnToggle) {
  auto workload = BindAll({
      "SELECT COUNT(*) FROM people p WHERE p.city IN (SELECT city FROM "
      "people GROUP BY city HAVING COUNT(*) < 10)",
  });
  CandidateOptions off;
  off.analyze_subquery_columns = false;
  CandidateOptions on;
  on.analyze_subquery_columns = true;
  auto cs_off =
      GenerateCandidates(workload, db()->catalog(), db()->stats(), off);
  auto cs_on =
      GenerateCandidates(workload, db()->catalog(), db()->stats(), on);
  EXPECT_GE(cs_on.indexes.size(), cs_off.indexes.size());
}

TEST_F(AdvisorTest, RejectsCountDistinctSelfJoins) {
  auto workload = BindAll({
      "SELECT a.city, COUNT(DISTINCT b.id) FROM people a, people b "
      "WHERE a.city = b.city GROUP BY a.city",
  });
  CandidateOptions opts;
  opts.reject_count_distinct_self_joins = true;
  CandidateSet cs =
      GenerateCandidates(workload, db()->catalog(), db()->stats(), opts);
  EXPECT_EQ(cs.unsupported_queries, 1u);
}

TEST_F(AdvisorTest, ViewCandidatesOnlyForFkJoins) {
  auto workload = BindAll({
      // FK join (dept -> dept_id) plus a non-key join (city = city).
      "SELECT d.region, COUNT(*) FROM people p, depts d WHERE p.dept = "
      "d.dept_id GROUP BY d.region",
      "SELECT d.region, COUNT(*) FROM people p, depts d WHERE p.city = "
      "d.city GROUP BY d.region",
  });
  CandidateOptions opts;
  opts.enable_views = true;
  CandidateSet cs =
      GenerateCandidates(workload, db()->catalog(), db()->stats(), opts);
  for (const auto& v : cs.views) {
    if (v.def.tables.size() < 2) continue;  // projection views are fine
    ASSERT_EQ(v.def.joins.size(), 1u);
    EXPECT_EQ(v.def.joins[0].left_column, "dept");
    EXPECT_EQ(v.def.joins[0].right_column, "dept_id");
  }
}

// RelevantTo is the planner's usability rule, case by case: a seek needs
// a literal or join on the leading key column, a covering scan needs every
// column the occurrence uses, the IN-set walk needs an index led by the
// subquery column, and a view needs every one of its tables in FROM.
TEST_F(AdvisorTest, RelevantToIsThePlannersUsabilityRule) {
  auto queries = BindAll({
      "SELECT p.city, COUNT(*) FROM people p, depts d WHERE p.dept = "
      "d.dept_id AND p.score = 17 GROUP BY p.city",
      "SELECT COUNT(*) FROM depts d WHERE d.city IN (SELECT city FROM "
      "people GROUP BY city HAVING COUNT(*) < 10)",
  });
  ASSERT_EQ(queries.size(), 2u);
  auto index = [](const std::string& target,
                  std::vector<std::string> columns) {
    Unit u;
    u.index.def.name = "ix";
    u.index.def.target = target;
    u.index.def.columns = std::move(columns);
    return u;
  };
  auto view = [](std::vector<std::string> tables) {
    Unit u;
    u.is_view = true;
    u.view.def.name = "mv";
    u.view.def.tables = std::move(tables);
    return u;
  };
  const BoundQuery& join = queries[0];
  const BoundQuery& in = queries[1];
  EXPECT_TRUE(index("people", {"score"}).RelevantTo(join));  // literal
  EXPECT_TRUE(index("people", {"dept", "id"}).RelevantTo(join));  // join
  EXPECT_TRUE(index("depts", {"dept_id"}).RelevantTo(join));  // join
  EXPECT_TRUE(  // covers city, dept and score
      index("people", {"city", "dept", "score"}).RelevantTo(join));
  EXPECT_FALSE(index("people", {"city"}).RelevantTo(join));
  EXPECT_FALSE(index("people", {"id", "score"}).RelevantTo(join));
  EXPECT_FALSE(index("depts", {"region"}).RelevantTo(join));
  EXPECT_TRUE(index("depts", {"region", "dept_id"}).RelevantTo(join));

  EXPECT_TRUE(index("people", {"city"}).RelevantTo(in));  // IN-set walk
  EXPECT_FALSE(index("people", {"score", "city"}).RelevantTo(in));
  EXPECT_TRUE(index("depts", {"city"}).RelevantTo(in));  // covers d.city
  EXPECT_FALSE(index("depts", {"region"}).RelevantTo(in));

  EXPECT_TRUE(view({"people", "depts"}).RelevantTo(join));
  EXPECT_TRUE(view({"people"}).RelevantTo(join));
  EXPECT_FALSE(view({"people", "depts"}).RelevantTo(in));
  EXPECT_TRUE(view({"depts"}).RelevantTo(in));
}

TEST_F(AdvisorTest, RecommendationImprovesEstimatedCost) {
  auto workload = BindAll({
      "SELECT p.city, COUNT(*) FROM people p WHERE p.score = 17 "
      "GROUP BY p.city",
      "SELECT p.city, COUNT(*) FROM people p, depts d WHERE p.dept = "
      "d.dept_id AND d.region = 2 GROUP BY p.city",
  });
  AdvisorOptions opts = SystemAProfile();
  ConfigView view = db()->CurrentView();
  Advisor advisor(view, opts);
  auto rec = advisor.Recommend(workload);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_LT(rec->est_cost_after, rec->est_cost_before);
  EXPECT_FALSE(rec->config.indexes.empty());
  EXPECT_GT(rec->candidates_considered, 0u);
}

TEST_F(AdvisorTest, BudgetRespected) {
  auto workload = BindAll({
      "SELECT p.city, COUNT(*) FROM people p WHERE p.score = 17 "
      "GROUP BY p.city",
      "SELECT p.city, COUNT(*) FROM people p, depts d WHERE p.dept = "
      "d.dept_id AND d.region = 2 GROUP BY p.city",
  });
  AdvisorOptions opts = SystemAProfile();
  opts.space_budget_pages = 10.0;  // almost nothing fits
  ConfigView view = db()->CurrentView();
  Advisor advisor(view, opts);
  auto rec = advisor.Recommend(workload);
  ASSERT_TRUE(rec.ok());
  EXPECT_LE(rec->est_pages, 10.0);
}

TEST_F(AdvisorTest, ZeroBudgetYieldsEmptyRecommendation) {
  auto workload = BindAll({
      "SELECT p.city, COUNT(*) FROM people p WHERE p.score = 17 "
      "GROUP BY p.city",
  });
  AdvisorOptions opts = SystemAProfile();
  opts.space_budget_pages = 0.0;
  Advisor advisor(db()->CurrentView(), opts);
  auto rec = advisor.Recommend(workload);
  ASSERT_TRUE(rec.ok());
  EXPECT_TRUE(rec->config.indexes.empty());
  EXPECT_DOUBLE_EQ(rec->est_cost_after, rec->est_cost_before);
}

TEST_F(AdvisorTest, FailureModeOnUnanalyzableWorkload) {
  auto workload = BindAll({
      "SELECT a.city, COUNT(DISTINCT b.id) FROM people a, people b "
      "WHERE a.city = b.city GROUP BY a.city",
  });
  AdvisorOptions opts = SystemAProfile();  // rejects this shape
  Advisor advisor(db()->CurrentView(), opts);
  auto rec = advisor.Recommend(workload);
  EXPECT_TRUE(rec.status().IsNotFound());
}

TEST_F(AdvisorTest, SystemBToleratesCountDistinctSelfJoins) {
  auto workload = BindAll({
      "SELECT a.city, COUNT(DISTINCT b.id) FROM people a, people b "
      "WHERE a.city = b.city AND a.score = 17 GROUP BY a.city",
  });
  AdvisorOptions opts = SystemBProfile();
  Advisor advisor(db()->CurrentView(), opts);
  auto rec = advisor.Recommend(workload);
  EXPECT_TRUE(rec.ok()) << rec.status().ToString();
}

TEST_F(AdvisorTest, EmptyWorkloadRejected) {
  Advisor advisor(db()->CurrentView(), SystemAProfile());
  EXPECT_FALSE(advisor.Recommend({}).ok());
}

TEST_F(AdvisorTest, DeterministicAcrossRuns) {
  auto workload = BindAll({
      "SELECT p.city, COUNT(*) FROM people p WHERE p.score = 17 "
      "GROUP BY p.city",
      "SELECT p.city, COUNT(*) FROM people p, depts d WHERE p.dept = "
      "d.dept_id AND d.region = 2 GROUP BY p.city",
  });
  Advisor a1(db()->CurrentView(), SystemAProfile());
  Advisor a2(db()->CurrentView(), SystemAProfile());
  auto r1 = a1.Recommend(workload);
  auto r2 = a2.Recommend(workload);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  ASSERT_EQ(r1->config.indexes.size(), r2->config.indexes.size());
  for (size_t i = 0; i < r1->config.indexes.size(); ++i) {
    EXPECT_TRUE(r1->config.indexes[i] == r2->config.indexes[i]);
  }
}

TEST_F(AdvisorTest, ProfilesDiffer) {
  AdvisorOptions a = SystemAProfile();
  AdvisorOptions b = SystemBProfile();
  AdvisorOptions c = SystemCProfile();
  EXPECT_TRUE(a.candidates.reject_count_distinct_self_joins);
  EXPECT_FALSE(b.candidates.reject_count_distinct_self_joins);
  EXPECT_TRUE(a.whatif.credit_index_only);
  EXPECT_FALSE(b.whatif.credit_index_only);
  EXPECT_TRUE(c.candidates.enable_views);
  EXPECT_FALSE(a.candidates.enable_views);
  EXPECT_GT(c.view_score_boost, 1.0);
  EXPECT_TRUE(ProfileByName("A").candidates.reject_count_distinct_self_joins);
  EXPECT_FALSE(ProfileByName("B").whatif.credit_index_only);
  EXPECT_TRUE(ProfileByName("C").candidates.enable_views);
}

// ------------------------------------------------- planner locality

/// The NREF2J and NREF3J families over a miniature NREF database.
class AdvisorNrefTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    owner_ = testing::MakeMiniNref();
    db_ = owner_.get();
  }
  static void TearDownTestSuite() {
    owner_.reset();
    db_ = nullptr;
  }
  void SetUp() override { ASSERT_NE(db_, nullptr); }

  static std::vector<BoundQuery> Bind(const QueryFamily& family) {
    auto w = BindWorkload(family, db_->catalog());
    EXPECT_TRUE(w.ok()) << w.status().ToString();
    return w.ok() ? w.TakeValue() : std::vector<BoundQuery>{};
  }
  static std::vector<BoundQuery> Nref2J() {
    return Bind(GenerateNref2J(db_->catalog(), db_->stats()));
  }
  static std::vector<BoundQuery> Nref3J() {
    return Bind(GenerateNref3J(db_->catalog(), db_->stats()));
  }

  static std::unique_ptr<Database> owner_;
  static Database* db_;
};

std::unique_ptr<Database> AdvisorNrefTest::owner_;
Database* AdvisorNrefTest::db_ = nullptr;

/// E(q) under the units `picks`, in that order.
double CostUnder(const BoundQuery& q, const std::vector<const Unit*>& picks,
                 const ConfigView& base, const HypotheticalRules& rules) {
  Configuration config;
  for (const Unit* u : picks) {
    if (u->is_view) {
      config.views.push_back(u->view.def);
      for (const auto& idx : u->view.indexes) config.indexes.push_back(idx);
    } else {
      config.indexes.push_back(u->index.def);
    }
  }
  auto view = MakeHypotheticalView(config, base, rules);
  EXPECT_TRUE(view.ok()) << view.status().ToString();
  if (!view.ok()) return -1.0;
  auto cost = EstimateCost(q, *view);
  EXPECT_TRUE(cost.ok()) << cost.status().ToString();
  return cost.ok() ? *cost : -1.0;
}

/// The relevance test RelevantTo replaced: a unit is relevant when it sits
/// on a table q touches (for an index, also an IN-subquery table). The
/// contract test below uses it only to sort out the units the planner's
/// usability rule newly rejects.
bool TouchesATable(const Unit& u, const BoundQuery& q) {
  auto touches = [&q](const std::string& table) {
    return std::find(q.relations.begin(), q.relations.end(), table) !=
           q.relations.end();
  };
  if (u.is_view) {
    return std::any_of(u.view.def.tables.begin(), u.view.def.tables.end(),
                       touches);
  }
  if (touches(u.index.def.target)) return true;
  for (const auto& p : q.in_preds) {
    if (p.sub_table == u.index.def.target) return true;
  }
  return false;
}

/// True when index unit `u` leads an IN-subquery column of q that no join
/// or literal filter of q binds on an occurrence of that table.
bool LeadsUnboundInColumn(const Unit& u, const BoundQuery& q) {
  if (u.is_view || u.index.def.columns.empty()) return false;
  const std::string& table = u.index.def.target;
  const std::string& lead = u.index.def.columns[0];
  auto binds = [&](const BoundColumn& c) {
    return c.table == table && c.column == lead;
  };
  bool leads_in = false;
  for (const auto& p : q.in_preds) {
    if (p.sub_table == table && p.sub_column == lead) leads_in = true;
  }
  if (!leads_in) return false;
  for (const auto& j : q.joins) {
    if (binds(j.left) || binds(j.right)) return false;
  }
  for (const auto& f : q.filters) {
    if (binds(f.column)) return false;
  }
  return true;
}

enum IrrelevantKind { kFarIndex, kFarView, kUnboundIndex, kMissingTableView };
const char* const kIrrelevantKindNames[] = {"index on no table of q",
                                            "view on no table of q",
                                            "unbound, non-covering index",
                                            "view missing a table of q"};

/// What one run of the locality check covered.
struct LocalityChecks {
  /// Insertions checked per IrrelevantKind.
  size_t inserted[4] = {0, 0, 0, 0};
  /// Relevant (index, query) pairs whose index leads an IN-subquery column
  /// that no join or literal filter of q binds: only RelevantTo's IN leg
  /// admits those.
  size_t in_led = 0;
};

/// The trial-cost memo (TrialCosts) is exact only if a structure that
/// Unit::RelevantTo calls irrelevant to q cannot change E(q), wherever it
/// sits in the configuration. Checks that planner locality directly over
/// `workload` on `db`'s current view, with System C's candidate units
/// (indexes and views): for a stride of the queries and seeded random
/// configurations, inserting an irrelevant unit at any position leaves
/// EstimateCost bit-equal. Four kinds of irrelevant unit are drawn apart:
/// an index, or a view with its indexes, on none of q's tables; an index on
/// one of q's tables whose leading column no literal or join binds and
/// which does not cover; and a view that shares some of q's tables but
/// misses one. The last two are what the planner's usability rule rejects
/// beyond a table-level test. Every irrelevant unit is also checked alone
/// against P, where an index the planner could use (say, a covering one, or
/// one led by an IN-subquery column) is most likely to win a plan.
LocalityChecks CheckIrrelevantUnitsLeaveEstimatesBitEqual(
    Database* db, const std::vector<BoundQuery>& workload) {
  LocalityChecks checks;
  const AdvisorOptions profile = SystemCProfile();  // indexes and views
  std::vector<Unit> units = MakeUnits(GenerateCandidates(
      workload, db->catalog(), db->stats(), profile.candidates));
  const ConfigView base = db->CurrentView();

  Rng rng(2005);
  const size_t stride = std::max<size_t>(1, workload.size() / 24);
  for (size_t qi = 0; qi < workload.size(); qi += stride) {
    const BoundQuery& q = workload[qi];
    std::vector<const Unit*> relevant, irrelevant[4];
    for (const Unit& u : units) {
      if (u.RelevantTo(q)) {
        relevant.push_back(&u);
        if (LeadsUnboundInColumn(u, q)) ++checks.in_led;
        continue;
      }
      const bool near = TouchesATable(u, q);
      const IrrelevantKind kind =
          u.is_view ? (near ? kMissingTableView : kFarView)
                    : (near ? kUnboundIndex : kFarIndex);
      irrelevant[kind].push_back(&u);
    }
    const double on_p = CostUnder(q, {}, base, profile.whatif);
    for (const auto& pool : irrelevant) {
      for (const Unit* u : pool) {
        EXPECT_EQ(CostUnder(q, {u}, base, profile.whatif), on_p)
            << "query " << qi << ", "
            << (u->is_view ? u->view.def.name : u->index.def.name)
            << " alone";
      }
    }
    auto draw = [&rng](const std::vector<const Unit*>& from,
                       std::vector<const Unit*>* into, size_t n) {
      std::vector<size_t> idx = rng.SampleWithoutReplacement(
          from.size(), std::min(n, from.size()));
      for (size_t i : idx) into->push_back(from[i]);
    };
    for (int round = 0; round < 3; ++round) {
      // C: up to three relevant units and one irrelevant unit of each
      // kind, in seeded random order.
      std::vector<const Unit*> config;
      draw(relevant, &config, 3);
      for (const auto& pool : irrelevant) draw(pool, &config, 1);
      rng.Shuffle(&config);
      const double expected = CostUnder(q, config, base, profile.whatif);

      for (int kind = 0; kind < 4; ++kind) {
        std::vector<const Unit*> extras;
        draw(irrelevant[kind], &extras, 1);
        for (const Unit* extra : extras) {
          if (std::find(config.begin(), config.end(), extra) !=
              config.end()) {
            continue;
          }
          for (size_t pos = 0; pos <= config.size(); ++pos) {
            std::vector<const Unit*> with = config;
            with.insert(with.begin() + static_cast<std::ptrdiff_t>(pos),
                        extra);
            EXPECT_EQ(CostUnder(q, with, base, profile.whatif), expected)
                << "query " << qi << ", " << kIrrelevantKindNames[kind]
                << " "
                << (extra->is_view ? extra->view.def.name
                                   : extra->index.def.name)
                << " at " << pos;
          }
          ++checks.inserted[kind];
        }
      }
    }
  }
  return checks;
}

// The locality check over NREF2J and NREF3J. The property must actually
// have been exercised on every kind of irrelevant unit.
TEST_F(AdvisorNrefTest, IrrelevantStructuresLeaveEstimatesBitEqual) {
  std::vector<BoundQuery> workload = Nref2J();
  const std::vector<BoundQuery> nref3j = Nref3J();
  workload.insert(workload.end(), nref3j.begin(), nref3j.end());
  ASSERT_FALSE(workload.empty());
  const LocalityChecks checks =
      CheckIrrelevantUnitsLeaveEstimatesBitEqual(db_, workload);
  for (int kind = 0; kind < 4; ++kind) {
    EXPECT_GT(checks.inserted[kind], 10u) << kIrrelevantKindNames[kind];
  }
}

// The memo decides relevance once, at construction; its bitmap must be
// RelevantTo itself, for every (unit, query) of a real candidate set.
TEST_F(AdvisorNrefTest, TrialCostsRelevanceIsRelevantTo) {
  std::vector<BoundQuery> workload = Nref2J();
  const std::vector<BoundQuery> nref3j = Nref3J();
  workload.insert(workload.end(), nref3j.begin(), nref3j.end());
  const AdvisorOptions profile = SystemCProfile();
  std::vector<const BoundQuery*> queries;
  for (const auto& q : workload) queries.push_back(&q);
  TrialCosts trials(db_->CurrentView(), profile.whatif,
                    MakeUnits(GenerateCandidates(workload, db_->catalog(),
                                                 db_->stats(),
                                                 profile.candidates)),
                    queries);
  size_t relevant = 0, irrelevant = 0;
  for (size_t ui = 0; ui < trials.units().size(); ++ui) {
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      const bool expected = trials.units()[ui].RelevantTo(*queries[qi]);
      ASSERT_EQ(trials.Relevant(ui, qi), expected)
          << "unit " << ui << ", query " << qi;
      ++(expected ? relevant : irrelevant);
    }
  }
  EXPECT_GT(relevant, 0u);
  EXPECT_GT(irrelevant, 0u);
}

// ------------------------------------------------ golden recommendations

// Recommendations captured from the advisors before they memoized trial
// costs, when every round re-planned every (unit, query) trial. The memo
// must reproduce them bit for bit: the same picks in the same order and
// the same estimated costs, written as hex-float literals.
struct GoldenRecommendation {
  std::vector<std::string> views;
  std::vector<std::string> indexes;  // pick order; view indexes inline
  double before;
  double after;
  double pages;
};

void ExpectPicks(const Configuration& config,
                 const std::vector<std::string>& views,
                 const std::vector<std::string>& indexes) {
  std::vector<std::string> got_views, got_indexes;
  for (const auto& v : config.views) got_views.push_back(v.name);
  for (const auto& i : config.indexes) got_indexes.push_back(i.name);
  EXPECT_EQ(got_views, views);
  EXPECT_EQ(got_indexes, indexes);
}

void ExpectGolden(Database* db, const std::vector<BoundQuery>& workload,
                  const AdvisorOptions& profile,
                  const GoldenRecommendation& golden) {
  Advisor advisor(db->CurrentView(), profile);
  auto rec = advisor.Recommend(workload);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  ExpectPicks(rec->config, golden.views, golden.indexes);
  EXPECT_EQ(rec->est_cost_before, golden.before);
  EXPECT_EQ(rec->est_cost_after, golden.after);
  EXPECT_EQ(rec->est_pages, golden.pages);
}

TEST_F(AdvisorNrefTest, GoldenSystemANref2J) {
  ExpectGolden(db_, Nref2J(), SystemAProfile(),
               {{},
                {"ix_taxonomy_taxon_id",
                 "ix_neighboring_seq_nref_id_2",
                 "ix_protein_p_name_length",
                 "ix_neighboring_seq_taxon_id_2",
                 "ix_neighboring_seq_length_2",
                 "ix_taxonomy_species_name",
                 "ix_taxonomy_common_name",
                 "ix_protein_length",
                 "ix_neighboring_seq_nref_id_2_taxon_id_2_length_2_overlap_length",
                 "ix_taxonomy_taxon_id_species_name",
                 "ix_neighboring_seq_length_2_nref_id_2_taxon_id_2_overlap_length",
                 "ix_taxonomy_taxon_id_species_name_common_name_nref_id",
                 "ix_neighboring_seq_taxon_id_2_nref_id_2_length_2_overlap_length",
                 "ix_taxonomy_common_name_species_name_nref_id_taxon_id",
                 "ix_taxonomy_nref_id_species_name_common_name_taxon_id",
                 "ix_taxonomy_nref_id"},
                0x1.76d3530ffa912p+11,
                0x1.89644d6411f23p+9,
                0x1.9fd9417075d33p+9});
}

TEST_F(AdvisorNrefTest, GoldenSystemBNref2J) {
  ExpectGolden(db_, Nref2J(), SystemBProfile(),
               {{},
                {"ix_neighboring_seq_taxon_id_2", "ix_taxonomy_taxon_id",
                 "ix_neighboring_seq_nref_id_2",
                 "ix_neighboring_seq_overlap_length",
                 "ix_neighboring_seq_length_2"},
                0x1.a174b0f4cfbbcp+11,
                0x1.677e81aba85f3p+11,
                0x1.f17b500094cebp+7});
}

TEST_F(AdvisorNrefTest, GoldenSystemBNref3J) {
  ExpectGolden(db_, Nref3J(), SystemBProfile(),
               {{},
                {"ix_taxonomy_species_name", "ix_neighboring_seq_taxon_id_2",
                 "ix_neighboring_seq_nref_id_2", "ix_taxonomy_common_name"},
                0x1.54f47b2558acdp+14,
                0x1.38af4b740dce4p+14,
                0x1.33b8e82966d2p+7});
}

TEST_F(AdvisorNrefTest, GoldenGoalDrivenNref2J) {
  GoalDrivenAdvisor advisor(
      db_->CurrentView(), SystemAProfile(),
      PerformanceGoal::FromSteps({{1.0, 0.5}, {10.0, 0.9}}));
  auto rec = advisor.Recommend(Nref2J());
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  ExpectPicks(rec->config, {},
              {"ix_source_taxon_id", "ix_organism_ordinal", "ix_source_p_name",
               "ix_protein_p_name", "ix_source_p_name_taxon_id"});
  EXPECT_EQ(rec->est_shortfall_before, 0x1.24129e4129e42p-1);
  EXPECT_EQ(rec->est_shortfall_after, 0x1p-1);
  EXPECT_EQ(rec->est_pages, 0x1.1e7616221713dp+4);
}

TEST(AdvisorTpchTest, GoldenSystemCTpch3Js) {
  auto db = testing::MakeMiniTpch(4000.0, /*zipf_theta=*/1.0);
  ASSERT_NE(db, nullptr);
  auto workload = BindWorkload(GenerateTpch3Js(db->catalog(), db->stats()),
                               db->catalog());
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();
  ExpectGolden(
      db.get(), *workload, SystemCProfile(),
      {{"mv_partsupp_lineitem_l_partkey_l_suppkey_w5", "mv_lineitem_w4",
        "mv_lineitem_w3"},
       {"ix_mv_partsupp_lineitem_l_partkey_l_suppkey_w5_lineitem_l_partkey",
        "ix_mv_lineitem_w4_lineitem_l_partkey_lineitem_l_suppkey_lineitem_l_quantity",
        "ix_mv_lineitem_w3_lineitem_l_partkey",
        "ix_orders_o_orderdate",
        "ix_partsupp_ps_availqty_ps_partkey_ps_suppkey",
        "ix_lineitem_l_suppkey",
        "ix_lineitem_l_partkey",
        "ix_orders_o_orderdate_o_custkey_o_orderkey_o_orderstatus",
        "ix_lineitem_l_suppkey_l_orderkey_l_quantity",
        "ix_lineitem_l_suppkey_l_partkey_l_quantity",
        "ix_lineitem_l_suppkey_l_partkey_l_shipdate"},
       0x1.a1da7c76fe1c1p+10,
       0x1.932433ccd267p+7,
       0x1.5946e41d919c7p+9});
}

// The locality check on SkTH3J's `s.c3 IN (SELECT c3 FROM S GROUP BY c3
// HAVING COUNT(*) = p)` queries. In NREF2J and NREF3J every IN-subquery
// column is also a join column of its table, so the join rule already
// admits an index it leads; here s.c3 is neither joined nor filtered, so
// only RelevantTo's IN-subquery leg admits the S(c3) index the planner
// walks to materialize the IN set.
TEST(AdvisorTpchTest, IrrelevantStructuresLeaveEstimatesBitEqual) {
  auto db = testing::MakeMiniTpch(4000.0, /*zipf_theta=*/1.0);
  ASSERT_NE(db, nullptr);
  auto family = BindWorkload(
      GenerateTpch3J(db->catalog(), db->stats(), "SkTH3J"), db->catalog());
  ASSERT_TRUE(family.ok()) << family.status().ToString();
  std::vector<BoundQuery> workload;
  for (const BoundQuery& q : *family) {
    if (!q.in_preds.empty()) workload.push_back(q);
  }
  ASSERT_FALSE(workload.empty());
  const LocalityChecks checks =
      CheckIrrelevantUnitsLeaveEstimatesBitEqual(db.get(), workload);
  EXPECT_GT(checks.in_led, 10u);
  for (int kind = 0; kind < 4; ++kind) {
    EXPECT_GT(checks.inserted[kind], 10u) << kIrrelevantKindNames[kind];
  }
}

}  // namespace
}  // namespace tabbench
