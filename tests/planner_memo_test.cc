// The database's planner memos: the view of the built configuration that
// Plan, Estimate, HypotheticalEstimate and the Run* entry points share, the
// derived view of the last hypothetical configuration, and the prepared
// query of each SQL text. After every kind of mutation, each call must
// bit-equal EstimateCost / PlanQuery run on a freshly bound query and a
// freshly built view, and the view memo must have been rebuilt; a name-only
// or one-field rules change must miss the hypothetical memo, and rules that
// ask for uniform value densities are refused without touching a memo. A
// repeated text must hit the prepared-query memo, a statistics pass must
// retire it, a text that fails to parse or bind is never stored, and
// emptying the memo at its cap changes no result.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "advisor/advisor.h"
#include "advisor/profiles.h"
#include "core/benchmark_suite.h"
#include "core/configurations.h"
#include "core/nref_families.h"
#include "core/tpch_families.h"
#include "engine/database.h"
#include "optimizer/planner.h"
#include "optimizer/whatif.h"
#include "test_util.h"
#include "util/strings.h"

namespace tabbench {

class DatabaseTestPeer {
 public:
  /// The memoized view of the built configuration, kept alive so its
  /// address identifies it.
  static std::shared_ptr<const void> View(const Database& db) {
    return db.PlannerView();
  }
  /// The memoized hypothetical view for (config, rules), kept alive so its
  /// address identifies it.
  static std::shared_ptr<const void> Hypothetical(
      const Database& db, const Configuration& config,
      const HypotheticalRules& rules) {
    auto memo = db.HypotheticalView(config, rules);
    if (!memo.ok()) return nullptr;
    return *memo;
  }
  /// The hypothetical memo as it stands; looks without filling.
  static std::shared_ptr<const void> HypotheticalSlot(const Database& db) {
    MutexLock lock(&db.memo_mu_);
    return db.hypothetical_memo_;
  }
  /// The memoized preparation of `sql` if the memo holds a current one,
  /// else null; looks without filling.
  static std::shared_ptr<const void> Prepared(const Database& db,
                                              const std::string& sql) {
    MutexLock lock(&db.memo_mu_);
    if (db.prepared_catalog_epoch_ != db.catalog_epoch_ ||
        db.prepared_stats_epoch_ != db.stats_epoch_) {
      return nullptr;
    }
    auto it = db.prepared_.find(sql);
    if (it == db.prepared_.end()) return nullptr;
    return it->second;
  }
  static size_t PreparedCount(const Database& db) {
    MutexLock lock(&db.memo_mu_);
    return db.prepared_.size();
  }
  static constexpr size_t kPreparedQueryCap = Database::kPreparedQueryCap;
};

namespace {

const char* const kQueries[] = {
    "SELECT p.city, COUNT(*) FROM people p, depts d "
    "WHERE p.dept = d.dept_id AND d.region = 3 GROUP BY p.city",
    "SELECT p.id FROM people p WHERE p.dept = 7",
    "SELECT d.city, COUNT(DISTINCT p.score) FROM people p, depts d "
    "WHERE p.city = d.city GROUP BY d.city",
    "SELECT p.score, COUNT(*) FROM people p WHERE p.score IN "
    "(SELECT score FROM people GROUP BY score HAVING COUNT(*) < 4) "
    "GROUP BY p.score",
    "SELECT p.id, p.score FROM people p WHERE p.city = 'city3'",
};

class PlannerMemoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tiny_ = testing::TinyDb::Make(2000, 20);
    db_ = tiny_.db.get();
    hypothetical_ = Make1CConfig(db_->catalog());
  }

  /// Every entry point against EstimateCost / PlanQuery on fresh views.
  /// The what-if calls run first, as one loop, so a memo left by
  /// AfterMutation's warm-up call is used, stale or not.
  void ExpectMatchesFreshViews(const std::string& step) {
    SCOPED_TRACE(step);
    const ConfigView fresh = db_->CurrentView();
    auto hyp = MakeHypotheticalView(hypothetical_, fresh, rules_);
    ASSERT_TRUE(hyp.ok()) << hyp.status().ToString();
    // EXPECT_EQ on doubles is exact ==: bit-equal results.
    for (const char* sql : kQueries) {
      auto h = db_->HypotheticalEstimate(sql, hypothetical_, rules_);
      ASSERT_TRUE(h.ok()) << sql;
      EXPECT_EQ(*h, *EstimateCost(Bound(sql), *hyp)) << sql;
    }
    for (const char* sql : kQueries) {
      auto want_plan = PlanQuery(Bound(sql), fresh);
      ASSERT_TRUE(want_plan.ok()) << sql;
      auto e = db_->Estimate(sql);
      auto plan = db_->Plan(sql);
      ASSERT_TRUE(e.ok() && plan.ok()) << sql;
      EXPECT_EQ(*e, *EstimateCost(Bound(sql), fresh)) << sql;
      EXPECT_EQ(plan->est_cost, want_plan->est_cost) << sql;
      EXPECT_EQ(plan->ToString(), want_plan->ToString()) << sql;
    }
  }

  BoundQuery Bound(const char* sql) {
    auto q = ParseAndBind(sql, db_->catalog());
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    return q.ok() ? *q : BoundQuery{};
  }

  /// Warms both memos, runs `mutate`, then checks that the view memo was
  /// rebuilt and that every entry point still matches fresh views.
  template <typename F>
  void AfterMutation(const std::string& step, F mutate) {
    ASSERT_TRUE(
        db_->HypotheticalEstimate(kQueries[0], hypothetical_, rules_).ok());
    const auto before = DatabaseTestPeer::View(*db_);
    mutate();
    if (HasFatalFailure()) return;
    ExpectMatchesFreshViews(step);
    EXPECT_NE(DatabaseTestPeer::View(*db_).get(), before.get()) << step;
  }

  std::vector<std::pair<Tuple, Rid>> PeopleRows(size_t n) {
    std::vector<std::pair<Tuple, Rid>> out;
    auto cur = db_->FindHeap("people")->Scan(nullptr);
    Tuple row;
    Rid rid;
    while (out.size() < n && cur.Next(&row, &rid)) out.emplace_back(row, rid);
    return out;
  }

  static Tuple Person(int64_t id, int64_t dept, const std::string& city,
                      int64_t score) {
    std::vector<Value> v;
    v.emplace_back(id);
    v.emplace_back(dept);
    v.emplace_back(city);
    v.emplace_back(score);
    return Tuple(std::move(v));
  }

  testing::TinyDb tiny_;
  Database* db_ = nullptr;
  Configuration hypothetical_;
  HypotheticalRules rules_;
};

TEST_F(PlannerMemoTest, RepeatedCallsShareOneView) {
  ExpectMatchesFreshViews("initial");
  const auto view = DatabaseTestPeer::View(*db_);
  ASSERT_TRUE(db_->Estimate(kQueries[0]).ok());
  ASSERT_TRUE(db_->Plan(kQueries[1]).ok());
  EXPECT_EQ(DatabaseTestPeer::View(*db_).get(), view.get());
  auto a = DatabaseTestPeer::Hypothetical(*db_, hypothetical_, rules_);
  auto b = DatabaseTestPeer::Hypothetical(*db_, hypothetical_, rules_);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a.get(), b.get());
}

TEST_F(PlannerMemoTest, EveryMutationKindRebuildsTheMemo) {
  ExpectMatchesFreshViews("initial");

  Configuration config;
  config.name = "memo";
  config.indexes.push_back({"ix_people_dept", "people", {"dept"}, false});
  config.indexes.push_back({"ix_people_city", "people", {"city"}, false});
  ViewDef pd;
  pd.name = "pd";
  pd.tables = {"people", "depts"};
  pd.joins = {{"people", "dept", "depts", "dept_id"}};
  pd.projection = {{"people", "id", "people_id"},
                   {"depts", "region", "depts_region"}};
  config.views.push_back(pd);
  config.indexes.push_back({"ix_pd_region", "pd", {"depts_region"}, false});
  AfterMutation("ApplyConfiguration", [&] {
    auto rep = db_->ApplyConfiguration(config);
    ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  });

  AfterMutation("TimedInsert", [&] {
    for (int64_t i = 0; i < 200; ++i) {
      ASSERT_TRUE(db_->TimedInsert("people",
                                   Person(100000 + i, i % 3, "city3", i % 7))
                      .ok());
    }
  });

  AfterMutation("TimedUpdate", [&] {
    for (const auto& [row, rid] : PeopleRows(200)) {
      Tuple moved = row;
      (*moved.mutable_values())[2] = Value(std::string("city3"));
      ASSERT_TRUE(db_->TimedUpdate("people", rid, std::move(moved)).ok());
    }
  });

  AfterMutation("TimedDelete", [&] {
    for (const auto& [row, rid] : PeopleRows(300)) {
      ASSERT_TRUE(db_->TimedDelete("people", rid).ok());
    }
  });

  AfterMutation("CollectStatistics",
                [&] { ASSERT_TRUE(db_->CollectStatistics().ok()); });

  AfterMutation("ResetToPrimary",
                [&] { ASSERT_TRUE(db_->ResetToPrimary().ok()); });
}

TEST_F(PlannerMemoTest, NameOrRuleChangesMissTheHypotheticalMemo) {
  // IndexDef::operator== ignores names; the memo must not, nor may it
  // ignore the configuration's own name.
  std::vector<Configuration> renamed(2, hypothetical_);
  ASSERT_FALSE(hypothetical_.indexes.empty());
  renamed[0].indexes.front().name += "_renamed";
  renamed[1].name += "_renamed";
  for (size_t i = 0; i < renamed.size(); ++i) {
    auto primed = DatabaseTestPeer::Hypothetical(*db_, hypothetical_, rules_);
    auto memo = DatabaseTestPeer::Hypothetical(*db_, renamed[i], rules_);
    ASSERT_NE(primed, nullptr);
    ASSERT_NE(memo, nullptr);
    EXPECT_NE(memo.get(), primed.get()) << "renamed " << i;
  }

  std::vector<HypotheticalRules> variants(2, rules_);
  variants[0].credit_index_only = !rules_.credit_index_only;
  variants[1].composite_ndv_product = !rules_.composite_ndv_product;
  for (size_t i = 0; i < variants.size(); ++i) {
    // Each variant differs from rules_ in one field only.
    auto primed = DatabaseTestPeer::Hypothetical(*db_, hypothetical_, rules_);
    auto memo =
        DatabaseTestPeer::Hypothetical(*db_, hypothetical_, variants[i]);
    ASSERT_NE(primed, nullptr);
    ASSERT_NE(memo, nullptr);
    EXPECT_NE(memo.get(), primed.get()) << "rules variant " << i;
  }
  // Each variant's estimates still match a fresh derivation.
  const ConfigView fresh = db_->CurrentView();
  for (const HypotheticalRules& r : variants) {
    auto view = MakeHypotheticalView(hypothetical_, fresh, r);
    ASSERT_TRUE(view.ok());
    for (const char* sql : kQueries) {
      auto q = ParseAndBind(sql, db_->catalog());
      ASSERT_TRUE(q.ok());
      auto h = db_->HypotheticalEstimate(sql, hypothetical_, r);
      ASSERT_TRUE(h.ok());
      EXPECT_EQ(*h, *EstimateCost(*q, *view)) << sql;
    }
  }
}

// Uniform value densities belong to the advisors' trial costs alone: the
// database refuses them before reading or filling any memo.
TEST_F(PlannerMemoTest, UniformRulesAreRefusedAndLeaveTheMemosAlone) {
  ASSERT_TRUE(
      db_->HypotheticalEstimate(kQueries[0], hypothetical_, rules_).ok());
  const auto hyp = DatabaseTestPeer::HypotheticalSlot(*db_);
  const auto entry = DatabaseTestPeer::Prepared(*db_, kQueries[0]);
  const size_t prepared = DatabaseTestPeer::PreparedCount(*db_);
  ASSERT_NE(hyp, nullptr);
  ASSERT_NE(entry, nullptr);
  HypotheticalRules uniform = rules_;
  uniform.uniform_value_assumption = true;
  Configuration other = hypothetical_;
  other.name += "_other";
  for (const Configuration* config : {&hypothetical_, &other}) {
    for (const char* sql : kQueries) {
      auto h = db_->HypotheticalEstimate(sql, *config, uniform);
      ASSERT_FALSE(h.ok()) << sql;
      EXPECT_TRUE(h.status().IsInvalidArgument()) << h.status().ToString();
      EXPECT_EQ(DatabaseTestPeer::HypotheticalSlot(*db_).get(), hyp.get())
          << sql;
    }
  }
  // No text was prepared for the refused calls.
  EXPECT_EQ(DatabaseTestPeer::PreparedCount(*db_), prepared);
  EXPECT_EQ(DatabaseTestPeer::Prepared(*db_, kQueries[1]), nullptr);
  EXPECT_EQ(DatabaseTestPeer::Prepared(*db_, kQueries[0]).get(), entry.get());
  // The memo still serves the rules it holds.
  auto again = DatabaseTestPeer::Hypothetical(*db_, hypothetical_, rules_);
  EXPECT_EQ(again.get(), hyp.get());
}

TEST_F(PlannerMemoTest, RepeatedTextsHitThePreparedQueryMemo) {
  for (const char* sql : kQueries) {
    ASSERT_TRUE(db_->Estimate(sql).ok()) << sql;
    const auto entry = DatabaseTestPeer::Prepared(*db_, sql);
    ASSERT_NE(entry, nullptr) << sql;
    // A miss would store a fresh entry in its place.
    ASSERT_TRUE(db_->Estimate(sql).ok()) << sql;
    EXPECT_EQ(DatabaseTestPeer::Prepared(*db_, sql).get(), entry.get()) << sql;
    ASSERT_TRUE(db_->Plan(sql).ok()) << sql;
    EXPECT_EQ(DatabaseTestPeer::Prepared(*db_, sql).get(), entry.get()) << sql;
    ASSERT_TRUE(db_->HypotheticalEstimate(sql, hypothetical_, rules_).ok())
        << sql;
    EXPECT_EQ(DatabaseTestPeer::Prepared(*db_, sql).get(), entry.get()) << sql;
  }
  EXPECT_EQ(DatabaseTestPeer::PreparedCount(*db_), std::size(kQueries));
  // Run* plans through the same memo.
  ASSERT_TRUE(db_->Run(kQueries[0]).ok());
  EXPECT_EQ(DatabaseTestPeer::PreparedCount(*db_), std::size(kQueries));
}

// Every entry point bit-equals a fresh ParseAndBind + PlanQuery/EstimateCost
// on every NREF2J, NREF3J and SkTH3J query: built on P, 1C and System C's
// recommendation, and what-if (from P) of 1C and of System C under System
// C's rules.
TEST_F(PlannerMemoTest, EveryEntryPointBitEqualsAFreshPreparation) {
  auto nref = testing::MakeMiniNref();
  auto tpch = testing::MakeMiniTpch(4000.0, /*zipf_theta=*/1.0);
  ASSERT_NE(nref, nullptr);
  ASSERT_NE(tpch, nullptr);
  const std::pair<Database*, QueryFamily> families[] = {
      {nref.get(), GenerateNref2J(nref->catalog(), nref->stats())},
      {nref.get(), GenerateNref3J(nref->catalog(), nref->stats())},
      {tpch.get(),
       GenerateTpch3J(tpch->catalog(), tpch->stats(), "SkTH3J")},
  };
  size_t checked = 0;
  for (const auto& [db, family] : families) {
    SCOPED_TRACE(family.name);
    auto bound = BindWorkload(family, db->catalog());
    ASSERT_TRUE(bound.ok()) << bound.status().ToString();
    ASSERT_TRUE(db->ResetToPrimary().ok());
    const AdvisorOptions profile = SystemCProfile();
    auto rec = Advisor(db->CurrentView(), profile).Recommend(*bound);
    ASSERT_TRUE(rec.ok()) << rec.status().ToString();
    const Configuration configs[] = {MakePConfig(), Make1CConfig(db->catalog()),
                                     rec->config};
    for (const Configuration& built : configs) {
      SCOPED_TRACE("built " + built.name);
      if (built.indexes.empty() && built.views.empty()) {
        ASSERT_TRUE(db->ResetToPrimary().ok());
      } else {
        ASSERT_TRUE(db->ApplyConfiguration(built).ok());
      }
      const ConfigView fresh = db->CurrentView();
      for (const auto& q : family.queries) {
        auto b = ParseAndBind(q.sql, db->catalog());
        ASSERT_TRUE(b.ok()) << q.sql;
        auto want_plan = PlanQuery(*b, fresh);
        auto want = EstimateCost(*b, fresh);
        auto plan = db->Plan(q.sql);
        auto e = db->Estimate(q.sql);
        ASSERT_TRUE(want_plan.ok() && want.ok() && plan.ok() && e.ok())
            << q.sql;
        EXPECT_EQ(*e, *want) << q.sql;
        EXPECT_EQ(plan->est_cost, want_plan->est_cost) << q.sql;
        EXPECT_EQ(plan->ToString(), want_plan->ToString()) << q.sql;
        ++checked;
      }
    }
    ASSERT_TRUE(db->ResetToPrimary().ok());
    const ConfigView p = db->CurrentView();
    HypotheticalRules rules = profile.whatif;
    rules.uniform_value_assumption = false;
    for (const Configuration* hyp : {&configs[1], &configs[2]}) {
      SCOPED_TRACE("what-if " + hyp->name);
      auto view = MakeHypotheticalView(*hyp, p, rules);
      ASSERT_TRUE(view.ok()) << view.status().ToString();
      for (const auto& q : family.queries) {
        auto b = ParseAndBind(q.sql, db->catalog());
        ASSERT_TRUE(b.ok()) << q.sql;
        auto want = EstimateCost(*b, *view);
        auto h = db->HypotheticalEstimate(q.sql, *hyp, rules);
        ASSERT_TRUE(want.ok() && h.ok()) << q.sql;
        EXPECT_EQ(*h, *want) << q.sql;
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 3000u);
}

TEST_F(PlannerMemoTest, StatisticsPassRePreparesTheNextCall) {
  const char* sql = kQueries[1];  // p.dept = 7
  auto before = db_->Estimate(sql);
  ASSERT_TRUE(before.ok());
  const auto entry = DatabaseTestPeer::Prepared(*db_, sql);
  ASSERT_NE(entry, nullptr);
  // Enough new dept-7 rows to move the filter's selectivity.
  for (int64_t i = 0; i < 2000; ++i) {
    ASSERT_TRUE(
        db_->TimedInsert("people", Person(200000 + i, 7, "city1", i % 5)).ok());
  }
  // Writes alone leave the preparation current: it reads statistics only.
  EXPECT_EQ(DatabaseTestPeer::Prepared(*db_, sql).get(), entry.get());
  ASSERT_TRUE(db_->CollectStatistics().ok());
  EXPECT_EQ(DatabaseTestPeer::Prepared(*db_, sql), nullptr);
  auto after = db_->Estimate(sql);
  ASSERT_TRUE(after.ok());
  EXPECT_NE(*after, *before);
  EXPECT_EQ(*after, *EstimateCost(Bound(sql), db_->CurrentView()));
  const auto renewed = DatabaseTestPeer::Prepared(*db_, sql);
  ASSERT_NE(renewed, nullptr);
  EXPECT_NE(renewed.get(), entry.get());
  // The retired entries went with the stale memo.
  EXPECT_EQ(DatabaseTestPeer::PreparedCount(*db_), 1u);
}

TEST_F(PlannerMemoTest, TextsThatFailToParseOrBindAreNotStored) {
  ASSERT_TRUE(db_->Estimate(kQueries[0]).ok());
  const char* const bad[] = {
      "SELECT FROM people p",                           // parse error
      "SELECT x.id FROM nosuch x",                      // unknown table
      "SELECT p.nosuch FROM people p",                  // unknown column
      "SELECT p.id FROM people p WHERE p.dept = 'x'",   // literal type
  };
  for (const char* sql : bad) {
    EXPECT_FALSE(db_->Estimate(sql).ok()) << sql;
    EXPECT_FALSE(db_->Plan(sql).ok()) << sql;
    EXPECT_FALSE(db_->HypotheticalEstimate(sql, hypothetical_, rules_).ok())
        << sql;
    EXPECT_EQ(DatabaseTestPeer::Prepared(*db_, sql), nullptr) << sql;
  }
  EXPECT_EQ(DatabaseTestPeer::PreparedCount(*db_), 1u);
}

TEST_F(PlannerMemoTest, EmptyingAtTheCapChangesNoResult) {
  const size_t cap = DatabaseTestPeer::kPreparedQueryCap;
  std::vector<std::string> texts;
  for (size_t i = 0; i < cap + 40; ++i) {
    texts.push_back(StrFormat("SELECT p.id FROM people p WHERE p.dept = %zu",
                              i % 60) +
                    StrFormat(" AND p.score = %zu", i / 60));
  }
  const ConfigView fresh = db_->CurrentView();
  std::vector<double> first;
  size_t max_count = 0;
  for (const std::string& sql : texts) {
    auto e = db_->Estimate(sql);
    ASSERT_TRUE(e.ok()) << sql;
    EXPECT_EQ(*e, *EstimateCost(Bound(sql.c_str()), fresh)) << sql;
    first.push_back(*e);
    max_count = std::max(max_count, DatabaseTestPeer::PreparedCount(*db_));
  }
  EXPECT_EQ(max_count, cap);
  // The fill past the cap emptied the memo: the first texts are gone, the
  // last ones are held.
  EXPECT_EQ(DatabaseTestPeer::PreparedCount(*db_), texts.size() - cap);
  EXPECT_EQ(DatabaseTestPeer::Prepared(*db_, texts.front()), nullptr);
  EXPECT_NE(DatabaseTestPeer::Prepared(*db_, texts.back()), nullptr);
  for (size_t i = 0; i < texts.size(); ++i) {
    auto e = db_->Estimate(texts[i]);
    ASSERT_TRUE(e.ok()) << texts[i];
    EXPECT_EQ(*e, first[i]) << texts[i];
  }
}

}  // namespace
}  // namespace tabbench
