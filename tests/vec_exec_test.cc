#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "core/configurations.h"
#include "core/nref_families.h"
#include "core/runner.h"
#include "core/sampling.h"
#include "core/tpch_families.h"
#include "exec/exec_context.h"
#include "exec/vec/vec_executor.h"
#include "test_util.h"
#include "util/fault_injection.h"
#include "util/thread_pool.h"

namespace tabbench {
namespace {

/// The vectorized engine's contract: on every plan it covers, simulated
/// time, page/tuple counters, timeout behavior, and the evolution of the
/// buffer pool across a workload are bit-identical to the Volcano executor
/// — serial or with any number of helper threads. These tests run the same
/// workload on identically-seeded databases through both engines and
/// require exact (double ==, no tolerance) agreement query by query.

std::multiset<std::string> Rows(const QueryResult& r) {
  std::multiset<std::string> out;
  for (const auto& row : r.rows) out.insert(row.ToString());
  return out;
}

/// Runs `sql` back-to-back on `db`'s shared pool (the Database::Run
/// pattern: fresh context per query, warm pool across queries) through the
/// chosen engine. `pool` enables intra-query parallelism.
std::vector<QueryResult> RunAll(Database* db,
                                const std::vector<std::string>& sql,
                                bool vectorized, ThreadPool* pool = nullptr,
                                size_t morsel_pages = 32) {
  std::vector<QueryResult> out;
  db->buffer_pool()->Clear();
  for (const auto& q : sql) {
    ExecContext ctx =
        db->MakeSessionContext(db->buffer_pool(), db->options().cost);
    Result<QueryResult> r = [&] {
      if (!vectorized) return db->RunWithContext(q, &ctx);
      vec::VecExecOptions vopts;
      vopts.pool = pool;
      vopts.morsel_pages = morsel_pages;
      return db->RunWithContextVectorized(q, &ctx, vopts);
    }();
    EXPECT_TRUE(r.ok()) << q << ": " << r.status().ToString();
    out.push_back(r.ok() ? *r : QueryResult{});
  }
  return out;
}

void ExpectBitIdentical(const std::vector<QueryResult>& volcano,
                        const std::vector<QueryResult>& vec,
                        const std::vector<std::string>& sql) {
  ASSERT_EQ(volcano.size(), vec.size());
  for (size_t i = 0; i < volcano.size(); ++i) {
    SCOPED_TRACE(sql[i]);
    // Exact double equality — the whole point of the charge-trace design.
    EXPECT_EQ(volcano[i].sim_seconds, vec[i].sim_seconds);
    EXPECT_EQ(volcano[i].pages_read, vec[i].pages_read);
    EXPECT_EQ(volcano[i].tuples_processed, vec[i].tuples_processed);
    EXPECT_EQ(volcano[i].timed_out, vec[i].timed_out);
    // Aggregate outputs are emitted in a different (but deterministic)
    // group order than Volcano's hash iteration; rows compare as multisets.
    EXPECT_EQ(Rows(volcano[i]), Rows(vec[i]));
  }
}

/// TinyDb queries covering every vectorized operator: scan+filter+project,
/// grouped/distinct aggregation, hash join, IN-subquery sets, and (once a
/// configuration is applied) index scans and index nested-loop joins.
std::vector<std::string> TinyQueries() {
  return {
      "SELECT p.id, p.city FROM people p WHERE p.dept = 3",
      "SELECT p.city, COUNT(*) FROM people p GROUP BY p.city",
      "SELECT p.city, COUNT(DISTINCT p.dept) FROM people p "
      "WHERE p.score = 17 GROUP BY p.city",
      "SELECT COUNT(*) FROM people p WHERE p.score = 123456",  // empty
      "SELECT p.id, d.region FROM people p, depts d "
      "WHERE p.dept = d.dept_id AND d.region = 2",
      "SELECT d.region, COUNT(*) FROM people p, depts d "
      "WHERE p.dept = d.dept_id GROUP BY d.region",
      "SELECT p.id FROM people p WHERE p.city IN (SELECT city FROM "
      "people GROUP BY city HAVING COUNT(*) < 10)",
  };
}

TEST(VecExecTest, GoldenTinyDbSerialVectorized) {
  testing::TinyDb a = testing::TinyDb::Make();
  testing::TinyDb b = testing::TinyDb::Make();
  std::vector<std::string> sql = TinyQueries();
  auto volcano = RunAll(a.db.get(), sql, /*vectorized=*/false);
  auto vec = RunAll(b.db.get(), sql, /*vectorized=*/true);
  ExpectBitIdentical(volcano, vec, sql);
}

TEST(VecExecTest, GoldenTinyDbParallelVectorized) {
  testing::TinyDb a = testing::TinyDb::Make();
  testing::TinyDb b = testing::TinyDb::Make();
  std::vector<std::string> sql = TinyQueries();
  auto volcano = RunAll(a.db.get(), sql, /*vectorized=*/false);
  ThreadPool pool(8);
  // Small morsels force many claim-loop iterations per scan.
  auto vec = RunAll(b.db.get(), sql, /*vectorized=*/true, &pool,
                    /*morsel_pages=*/4);
  ExpectBitIdentical(volcano, vec, sql);
}

TEST(VecExecTest, GoldenTinyDbWithIndexesParallelVectorized) {
  testing::TinyDb a = testing::TinyDb::Make();
  testing::TinyDb b = testing::TinyDb::Make();
  Configuration one_c = Make1CConfig(a.db->catalog());
  ASSERT_TRUE(a.db->ApplyConfiguration(one_c).ok());
  ASSERT_TRUE(b.db->ApplyConfiguration(one_c).ok());
  std::vector<std::string> sql = TinyQueries();
  auto volcano = RunAll(a.db.get(), sql, /*vectorized=*/false);
  ThreadPool pool(8);
  auto vec = RunAll(b.db.get(), sql, /*vectorized=*/true, &pool,
                    /*morsel_pages=*/4);
  ExpectBitIdentical(volcano, vec, sql);
}

/// One figure-workload golden run per database family, under a built
/// configuration so index plans appear.
struct GoldenCase {
  const char* name;
  bool tpch;
};

// Printing the family name (not the default raw bytes, which hold the
// address of `name`) keeps the parameter's printed form the same in every
// build and run; test discovery folds it into the listed test name.
void PrintTo(const GoldenCase& c, std::ostream* os) { *os << c.name; }

class VecGoldenTest : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(VecGoldenTest, FigureWorkloadBitIdentical) {
  GoldenCase c = GetParam();
  auto make = [&] {
    return c.tpch ? testing::MakeMiniTpch(4000.0, 1.0)
                  : testing::MakeMiniNref(4000.0);
  };
  std::unique_ptr<Database> a = make();
  std::unique_ptr<Database> b = make();
  QueryFamily family = c.tpch ? GenerateTpch3Js(a->catalog(), a->stats())
                              : GenerateNref2J(a->catalog(), a->stats());
  ASSERT_FALSE(family.queries.empty());
  auto sampled = SampleFamily(family, a.get(), 8, /*seed=*/7);
  ASSERT_TRUE(sampled.ok()) << sampled.status().ToString();
  std::vector<std::string> sql = sampled->Sql();

  Configuration one_c = Make1CConfig(a->catalog());
  ASSERT_TRUE(a->ApplyConfiguration(one_c).ok());
  ASSERT_TRUE(b->ApplyConfiguration(one_c).ok());

  auto volcano = RunAll(a.get(), sql, /*vectorized=*/false);
  ThreadPool pool(8);
  auto vec = RunAll(b.get(), sql, /*vectorized=*/true, &pool,
                    /*morsel_pages=*/8);
  ExpectBitIdentical(volcano, vec, sql);
}

INSTANTIATE_TEST_SUITE_P(Families, VecGoldenTest,
                         ::testing::Values(GoldenCase{"nref2j", false},
                                           GoldenCase{"tpch3js", true}));

// ------------------------------------------------------------- timeouts

TEST(VecExecTest, TimeoutBitIdentical) {
  // A timeout small enough that the big scan trips it mid-flight: both
  // engines must censor at the same simulated instant and leave the same
  // pool state for the *next* query.
  testing::TinyDb a = testing::TinyDb::Make();
  testing::TinyDb b = testing::TinyDb::Make();
  CostParams tight = a.db->options().cost;
  tight.timeout_seconds = tight.page_io_seconds * 3;

  std::vector<std::string> sql = {
      "SELECT p.city, COUNT(*) FROM people p GROUP BY p.city",
      "SELECT p.id, p.city FROM people p WHERE p.dept = 3",
  };
  std::vector<QueryResult> volcano;
  a.db->buffer_pool()->Clear();
  for (const auto& q : sql) {
    ExecContext ctx = a.db->MakeSessionContext(a.db->buffer_pool(), tight);
    auto r = a.db->RunWithContext(q, &ctx);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    volcano.push_back(*r);
  }
  ASSERT_TRUE(volcano[0].timed_out);

  std::vector<QueryResult> vec;
  b.db->buffer_pool()->Clear();
  ThreadPool pool(4);
  for (const auto& q : sql) {
    ExecContext ctx = b.db->MakeSessionContext(b.db->buffer_pool(), tight);
    vec::VecExecOptions vopts;
    vopts.pool = &pool;
    vopts.morsel_pages = 4;
    auto r = b.db->RunWithContextVectorized(q, &ctx, vopts);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    vec.push_back(*r);
  }
  ExpectBitIdentical(volcano, vec, sql);
  EXPECT_TRUE(vec[0].timed_out);
  EXPECT_TRUE(vec[0].rows.empty());
}

// ----------------------------------------------------------------- chaos

/// Disarms every fault point on scope exit so a failing ASSERT cannot leak
/// an armed schedule into later tests.
struct FaultGuard {
  FaultGuard() { FaultRegistry::Global().DisarmAll(); }
  ~FaultGuard() { FaultRegistry::Global().DisarmAll(); }
};

TEST(VecExecTest, MorselFaultCensorsQueryAndRunContinues) {
  FaultGuard guard;
  testing::TinyDb t = testing::TinyDb::Make();
  // Fault schedules are per-query FaultScopes (RunWorkload seeds one per
  // query), so kOnce fires in every query: all of them must be censored at
  // the timeout cost with the run itself completing.
  FaultSpec spec;
  spec.point = "exec.vec.morsel";
  spec.code = Status::Code::kUnavailable;
  spec.trigger = FaultSpec::Trigger::kOnce;
  ASSERT_TRUE(FaultRegistry::Global().Arm(spec).ok());

  std::vector<std::string> sql = {
      "SELECT p.id, p.city FROM people p WHERE p.dept = 3",
      "SELECT p.city, COUNT(*) FROM people p GROUP BY p.city",
  };
  RunOptions opts;
  opts.executor = QueryExecutor::kVectorized;
  auto res = RunWorkload(t.db.get(), sql, opts);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  ASSERT_EQ(res->timings.size(), 2u);
  EXPECT_EQ(res->failures, 2u);
  EXPECT_TRUE(res->timings[0].failed);

  // Disarmed, the same workload runs clean again (nothing leaked).
  FaultRegistry::Global().DisarmAll();
  auto clean = RunWorkload(t.db.get(), sql, opts);
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(clean->failures, 0u);
  EXPECT_FALSE(clean->timings[0].timed_out);
}

TEST(VecExecTest, ProbabilisticMorselFaultPartiallyCensors) {
  FaultGuard guard;
  testing::TinyDb t = testing::TinyDb::Make();
  // Probability trigger: per-query scopes draw independent (seeded,
  // reproducible) decisions, so some queries are censored and others
  // survive — the failure-isolation contract under intra-query parallelism.
  FaultSpec spec;
  spec.point = "exec.vec.morsel";
  spec.code = Status::Code::kUnavailable;
  spec.trigger = FaultSpec::Trigger::kProbability;
  spec.probability = 0.5;
  spec.seed = 11;
  ASSERT_TRUE(FaultRegistry::Global().Arm(spec).ok());

  std::vector<std::string> sql;
  for (int i = 0; i < 6; ++i) {
    sql.push_back("SELECT p.id, p.city FROM people p WHERE p.dept = " +
                  std::to_string(i));
  }
  RunOptions opts;
  opts.executor = QueryExecutor::kVectorized;
  ThreadPool pool(4);
  opts.intra_query_pool = &pool;
  auto res = RunWorkload(t.db.get(), sql, opts);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  ASSERT_EQ(res->timings.size(), sql.size());
  EXPECT_GT(res->failures, 0u);
  EXPECT_LT(res->failures, sql.size());
}

// ------------------------------------------------------------ edge cases

TEST(VecExecTest, GateReplayNeverTakesALatchedFault) {
  // The doomed-query gate replays inside the query's FaultScope. A fault a
  // morsel latched there must survive the gate's replay and surface at the
  // owning context's next safe point, exactly as without the gate.
  FaultGuard guard;
  FaultSpec spec;
  spec.point = "storage.page_read";
  spec.code = Status::Code::kUnavailable;
  spec.trigger = FaultSpec::Trigger::kOnce;
  ASSERT_TRUE(FaultRegistry::Global().Arm(spec).ok());

  CostParams params;
  PageStore store;
  BufferPool pool(4);
  FaultScope scope(7);
  ExecContext owner(&store, &pool, params);
  FaultRegistry::Global().Trigger("storage.page_read");  // latches

  // Every kind of abort point the gate's replay meets.
  const AccessTrace trace = {{TraceEvent::Kind::kTouchSeq, 1},
                             {TraceEvent::Kind::kTimeoutCheck, 0},
                             {TraceEvent::Kind::kUnitTuplesChecked, 3},
                             {TraceEvent::Kind::kUnitHashChecked, 2}};
  BufferPool gate_pool(pool.capacity());
  ExecContext gate(&store, &gate_pool, params);
  gate.set_enforce_timeout(false);
  TB_ASSERT_OK(ApplyIsolated(&gate, trace));
  EXPECT_EQ(gate.tuples_processed(), 3u);
  EXPECT_EQ(gate.pages_read(), 1u);

  Status surfaced = owner.CheckTimeout();
  EXPECT_EQ(surfaced.code(), Status::Code::kUnavailable)
      << surfaced.ToString();
  TB_ASSERT_OK(owner.CheckTimeout());  // taken exactly once
}

TEST(VecExecTest, EmptyTableScanAndScalarAggregate) {
  Database db;
  TableDef def;
  def.name = "t";
  ColumnDef ca;
  ca.name = "a";
  ColumnDef cb;
  cb.name = "b";
  def.columns = {ca, cb};
  def.primary_key = {"a"};
  ASSERT_TRUE(db.CreateTable(def).ok());
  ASSERT_TRUE(db.FinishLoad().ok());

  std::vector<std::string> sql = {
      "SELECT t.a FROM t WHERE t.b = 1",
      "SELECT COUNT(*) FROM t",
  };
  for (const auto& q : sql) {
    ExecContext cv = db.MakeSessionContext(db.buffer_pool(), db.options().cost);
    auto volcano = db.RunWithContext(q, &cv);
    ASSERT_TRUE(volcano.ok()) << q;
    ExecContext cx = db.MakeSessionContext(db.buffer_pool(), db.options().cost);
    auto vec = db.RunWithContextVectorized(q, &cx, {});
    ASSERT_TRUE(vec.ok()) << q;
    EXPECT_EQ(volcano->sim_seconds, vec->sim_seconds) << q;
    EXPECT_EQ(Rows(*volcano), Rows(*vec)) << q;
  }
}

}  // namespace
}  // namespace tabbench
