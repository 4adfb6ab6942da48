#include <gtest/gtest.h>

#include <memory>

#include <algorithm>
#include <map>
#include <set>

#include "core/configurations.h"
#include "core/nref_families.h"
#include "engine/database.h"
#include "exec/in_set.h"
#include "exec/operators.h"
#include "test_util.h"
#include "util/fault_injection.h"

namespace tabbench {
namespace {

using testing::TinyDb;

/// Brute-force reference evaluation for the TinyDb join-aggregate queries,
/// independent of the executor: materializes tables via raw heap scans.
std::vector<Tuple> ScanAll(const Database& db, const std::string& table) {
  std::vector<Tuple> rows;
  const HeapTable* heap = db.FindHeap(table);
  auto cur = heap->Scan(nullptr);
  Tuple t;
  while (cur.Next(&t, nullptr)) rows.push_back(t);
  return rows;
}

std::multiset<std::string> RowsAsStrings(const std::vector<Tuple>& rows) {
  std::multiset<std::string> out;
  for (const auto& r : rows) out.insert(r.ToString());
  return out;
}

class ExecTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    tiny_ = std::make_unique<TinyDb>(TinyDb::Make(4000, 40));
  }
  static void TearDownTestSuite() {
    tiny_.reset();
  }
  Database* db() { return tiny_->db.get(); }

  static std::unique_ptr<TinyDb> tiny_;
};

std::unique_ptr<TinyDb> ExecTest::tiny_;

TEST_F(ExecTest, SeqScanFilterCount) {
  // Reference: count people in dept 7.
  int64_t expected = 0;
  for (const auto& r : ScanAll(*db(), "people")) {
    if (r.at(1) == Value(int64_t{7})) ++expected;
  }
  auto res = db()->Run(
      "SELECT p.dept, COUNT(*) FROM people p WHERE p.dept = 7 "
      "GROUP BY p.dept");
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  ASSERT_EQ(res->rows.size(), 1u);
  EXPECT_EQ(res->rows[0].at(1).as_int(), expected);
}

// A scan decodes only its residual predicates' columns until a row passes:
// a column-equality residual needs both of its columns decoded, and a
// passing row comes out whole.
TEST_F(ExecTest, SeqScanColumnEqualityResidualMatchesReference) {
  std::vector<Tuple> expected;
  for (const auto& r : ScanAll(*db(), "people")) {
    if (r.at(1) == r.at(3)) expected.push_back(r);  // dept = score
  }
  ASSERT_FALSE(expected.empty());
  PlanNode scan;
  scan.kind = PlanNode::Kind::kSeqScan;
  scan.object = "people";
  for (int c = 0; c < 4; ++c) scan.output_cols.push_back(SlotRef{0, c});
  ResidualPred eq;
  eq.kind = ResidualPred::Kind::kColEqCol;
  eq.a = SlotRef{0, 1};
  eq.b = SlotRef{0, 3};
  scan.residual.push_back(eq);
  BufferPool pool(64);
  ExecContext ctx = db()->MakeSessionContext(&pool, db()->options().cost);
  InSets no_sets;
  auto op = BuildOperator(scan, *db(), no_sets, &ctx);
  ASSERT_TRUE(op.ok()) << op.status().ToString();
  TB_ASSERT_OK((*op)->Open());
  std::vector<Tuple> got;
  Tuple t;
  for (;;) {
    auto more = (*op)->Next(&t);
    ASSERT_TRUE(more.ok()) << more.status().ToString();
    if (!*more) break;
    got.push_back(t);
  }
  EXPECT_EQ(RowsAsStrings(got), RowsAsStrings(expected));
}

TEST_F(ExecTest, EmptyFilterYieldsNoGroups) {
  auto res = db()->Run(
      "SELECT p.dept, COUNT(*) FROM people p WHERE p.dept = 99999 "
      "GROUP BY p.dept");
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(res->rows.empty());
}

TEST_F(ExecTest, ScalarAggregateOnEmptyInputYieldsZeroRow) {
  auto res = db()->Run("SELECT COUNT(*) FROM people p WHERE p.dept = 99999");
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(res->rows.size(), 1u);
  EXPECT_EQ(res->rows[0].at(0).as_int(), 0);
}

TEST_F(ExecTest, JoinAggregateMatchesReference) {
  // COUNT per region of people joined to depts.
  std::map<int64_t, int64_t> expected;
  auto people = ScanAll(*db(), "people");
  auto depts = ScanAll(*db(), "depts");
  std::map<int64_t, int64_t> dept_region;
  for (const auto& d : depts) dept_region[d.at(0).as_int()] = d.at(1).as_int();
  for (const auto& p : people) {
    auto it = dept_region.find(p.at(1).as_int());
    if (it != dept_region.end()) expected[it->second]++;
  }

  auto res = db()->Run(
      "SELECT d.region, COUNT(*) FROM people p, depts d "
      "WHERE p.dept = d.dept_id GROUP BY d.region");
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  std::map<int64_t, int64_t> actual;
  for (const auto& r : res->rows) {
    actual[r.at(0).as_int()] = r.at(1).as_int();
  }
  EXPECT_EQ(actual, expected);
}

TEST_F(ExecTest, CountDistinctMatchesReference) {
  std::map<int64_t, std::set<std::string>> expected;
  for (const auto& p : ScanAll(*db(), "people")) {
    expected[p.at(1).as_int()].insert(p.at(2).as_string());
  }
  auto res = db()->Run(
      "SELECT p.dept, COUNT(DISTINCT p.city) FROM people p GROUP BY p.dept");
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(res->rows.size(), expected.size());
  for (const auto& r : res->rows) {
    EXPECT_EQ(static_cast<size_t>(r.at(1).as_int()),
              expected[r.at(0).as_int()].size());
  }
}

TEST_F(ExecTest, InFrequencySubqueryMatchesReference) {
  // People whose city occurs fewer than 20 times.
  std::map<std::string, int64_t> city_freq;
  for (const auto& p : ScanAll(*db(), "people")) {
    city_freq[p.at(2).as_string()]++;
  }
  int64_t expected = 0;
  for (const auto& p : ScanAll(*db(), "people")) {
    if (city_freq[p.at(2).as_string()] < 20) ++expected;
  }
  auto res = db()->Run(
      "SELECT COUNT(*) FROM people p WHERE p.city IN "
      "(SELECT city FROM people GROUP BY city HAVING COUNT(*) < 20)");
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  ASSERT_EQ(res->rows.size(), 1u);
  EXPECT_EQ(res->rows[0].at(0).as_int(), expected);
}

TEST_F(ExecTest, InFrequencyEqualitySubquery) {
  std::map<std::string, int64_t> city_freq;
  for (const auto& p : ScanAll(*db(), "people")) {
    city_freq[p.at(2).as_string()]++;
  }
  int64_t f = city_freq.begin()->second;
  int64_t expected = 0;
  for (const auto& [c, n] : city_freq) {
    if (n == f) expected += n;
  }
  auto res = db()->Run(
      "SELECT COUNT(*) FROM people p WHERE p.city IN "
      "(SELECT city FROM people GROUP BY city HAVING COUNT(*) = " +
      std::to_string(f) + ")");
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->rows[0].at(0).as_int(), expected);
}

TEST_F(ExecTest, SelfJoinCountsPairs) {
  // Pairs of people in the same dept with a filter on one side's city:
  // reference via group counts.
  std::map<int64_t, int64_t> dept_count;
  int64_t expected = 0;
  std::vector<Tuple> people = ScanAll(*db(), "people");
  for (const auto& p : people) dept_count[p.at(1).as_int()]++;
  for (const auto& p : people) {
    if (p.at(2) == Value(std::string("city3"))) {
      expected += dept_count[p.at(1).as_int()];
    }
  }
  auto res = db()->Run(
      "SELECT COUNT(*) FROM people a, people b "
      "WHERE a.dept = b.dept AND a.city = 'city3'");
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(res->rows[0].at(0).as_int(), expected);
}

TEST_F(ExecTest, ResultsIdenticalAcrossConfigurations) {
  // The physical design must never change results: run a battery of
  // queries under P and under 1C and compare row multisets.
  const std::vector<std::string> queries = {
      "SELECT p.city, COUNT(*) FROM people p, depts d WHERE p.dept = "
      "d.dept_id AND d.region = 2 GROUP BY p.city",
      "SELECT p.dept, COUNT(DISTINCT p.city) FROM people p WHERE "
      "p.score = 17 GROUP BY p.dept",
      "SELECT d.region, COUNT(*) FROM people p, depts d WHERE p.city = "
      "d.city GROUP BY d.region",
      "SELECT COUNT(*) FROM people p WHERE p.city IN (SELECT city FROM "
      "people GROUP BY city HAVING COUNT(*) < 10)",
  };
  std::vector<std::multiset<std::string>> p_results;
  ASSERT_TRUE(db()->ResetToPrimary().ok());
  for (const auto& q : queries) {
    auto res = db()->Run(q);
    ASSERT_TRUE(res.ok()) << q << ": " << res.status().ToString();
    ASSERT_FALSE(res->timed_out) << q;
    p_results.push_back(RowsAsStrings(res->rows));
  }
  auto rep = db()->ApplyConfiguration(Make1CConfig(db()->catalog()));
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  for (size_t i = 0; i < queries.size(); ++i) {
    auto res = db()->Run(queries[i]);
    ASSERT_TRUE(res.ok()) << queries[i];
    EXPECT_EQ(RowsAsStrings(res->rows), p_results[i]) << queries[i];
  }
  ASSERT_TRUE(db()->ResetToPrimary().ok());
}

TEST_F(ExecTest, SimulatedTimeAdvancesWithWork) {
  db()->buffer_pool()->Clear();
  auto res = db()->Run("SELECT COUNT(*) FROM people p WHERE p.dept = 1");
  ASSERT_TRUE(res.ok());
  EXPECT_GT(res->sim_seconds, 0.0);
  EXPECT_GT(res->pages_read, 0u);
  EXPECT_GT(res->tuples_processed, 0u);
}

TEST_F(ExecTest, WarmBufferPoolIsCheaper) {
  db()->buffer_pool()->Clear();
  auto cold = db()->Run("SELECT COUNT(*) FROM depts d WHERE d.region = 1");
  ASSERT_TRUE(cold.ok());
  auto warm = db()->Run("SELECT COUNT(*) FROM depts d WHERE d.region = 1");
  ASSERT_TRUE(warm.ok());
  EXPECT_LT(warm->sim_seconds, cold->sim_seconds);
}

TEST(ExecTimeoutTest, TimeoutTripsAndClamps) {
  // A database whose timeout is microscopic: the first page access trips it.
  DatabaseOptions opts;
  opts.cost.timeout_seconds = 1e-7;
  Database db2(opts);
  TableDef t;
  t.name = "t";
  t.columns = {{"a", TypeId::kInt, "d", true, 8}};
  t.primary_key = {"a"};
  ASSERT_TRUE(db2.CreateTable(t).ok());
  for (int64_t i = 0; i < 1000; ++i) {
    ASSERT_TRUE(db2.Insert("t", Tuple({Value(i)})).ok());
  }
  ASSERT_TRUE(db2.FinishLoad().ok());
  auto res = db2.Run("SELECT COUNT(*) FROM t WHERE t.a = 5");
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_TRUE(res->timed_out);
  EXPECT_TRUE(res->rows.empty());
  EXPECT_DOUBLE_EQ(res->sim_seconds, opts.cost.timeout_seconds);
}

TEST(ExecSpillTest, LargeAggregateChargesSpillIo) {
  // Tiny work_mem forces the group hash table to spill; the same aggregate
  // with plenty of work_mem charges less.
  auto run_with_workmem = [](size_t pages) {
    DatabaseOptions opts;
    opts.buffer_pool_pages = 1024;
    opts.cost.work_mem_pages = pages;
    opts.cost.page_io_seconds = 0.01;
    opts.cost.random_io_seconds = 0.001;
    Database db(opts);
    TableDef t;
    t.name = "t";
    t.columns = {{"a", TypeId::kInt, "d", true, 8},
                 {"b", TypeId::kString, "s", true, 40}};
    t.primary_key = {"a"};
    EXPECT_TRUE(db.CreateTable(t).ok());
    for (int64_t i = 0; i < 20000; ++i) {
      EXPECT_TRUE(
          db.Insert("t", Tuple({Value(i), Value("group_" + std::to_string(i))}))
              .ok());
    }
    EXPECT_TRUE(db.FinishLoad().ok());
    auto res = db.Run("SELECT t.b, COUNT(*) FROM t GROUP BY t.b");
    EXPECT_TRUE(res.ok());
    return res->sim_seconds;
  };
  double spilled = run_with_workmem(2);
  double in_memory = run_with_workmem(100000);
  EXPECT_GT(spilled, in_memory * 1.2);
}

// ------------------------------------------------------------ IN-set memo

/// The same storage as a Database, without its IN-set memo: every
/// materialization scans live.
class NoMemoResolver : public ObjectResolver {
 public:
  explicit NoMemoResolver(const Database& db) : db_(db) {}
  const HeapTable* FindHeap(const std::string& name) const override {
    return db_.FindHeap(name);
  }
  const IndexInfo* FindIndex(const std::string& name) const override {
    return db_.FindIndex(name);
  }

 private:
  const Database& db_;
};

/// Everything one materialization leaves behind.
struct InSetRun {
  Status status;
  InSet values;
  double sim_seconds = 0.0;
  uint64_t pages_read = 0;
  uint64_t tuples = 0;
  BufferPoolStats pool;
  std::vector<bool> resident;  // afterwards, per page of the warm-up list
  AccessTrace trace;
};

/// Materializes `spec` in a session context over a fresh pool that is
/// first warmed with every other page of `pages`, then reports which of
/// `pages` stayed resident — so LRU state, not only counters, is compared.
InSetRun MaterializeFrom(const Database& db, const ObjectResolver& resolver,
                         const InSetSpec& spec, const CostParams& params,
                         const std::vector<PageId>& pages) {
  BufferPool pool(std::max<size_t>(4, pages.size() / 2));
  for (size_t i = 0; i < pages.size(); i += 2) pool.Touch(pages[i]);
  pool.ResetCounters();
  ExecContext ctx = db.MakeSessionContext(&pool, params);
  InSetRun run;
  ctx.set_trace(&run.trace);
  auto r = MaterializeInSet(spec, resolver, &ctx);
  run.status = r.status();
  if (r.ok()) run.values = r.TakeValue();
  run.sim_seconds = ctx.sim_time();
  run.pages_read = ctx.pages_read();
  run.tuples = ctx.tuples_processed();
  run.pool = pool.stats();
  for (PageId p : pages) run.resident.push_back(pool.Touch(p));
  return run;
}

void ExpectSameRun(const InSetRun& a, const InSetRun& b) {
  EXPECT_EQ(a.status.code(), b.status.code());
  EXPECT_EQ(a.sim_seconds, b.sim_seconds);  // bit-identical, not near
  EXPECT_EQ(a.pages_read, b.pages_read);
  EXPECT_EQ(a.tuples, b.tuples);
  EXPECT_EQ(a.pool.hits, b.pool.hits);
  EXPECT_EQ(a.pool.misses, b.pool.misses);
  EXPECT_EQ(a.pool.resident, b.pool.resident);
  EXPECT_EQ(a.resident, b.resident);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (size_t i = 0; i < a.trace.size(); ++i) {
    ASSERT_EQ(a.trace[i].kind, b.trace[i].kind) << "trace event " << i;
    ASSERT_EQ(a.trace[i].arg, b.trace[i].arg) << "trace event " << i;
  }
  ASSERT_EQ(a.values == nullptr, b.values == nullptr);
  if (a.values != nullptr) {
    EXPECT_EQ(*a.values, *b.values);
  }
}

/// Pages a live scan of `spec` touches, in order.
std::vector<PageId> ScanPages(const Database& db, const InSetSpec& spec) {
  BufferPool pool(1);
  ExecContext ctx = db.MakeSessionContext(&pool, db.options().cost);
  AccessTrace trace;
  ctx.set_trace(&trace);
  NoMemoResolver live(db);
  EXPECT_TRUE(MaterializeInSet(spec, live, &ctx).ok());
  std::vector<PageId> pages;
  for (const auto& e : trace) {
    if (e.kind == TraceEvent::Kind::kTouchSeq) pages.push_back(e.arg);
  }
  return pages;
}

std::string SpecName(const InSetSpec& s) {
  return s.table + "." + s.column + " " + s.cmp + std::to_string(s.k) +
         (s.index_name.empty() ? " heap" : " via " + s.index_name);
}

/// A mini NREF database with the distinct IN-set specs of the NREF2J
/// plans on P (heap scans) and on 1C (index-only scans).
class InSetMemoTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    owner_ = testing::MakeMiniNref(4000.0);
    db_ = owner_.get();
    QueryFamily family = GenerateNref2J(db_->catalog(), db_->stats());
    std::map<std::string, InSetSpec> p_specs, c_specs;
    auto collect = [&](std::map<std::string, InSetSpec>* out) {
      for (const auto& sql : family.Sql()) {
        auto plan = db_->Plan(sql);
        ASSERT_TRUE(plan.ok()) << sql;
        for (const auto& spec : plan->in_sets) out->emplace(SpecName(spec), spec);
      }
    };
    collect(&p_specs);
    ASSERT_TRUE(db_->ApplyConfiguration(Make1CConfig(db_->catalog())).ok());
    collect(&c_specs);
    ASSERT_TRUE(db_->ResetToPrimary().ok());
    for (auto& [name, spec] : p_specs) p_specs_.push_back(spec);
    for (auto& [name, spec] : c_specs) c_specs_.push_back(spec);

  }
  static void TearDownTestSuite() {
    owner_.reset();
    db_ = nullptr;
  }

  /// Runs `check(spec)` for every spec, on P and then on 1C. Each side
  /// has both heap scans and index-only scans.
  template <typename Fn>
  void ForEachSpec(Fn check) {
    auto has = [](const std::vector<InSetSpec>& specs, bool heap) {
      return std::any_of(specs.begin(), specs.end(), [&](const InSetSpec& s) {
        return s.index_name.empty() == heap;
      });
    };
    ASSERT_TRUE(has(p_specs_, true) && has(p_specs_, false));
    ASSERT_TRUE(has(c_specs_, true) && has(c_specs_, false));
    for (const auto& spec : p_specs_) {
      SCOPED_TRACE("P: " + SpecName(spec));
      check(spec);
    }
    ASSERT_TRUE(db_->ApplyConfiguration(Make1CConfig(db_->catalog())).ok());
    for (const auto& spec : c_specs_) {
      SCOPED_TRACE("1C: " + SpecName(spec));
      check(spec);
    }
    ASSERT_TRUE(db_->ResetToPrimary().ok());
  }

  static std::unique_ptr<Database> owner_;
  static Database* db_;
  static std::vector<InSetSpec> p_specs_;
  static std::vector<InSetSpec> c_specs_;
};

std::unique_ptr<Database> InSetMemoTest::owner_;
Database* InSetMemoTest::db_ = nullptr;
std::vector<InSetSpec> InSetMemoTest::p_specs_;
std::vector<InSetSpec> InSetMemoTest::c_specs_;

TEST_F(InSetMemoTest, WarmHitChargesExactlyAsColdScan) {
  ForEachSpec([&](const InSetSpec& spec) {
    const std::vector<PageId> pages = ScanPages(*db_, spec);
    const CostParams params = db_->options().cost;
    InSetMemo* memo = db_->in_set_memo();
    memo->Clear();
    InSetRun cold = MaterializeFrom(*db_, *db_, spec, params, pages);
    ASSERT_TRUE(cold.status.ok()) << cold.status.ToString();
    EXPECT_EQ(memo->size(), 1u);
    InSetRun warm = MaterializeFrom(*db_, *db_, spec, params, pages);
    // The same shared set: the warm run was a memo hit, not a rescan.
    EXPECT_EQ(warm.values.get(), cold.values.get());
    ExpectSameRun(cold, warm);
    ExpectSameRun(cold,
                  MaterializeFrom(*db_, NoMemoResolver(*db_), spec, params, pages));
  });
}

TEST_F(InSetMemoTest, WarmHitTimesOutAtTheSameEvent) {
  ForEachSpec([&](const InSetSpec& spec) {
    const std::vector<PageId> pages = ScanPages(*db_, spec);
    CostParams params = db_->options().cost;
    InSetMemo* memo = db_->in_set_memo();
    memo->Clear();
    InSetRun full = MaterializeFrom(*db_, *db_, spec, params, pages);
    ASSERT_TRUE(full.status.ok());
    params.timeout_seconds = full.sim_seconds / 2;
    memo->Clear();
    InSetRun cold = MaterializeFrom(*db_, *db_, spec, params, pages);
    ASSERT_TRUE(cold.status.IsTimeout()) << cold.status.ToString();
    EXPECT_EQ(memo->size(), 0u);  // a scan that did not complete stores nothing
    EXPECT_LT(cold.tuples, full.tuples);
    MaterializeFrom(*db_, *db_, spec, db_->options().cost, pages);
    ASSERT_EQ(memo->size(), 1u);
    InSetRun warm = MaterializeFrom(*db_, *db_, spec, params, pages);
    ExpectSameRun(cold, warm);
  });
}

TEST_F(InSetMemoTest, WarmHitFailsAtTheSameFaultedRow) {
  struct Disarm {
    ~Disarm() { FaultRegistry::Global().DisarmAll(); }
  } disarm;
  ForEachSpec([&](const InSetSpec& spec) {
    const std::vector<PageId> pages = ScanPages(*db_, spec);
    const CostParams params = db_->options().cost;
    FaultSpec fault;
    fault.point = "storage.heap_scan";
    fault.code = Status::Code::kUnavailable;
    fault.trigger = FaultSpec::Trigger::kNth;
    fault.nth = std::max<uint64_t>(1, pages.size() / 2);
    auto faulted_run = [&] {
      EXPECT_TRUE(FaultRegistry::Global().Arm(fault).ok());
      FaultScope scope(7);
      InSetRun run = MaterializeFrom(*db_, *db_, spec, params, pages);
      FaultRegistry::Global().DisarmAll();
      return run;
    };
    InSetMemo* memo = db_->in_set_memo();
    memo->Clear();
    InSetRun cold = faulted_run();
    // Only heap scans pass the trigger; index-only scans never fault here.
    EXPECT_EQ(cold.status.code(), spec.index_name.empty()
                                      ? Status::Code::kUnavailable
                                      : Status::Code::kOk);
    MaterializeFrom(*db_, *db_, spec, params, pages);
    ASSERT_EQ(memo->size(), 1u);
    InSetRun warm = faulted_run();
    ExpectSameRun(cold, warm);
  });
}

/// `row` with column `pos` replaced by a value no row holds.
Tuple WithFreshValue(const Tuple& row, size_t pos) {
  std::vector<Value> vals = row.values();
  vals[pos] = vals[pos].is_string() ? Value(std::string("memo-test-fresh"))
                                    : Value(int64_t{987654321});
  return Tuple(std::move(vals));
}

/// Fills the memo for `spec`, applies `mutate`, then requires a warm
/// materialization to rescan (a new set) and to equal a memo-less one.
void ExpectMutationInvalidates(Database* db, const InSetSpec& spec,
                               const std::function<void()>& mutate) {
  const CostParams params = db->options().cost;
  const std::vector<PageId> before_pages = ScanPages(*db, spec);
  InSetRun before = MaterializeFrom(*db, *db, spec, params, before_pages);
  ASSERT_TRUE(before.status.ok());
  mutate();
  const std::vector<PageId> pages = ScanPages(*db, spec);
  InSetRun warm = MaterializeFrom(*db, *db, spec, params, pages);
  ASSERT_TRUE(warm.status.ok());
  EXPECT_NE(warm.values.get(), before.values.get());
  ExpectSameRun(warm, MaterializeFrom(*db, NoMemoResolver(*db), spec, params,
                                      pages));
}

TEST(InSetMemoInvalidationTest, RowWritesInvalidateHeapAndIndexEntries) {
  auto db = testing::MakeMiniNref(4000.0);
  QueryFamily family = GenerateNref2J(db->catalog(), db->stats());
  ASSERT_FALSE(family.queries.empty());
  for (bool one_c : {false, true}) {
    SCOPED_TRACE(one_c ? "1C" : "P");
    if (one_c) {
      ASSERT_TRUE(db->ApplyConfiguration(Make1CConfig(db->catalog())).ok());
    }
    auto plan = db->Plan(family.queries.front().sql);
    ASSERT_TRUE(plan.ok());
    ASSERT_FALSE(plan->in_sets.empty());
    const InSetSpec spec = plan->in_sets.front();
    EXPECT_EQ(spec.index_name.empty(), !one_c);
    const std::string table = spec.table;
    const size_t pos = static_cast<size_t>(
        db->catalog().FindTable(table)->ColumnIndex(spec.column));
    auto first_live = [&] {
      Rid rid;
      Tuple row;
      auto cur = db->FindHeap(table)->Scan(nullptr);
      EXPECT_TRUE(cur.Next(&row, &rid));
      return std::make_pair(rid, row);
    };
    ExpectMutationInvalidates(db.get(), spec, [&] {
      auto [rid, row] = first_live();
      ASSERT_TRUE(db->TimedInsert(table, WithFreshValue(row, pos)).ok());
    });
    ExpectMutationInvalidates(db.get(), spec, [&] {
      auto [rid, row] = first_live();
      ASSERT_TRUE(db->TimedDelete(table, rid).ok());
    });
    ExpectMutationInvalidates(db.get(), spec, [&] {
      auto [rid, row] = first_live();
      ASSERT_TRUE(db->TimedUpdate(table, rid, WithFreshValue(row, pos)).ok());
    });
  }
}

TEST(InSetMemoInvalidationTest, ReusedIndexNameWithNewContentsRescans) {
  auto db = testing::MakeMiniNref(4000.0);
  QueryFamily family = GenerateNref2J(db->catalog(), db->stats());
  auto plan = db->Plan(family.queries.front().sql);
  ASSERT_TRUE(plan.ok());
  ASSERT_GE(plan->in_sets.size(), 2u);
  // Two specs on different columns, both read through an index named "ix".
  InSetSpec a = plan->in_sets[0], b = plan->in_sets[1];
  ASSERT_NE(SpecName(a), SpecName(b));
  a.index_name = b.index_name = "ix";
  auto config_on = [](const InSetSpec& s) {
    Configuration c;
    c.name = "ix-" + s.column;
    IndexDef idx;
    idx.name = "ix";
    idx.target = s.table;
    idx.columns = {s.column};
    c.indexes.push_back(idx);
    return c;
  };
  const CostParams params = db->options().cost;
  ASSERT_TRUE(db->ApplyConfiguration(config_on(a)).ok());
  InSetRun on_a = MaterializeFrom(*db, *db, a, params, ScanPages(*db, a));
  ASSERT_TRUE(on_a.status.ok());
  ASSERT_TRUE(db->ApplyConfiguration(config_on(b)).ok());
  const std::vector<PageId> pages = ScanPages(*db, b);
  InSetRun warm = MaterializeFrom(*db, *db, b, params, pages);
  ASSERT_TRUE(warm.status.ok());
  EXPECT_NE(warm.values.get(), on_a.values.get());
  ExpectSameRun(warm, MaterializeFrom(*db, NoMemoResolver(*db), b, params,
                                      pages));
}

TEST(InSetMemoInvalidationTest, RebuiltIndexWithNewContentsRescans) {
  auto db = testing::MakeMiniNref(4000.0);
  QueryFamily family = GenerateNref2J(db->catalog(), db->stats());
  ASSERT_TRUE(db->ApplyConfiguration(Make1CConfig(db->catalog())).ok());
  auto plan = db->Plan(family.queries.front().sql);
  ASSERT_TRUE(plan.ok());
  ASSERT_FALSE(plan->in_sets.empty());
  const InSetSpec spec = plan->in_sets.front();
  ASSERT_FALSE(spec.index_name.empty());
  IndexDef def;
  for (const auto& idx : db->current_config().indexes) {
    if (idx.name == spec.index_name) def = idx;
  }
  ASSERT_EQ(def.name, spec.index_name);
  const size_t pos = static_cast<size_t>(
      db->catalog().FindTable(spec.table)->ColumnIndex(spec.column));
  // The rebuilt index keeps its name and definition but holds one more
  // row, under a fresh value, than the one the memo entry scanned.
  ExpectMutationInvalidates(db.get(), spec, [&] {
    Tuple row;
    auto cur = db->FindHeap(spec.table)->Scan(nullptr);
    ASSERT_TRUE(cur.Next(&row, nullptr));
    ASSERT_TRUE(db->TimedInsert(spec.table, WithFreshValue(row, pos)).ok());
    ASSERT_TRUE(db->ResetToPrimary().ok());
    ASSERT_TRUE(db->ApplyConfiguration(Make1CConfig(db->catalog())).ok());
    ASSERT_NE(db->FindIndex(def.name), nullptr);
  });
}

// --------------------------------------------------- index-NL join exactness

/// o(id, k, m) x 60 and s(c1, c2, pad) x 1200, indexed on s(c2) (a heap
/// inner) and s(c2, c1) (read index-only). The join probes s.c2 = o.k;
/// `s.c2 IN {even}` reads only the probed column, so it rejects every odd
/// probe range whole, and `o.m = s.c1` is decided per entry.
class ExecIndexNLJoinTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DatabaseOptions opts;
    opts.buffer_pool_pages = 64;
    opts.cost.page_io_seconds = 0.01;
    opts.cost.random_io_seconds = 0.001;
    opts.cost.cpu_tuple_seconds = 1e-6;
    db_ = std::make_unique<Database>(opts);
    TableDef o;
    o.name = "o";
    o.columns = {{"id", TypeId::kInt, "id_dom", true, 8},
                 {"k", TypeId::kInt, "k_dom", true, 8},
                 {"m", TypeId::kInt, "m_dom", true, 8}};
    o.primary_key = {"id"};
    TableDef s;
    s.name = "s";
    s.columns = {{"c1", TypeId::kInt, "m_dom", true, 8},
                 {"c2", TypeId::kInt, "k_dom", true, 8},
                 {"pad", TypeId::kString, "pad_dom", true, 40}};
    ASSERT_TRUE(db_->CreateTable(o).ok());
    ASSERT_TRUE(db_->CreateTable(s).ok());
    for (int64_t i = 0; i < 60; ++i) {
      ASSERT_TRUE(db_->Insert("o", Tuple({Value(i), Value(i % 20),
                                          Value(i % 7)}))
                      .ok());
    }
    for (int64_t i = 0; i < 1200; ++i) {
      ASSERT_TRUE(db_->Insert("s", Tuple({Value(i % 7), Value((i * 13) % 20),
                                          Value(std::string(40, 'a' + i % 26))}))
                      .ok());
    }
    ASSERT_TRUE(db_->FinishLoad().ok());
    Configuration config;
    config.name = "join";
    config.indexes = {{"s_c2", "s", {"c2"}, false},
                      {"s_c2c1", "s", {"c2", "c1"}, false}};
    ASSERT_TRUE(db_->ApplyConfiguration(config).ok());
    auto evens = std::make_shared<FlatInSet>();
    for (int64_t v = 0; v < 20; v += 2) evens->Insert(Value(v));
    sets_ = {evens};
  }
  static void TearDownTestSuite() { db_.reset(); }

  /// The join over `index` (index-only or not) with both residuals.
  static std::unique_ptr<PlanNode> JoinPlan(const std::string& index,
                                            bool index_only) {
    auto outer = std::make_unique<PlanNode>();
    outer->kind = PlanNode::Kind::kSeqScan;
    outer->object = "o";
    outer->output_cols = {{0, 0}, {0, 1}, {0, 2}};
    auto join = std::make_unique<PlanNode>();
    join->kind = PlanNode::Kind::kIndexNLJoin;
    join->object = "s";
    join->index_name = index;
    join->index_only = index_only;
    SeekKeyPart part;
    part.from_outer = true;
    part.outer = {0, 1};
    join->seek = {part};
    join->output_cols = outer->output_cols;
    if (index_only) {
      join->output_cols.insert(join->output_cols.end(), {{1, 1}, {1, 0}});
    } else {
      join->output_cols.insert(join->output_cols.end(),
                               {{1, 0}, {1, 1}, {1, 2}});
    }
    ResidualPred in;
    in.kind = ResidualPred::Kind::kInSet;
    in.a = {1, 1};
    in.in_set = 0;
    ResidualPred eq;
    eq.kind = ResidualPred::Kind::kColEqCol;
    eq.a = {0, 2};
    eq.b = {1, 0};
    join->residual = {in, eq};
    join->children.push_back(std::move(outer));
    return join;
  }

  /// Everything a run leaves behind.
  struct JoinRun {
    Status status;
    std::vector<Tuple> rows;
    double sim_seconds = 0.0;
    uint64_t pages_read = 0;
    uint64_t tuples = 0;
    BufferPoolStats pool;
    uint64_t fetch_hits = 0;
    AccessTrace trace;
  };

  /// Runs `join` through `body` in a fresh session context and pool, with
  /// `fetch_fault` armed on storage.heap_fetch (an nth that is never
  /// reached only counts hits).
  template <typename Body>
  static JoinRun Measure(uint64_t fetch_fault, const Body& body) {
    return MeasureWith("storage.heap_fetch", fetch_fault, db_->options().cost,
                       body);
  }

  /// Measure with fault point `point` armed at its `nth` hit (fetch_hits
  /// counts that point's hits) and `cost` as the context's parameters.
  template <typename Body>
  static JoinRun MeasureWith(const std::string& point, uint64_t nth,
                             const CostParams& cost, const Body& body) {
    FaultSpec fault;
    fault.point = point;
    fault.trigger = FaultSpec::Trigger::kNth;
    fault.nth = nth;
    EXPECT_TRUE(FaultRegistry::Global().Arm(fault).ok());
    BufferPool pool(16);
    ExecContext ctx = db_->MakeSessionContext(&pool, cost);
    JoinRun run;
    ctx.set_trace(&run.trace);
    run.status = body(&ctx, &run.rows);
    run.fetch_hits = FaultRegistry::Global().stats(fault.point).hits;
    FaultRegistry::Global().DisarmAll();
    run.sim_seconds = ctx.sim_time();
    run.pages_read = ctx.pages_read();
    run.tuples = ctx.tuples_processed();
    run.pool = pool.stats();
    return run;
  }

  static Status RunOperator(const PlanNode& join, ExecContext* ctx,
                            std::vector<Tuple>* rows) {
    std::unique_ptr<Operator> op;
    TB_ASSIGN_OR_RETURN(op, BuildOperator(join, *db_, sets_, ctx));
    TB_RETURN_IF_ERROR(op->Open());
    Tuple t;
    for (;;) {
      auto more = op->Next(&t);
      if (!more.ok()) return more.status();
      if (!*more) return Status::OK();
      rows->push_back(t);
    }
  }

  /// The index-NL join as a plain loop, with no residual split: every
  /// entry is fetched (or copied) whole and every residual is evaluated on
  /// the joined row.
  static Status RunReference(const PlanNode& join, ExecContext* ctx,
                             std::vector<Tuple>* rows) {
    std::vector<CompiledPred> preds;
    TB_ASSIGN_OR_RETURN(preds, CompilePreds(join, sets_));
    std::unique_ptr<Operator> outer;
    TB_ASSIGN_OR_RETURN(outer,
                        BuildOperator(*join.children[0], *db_, sets_, ctx));
    TB_RETURN_IF_ERROR(outer->Open());
    const IndexInfo* inner = db_->FindIndex(join.index_name);
    PageTouchFn touch = [ctx](PageId id) { ctx->TouchPageRandom(id); };
    Tuple outer_row, inner_row;
    for (;;) {
      auto more = outer->Next(&outer_row);
      if (!more.ok()) return more.status();
      if (!*more) return Status::OK();
      TB_RETURN_IF_ERROR(ctx->CheckTimeout());
      auto it = inner->btree->SeekPrefix({outer_row.at(1)}, touch);
      Rid rid;
      while (it.Next(join.index_only ? inner_row.mutable_values() : nullptr,
                     &rid)) {
        ctx->ChargeTuples(1);
        TB_RETURN_IF_ERROR(ctx->CheckTimeout());
        if (!join.index_only) {
          TB_RETURN_IF_ERROR(inner->heap->FetchInto(rid, touch, &inner_row));
          ctx->ChargeTuples(1);
        }
        Tuple joined = Tuple::Concat(outer_row, inner_row);
        if (std::all_of(preds.begin(), preds.end(),
                        [&](const CompiledPred& p) { return p.Eval(joined); })) {
          rows->push_back(std::move(joined));
        }
      }
    }
  }

  static void ExpectSameRun(const JoinRun& a, const JoinRun& b) {
    EXPECT_EQ(a.status.code(), b.status.code());
    EXPECT_EQ(a.rows, b.rows);
    EXPECT_EQ(a.sim_seconds, b.sim_seconds);  // bit-identical, not near
    EXPECT_EQ(a.pages_read, b.pages_read);
    EXPECT_EQ(a.tuples, b.tuples);
    EXPECT_EQ(a.pool.hits, b.pool.hits);
    EXPECT_EQ(a.pool.misses, b.pool.misses);
    EXPECT_EQ(a.fetch_hits, b.fetch_hits);
    ASSERT_EQ(a.trace.size(), b.trace.size());
    for (size_t i = 0; i < a.trace.size(); ++i) {
      ASSERT_EQ(a.trace[i].kind, b.trace[i].kind) << "trace event " << i;
      ASSERT_EQ(a.trace[i].arg, b.trace[i].arg) << "trace event " << i;
    }
  }

  /// Entries each o row's probe visits (s rows with c2 = o.k), in o order.
  static std::vector<uint64_t> ProbeSizes() {
    std::map<int64_t, uint64_t> per_key;
    for (const auto& r : ScanAll(*db_, "s")) ++per_key[r.at(1).as_int()];
    std::vector<uint64_t> sizes;
    for (const auto& r : ScanAll(*db_, "o")) {
      sizes.push_back(per_key[r.at(1).as_int()]);
    }
    return sizes;
  }

  static std::unique_ptr<Database> db_;
  static InSets sets_;
};

std::unique_ptr<Database> ExecIndexNLJoinTest::db_;
InSets ExecIndexNLJoinTest::sets_;

TEST_F(ExecIndexNLJoinTest, RejectedProbesChargeEveryEntry) {
  const std::vector<uint64_t> sizes = ProbeSizes();
  uint64_t visited = 0, rejected = 0;
  const std::vector<Tuple> outer_rows = ScanAll(*db_, "o");
  for (size_t i = 0; i < sizes.size(); ++i) {
    visited += sizes[i];
    if (outer_rows[i].at(1).as_int() % 2 != 0) rejected += sizes[i];
  }
  ASSERT_GT(rejected, 0u);
  ASSERT_LT(rejected, visited);
  const uint64_t never = uint64_t{1} << 40;
  for (bool index_only : {false, true}) {
    SCOPED_TRACE(index_only ? "index-only inner" : "heap inner");
    auto join = JoinPlan(index_only ? "s_c2c1" : "s_c2", index_only);
    JoinRun got = Measure(never, [&](ExecContext* ctx, std::vector<Tuple>* r) {
      return RunOperator(*join, ctx, r);
    });
    JoinRun want = Measure(never, [&](ExecContext* ctx, std::vector<Tuple>* r) {
      return RunReference(*join, ctx, r);
    });
    ASSERT_TRUE(got.status.ok()) << got.status.ToString();
    ExpectSameRun(got, want);
    EXPECT_FALSE(got.rows.empty());
    for (const Tuple& row : got.rows) {
      EXPECT_EQ(row.at(1).as_int() % 2, 0);  // the IN residual held
      EXPECT_EQ(row.at(2), row.at(index_only ? 4 : 3));  // o.m = s.c1
    }
    // One charge per outer row scanned, one per visited entry, and a second
    // per entry for its heap fetch.
    EXPECT_EQ(got.tuples, outer_rows.size() + visited * (index_only ? 1 : 2));
    EXPECT_EQ(got.fetch_hits, index_only ? 0 : visited);
  }
}

TEST_F(ExecIndexNLJoinTest, FaultedFetchInARejectedProbeFailsTheQuery) {
  // The first fetch of the first probe the IN residual rejects.
  const std::vector<uint64_t> sizes = ProbeSizes();
  const std::vector<Tuple> outer_rows = ScanAll(*db_, "o");
  uint64_t nth = 1;
  size_t i = 0;
  while (outer_rows[i].at(1).as_int() % 2 == 0) nth += sizes[i++];
  ASSERT_GT(sizes[i], 0u);
  auto join = JoinPlan("s_c2", false);
  JoinRun got = Measure(nth, [&](ExecContext* ctx, std::vector<Tuple>* r) {
    return RunOperator(*join, ctx, r);
  });
  JoinRun want = Measure(nth, [&](ExecContext* ctx, std::vector<Tuple>* r) {
    return RunReference(*join, ctx, r);
  });
  EXPECT_EQ(got.status.code(), Status::Code::kUnavailable);
  EXPECT_EQ(got.fetch_hits, nth);
  ExpectSameRun(got, want);
}

// -------------------------------------------------- leaf index scan exactness

/// The leaf index scan on ExecIndexNLJoinTest's tables: s_c2c1 read
/// index-only, s_c2 with heap fetches, each as a full walk and as a seek
/// on c2 = 4, under `c2 IN {even}` and `c1 = 3`.
class ExecIndexScanTest : public ExecIndexNLJoinTest {
 protected:
  static std::unique_ptr<PlanNode> ScanPlan(const std::string& index,
                                            bool index_only, bool seek) {
    auto scan = std::make_unique<PlanNode>();
    scan->kind = PlanNode::Kind::kIndexScan;
    scan->object = "s";
    scan->index_name = index;
    scan->index_only = index_only;
    if (seek) {
      SeekKeyPart part;
      part.from_outer = false;
      part.literal = Value(int64_t{4});
      scan->seek = {part};
    }
    scan->output_cols = index_only
                            ? std::vector<SlotRef>{{0, 1}, {0, 0}}
                            : std::vector<SlotRef>{{0, 0}, {0, 1}, {0, 2}};
    ResidualPred in;
    in.kind = ResidualPred::Kind::kInSet;
    in.a = {0, 1};
    in.in_set = 0;
    ResidualPred eq;
    eq.kind = ResidualPred::Kind::kColEqLit;
    eq.a = {0, 0};
    eq.literal = Value(int64_t{3});
    scan->residual = {in, eq};
    return scan;
  }

  /// The scan as a plain loop: every entry is copied, or fetched whole,
  /// and then filtered.
  static Status RunScanReference(const PlanNode& scan, ExecContext* ctx,
                                 std::vector<Tuple>* rows) {
    std::vector<CompiledPred> preds;
    TB_ASSIGN_OR_RETURN(preds, CompilePreds(scan, sets_));
    const IndexInfo* index = db_->FindIndex(scan.index_name);
    PageTouchFn touch = [ctx](PageId id) { ctx->TouchPageRandom(id); };
    IndexKey prefix;
    for (const auto& part : scan.seek) prefix.push_back(part.literal);
    BTree::Iterator it =
        prefix.empty()
            ? index->btree->ScanAll([ctx](PageId id) { ctx->TouchPage(id); })
            : index->btree->SeekPrefix(prefix, touch);
    Tuple row;
    Rid rid;
    while (it.Next(scan.index_only ? row.mutable_values() : nullptr, &rid)) {
      ctx->ChargeTuples(1);
      TB_RETURN_IF_ERROR(ctx->CheckTimeout());
      if (!scan.index_only) {
        TB_RETURN_IF_ERROR(index->heap->FetchInto(rid, touch, &row));
        ctx->ChargeTuples(1);
      }
      if (std::all_of(preds.begin(), preds.end(),
                      [&](const CompiledPred& p) { return p.Eval(row); })) {
        rows->push_back(row);
      }
    }
    return ctx->CheckTimeout();
  }

  /// s rows the scan visits: all, or those with c2 = 4.
  static uint64_t Visited(bool seek) {
    uint64_t n = 0;
    for (const auto& r : ScanAll(*db_, "s")) {
      if (!seek || r.at(1).as_int() == 4) ++n;
    }
    return n;
  }
};

TEST_F(ExecIndexScanTest, IndexOnlyScanMatchesFetchWholeThenFilter) {
  const uint64_t never = uint64_t{1} << 40;
  for (bool seek : {false, true}) {
    SCOPED_TRACE(seek ? "seek" : "full walk");
    auto scan = ScanPlan("s_c2c1", /*index_only=*/true, seek);
    JoinRun got = Measure(never, [&](ExecContext* ctx, std::vector<Tuple>* r) {
      return RunOperator(*scan, ctx, r);
    });
    JoinRun want = Measure(never, [&](ExecContext* ctx, std::vector<Tuple>* r) {
      return RunScanReference(*scan, ctx, r);
    });
    ASSERT_TRUE(got.status.ok()) << got.status.ToString();
    ExpectSameRun(got, want);
    EXPECT_FALSE(got.rows.empty());
    for (const Tuple& row : got.rows) {
      EXPECT_EQ(row.at(0).as_int() % 2, 0);  // c2 IN {even}
      EXPECT_EQ(row.at(1).as_int(), 3);      // c1 = 3
    }
    EXPECT_EQ(got.tuples, Visited(seek));
    EXPECT_EQ(got.fetch_hits, 0u);
  }
}

TEST_F(ExecIndexScanTest, HeapScanMatchesFetchWholeThenFilter) {
  const uint64_t never = uint64_t{1} << 40;
  for (bool seek : {false, true}) {
    SCOPED_TRACE(seek ? "seek" : "full walk");
    auto scan = ScanPlan("s_c2", /*index_only=*/false, seek);
    JoinRun got = Measure(never, [&](ExecContext* ctx, std::vector<Tuple>* r) {
      return RunOperator(*scan, ctx, r);
    });
    JoinRun want = Measure(never, [&](ExecContext* ctx, std::vector<Tuple>* r) {
      return RunScanReference(*scan, ctx, r);
    });
    ASSERT_TRUE(got.status.ok()) << got.status.ToString();
    ExpectSameRun(got, want);
    EXPECT_FALSE(got.rows.empty());
    for (const Tuple& row : got.rows) {
      ASSERT_EQ(row.size(), 3u);
      EXPECT_EQ(row.at(1).as_int() % 2, 0);
      EXPECT_EQ(row.at(0).as_int(), 3);
      EXPECT_EQ(row.at(2).as_string().size(), 40u);  // decoded whole
    }
    const uint64_t visited = Visited(seek);
    EXPECT_EQ(got.tuples, 2 * visited);
    EXPECT_EQ(got.fetch_hits, visited);
  }
  // A fault on a fetch of an entry the residuals reject fails the scan
  // at the same point.
  auto scan = ScanPlan("s_c2", /*index_only=*/false, /*seek=*/false);
  JoinRun got = Measure(2, [&](ExecContext* ctx, std::vector<Tuple>* r) {
    return RunOperator(*scan, ctx, r);
  });
  JoinRun want = Measure(2, [&](ExecContext* ctx, std::vector<Tuple>* r) {
    return RunScanReference(*scan, ctx, r);
  });
  EXPECT_EQ(got.status.code(), Status::Code::kUnavailable);
  EXPECT_EQ(got.fetch_hits, 2u);
  ExpectSameRun(got, want);
}

// ---------------------------------------------------- seq scan exactness

/// The seq scan on ExecIndexNLJoinTest's table s under `c2 IN {even}`,
/// `c1 = 3` and a string literal on `pad`, each alone and all together.
class ExecSeqScanTest : public ExecIndexNLJoinTest {
 protected:
  static std::unique_ptr<PlanNode> ScanPlan(std::vector<ResidualPred> preds) {
    auto scan = std::make_unique<PlanNode>();
    scan->kind = PlanNode::Kind::kSeqScan;
    scan->object = "s";
    scan->output_cols = {{0, 0}, {0, 1}, {0, 2}};
    scan->residual = std::move(preds);
    return scan;
  }

  static ResidualPred InEven() {
    ResidualPred in;
    in.kind = ResidualPred::Kind::kInSet;
    in.a = {0, 1};
    in.in_set = 0;
    return in;
  }
  static ResidualPred Eq(int col, Value literal) {
    ResidualPred eq;
    eq.kind = ResidualPred::Kind::kColEqLit;
    eq.a = {0, col};
    eq.literal = std::move(literal);
    return eq;
  }

  /// Every residual combination the tests run.
  static std::vector<std::unique_ptr<PlanNode>> Plans() {
    const Value pad(std::string(40, 'e'));
    std::vector<std::unique_ptr<PlanNode>> plans;
    plans.push_back(ScanPlan({}));
    plans.push_back(ScanPlan({InEven()}));
    plans.push_back(ScanPlan({Eq(0, Value(int64_t{3}))}));
    plans.push_back(ScanPlan({Eq(2, pad)}));
    plans.push_back(ScanPlan({InEven(), Eq(0, Value(int64_t{3})), Eq(2, pad)}));
    return plans;
  }

  /// The scan as a plain loop: every row is decoded whole, charged, and
  /// then filtered.
  static Status RunScanReference(const PlanNode& scan, ExecContext* ctx,
                                 std::vector<Tuple>* rows) {
    std::vector<CompiledPred> preds;
    TB_ASSIGN_OR_RETURN(preds, CompilePreds(scan, sets_));
    auto cursor =
        db_->FindHeap(scan.object)->Scan([ctx](PageId id) { ctx->TouchPage(id); });
    Tuple row;
    while (cursor.Next(&row, nullptr)) {
      ctx->ChargeTuples(1);
      TB_RETURN_IF_ERROR(ctx->CheckTimeout());
      if (std::all_of(preds.begin(), preds.end(),
                      [&](const CompiledPred& p) { return p.Eval(row); })) {
        rows->push_back(row);
      }
    }
    return ctx->CheckTimeout();
  }

  /// Operator and reference runs of every plan, with `point` armed at its
  /// `nth` hit and `cost` as parameters; returns the operator runs.
  static std::vector<JoinRun> ExpectAllMatch(const std::string& point,
                                             uint64_t nth,
                                             const CostParams& cost) {
    std::vector<JoinRun> runs;
    for (const auto& scan : Plans()) {
      SCOPED_TRACE(scan->ToString());
      // A scope, so a latched storage.heap_scan trigger surfaces.
      JoinRun got = MeasureWith(point, nth, cost,
                                [&](ExecContext* ctx, std::vector<Tuple>* r) {
                                  FaultScope scope(7);
                                  return RunOperator(*scan, ctx, r);
                                });
      JoinRun want = MeasureWith(point, nth, cost,
                                 [&](ExecContext* ctx, std::vector<Tuple>* r) {
                                   FaultScope scope(7);
                                   return RunScanReference(*scan, ctx, r);
                                 });
      ExpectSameRun(got, want);
      runs.push_back(std::move(got));
    }
    return runs;
  }
};

TEST_F(ExecSeqScanTest, ScanMatchesDecodeWholeThenFilter) {
  const uint64_t never = uint64_t{1} << 40;
  // A seq scan never fetches: an armed storage.heap_fetch is never hit.
  std::vector<JoinRun> runs =
      ExpectAllMatch("storage.heap_fetch", never, db_->options().cost);
  const uint64_t rows = ScanAll(*db_, "s").size();
  for (size_t i = 0; i < runs.size(); ++i) {
    SCOPED_TRACE(i);
    ASSERT_TRUE(runs[i].status.ok()) << runs[i].status.ToString();
    EXPECT_EQ(runs[i].tuples, rows);
    EXPECT_EQ(runs[i].fetch_hits, 0u);
    EXPECT_FALSE(runs[i].rows.empty());
    for (const Tuple& row : runs[i].rows) ASSERT_EQ(row.size(), 3u);
  }
  EXPECT_EQ(runs[0].rows.size(), rows);
  EXPECT_EQ(runs[1].rows.size(), rows / 2);  // c2 is even on even rows
  for (const Tuple& row : runs[2].rows) EXPECT_EQ(row.at(0).as_int(), 3);
  for (const Tuple& row : runs[3].rows) {
    EXPECT_EQ(row.at(2).as_string(), std::string(40, 'e'));  // decoded whole
  }
  for (const Tuple& row : runs[4].rows) {
    EXPECT_EQ(row.at(1).as_int() % 2, 0);
    EXPECT_EQ(row.at(0).as_int(), 3);
    EXPECT_EQ(row.at(2).as_string(), std::string(40, 'e'));
  }
}

TEST_F(ExecSeqScanTest, MidScanTimeoutStopsAtTheSameRow) {
  const uint64_t never = uint64_t{1} << 40;
  std::vector<JoinRun> full =
      ExpectAllMatch("storage.heap_fetch", never, db_->options().cost);
  CostParams cost = db_->options().cost;
  cost.timeout_seconds = full.back().sim_seconds / 2;
  std::vector<JoinRun> cut = ExpectAllMatch("storage.heap_fetch", never, cost);
  for (size_t i = 0; i < cut.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(cut[i].status.code(), Status::Code::kTimeout);
    EXPECT_GT(cut[i].tuples, 0u);
    EXPECT_LT(cut[i].tuples, full[i].tuples);
  }
}

TEST_F(ExecSeqScanTest, FaultedPageFailsTheScanAtTheSameRow) {
  // The trigger latches on the third page; the scan surfaces it at its
  // next timeout check, among rows the residuals reject.
  std::vector<JoinRun> runs =
      ExpectAllMatch("storage.heap_scan", 3, db_->options().cost);
  const uint64_t rows = ScanAll(*db_, "s").size();
  for (size_t i = 0; i < runs.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(runs[i].status.code(), Status::Code::kUnavailable);
    EXPECT_GE(runs[i].fetch_hits, 3u);
    EXPECT_GT(runs[i].tuples, 0u);
    EXPECT_LT(runs[i].tuples, rows);
  }
}

}  // namespace
}  // namespace tabbench
