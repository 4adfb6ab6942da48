// Allocation contract of the planner's per-call arena: EstimateCost of a
// prepared query draws every container of its search from a fixed stack
// buffer, so it makes no heap allocation on any NREF2J, NREF3J or SkTH3J
// query, on P, on 1C and on a System C recommendation with views; nor does
// Database::Estimate once the text's preparation is memoized. A query that
// outgrows the buffer spills to the heap and still costs bit-equal to
// PlanQuery. On the executor's side, a warm seq scan that an IN-set rejects
// row by row allocates nothing.
//
// This file replaces the global operator new with one that counts the
// calling thread's allocations, which is why the suite has its own binary.
// NOLINTFILE(tabbench-naked-new): it defines operator new and delete.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "core/nref_families.h"
#include "core/tpch_families.h"
#include "exec/in_set.h"
#include "exec/operators.h"
#include "optimizer/planner.h"
#include "test_util.h"
#include "util/strings.h"

namespace {
thread_local std::size_t t_heap_allocations = 0;

void* CountedAlloc(std::size_t n, std::size_t align) {
  ++t_heap_allocations;
  if (n == 0) n = 1;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(n)
                : std::aligned_alloc(align, (n + align - 1) / align * align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

// The array and nothrow forms forward to these two in libstdc++.
void* operator new(std::size_t n) {
  return CountedAlloc(n, alignof(std::max_align_t));
}
void* operator new(std::size_t n, std::align_val_t al) {
  return CountedAlloc(n, static_cast<std::size_t>(al));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace tabbench {
namespace {

uint64_t Bits(double d) {
  uint64_t u;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

class PlannerArenaTest : public ::testing::Test {
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

  /// The database families_[i] was bound on.
  static const Database& DbOf(size_t i) { return i < 2 ? *nref_ : *tpch_; }

  static std::unique_ptr<Database> nref_, tpch_;
  static std::vector<testing::PlannerFamily> families_;
};

std::unique_ptr<Database> PlannerArenaTest::nref_;
std::unique_ptr<Database> PlannerArenaTest::tpch_;
std::vector<testing::PlannerFamily> PlannerArenaTest::families_;

TEST_F(PlannerArenaTest, EstimateCostMakesNoHeapAllocation) {
  size_t checked = 0, with_views = 0;
  for (const testing::PlannerFamily& f : families_) {
    const std::pair<const char*, const ConfigView*> configs[] = {
        {"P", &f.p}, {"1C", &f.one_c}, {"C", &f.system_c}};
    for (const auto& [config, view] : configs) {
      if (!view->views.empty()) ++with_views;
      for (size_t i = 0; i < f.bound.size(); ++i) {
        Result<PreparedQuery> pq =
            PrepareQuery(f.bound[i], *view->catalog, *view->stats);
        ASSERT_TRUE(pq.ok()) << f.name << " " << config << " q" << i;
        const size_t before = t_heap_allocations;
        Result<double> cost = EstimateCost(*pq, *view);
        const size_t allocations = t_heap_allocations - before;
        ASSERT_TRUE(cost.ok()) << f.name << " " << config << " q" << i;
        EXPECT_EQ(allocations, 0u)
            << f.name << " " << config << " q" << i << ": " << f.sql[i];
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 1000u);
  // The view partitions must be searched too.
  EXPECT_GT(with_views, 0u);

  // A memo hit: the second Database::Estimate of a text allocates nothing
  // (both databases are on P).
  size_t hits = 0;
  for (size_t fi = 0; fi < families_.size(); ++fi) {
    const testing::PlannerFamily& f = families_[fi];
    for (size_t i = 0; i < f.sql.size(); ++i) {
      Result<double> first = DbOf(fi).Estimate(f.sql[i]);
      ASSERT_TRUE(first.ok()) << f.name << " q" << i;
      const size_t before = t_heap_allocations;
      Result<double> cost = DbOf(fi).Estimate(f.sql[i]);
      const size_t allocations = t_heap_allocations - before;
      ASSERT_TRUE(cost.ok()) << f.name << " q" << i;
      EXPECT_EQ(Bits(*cost), Bits(*first)) << f.name << " q" << i;
      EXPECT_EQ(allocations, 0u) << f.name << " q" << i << ": " << f.sql[i];
      ++hits;
    }
  }
  EXPECT_GT(hits, 300u);
}

// Seven relation occurrences under 1C: protein joined to a chain of six
// neighboring_seq occurrences, each with literal filters on four indexed
// columns. Every unit carries an index per indexable column and a seek
// path per filtered one, so the search outgrows the stack buffer and the
// arena falls back to the heap.
TEST_F(PlannerArenaTest, OversizedQuerySpillsToTheHeapAndStaysExact) {
  const testing::PlannerFamily& nref2j = families_[0];
  std::string from = "SELECT p.length, COUNT(*) FROM protein p";
  std::string where = " WHERE p.nref_id = n1.nref_id_1";
  for (int k = 1; k <= 6; ++k) {
    from += StrFormat(", neighboring_seq n%d", k);
    if (k > 1) {
      where += StrFormat(" AND n%d.nref_id_2 = n%d.nref_id_1", k - 1, k);
    }
    where += StrFormat(
        " AND n%d.taxon_id_2 = 7 AND n%d.length_2 = 90 AND n%d.ordinal = 2"
        " AND n%d.overlap_length = 50",
        k, k, k, k);
  }
  Result<BoundQuery> bound =
      ParseAndBind(from + where + " GROUP BY p.length", nref_->catalog());
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  const BoundQuery& q = *bound;
  const size_t before = t_heap_allocations;
  Result<double> cost = EstimateCost(q, nref2j.one_c);
  const size_t allocations = t_heap_allocations - before;
  ASSERT_TRUE(cost.ok()) << cost.status().ToString();
  EXPECT_GT(allocations, 0u);

  Result<PhysicalPlan> plan = PlanQuery(q, nref2j.one_c);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(Bits(*cost), Bits(plan->est_cost));
}

// The executor's side of the contract: a warm seq scan whose residual is a
// STRING IN-set that rejects every row tests each row on its page bytes
// (CompiledPred::EvalEncoded), so it allocates nothing per row: no decode,
// string copy or hash-set node.
TEST_F(PlannerArenaTest, RejectingStringInSetScanMakesNoHeapAllocation) {
  const Database& db = *nref_;
  const HeapTable* heap = db.FindHeap("source");
  ASSERT_NE(heap, nullptr);
  ASSERT_GT(heap->num_rows(), 100u);
  const size_t p_name = 4;
  ASSERT_EQ(heap->codec().types()[p_name], TypeId::kString);
  PlanNode scan;
  scan.kind = PlanNode::Kind::kSeqScan;
  scan.object = "source";
  for (size_t i = 0; i < heap->codec().types().size(); ++i) {
    scan.output_cols.push_back({0, static_cast<int>(i)});
  }
  ResidualPred in;
  in.kind = ResidualPred::Kind::kInSet;
  in.a = {0, static_cast<int>(p_name)};
  in.in_set = 0;
  scan.residual = {in};
  auto names = std::make_shared<FlatInSet>();
  names->Insert(Value(std::string("no protein is called this")));
  names->Insert(Value(std::string()));
  const InSets sets = {names};

  BufferPool pool(heap->num_pages() + 8);
  ExecContext ctx = db.MakeSessionContext(&pool, db.options().cost);
  // Allocations made by one whole scan's Next calls.
  auto scan_allocations = [&]() -> size_t {
    Result<std::unique_ptr<Operator>> op = BuildOperator(scan, db, sets, &ctx);
    EXPECT_TRUE(op.ok()) << op.status().ToString();
    if (!op.ok()) return 0;
    EXPECT_TRUE((*op)->Open().ok());
    Tuple out;
    const size_t before = t_heap_allocations;
    Result<bool> more = (*op)->Next(&out);
    const size_t allocations = t_heap_allocations - before;
    EXPECT_TRUE(more.ok()) << more.status().ToString();
    EXPECT_FALSE(more.ok() && *more) << "a row passed";
    return allocations;
  };
  scan_allocations();  // warms the pool
  EXPECT_EQ(scan_allocations(), 0u);
  EXPECT_EQ(ctx.tuples_processed(), 2 * heap->num_rows());
}

}  // namespace
}  // namespace tabbench
