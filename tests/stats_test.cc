#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "stats/column_stats.h"
#include "stats/histogram.h"
#include "stats/table_stats.h"
#include "storage/abbrev_sort.h"
#include "storage/heap_table.h"
#include "storage/page_store.h"
#include "storage/stats_collector.h"
#include "util/rng.h"
#include "util/zipf.h"

namespace tabbench {
namespace {

std::vector<Value> IntValues(std::vector<int64_t> xs) {
  std::vector<Value> out;
  for (auto x : xs) out.emplace_back(x);
  return out;
}

/// The runs of sorted values, split where Value::operator!= does.
std::vector<std::pair<Value, uint64_t>> Runs(const std::vector<Value>& sorted) {
  std::vector<std::pair<Value, uint64_t>> runs;
  for (const Value& v : sorted) {
    if (runs.empty() || runs.back().first != v) {
      runs.emplace_back(v, 1);
    } else {
      ++runs.back().second;
    }
  }
  return runs;
}

// ------------------------------------------------------------- Histogram

TEST(HistogramTest, EmptyInput) {
  EquiDepthHistogram h = EquiDepthHistogram::Build({}, 8);
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.EstimateEqRows(Value(int64_t{1})), 0.0);
}

TEST(HistogramTest, SingleValue) {
  auto h = EquiDepthHistogram::Build(Runs(IntValues({5, 5, 5, 5})), 4);
  EXPECT_EQ(h.total_rows(), 4u);
  EXPECT_DOUBLE_EQ(h.EstimateEqRows(Value(int64_t{5})), 4.0);
}

TEST(HistogramTest, BucketsCoverAllRows) {
  std::vector<Value> vals;
  for (int64_t i = 0; i < 1000; ++i) vals.emplace_back(i % 97);
  std::sort(vals.begin(), vals.end());
  auto h = EquiDepthHistogram::Build(Runs(vals), 16);
  uint64_t total = 0;
  for (const auto& b : h.buckets()) total += b.rows;
  EXPECT_EQ(total, 1000u);
}

TEST(HistogramTest, ValueNeverStraddlesBuckets) {
  // 10 copies each of 50 values: bucket boundaries must fall between values.
  std::vector<Value> vals;
  for (int64_t v = 0; v < 50; ++v) {
    for (int k = 0; k < 10; ++k) vals.emplace_back(v);
  }
  auto h = EquiDepthHistogram::Build(Runs(vals), 7);
  for (size_t i = 1; i < h.buckets().size(); ++i) {
    EXPECT_LT(h.buckets()[i - 1].upper, h.buckets()[i].upper);
  }
  // Each estimate should be ~10 (exact when distinct counts are right).
  for (int64_t v = 0; v < 50; v += 7) {
    EXPECT_NEAR(h.EstimateEqRows(Value(v)), 10.0, 5.0);
  }
}

TEST(HistogramTest, AboveMaxEstimatesZero) {
  auto h = EquiDepthHistogram::Build(Runs(IntValues({1, 2, 3})), 2);
  EXPECT_EQ(h.EstimateEqRows(Value(int64_t{99})), 0.0);
}

TEST(HistogramTest, LeEstimateMonotone) {
  std::vector<Value> vals;
  Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    vals.emplace_back(static_cast<int64_t>(rng.Uniform(1000)));
  }
  std::sort(vals.begin(), vals.end());
  auto h = EquiDepthHistogram::Build(Runs(vals), 10);
  double prev = -1;
  for (int64_t x = 0; x <= 1000; x += 100) {
    double est = h.EstimateLeRows(Value(x));
    EXPECT_GE(est, prev - 1e9 * 0);  // non-strict monotonicity
    EXPECT_GE(est, 0.0);
    EXPECT_LE(est, 500.0);
    prev = est;
  }
}

TEST(HistogramTest, EqualAdjacentRunsCountAsOneValue) {
  // -0.0 and 0.0 compare equal: as runs they are one value, which no bucket
  // boundary splits, exactly as in the expanded column.
  const std::vector<std::pair<Value, uint64_t>> runs = {
      {Value(-1.5), 2}, {Value(-0.0), 3}, {Value(0.0), 2}, {Value(1.5), 1}};
  auto h = EquiDepthHistogram::Build(runs, 2);
  ASSERT_EQ(h.num_buckets(), 2u);
  EXPECT_EQ(h.total_rows(), 8u);
  EXPECT_EQ(h.buckets()[0].rows, 7u);
  EXPECT_EQ(h.buckets()[0].distinct, 2u);
  EXPECT_EQ(h.buckets()[1].rows, 1u);
  EXPECT_DOUBLE_EQ(h.EstimateEqRows(Value(-0.0)), 3.5);
  EXPECT_DOUBLE_EQ(h.EstimateEqRows(Value(0.0)), 3.5);
}

class HistogramBucketSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(HistogramBucketSweep, EstimatesSumApproxTotal) {
  size_t buckets = GetParam();
  std::vector<Value> vals;
  Rng rng(buckets);
  for (int i = 0; i < 2000; ++i) {
    vals.emplace_back(static_cast<int64_t>(rng.Uniform(200)));
  }
  std::sort(vals.begin(), vals.end());
  auto h = EquiDepthHistogram::Build(Runs(vals), buckets);
  // Summing the equality estimate over every distinct value should land
  // near the true row count (property of depth/distinct bookkeeping).
  double sum = 0;
  for (int64_t v = 0; v < 200; ++v) sum += h.EstimateEqRows(Value(v));
  EXPECT_NEAR(sum, 2000.0, 2000.0 * 0.25);
}

INSTANTIATE_TEST_SUITE_P(Buckets, HistogramBucketSweep,
                         ::testing::Values(1, 4, 16, 64, 256));

// ----------------------------------------------------------- ColumnStats

ColumnStats MakeStats(const std::vector<int64_t>& data) {
  // Route through the real collector via a heap table.
  PageStore store;
  HeapTable heap("t", TupleCodec({TypeId::kInt}), &store);
  for (int64_t v : data) heap.Append(Tuple({Value(v)}));
  TableStats ts = CollectTableStats(heap, {"c"});
  return ts.columns.at("c");
}

TEST(ColumnStatsTest, BasicCounts) {
  ColumnStats cs = MakeStats({1, 1, 2, 3, 3, 3});
  EXPECT_EQ(cs.row_count, 6u);
  EXPECT_EQ(cs.num_distinct, 3u);
  EXPECT_EQ(cs.min, Value(int64_t{1}));
  EXPECT_EQ(cs.max, Value(int64_t{3}));
}

TEST(ColumnStatsTest, McvsAreExact) {
  ColumnStats cs = MakeStats({7, 7, 7, 7, 8, 8, 9});
  EXPECT_DOUBLE_EQ(cs.EstimateEqRows(Value(int64_t{7})), 4.0);
  EXPECT_DOUBLE_EQ(cs.EstimateEqRows(Value(int64_t{8})), 2.0);
}

TEST(ColumnStatsTest, NullCounting) {
  PageStore store;
  HeapTable heap("t", TupleCodec({TypeId::kInt}), &store);
  heap.Append(Tuple({Value(int64_t{1})}));
  heap.Append(Tuple({Value()}));
  heap.Append(Tuple({Value()}));
  TableStats ts = CollectTableStats(heap, {"c"});
  EXPECT_EQ(ts.columns.at("c").null_count, 2u);
  EXPECT_EQ(ts.columns.at("c").num_distinct, 1u);
}

TEST(ColumnStatsTest, FreqOfFreq) {
  // Frequencies: value 1 x3, value 2 x3, value 3 x1.
  ColumnStats cs = MakeStats({1, 1, 1, 2, 2, 2, 3});
  // freq 1 -> one distinct value; freq 3 -> two distinct values.
  EXPECT_EQ(cs.DistinctWithFreqEq(1), 1u);
  EXPECT_EQ(cs.DistinctWithFreqEq(3), 2u);
  EXPECT_EQ(cs.DistinctWithFreqLess(3), 1u);
  EXPECT_DOUBLE_EQ(cs.FracRowsValueFreqLess(2), 1.0 / 7.0);
  EXPECT_DOUBLE_EQ(cs.FracRowsValueFreqEq(3), 6.0 / 7.0);
}

TEST(ColumnStatsTest, FreqExamplesHaveStatedFrequencies) {
  std::vector<int64_t> data;
  for (int64_t v = 0; v < 10; ++v) {
    for (int64_t k = 0; k <= v; ++k) data.push_back(v);
  }
  ColumnStats cs = MakeStats(data);
  for (const auto& [f, v] : cs.freq_examples) {
    // Value v occurs exactly f times by construction (value x occurs x+1
    // times).
    EXPECT_EQ(static_cast<uint64_t>(v.as_int()) + 1, f);
  }
}

TEST(ColumnStatsTest, ExampleWithFreqNearPicksClosest) {
  std::vector<int64_t> data;
  for (int64_t v = 0; v < 8; ++v) {
    int64_t reps = int64_t{1} << v;  // freq 1,2,4,...,128
    for (int64_t k = 0; k < reps; ++k) data.push_back(v);
  }
  ColumnStats cs = MakeStats(data);
  uint64_t f = 0;
  Value v = cs.ExampleWithFreqNear(120, &f);
  EXPECT_EQ(f, 128u);
  EXPECT_EQ(v, Value(int64_t{7}));
}

TEST(ColumnStatsTest, AvgFreq) {
  ColumnStats cs = MakeStats({1, 1, 2, 2, 3, 3});
  EXPECT_DOUBLE_EQ(cs.AvgFreq(), 2.0);
}

TEST(DatabaseStatsTest, Lookup) {
  DatabaseStats s;
  s.tables["t"].row_count = 10;
  s.tables["t"].columns["c"].row_count = 10;
  EXPECT_NE(s.FindTable("t"), nullptr);
  EXPECT_EQ(s.FindTable("u"), nullptr);
  EXPECT_NE(s.FindColumn("t", "c"), nullptr);
  EXPECT_EQ(s.FindColumn("t", "d"), nullptr);
  EXPECT_EQ(s.FindColumn("u", "c"), nullptr);
}

TEST(StatsCollectorTest, PagesAndWidths) {
  PageStore store;
  HeapTable heap("t", TupleCodec({TypeId::kInt, TypeId::kString}), &store);
  for (int i = 0; i < 1000; ++i) {
    heap.Append(Tuple({Value(int64_t{i}), Value(std::string(50, 'x'))}));
  }
  TableStats ts = CollectTableStats(heap, {"a", "b"});
  EXPECT_EQ(ts.row_count, 1000u);
  EXPECT_GT(ts.pages, 1u);
  EXPECT_GT(ts.avg_row_bytes, 50.0);
  EXPECT_EQ(ts.columns.size(), 2u);
}

TEST(StatsCollectorTest, ZipfColumnHasWideFreqSpread) {
  PageStore store;
  HeapTable heap("t", TupleCodec({TypeId::kInt}), &store);
  Rng rng(17);
  ZipfSampler zipf(500, 1.0);
  for (int i = 0; i < 20000; ++i) {
    heap.Append(Tuple({Value(static_cast<int64_t>(zipf.Sample(&rng)))}));
  }
  TableStats ts = CollectTableStats(heap, {"c"});
  const ColumnStats& cs = ts.columns.at("c");
  ASSERT_FALSE(cs.freq_examples.empty());
  uint64_t min_f = cs.freq_examples.front().first;
  uint64_t max_f = cs.freq_examples.back().first;
  EXPECT_GE(max_f, min_f * 100) << "zipf(1) should span 2+ orders";
}

// ------------------------------------------------------- abbreviated sort

/// One column's edge values per type, duplicated, with NULLs, shuffled.
std::vector<std::vector<Value>> EdgeColumns() {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<std::vector<Value>> cols(3);
  for (int64_t v : {std::numeric_limits<int64_t>::min(),
                    std::numeric_limits<int64_t>::max(), int64_t{0},
                    int64_t{-1}, int64_t{1}, int64_t{1} << 40}) {
    cols[0].emplace_back(v);
  }
  for (double v : {0.0, -0.0, inf, -inf, 1.5, -1.5,
                   std::numeric_limits<double>::denorm_min(),
                   std::numeric_limits<double>::lowest(),
                   std::numeric_limits<double>::max()}) {
    cols[1].emplace_back(v);
  }
  using namespace std::string_literals;
  for (const std::string& v :
       {""s, "a"s, "a\0"s, "a\0\0"s, "abcdefgh"s, "abcdefgh\0"s,
        "abcdefghi"s, "abcdefghij"s, "abcdefgg"s, "abcdefgh\xff"s,
        "\xff"s, "abcdefg\0"s, "abcdefg"s}) {
    cols[2].emplace_back(v);
  }
  Rng rng(7);
  for (auto& c : cols) {
    const size_t n = c.size();
    for (size_t i = 0; i < 3 * n; ++i) c.push_back(c[rng.Uniform(n)]);
    for (int i = 0; i < 4; ++i) c.emplace_back();  // NULL
    rng.Shuffle(&c);
  }
  return cols;
}

TEST(AbbrevSortTest, OrdersEdgeValuesAsStdSortAndKeepsInputOrderOnTies) {
  for (const std::vector<Value>& values : EdgeColumns()) {
    std::vector<Value> want = values;
    std::sort(want.begin(), want.end());
    std::vector<AbbrevEntry> order;
    for (size_t i = 0; i < values.size(); ++i) {
      order.push_back(Abbreviate(values[i], i));
    }
    SortAbbreviated(&order, [&values](uint32_t a, uint32_t b) {
      return values[a].Compare(values[b]);
    });
    ASSERT_EQ(order.size(), want.size());
    for (size_t i = 0; i < order.size(); ++i) {
      EXPECT_EQ(values[order[i].pos].Compare(want[i]), 0)
          << "rank " << i << ": " << values[order[i].pos].ToString()
          << " vs " << want[i].ToString();
      if (i > 0 && values[order[i - 1].pos].Compare(values[order[i].pos]) == 0) {
        EXPECT_LT(order[i - 1].pos, order[i].pos) << "rank " << i;
      }
    }
  }
}

TEST(StatsCollectorTest, ColumnStatsMatchAStdSortReference) {
  const std::vector<std::vector<Value>> cols = EdgeColumns();
  const TypeId types[] = {TypeId::kInt, TypeId::kDouble, TypeId::kString};
  for (size_t c = 0; c < cols.size(); ++c) {
    SCOPED_TRACE(TypeName(types[c]));
    PageStore store;
    HeapTable heap("t", TupleCodec({types[c]}), &store);
    for (const Value& v : cols[c]) heap.Append(Tuple({v}));
    const ColumnStats cs = CollectTableStats(heap, {"c"}).columns.at("c");

    // The reference: std::sort, then runs of Compare-equal values.
    std::vector<Value> sorted;
    uint64_t nulls = 0;
    for (const Value& v : cols[c]) {
      if (v.is_null()) {
        ++nulls;
      } else {
        sorted.push_back(v);
      }
    }
    std::sort(sorted.begin(), sorted.end());
    std::vector<std::pair<Value, uint64_t>> runs;
    for (const Value& v : sorted) {
      if (!runs.empty() && runs.back().first.Compare(v) == 0) {
        ++runs.back().second;
      } else {
        runs.emplace_back(v, 1);
      }
    }
    std::map<uint64_t, uint64_t> fof;
    for (const auto& [v, f] : runs) ++fof[f];

    EXPECT_EQ(cs.row_count, cols[c].size());
    EXPECT_EQ(cs.null_count, nulls);
    EXPECT_EQ(cs.num_distinct, runs.size());
    EXPECT_EQ(cs.min.Compare(sorted.front()), 0);
    EXPECT_EQ(cs.max.Compare(sorted.back()), 0);
    EXPECT_EQ(cs.freq_of_freq,
              (std::vector<std::pair<uint64_t, uint64_t>>(fof.begin(),
                                                          fof.end())));
    for (const auto& [v, f] : cs.mcvs) {
      auto it = std::find_if(runs.begin(), runs.end(), [&v = v](const auto& r) {
        return r.first.Compare(v) == 0;
      });
      ASSERT_NE(it, runs.end()) << v.ToString();
      EXPECT_EQ(f, it->second) << v.ToString();
    }
  }
}

// The histogram is built from the non-MCV runs; it must equal an
// element-by-element build over the expanded, sorted non-MCV values, with
// -0.0 and 0.0 as one value.
TEST(StatsCollectorTest, HistogramMatchesAnExpandedBuild) {
  std::vector<Value> col;
  for (int i = 1; i <= 40; ++i) {
    for (int k = 0; k < 8; ++k) col.emplace_back(0.25 * i);
  }
  for (int i = 1; i <= 20; ++i) {
    for (int k = 0; k < 2; ++k) col.emplace_back(-0.25 * i);
  }
  for (int k = 0; k < 3; ++k) {
    col.emplace_back(-0.0);
    col.emplace_back(0.0);
  }
  Rng rng(5);
  rng.Shuffle(&col);
  PageStore store;
  HeapTable heap("t", TupleCodec({TypeId::kDouble}), &store);
  for (const Value& v : col) heap.Append(Tuple({v}));
  const ColumnStats cs = CollectTableStats(heap, {"c"}).columns.at("c");

  std::vector<Value> rest;
  for (const Value& v : col) {
    const bool mcv = std::any_of(cs.mcvs.begin(), cs.mcvs.end(),
                                 [&v](const auto& m) { return m.first == v; });
    if (!mcv) rest.push_back(v);
  }
  std::sort(rest.begin(), rest.end());
  const size_t n = rest.size();
  const size_t buckets = std::min<size_t>(64, n);
  const size_t target = (n + buckets - 1) / buckets;
  std::vector<EquiDepthHistogram::Bucket> want;
  uint64_t rows = 0;
  uint64_t distinct = 0;
  for (size_t i = 0; i < n; ++i) {
    if (i == 0 || rest[i] != rest[i - 1]) ++distinct;
    ++rows;
    const bool last = i + 1 == n;
    if ((last || rest[i + 1] != rest[i]) && (rows >= target || last)) {
      want.push_back(EquiDepthHistogram::Bucket{rest[i], rows, distinct});
      rows = 0;
      distinct = 0;
    }
  }
  EXPECT_EQ(cs.histogram.total_rows(), n);
  ASSERT_EQ(cs.histogram.num_buckets(), want.size());
  for (size_t k = 0; k < want.size(); ++k) {
    const EquiDepthHistogram::Bucket& got = cs.histogram.buckets()[k];
    EXPECT_EQ(got.upper.Compare(want[k].upper), 0) << k;
    EXPECT_EQ(got.rows, want[k].rows) << k;
    EXPECT_EQ(got.distinct, want[k].distinct) << k;
  }
}

}  // namespace
}  // namespace tabbench
