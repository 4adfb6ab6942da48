// google-benchmark microbenchmarks of the engine's hot paths: B+-tree
// probes and inserts, tuple codec, buffer-pool bookkeeping, and end-to-end
// planning/execution on a small database. These guard the wall-clock cost
// of the simulation itself (the figure benches run hundreds of queries).

#include <benchmark/benchmark.h>

#include "engine/database.h"
#include "optimizer/planner.h"
#include "sql/binder.h"
#include "storage/btree.h"
#include "storage/buffer_pool.h"
#include "storage/tuple_codec.h"
#include "util/rng.h"

namespace tabbench {
namespace {

void BM_BTreeInsert(benchmark::State& state) {
  PageStore store;
  BTree tree("ix", 1, 8, &store);
  Rng rng(1);
  uint32_t i = 0;
  for (auto _ : state) {
    Status s = tree.Insert({Value(static_cast<int64_t>(rng.Uniform(1 << 20)))},
                           Rid{i++, 0}, nullptr);
    if (!s.ok()) state.SkipWithError(s.message().c_str());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BTreeInsert);

void BM_BTreeSeek(benchmark::State& state) {
  PageStore store;
  BTree tree("ix", 1, 8, &store);
  std::vector<std::pair<IndexKey, Rid>> entries;
  const int64_t n = state.range(0);
  for (int64_t i = 0; i < n; ++i) {
    entries.emplace_back(IndexKey{Value(i)},
                         Rid{static_cast<uint32_t>(i), 0});
  }
  tree.BulkBuild(std::move(entries));
  Rng rng(2);
  for (auto _ : state) {
    IndexKey key{Value(static_cast<int64_t>(rng.Uniform(
        static_cast<uint64_t>(n))))};
    auto it = tree.SeekPrefix(key, nullptr);
    IndexKey k;
    Rid r;
    benchmark::DoNotOptimize(it.Next(&k, &r));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BTreeSeek)->Arg(1000)->Arg(100000)->Arg(1000000);

void BM_TupleCodecRoundTrip(benchmark::State& state) {
  TupleCodec codec({TypeId::kInt, TypeId::kInt, TypeId::kString,
                    TypeId::kDouble});
  Tuple t({Value(int64_t{123456}), Value(int64_t{-1}),
           Value(std::string("some medium length payload")), Value(2.5)});
  std::vector<uint8_t> buf;
  for (auto _ : state) {
    buf.clear();
    codec.Encode(t, &buf);
    size_t off = 0;
    Tuple back = codec.Decode(buf.data(), &off);
    benchmark::DoNotOptimize(back);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TupleCodecRoundTrip);

void BM_BufferPoolTouch(benchmark::State& state) {
  BufferPool pool(1024);
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pool.Touch(rng.Uniform(4096)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BufferPoolTouch);

/// Shared small database for the end-to-end benchmarks.
Database* SharedDb() {
  static Database* db = [] {
    // Deliberately leaked: function-local static shared by all benchmarks,
    // alive until process exit (destruction order vs. benchmark teardown
    // is unspecified). NOLINT(tabbench-naked-new)
    auto* d = new Database();  // NOLINT(tabbench-naked-new)
    TableDef t;
    t.name = "t";
    t.columns = {{"a", TypeId::kInt, "d1", true, 8},
                 {"b", TypeId::kInt, "d2", true, 8},
                 {"c", TypeId::kString, "d3", true, 12}};
    t.primary_key = {"a"};
    (void)d->CreateTable(t);
    Rng rng(4);
    for (int64_t i = 0; i < 20000; ++i) {
      (void)d->Insert(
          "t", Tuple({Value(i), Value(static_cast<int64_t>(rng.Uniform(100))),
                      Value("s" + std::to_string(rng.Uniform(500)))}));
    }
    (void)d->FinishLoad();
    return d;
  }();
  return db;
}

void BM_ParseBindPlan(benchmark::State& state) {
  Database* db = SharedDb();
  const std::string sql =
      "SELECT t.b, COUNT(*) FROM t WHERE t.c = 's17' GROUP BY t.b";
  for (auto _ : state) {
    auto plan = db->Plan(sql);
    benchmark::DoNotOptimize(plan);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ParseBindPlan);

void BM_ExecuteAggregate(benchmark::State& state) {
  Database* db = SharedDb();
  const std::string sql =
      "SELECT t.b, COUNT(*) FROM t WHERE t.c = 's17' GROUP BY t.b";
  for (auto _ : state) {
    auto res = db->Run(sql);
    benchmark::DoNotOptimize(res);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ExecuteAggregate);

}  // namespace
}  // namespace tabbench

BENCHMARK_MAIN();
