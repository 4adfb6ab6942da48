// The concurrency suite: the thread pool, the B-tree stats cache and the
// IN-set memo under concurrent readers, and the parallel workload runner's
// bit-identity with the serial runner. Its own binary gives
// `ctest -L concurrency` (also run under TABBENCH_SANITIZE=thread in CI) a
// precise target.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/configurations.h"
#include "core/nref_families.h"
#include "core/runner.h"
#include "core/sampling.h"
#include "exec/in_set.h"
#include "optimizer/planner.h"
#include "storage/btree.h"
#include "storage/page_store.h"
#include "test_util.h"
#include "util/thread_pool.h"

namespace tabbench {
namespace {

// ---------------------------------------------------------------- ThreadPool

TEST(ThreadPoolTest, RunsSubmittedJobs) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    TB_ASSERT_OK(pool.Submit([&count] { ++count; }));
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
  EXPECT_EQ(pool.completed(), 100u);
}

TEST(ThreadPoolTest, WaitLeavesPoolUsable) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  TB_ASSERT_OK(pool.Submit([&count] { ++count; }));
  pool.Wait();
  TB_ASSERT_OK(pool.Submit([&count] { ++count; }));
  pool.Wait();
  EXPECT_EQ(count.load(), 2);
}

TEST(ThreadPoolTest, ShutdownDrainsAcceptedJobsThenRejects) {
  std::atomic<int> count{0};
  ThreadPool pool(2);
  for (int i = 0; i < 50; ++i) {
    TB_ASSERT_OK(pool.Submit([&count] { ++count; }));
  }
  pool.Shutdown();
  EXPECT_EQ(count.load(), 50);  // every accepted job ran
  EXPECT_TRUE(pool.Submit([] {}).IsUnavailable());
  pool.Shutdown();  // idempotent
}

TEST(ThreadPoolTest, NumWorkersStableWhileShutdownJoins) {
  // Regression test: num_workers() used to read the workers_ vector that
  // Shutdown() concurrently joined and cleared — a data race TSan (and the
  // thread-safety annotations) flag. The count is now a constant set at
  // construction, so readers racing Shutdown() must always see it.
  for (int round = 0; round < 20; ++round) {
    ThreadPool pool(3);
    std::atomic<bool> stop{false};
    std::atomic<bool> saw_bad{false};
    std::thread reader([&] {
      while (!stop.load()) {
        if (pool.num_workers() != 3) saw_bad.store(true);
      }
    });
    pool.Shutdown();
    stop.store(true);
    reader.join();
    EXPECT_FALSE(saw_bad.load());
    EXPECT_EQ(pool.num_workers(), 3u);  // still reported after shutdown
  }
}

TEST(ThreadPoolTest, ConcurrentShutdownIsIdempotent) {
  // Two threads racing Shutdown() (e.g. explicit call vs. destructor) must
  // both return with the workers joined exactly once.
  for (int round = 0; round < 20; ++round) {
    ThreadPool pool(2);
    std::atomic<int> ran{0};
    for (int i = 0; i < 8; ++i) {
      TB_ASSERT_OK(pool.Submit([&ran] { ++ran; }));
    }
    std::thread a([&] { pool.Shutdown(); });
    std::thread b([&] { pool.Shutdown(); });
    a.join();
    b.join();
    EXPECT_EQ(ran.load(), 8);  // accepted jobs drained before the join
    EXPECT_TRUE(pool.Submit([] {}).IsUnavailable());
  }
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexOnceAndJoins) {
  ThreadPool pool(4);
  std::vector<int> hits(257, 0);
  ParallelFor(
      &pool, hits.size(), [&](size_t i) { hits[i]++; },
      [](size_t, Status) { FAIL() << "no rejection expected"; });
  for (size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i], 1) << i;
  // nullptr pool degrades to a sequential loop.
  ParallelFor(
      nullptr, hits.size(), [&](size_t i) { hits[i]++; },
      [](size_t, Status) {});
  for (size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i], 2) << i;
}

// ------------------------------------------------------ BTree stats cache

TEST(BTreeStatsCacheTest, ConcurrentLazyFillIsConsistent) {
  // Many planner threads read the lazily-cached distinct/clustering
  // metrics of one built tree at once (ConfigView construction does this).
  // The fill must happen under cache_mu_ and every reader must see the
  // same values. Runs under the concurrency label so the TSan matrix
  // covers it; the thread-safety annotations prove the same protocol at
  // compile time under Clang.
  PageStore store;
  BTree tree("ix", 1, 8, &store);
  std::vector<std::pair<IndexKey, Rid>> entries;
  for (int k = 0; k < 500; ++k) {  // key-sorted, 4 rids per key
    for (int r = 0; r < 4; ++r) {
      entries.emplace_back(
          IndexKey{Value(static_cast<int64_t>(k))},
          Rid{static_cast<uint32_t>((k * 4 + r) / 64), 0});
    }
  }
  tree.BulkBuild(std::move(entries));

  constexpr int kReaders = 8;
  std::vector<uint64_t> distinct(kReaders, 0);
  std::vector<uint64_t> clustering(kReaders, 0);
  {
    std::vector<std::thread> readers;
    readers.reserve(kReaders);
    for (int t = 0; t < kReaders; ++t) {
      readers.emplace_back([&, t] {
        distinct[static_cast<size_t>(t)] = tree.num_distinct_keys();
        clustering[static_cast<size_t>(t)] = tree.clustering_factor();
      });
    }
    for (auto& th : readers) th.join();
  }
  for (int t = 1; t < kReaders; ++t) {
    EXPECT_EQ(distinct[static_cast<size_t>(t)], distinct[0]);
    EXPECT_EQ(clustering[static_cast<size_t>(t)], clustering[0]);
  }
  EXPECT_EQ(distinct[0], 500u);

  // A structural mutation invalidates under the same mutex; the next read
  // refills and sees the new count.
  ASSERT_TRUE(tree.Insert(IndexKey{Value(static_cast<int64_t>(10'000))},
                          Rid{1, 1}, nullptr)
                  .ok());
  EXPECT_EQ(tree.num_distinct_keys(), 501u);
}

// ------------------------------------------------------------ IN-set memo

TEST(InSetMemoConcurrencyTest, ConcurrentFillsAndHitsMatchSerialScans) {
  // Session contexts on many threads materialize the same IN-set specs at
  // once, racing to fill the database's shared memo and then hitting it.
  // Every result must equal a serial scan from a cold pool. Runs under the
  // concurrency label so the TSan matrix covers the memo's locking.
  auto db = testing::MakeMiniNref(4000.0);
  QueryFamily family = GenerateNref2J(db->catalog(), db->stats());
  ASSERT_TRUE(db->ApplyConfiguration(Make1CConfig(db->catalog())).ok());
  std::vector<InSetSpec> specs;
  for (size_t q = 0; q < 6 && q < family.queries.size(); ++q) {
    auto plan = db->Plan(family.queries[q].sql);
    ASSERT_TRUE(plan.ok());
    for (const auto& spec : plan->in_sets) specs.push_back(spec);
  }
  ASSERT_FALSE(specs.empty());

  struct Outcome {
    double sim_seconds = 0.0;
    uint64_t tuples = 0;
    FlatInSet values;
  };
  auto materialize = [&](const InSetSpec& spec) {
    BufferPool pool(db->options().buffer_pool_pages);
    ExecContext ctx = db->MakeSessionContext(&pool, db->options().cost);
    auto set = MaterializeInSet(spec, *db, &ctx);
    EXPECT_TRUE(set.ok()) << set.status().ToString();
    Outcome out{ctx.sim_time(), ctx.tuples_processed(), {}};
    if (set.ok()) out.values = **set;
    return out;
  };
  db->in_set_memo()->Clear();
  std::vector<Outcome> serial;
  for (const auto& spec : specs) serial.push_back(materialize(spec));

  // First pass: threads race to fill the cleared memo; second: all hits.
  db->in_set_memo()->Clear();
  constexpr int kThreads = 4;
  constexpr int kPasses = 2;
  std::vector<std::vector<Outcome>> got(kThreads);
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int pass = 0; pass < kPasses; ++pass) {
          for (size_t i = 0; i < specs.size(); ++i) {
            // Offset starts so threads collide on different specs.
            const size_t s = (i + static_cast<size_t>(t)) % specs.size();
            got[static_cast<size_t>(t)].push_back(materialize(specs[s]));
          }
        }
      });
    }
    for (auto& th : threads) th.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    const auto& runs = got[static_cast<size_t>(t)];
    ASSERT_EQ(runs.size(), kPasses * specs.size());
    for (size_t r = 0; r < runs.size(); ++r) {
      const size_t s = (r + static_cast<size_t>(t)) % specs.size();
      EXPECT_EQ(runs[r].sim_seconds, serial[s].sim_seconds);
      EXPECT_EQ(runs[r].tuples, serial[s].tuples);
      EXPECT_EQ(runs[r].values, serial[s].values);
    }
  }
}

// ------------------------------------------------------ prepared-query memo

TEST(PreparedQueryMemoConcurrencyTest, ConcurrentFillsMatchSerialPlans) {
  // Right after a configuration change and a statistics pass, nproc threads
  // Plan and Estimate overlapping texts: they race to refill the stale
  // prepared-query memo (and the view memo) and then hit it. Every result
  // must equal a plan of a freshly bound query. Runs under the concurrency
  // label so the TSan matrix covers the memo's locking.
  auto db = testing::MakeMiniNref(4000.0);
  QueryFamily family = GenerateNref2J(db->catalog(), db->stats());
  std::vector<std::string> texts;
  for (size_t q = 0; q < 48 && q < family.queries.size(); ++q) {
    texts.push_back(family.queries[q].sql);
  }
  ASSERT_FALSE(texts.empty());
  for (const std::string& sql : texts) ASSERT_TRUE(db->Estimate(sql).ok());
  ASSERT_TRUE(db->ApplyConfiguration(Make1CConfig(db->catalog())).ok());
  ASSERT_TRUE(db->CollectStatistics().ok());

  const ConfigView fresh = db->CurrentView();
  std::vector<double> want;
  std::vector<std::string> want_plan;
  for (const std::string& sql : texts) {
    auto q = ParseAndBind(sql, db->catalog());
    ASSERT_TRUE(q.ok());
    auto plan = PlanQuery(*q, fresh);
    ASSERT_TRUE(plan.ok());
    want.push_back(plan->est_cost);
    want_plan.push_back(plan->ToString());
  }

  const size_t threads_n = std::clamp<size_t>(
      std::thread::hardware_concurrency(), size_t{2}, size_t{16});
  struct Got {
    double estimate = -1.0;
    double plan_cost = -1.0;
    std::string plan;
  };
  std::vector<std::vector<Got>> got(threads_n,
                                    std::vector<Got>(texts.size()));
  {
    std::vector<std::thread> threads;
    for (size_t t = 0; t < threads_n; ++t) {
      threads.emplace_back([&, t] {
        for (size_t i = 0; i < texts.size(); ++i) {
          // Offset starts so threads collide on different texts.
          const size_t k = (i + t * 7) % texts.size();
          Got& g = got[t][k];
          auto e = db->Estimate(texts[k]);
          auto plan = db->Plan(texts[k]);
          if (e.ok()) g.estimate = *e;
          if (plan.ok()) {
            g.plan_cost = plan->est_cost;
            g.plan = plan->ToString();
          }
        }
      });
    }
    for (auto& th : threads) th.join();
  }
  for (size_t t = 0; t < threads_n; ++t) {
    for (size_t k = 0; k < texts.size(); ++k) {
      EXPECT_EQ(got[t][k].estimate, want[k]) << "thread " << t << " q" << k;
      EXPECT_EQ(got[t][k].plan_cost, want[k]) << "thread " << t << " q" << k;
      EXPECT_EQ(got[t][k].plan, want_plan[k]) << "thread " << t << " q" << k;
    }
  }
}

// ------------------------------------------------- parallel workload runner

class ParallelRunnerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    owner_ = testing::MakeMiniNref(/*scale_inverse=*/1000.0);
    db_ = owner_.get();
    ASSERT_NE(db_, nullptr);
    QueryFamily family = GenerateNref2J(db_->catalog(), db_->stats());
    auto sampled = SampleFamily(family, db_, 100, /*seed=*/7);
    ASSERT_TRUE(sampled.ok()) << sampled.status().ToString();
    sample_ = sampled->Sql();
    ASSERT_EQ(sample_.size(), 100u);
  }
  static void TearDownTestSuite() {
    owner_.reset();
    db_ = nullptr;
  }

  static void ExpectIdentical(const WorkloadResult& a,
                              const WorkloadResult& b) {
    ASSERT_EQ(a.timings.size(), b.timings.size());
    for (size_t i = 0; i < a.timings.size(); ++i) {
      EXPECT_EQ(a.timings[i].timed_out, b.timings[i].timed_out) << i;
      // Bit-identical (EXPECT_EQ on doubles is exact ==), not approximately
      // equal: the replay applies the very same floating-point operations
      // in the very same order.
      EXPECT_EQ(a.timings[i].seconds, b.timings[i].seconds) << i;
    }
    EXPECT_EQ(a.timeouts, b.timeouts);
    EXPECT_EQ(a.total_clamped_seconds, b.total_clamped_seconds);
    ASSERT_EQ(a.estimates.size(), b.estimates.size());
    for (size_t i = 0; i < a.estimates.size(); ++i) {
      EXPECT_EQ(a.estimates[i], b.estimates[i]) << i;
    }
    // Derived CFC curves therefore agree everywhere.
    auto ca = a.Cfc();
    auto cb = b.Cfc();
    for (double x : {0.1, 1.0, 10.0, 100.0, 1800.0}) {
      EXPECT_DOUBLE_EQ(ca.At(x), cb.At(x)) << x;
    }
  }

  // Owning handle; db_ stays a raw alias so call sites read naturally.
  static std::unique_ptr<Database> owner_;
  static Database* db_;
  static std::vector<std::string> sample_;
};

std::unique_ptr<Database> ParallelRunnerTest::owner_;
Database* ParallelRunnerTest::db_ = nullptr;
std::vector<std::string> ParallelRunnerTest::sample_;

TEST_F(ParallelRunnerTest, MatchesSequentialBitForBit) {
  RunOptions opts;
  opts.collect_estimates = true;
  auto seq = RunWorkload(db_, sample_, opts);
  ASSERT_TRUE(seq.ok()) << seq.status().ToString();
  auto seq_pool = db_->buffer_stats();

  ThreadPool pool(4);
  ParallelOptions par;
  par.pool = &pool;
  auto parallel = RunWorkloadParallel(db_, sample_, par, opts);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  auto par_pool = db_->buffer_stats();

  ExpectIdentical(*seq, *parallel);
  // The shared pool ends in the exact state the sequential run left it in.
  EXPECT_EQ(par_pool.hits, seq_pool.hits);
  EXPECT_EQ(par_pool.misses, seq_pool.misses);
  EXPECT_EQ(par_pool.resident, seq_pool.resident);
}

TEST_F(ParallelRunnerTest, MatchesSequentialWithWarmStart) {
  std::vector<std::string> subset(sample_.begin(), sample_.begin() + 30);
  RunOptions opts;
  opts.cold_start = false;  // start from whatever the previous test left

  // Capture the warm pool by running the sequential pass first from a known
  // state, then restore that state for the parallel pass.
  db_->buffer_pool()->Clear();
  ASSERT_TRUE(RunWorkload(db_, {sample_[40]}, RunOptions{}).ok());  // warm it
  auto seq = RunWorkload(db_, subset, opts);
  ASSERT_TRUE(seq.ok());

  db_->buffer_pool()->Clear();
  ASSERT_TRUE(RunWorkload(db_, {sample_[40]}, RunOptions{}).ok());
  // One worker records in batches of 8, so the 30 queries cross three
  // batch boundaries, each resuming replay from a warm pool.
  ThreadPool pool(1);
  ParallelOptions par;
  par.pool = &pool;
  auto parallel = RunWorkloadParallel(db_, subset, par, opts);
  ASSERT_TRUE(parallel.ok());

  ExpectIdentical(*seq, *parallel);
}

TEST_F(ParallelRunnerTest, NullPoolDegradesToSequential) {
  std::vector<std::string> subset(sample_.begin(), sample_.begin() + 5);
  auto seq = RunWorkload(db_, subset, RunOptions{});
  ASSERT_TRUE(seq.ok());
  auto degraded = RunWorkloadParallel(db_, subset, ParallelOptions{});
  ASSERT_TRUE(degraded.ok());
  ExpectIdentical(*seq, *degraded);
}

TEST_F(ParallelRunnerTest, PlannerMemosRebuildSafelyUnderParallelRunners) {
  // Right after each configuration change, every record worker finds the
  // database's planner memo stale at once — both when it plans its query
  // and when it collects the query's estimate — so they race to rebuild
  // it. The results must still match the sequential runner bit for bit.
  std::vector<std::string> subset(sample_.begin(), sample_.begin() + 40);
  ThreadPool pool(4);
  ParallelOptions par;
  par.pool = &pool;
  RunOptions opts;
  opts.collect_estimates = true;

  ASSERT_TRUE(db_->ApplyConfiguration(Make1CConfig(db_->catalog())).ok());
  auto rpar = RunWorkloadParallel(db_, subset, par, opts);
  auto rseq = RunWorkload(db_, subset, opts);
  ASSERT_TRUE(rpar.ok() && rseq.ok());
  ExpectIdentical(*rseq, *rpar);

  ASSERT_TRUE(db_->ResetToPrimary().ok());
  auto rpar_p = RunWorkloadParallel(db_, subset, par, opts);
  auto rseq_p = RunWorkload(db_, subset, opts);
  ASSERT_TRUE(rpar_p.ok() && rseq_p.ok());
  ExpectIdentical(*rseq_p, *rpar_p);
}

// Timeout determinism is the crux of the replay design: the parallel record
// phase runs with enforcement off and the replay re-applies the limit at
// the recorded check points. Build twin databases whose timeout sits
// between a cheap probe and an expensive scan so the workload mixes both.
TEST(ParallelRunnerTimeoutTest, TimeoutsReplayIdentically) {
  auto build = [](double timeout_seconds) {
    DatabaseOptions opts;
    opts.cost.timeout_seconds = timeout_seconds;
    auto db = std::make_unique<Database>(opts);
    TableDef t;
    t.name = "t";
    t.columns = {{"a", TypeId::kInt, "d", true, 8},
                 {"b", TypeId::kInt, "d", true, 8}};
    t.primary_key = {"a"};
    EXPECT_TRUE(db->CreateTable(t).ok());
    for (int64_t i = 0; i < 4000; ++i) {
      EXPECT_TRUE(db->Insert("t", Tuple({Value(i), Value(i % 97)})).ok());
    }
    EXPECT_TRUE(db->FinishLoad().ok());
    return db;
  };

  const std::string probe = "SELECT t.b FROM t WHERE t.a = 17";
  const std::string scan = "SELECT t.b, COUNT(*) FROM t GROUP BY t.b";

  auto calib = build(1800.0);
  auto cheap = calib->Run(probe);
  auto dear = calib->Run(scan);
  ASSERT_TRUE(cheap.ok());
  ASSERT_TRUE(dear.ok());
  ASSERT_LT(cheap->sim_seconds, dear->sim_seconds);

  auto db = build((cheap->sim_seconds + dear->sim_seconds) / 2.0);
  std::vector<std::string> sql = {scan, probe, scan, probe, probe, scan};
  auto seq = RunWorkload(db.get(), sql);
  ASSERT_TRUE(seq.ok());
  EXPECT_EQ(seq->timeouts, 3u);

  ThreadPool pool(4);
  ParallelOptions par;
  par.pool = &pool;
  auto parallel = RunWorkloadParallel(db.get(), sql, par);
  ASSERT_TRUE(parallel.ok());
  ASSERT_EQ(parallel->timings.size(), seq->timings.size());
  for (size_t i = 0; i < seq->timings.size(); ++i) {
    EXPECT_EQ(parallel->timings[i].timed_out, seq->timings[i].timed_out) << i;
    EXPECT_DOUBLE_EQ(parallel->timings[i].seconds, seq->timings[i].seconds)
        << i;
  }
  EXPECT_EQ(parallel->timeouts, seq->timeouts);
  EXPECT_DOUBLE_EQ(parallel->total_clamped_seconds,
                   seq->total_clamped_seconds);
}

}  // namespace
}  // namespace tabbench
