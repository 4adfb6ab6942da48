#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "advisor/advisor.h"
#include "advisor/profiles.h"
#include "core/benchmark_suite.h"
#include "core/configurations.h"
#include "core/nref_families.h"
#include "core/runner.h"
#include "core/sampling.h"
#include "exec/in_set.h"
#include "service/circuit_breaker.h"
#include "service/session.h"
#include "util/thread_pool.h"
#include "service/watchdog.h"
#include "service/workload_service.h"
#include "storage/btree.h"
#include "storage/page_store.h"
#include "test_util.h"
#include "util/fault_injection.h"
#include "util/retry.h"
#include "util/run_journal.h"

namespace tabbench {
namespace {

/// ServiceOptions with `workers` threads and no in-flight cap.
ServiceOptions WorkerOpts(size_t workers) {
  ServiceOptions opts;
  opts.workers = workers;
  opts.max_in_flight = 0;
  return opts;
}

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

TEST(ThreadPoolTest, BoundedQueueRejectsWithUnavailable) {
  // One worker blocked on a gate + a one-slot queue: the third submission
  // must be turned away, deterministically.
  ThreadPool pool(ThreadPool::Options{1, 1});
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  std::promise<void> started;
  TB_ASSERT_OK(pool.Submit([opened, &started] {
    started.set_value();
    opened.wait();
  }));
  started.get_future().wait();  // the worker is now occupied
  TB_ASSERT_OK(pool.Submit([] {}));  // fills the single queue slot
  Status s = pool.Submit([] {});
  EXPECT_TRUE(s.IsUnavailable()) << s.ToString();
  EXPECT_EQ(pool.rejected(), 1u);
  gate.set_value();
  pool.Wait();
  EXPECT_EQ(pool.completed(), 2u);
}

TEST(ThreadPoolTest, SubmitOrRunFallsBackToCaller) {
  ThreadPool pool(ThreadPool::Options{1, 1});
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  std::promise<void> started;
  TB_ASSERT_OK(pool.Submit([opened, &started] {
    started.set_value();
    opened.wait();
  }));
  started.get_future().wait();
  TB_ASSERT_OK(pool.Submit([] {}));  // queue now full
  std::thread::id caller = std::this_thread::get_id();
  std::thread::id ran_on;
  TB_ASSERT_OK(pool.SubmitOrRun([&ran_on] {
    ran_on = std::this_thread::get_id();
  }));
  EXPECT_EQ(ran_on, caller);  // caller-runs backpressure
  gate.set_value();
  pool.Wait();
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

// ------------------------------------------------------------------ Session

class ServiceDbTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    tiny_ = std::make_unique<testing::TinyDb>(
        testing::TinyDb::Make(3000, 20));
  }
  static void TearDownTestSuite() { tiny_.reset(); }
  static Database* db() { return tiny_->db.get(); }
  static std::unique_ptr<testing::TinyDb> tiny_;

  static constexpr const char* kScan =
      "SELECT p.dept, COUNT(*) FROM people p GROUP BY p.dept";
  static constexpr const char* kGrouped =
      "SELECT p.city, COUNT(*) FROM people p WHERE p.dept = 3 "
      "GROUP BY p.city";
};

std::unique_ptr<testing::TinyDb> ServiceDbTest::tiny_;

TEST_F(ServiceDbTest, SessionMatchesColdSharedPoolRun) {
  // A fresh session's private pool is cold, so its first execution must be
  // bit-identical to a cold run on the shared pool.
  db()->buffer_pool()->Clear();
  auto shared = db()->Run(kGrouped);
  ASSERT_TRUE(shared.ok());

  Session session(db());
  auto own = session.Execute(kGrouped);
  ASSERT_TRUE(own.ok());
  EXPECT_DOUBLE_EQ(own->sim_seconds, shared->sim_seconds);
  EXPECT_EQ(own->pages_read, shared->pages_read);
  EXPECT_EQ(own->rows.size(), shared->rows.size());
  EXPECT_DOUBLE_EQ(session.clock_seconds(), shared->sim_seconds);
  EXPECT_EQ(session.queries_run(), 1u);
}

TEST_F(ServiceDbTest, SessionWarmCacheAndClear) {
  Session session(db());
  auto cold = session.Execute(kGrouped);
  ASSERT_TRUE(cold.ok());
  auto warm = session.Execute(kGrouped);
  ASSERT_TRUE(warm.ok());
  EXPECT_LT(warm->sim_seconds, cold->sim_seconds);  // buffer hits
  session.ClearCache();
  auto recold = session.Execute(kGrouped);
  ASSERT_TRUE(recold.ok());
  EXPECT_DOUBLE_EQ(recold->sim_seconds, cold->sim_seconds);
}

TEST_F(ServiceDbTest, SessionsAreIsolated) {
  // Activity on one session must not perturb another's timings.
  Session alone(db());
  auto baseline = alone.Execute(kGrouped);
  ASSERT_TRUE(baseline.ok());

  Session noisy(db());
  Session measured(db());
  ASSERT_TRUE(noisy.Execute(kScan).ok());
  ASSERT_TRUE(noisy.Execute(kGrouped).ok());
  auto r = measured.Execute(kGrouped);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->sim_seconds, baseline->sim_seconds);
}

TEST_F(ServiceDbTest, DeadlineTripsAsTimeout) {
  Session probe(db());
  auto full = probe.Execute(kScan);
  ASSERT_TRUE(full.ok());
  ASSERT_FALSE(full->timed_out);
  const double deadline = full->sim_seconds / 2.0;

  Session session(db());
  auto r = session.Execute(kScan, deadline);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->timed_out);
  // The paper's lower-bound convention: a tripped query reports exactly the
  // limit it tripped, here the folded-in deadline.
  EXPECT_DOUBLE_EQ(r->sim_seconds, deadline);
  EXPECT_EQ(session.timeouts(), 1u);
}

TEST_F(ServiceDbTest, CancellationReportsCancelled) {
  Session session(db());
  CancellationToken token;
  token.RequestCancel();
  auto r = session.Execute(kScan, /*deadline_seconds=*/-1.0, token);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCancelled()) << r.status().ToString();
  EXPECT_EQ(session.queries_run(), 0u);
}

// ---------------------------------------------------------- WorkloadService

TEST_F(ServiceDbTest, ServiceRunsQueriesAndMatchesColdRun) {
  db()->buffer_pool()->Clear();
  auto expect = db()->Run(kGrouped);
  ASSERT_TRUE(expect.ok());

  WorkloadService service(db(), WorkerOpts(2));
  auto fut = service.SubmitQuery(kGrouped);
  auto r = fut.get();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Sessionless jobs run on a fresh cold session: deterministic timings.
  EXPECT_DOUBLE_EQ(r->sim_seconds, expect->sim_seconds);
  EXPECT_EQ(r->rows.size(), expect->rows.size());
  EXPECT_EQ(service.stats().completed, 1u);
}

TEST_F(ServiceDbTest, ServiceSessionStrandKeepsWarmOrder) {
  // Two queries on one service session == the same two queries on a private
  // Session object (strand serialization preserves warm-cache evolution).
  Session reference(db());
  auto first = reference.Execute(kGrouped);
  auto second = reference.Execute(kGrouped);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());

  WorkloadService service(db(), WorkerOpts(4));
  SessionId id = service.OpenSession();
  ASSERT_NE(id, kNoSession);
  JobOptions on_session;
  on_session.session = id;
  auto f1 = service.SubmitQuery(kGrouped, on_session);
  auto f2 = service.SubmitQuery(kGrouped, on_session);
  auto r1 = f1.get();
  auto r2 = f2.get();
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_DOUBLE_EQ(r1->sim_seconds, first->sim_seconds);
  EXPECT_DOUBLE_EQ(r2->sim_seconds, second->sim_seconds);
  auto clock = service.SessionClock(id);
  ASSERT_TRUE(clock.ok());
  EXPECT_DOUBLE_EQ(*clock, first->sim_seconds + second->sim_seconds);
  TB_ASSERT_OK(service.CloseSession(id));
  EXPECT_TRUE(service.SubmitQuery(kGrouped, on_session).get().status()
                  .IsNotFound());
}

TEST_F(ServiceDbTest, ServiceSubmitWorkloadMatchesSequentialSession) {
  std::vector<std::string> sql = {kGrouped, kScan, kGrouped};
  Session reference(db());
  std::vector<double> expect;
  for (const auto& q : sql) {
    auto r = reference.Execute(q);
    ASSERT_TRUE(r.ok());
    expect.push_back(r->sim_seconds);
  }

  WorkloadService service(db(), WorkerOpts(2));
  auto fut = service.SubmitWorkload(sql);
  auto r = fut.get();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->size(), sql.size());
  for (size_t i = 0; i < sql.size(); ++i) {
    EXPECT_DOUBLE_EQ((*r)[i].sim_seconds, expect[i]) << i;
  }
}

TEST_F(ServiceDbTest, ServiceDeadlineAndCancellation) {
  WorkloadService service(db(), WorkerOpts(2));

  Session probe(db());
  auto full = probe.Execute(kScan);
  ASSERT_TRUE(full.ok());
  JobOptions tight;
  tight.deadline_seconds = full->sim_seconds / 2.0;
  auto timed = service.SubmitQuery(kScan, tight).get();
  ASSERT_TRUE(timed.ok());
  EXPECT_TRUE(timed->timed_out);
  EXPECT_EQ(service.stats().query_timeouts, 1u);

  JobOptions doomed;
  doomed.cancel.RequestCancel();
  auto cancelled = service.SubmitQuery(kScan, doomed).get();
  EXPECT_TRUE(cancelled.status().IsCancelled());
  EXPECT_EQ(service.stats().cancelled, 1u);
}

TEST_F(ServiceDbTest, ServiceShadowIndexBuildMatchesDirectRun) {
  WorkloadService service(db(), WorkerOpts(2));
  IndexDef def;
  def.name = "ix_shadow";
  def.target = "people";
  def.columns = {"dept"};

  Session probe(db());
  ExecContext ctx =
      db()->MakeSessionContext(probe.pool(), db()->options().cost);
  auto direct = ShadowIndexBuild(*db(), def, &ctx);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  EXPECT_GT(direct->entries, 0u);
  EXPECT_GT(direct->sim_seconds, 0.0);

  // A what-if build is deterministic and side-effect free: every service
  // run agrees with the in-process run bit for bit — the property the
  // chaos audit leans on when a killed shard's build job reruns elsewhere.
  auto a = service.SubmitIndexBuild(def).get();
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  auto b = service.SubmitIndexBuild(def).get();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(a->fingerprint, direct->fingerprint);
  EXPECT_EQ(b->fingerprint, direct->fingerprint);
  EXPECT_EQ(a->entries, direct->entries);
  EXPECT_EQ(a->pages, direct->pages);
  EXPECT_EQ(a->height, direct->height);
  EXPECT_EQ(a->sim_seconds, direct->sim_seconds);
  EXPECT_EQ(b->sim_seconds, direct->sim_seconds);
  // Nothing installed anywhere.
  EXPECT_EQ(db()->FindIndex("ix_shadow"), nullptr);
  EXPECT_EQ(service.stats().completed, 2u);
}

TEST_F(ServiceDbTest, ServiceShadowIndexBuildCancelAndBadTarget) {
  WorkloadService service(db(), WorkerOpts(2));
  IndexDef def;
  def.name = "ix_doomed";
  def.target = "people";
  def.columns = {"dept"};

  JobOptions doomed;
  doomed.cancel.RequestCancel();
  auto cancelled = service.SubmitIndexBuild(def, doomed).get();
  EXPECT_TRUE(cancelled.status().IsCancelled());

  IndexDef bad = def;
  bad.target = "nope";
  auto missing = service.SubmitIndexBuild(bad).get();
  EXPECT_TRUE(missing.status().IsNotFound());
}

// ------------------------------------------------- Service retry/backoff

/// Disarms every fault point on scope exit so a failing ASSERT cannot leak
/// an armed schedule into later tests.
struct FaultGuard {
  FaultGuard() { FaultRegistry::Global().DisarmAll(); }
  ~FaultGuard() { FaultRegistry::Global().DisarmAll(); }
};

/// Arms `point` to fail every attempt with kUnavailable (probability 1).
void ArmAlwaysUnavailable(const char* point) {
  FaultSpec spec;
  spec.point = point;
  spec.code = Status::Code::kUnavailable;
  spec.trigger = FaultSpec::Trigger::kProbability;
  spec.probability = 1.0;
  TB_ASSERT_OK(FaultRegistry::Global().Arm(std::move(spec)));
}

TEST_F(ServiceDbTest, ServiceRetriesTransientFaultAndRecovers) {
  FaultGuard guard;
  FaultSpec spec;
  spec.point = "service.session_execute";
  spec.code = Status::Code::kUnavailable;
  spec.trigger = FaultSpec::Trigger::kOnce;  // each job's first attempt
  TB_ASSERT_OK(FaultRegistry::Global().Arm(std::move(spec)));

  WorkloadService service(db(), WorkerOpts(2));
  JobOptions jo;
  jo.retry = RetryPolicy::WithAttempts(3);
  jo.retry.initial_backoff_seconds = 1e-4;
  auto r = service.SubmitQuery(kGrouped, jo).get();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_FALSE(r->timed_out);
  EXPECT_EQ(service.stats().retries, 1u);
  EXPECT_EQ(service.stats().failures, 0u);
}

TEST_F(ServiceDbTest, ServiceWorkloadIsolatesExhaustedRetriesAsCensored) {
  FaultGuard guard;
  ArmAlwaysUnavailable("service.session_execute");

  WorkloadService service(db(), WorkerOpts(2));
  JobOptions jo;  // default policy: no retry, so every query fails at once
  auto r = service.SubmitWorkload({kGrouped, kScan, kGrouped}, jo).get();
  ASSERT_TRUE(r.ok()) << r.status().ToString();  // the workload completes
  ASSERT_EQ(r->size(), 3u);
  const double t_out = db()->options().cost.timeout_seconds;
  for (const auto& qr : *r) {
    EXPECT_TRUE(qr.timed_out);
    EXPECT_TRUE(qr.failed);
    EXPECT_DOUBLE_EQ(qr.sim_seconds, t_out);  // censored at the timeout
  }
  EXPECT_EQ(service.stats().failures, 3u);
  EXPECT_EQ(service.stats().query_timeouts, 3u);
}

TEST_F(ServiceDbTest, ServiceBackoffSleepIsCancelAware) {
  FaultGuard guard;
  ArmAlwaysUnavailable("service.session_execute");

  WorkloadService service(db(), WorkerOpts(2));
  JobOptions jo;
  jo.retry = RetryPolicy::WithAttempts(3);
  jo.retry.initial_backoff_seconds = 60.0;  // would hang if not interrupted
  jo.retry.jitter_fraction = 0.0;
  auto start = std::chrono::steady_clock::now();
  auto fut = service.SubmitQuery(kGrouped, jo);
  std::thread canceller([&jo] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    jo.cancel.RequestCancel();
  });
  auto r = fut.get();
  canceller.join();
  double elapsed = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCancelled()) << r.status().ToString();
  EXPECT_LT(elapsed, 10.0) << "cancellation must interrupt the backoff";
  EXPECT_EQ(service.stats().cancelled, 1u);
}

TEST_F(ServiceDbTest, ServiceWallBudgetExpiresDuringBackoff) {
  FaultGuard guard;
  ArmAlwaysUnavailable("service.session_execute");

  WorkloadService service(db(), WorkerOpts(2));
  JobOptions jo;
  jo.retry = RetryPolicy::WithAttempts(5);
  jo.retry.initial_backoff_seconds = 60.0;
  jo.wall_timeout_seconds = 0.05;  // expires inside the first backoff
  auto start = std::chrono::steady_clock::now();
  auto r = service.SubmitQuery(kGrouped, jo).get();
  double elapsed = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsTimeout()) << r.status().ToString();
  EXPECT_LT(elapsed, 10.0) << "the wall budget must interrupt the backoff";
}

TEST_F(ServiceDbTest, AdmissionControlRejectsWhenSaturated) {
  ServiceOptions opts;
  opts.workers = 1;
  opts.max_in_flight = 1;
  WorkloadService service(db(), opts);
  // Occupy the only in-flight slot with a long job (a whole workload);
  // admission happens synchronously in SubmitWorkload, so the next submit
  // races only against the job *finishing* — 60 queries of headroom.
  std::vector<std::string> busy(60, kGrouped);
  auto long_job = service.SubmitWorkload(busy);
  auto rejected = service.SubmitQuery(kGrouped).get();
  EXPECT_TRUE(rejected.status().IsUnavailable())
      << rejected.status().ToString();
  EXPECT_GE(service.stats().rejected, 1u);
  ASSERT_TRUE(long_job.get().ok());
  // Capacity freed: accepted again.
  EXPECT_TRUE(service.SubmitQuery(kGrouped).get().ok());
}

TEST_F(ServiceDbTest, ShutdownRejectsNewWorkAndResolvesFutures) {
  WorkloadService service(db(), WorkerOpts(2));
  std::vector<std::future<Result<QueryResult>>> futs;
  for (int i = 0; i < 8; ++i) futs.push_back(service.SubmitQuery(kGrouped));
  service.Shutdown();
  for (auto& f : futs) {
    auto r = f.get();  // accepted jobs drained, never dropped
    EXPECT_TRUE(r.ok() || r.status().IsUnavailable()) << r.status().ToString();
  }
  EXPECT_TRUE(service.SubmitQuery(kGrouped).get().status().IsUnavailable());
  EXPECT_EQ(service.OpenSession(), kNoSession);
}

TEST_F(ServiceDbTest, ConcurrentFloodAllFuturesResolve) {
  // TSan workhorse: many sessions, sessionless jobs, stats reads, and a
  // monitor thread all at once.
  WorkloadService service(db(), WorkerOpts(4));
  std::vector<SessionId> ids;
  for (int s = 0; s < 4; ++s) ids.push_back(service.OpenSession());

  std::atomic<bool> stop{false};
  std::thread monitor([&] {
    while (!stop.load()) {
      (void)service.stats();
      for (SessionId id : ids) (void)service.SessionClock(id);
      std::this_thread::yield();
    }
  });

  std::vector<std::future<Result<QueryResult>>> futs;
  for (int i = 0; i < 32; ++i) {
    JobOptions jo;
    jo.session = ids[static_cast<size_t>(i) % ids.size()];
    futs.push_back(service.SubmitQuery(kGrouped, jo));
    futs.push_back(service.SubmitQuery(kScan));
  }
  size_t ok = 0;
  for (auto& f : futs) {
    auto r = f.get();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ++ok;
  }
  EXPECT_EQ(ok, futs.size());
  stop.store(true);
  monitor.join();
  for (SessionId id : ids) TB_ASSERT_OK(service.CloseSession(id));
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
    std::unordered_set<Value, ValueHash> values;
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

TEST_F(ParallelRunnerTest, MatchesSequentialWithRepetitionsAndWarmStart) {
  std::vector<std::string> subset(sample_.begin(), sample_.begin() + 30);
  RunOptions opts;
  opts.repetitions = 3;
  opts.cold_start = false;  // start from whatever the previous test left

  // Capture the warm pool by running the sequential pass first from a known
  // state, then restore that state for the parallel pass.
  db_->buffer_pool()->Clear();
  ASSERT_TRUE(RunWorkload(db_, {sample_[40]}, RunOptions{}).ok());  // warm it
  auto seq = RunWorkload(db_, subset, opts);
  ASSERT_TRUE(seq.ok());

  db_->buffer_pool()->Clear();
  ASSERT_TRUE(RunWorkload(db_, {sample_[40]}, RunOptions{}).ok());
  ThreadPool pool(5);
  ParallelOptions par;
  par.pool = &pool;
  par.window = 7;  // odd window: exercise batch boundaries
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

TEST_F(ParallelRunnerTest, CancelledRunReportsCancelled) {
  ThreadPool pool(2);
  ParallelOptions par;
  par.pool = &pool;
  par.cancel.RequestCancel();
  auto r = RunWorkloadParallel(db_, sample_, par);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCancelled()) << r.status().ToString();
}

TEST_F(ParallelRunnerTest, EstimateAndHypotheticalMatchSequential) {
  auto seq = EstimateWorkload(db_, sample_);
  ASSERT_TRUE(seq.ok());
  ThreadPool pool(4);
  ParallelOptions par;
  par.pool = &pool;
  auto parallel = EstimateWorkloadParallel(db_, sample_, par);
  ASSERT_TRUE(parallel.ok());
  ASSERT_EQ(parallel->size(), seq->size());
  for (size_t i = 0; i < seq->size(); ++i) {
    EXPECT_DOUBLE_EQ((*parallel)[i], (*seq)[i]) << i;
  }

  Configuration hypo;  // the P baseline as a hypothetical
  hypo.name = "hypo";
  HypotheticalRules rules;
  auto hseq = HypotheticalWorkload(db_, sample_, hypo, rules);
  ASSERT_TRUE(hseq.ok());
  auto hpar = HypotheticalWorkloadParallel(db_, sample_, hypo, rules, par);
  ASSERT_TRUE(hpar.ok());
  ASSERT_EQ(hpar->size(), hseq->size());
  for (size_t i = 0; i < hseq->size(); ++i) {
    EXPECT_DOUBLE_EQ((*hpar)[i], (*hseq)[i]) << i;
  }
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
  RunOptions opts;
  opts.repetitions = 2;  // timeout queries must still run exactly once
  auto seq = RunWorkload(db.get(), sql, opts);
  ASSERT_TRUE(seq.ok());
  EXPECT_EQ(seq->timeouts, 3u);

  ThreadPool pool(4);
  ParallelOptions par;
  par.pool = &pool;
  auto parallel = RunWorkloadParallel(db.get(), sql, par, opts);
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

// ------------------------------------------------------------------ advisor

TEST_F(ParallelRunnerTest, AdvisorParallelEvaluationMatchesSequential) {
  QueryFamily family = GenerateNref2J(db_->catalog(), db_->stats());
  auto workload = BindWorkload(family, db_->catalog());
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();

  AdvisorOptions opts = SystemBProfile();
  Advisor sequential(db_->CurrentView(), opts);
  auto seq = sequential.Recommend(*workload);
  ASSERT_TRUE(seq.ok()) << seq.status().ToString();

  ThreadPool pool(4);
  opts.eval_pool = &pool;
  Advisor concurrent(db_->CurrentView(), opts);
  auto par = concurrent.Recommend(*workload);
  ASSERT_TRUE(par.ok()) << par.status().ToString();

  // Same picks, same order, same bookkeeping — parallel evaluation must not
  // change the recommendation at all.
  ASSERT_EQ(par->config.indexes.size(), seq->config.indexes.size());
  for (size_t i = 0; i < seq->config.indexes.size(); ++i) {
    EXPECT_EQ(par->config.indexes[i].name, seq->config.indexes[i].name) << i;
  }
  ASSERT_EQ(par->config.views.size(), seq->config.views.size());
  for (size_t i = 0; i < seq->config.views.size(); ++i) {
    EXPECT_EQ(par->config.views[i].name, seq->config.views[i].name) << i;
  }
  // Bit identity, not closeness: the same trials are summed in the same order.
  EXPECT_EQ(par->est_cost_before, seq->est_cost_before);
  EXPECT_EQ(par->est_cost_after, seq->est_cost_after);
  EXPECT_EQ(par->est_pages, seq->est_pages);
}

// ------------------------------------------------------------------ Watchdog

/// Spins until `cond()` holds or `seconds` of wall time pass.
template <typename Cond>
bool WaitFor(Cond cond, double seconds = 5.0) {
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::duration<double>(seconds);
  while (std::chrono::steady_clock::now() < deadline) {
    if (cond()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return cond();
}

TEST(WatchdogTest, FiresDeadlineAndCancelsVictim) {
  WatchdogOptions o;
  o.poll_interval_seconds = 0.001;
  Watchdog wd(o);
  CancellationToken victim;
  uint64_t id = wd.Watch(std::chrono::steady_clock::now() +
                             std::chrono::milliseconds(10),
                         victim, std::nullopt);
  EXPECT_TRUE(WaitFor([&] { return victim.cancelled(); }));
  EXPECT_TRUE(wd.Release(id)) << "Release must report the fired deadline";
  EXPECT_GE(wd.fires(), 1u);
}

TEST(WatchdogTest, ReleaseBeforeDeadlineMeansNoFire) {
  Watchdog wd;
  CancellationToken victim;
  uint64_t id = wd.Watch(std::chrono::steady_clock::now() +
                             std::chrono::hours(1),
                         victim, std::nullopt);
  EXPECT_FALSE(wd.Release(id));
  EXPECT_FALSE(victim.cancelled());
  EXPECT_EQ(wd.fires(), 0u);
}

TEST(WatchdogTest, ForwardsUpstreamCancelToVictim) {
  WatchdogOptions o;
  o.poll_interval_seconds = 0.001;
  Watchdog wd(o);
  CancellationToken victim;
  CancellationToken upstream;
  uint64_t id = wd.Watch(std::nullopt, victim, upstream);
  EXPECT_FALSE(victim.cancelled());
  upstream.RequestCancel();
  EXPECT_TRUE(WaitFor([&] { return victim.cancelled(); }));
  // Forwarded cancellation is not a deadline fire.
  EXPECT_FALSE(wd.Release(id));
  EXPECT_EQ(wd.fires(), 0u);
}

TEST(WatchdogTest, IndependentWatchesFireIndependently) {
  WatchdogOptions o;
  o.poll_interval_seconds = 0.001;
  Watchdog wd(o);
  CancellationToken soon;
  CancellationToken later;
  uint64_t a = wd.Watch(std::chrono::steady_clock::now() +
                            std::chrono::milliseconds(10),
                        soon, std::nullopt);
  uint64_t b = wd.Watch(std::chrono::steady_clock::now() +
                            std::chrono::hours(1),
                        later, std::nullopt);
  EXPECT_TRUE(WaitFor([&] { return soon.cancelled(); }));
  EXPECT_FALSE(later.cancelled());
  EXPECT_TRUE(wd.Release(a));
  EXPECT_FALSE(wd.Release(b));
}

// ------------------------------------------------------------ CircuitBreaker

TEST(CircuitBreakerTest, DisabledByDefaultAdmitsEverything) {
  CircuitBreaker cb;
  EXPECT_FALSE(cb.enabled());
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(cb.Allow(1));
    EXPECT_FALSE(cb.RecordFailure(1));
  }
  EXPECT_EQ(cb.state(1), CircuitBreaker::State::kClosed);
}

CircuitBreakerOptions BreakerOpts(int threshold, double open_seconds,
                                  int probes = 1) {
  CircuitBreakerOptions o;
  o.failure_threshold = threshold;
  o.open_seconds = open_seconds;
  o.half_open_probes = probes;
  return o;
}

TEST(CircuitBreakerTest, OpensAfterConsecutiveFailuresPerDomain) {
  CircuitBreaker cb(BreakerOpts(3, 3600.0));
  EXPECT_FALSE(cb.RecordFailure(7));
  EXPECT_FALSE(cb.RecordFailure(7));
  // A success in between resets the streak.
  cb.RecordSuccess(7);
  EXPECT_FALSE(cb.RecordFailure(7));
  EXPECT_FALSE(cb.RecordFailure(7));
  EXPECT_TRUE(cb.RecordFailure(7)) << "third consecutive failure trips";
  EXPECT_EQ(cb.state(7), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(cb.Allow(7));
  // Another domain is a separate state machine.
  EXPECT_TRUE(cb.Allow(8));
  EXPECT_EQ(cb.state(8), CircuitBreaker::State::kClosed);
}

TEST(CircuitBreakerTest, HalfOpenProbeClosesOnSuccessReopensOnFailure) {
  CircuitBreaker cb(BreakerOpts(1, 0.02));
  ASSERT_TRUE(cb.RecordFailure(1));
  EXPECT_FALSE(cb.Allow(1));
  std::this_thread::sleep_for(std::chrono::milliseconds(40));

  // Cooldown elapsed: the next Allow claims the half-open probe slot, and
  // the quota (one probe) bounces the second caller.
  EXPECT_TRUE(cb.Allow(1));
  EXPECT_EQ(cb.state(1), CircuitBreaker::State::kHalfOpen);
  EXPECT_FALSE(cb.Allow(1));
  cb.RecordSuccess(1);
  EXPECT_EQ(cb.state(1), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(cb.Allow(1));

  // Trip again; this time the probe fails and the cooldown restarts.
  ASSERT_TRUE(cb.RecordFailure(1));
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  EXPECT_TRUE(cb.Allow(1));
  EXPECT_TRUE(cb.RecordFailure(1)) << "probe failure re-trips the domain";
  EXPECT_EQ(cb.state(1), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(cb.Allow(1));
}

TEST(CircuitBreakerTest, AbandonReleasesTheProbeSlot) {
  CircuitBreaker cb(BreakerOpts(1, 0.02));
  ASSERT_TRUE(cb.RecordFailure(1));
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  ASSERT_TRUE(cb.Allow(1));
  EXPECT_FALSE(cb.Allow(1));
  // The probe job was turned away elsewhere on the admission path; its slot
  // must free up for the next candidate rather than wedging the domain.
  cb.Abandon(1);
  EXPECT_TRUE(cb.Allow(1));
}

// --------------------------------------- service watchdog/breaker/journal

TEST_F(ServiceDbTest, WatchdogEnforcesWallBudgetMidJob) {
  // Regression: the wall-clock budget used to be checked only between retry
  // attempts, so a long workload job with no retries could overrun it
  // arbitrarily. The watchdog cancels the job's private token mid-flight
  // and the service reports Timeout, not Cancelled.
  WorkloadService service(db(), WorkerOpts(2));
  std::vector<std::string> wl(4000, std::string(kScan));
  JobOptions jo;
  jo.wall_timeout_seconds = 0.05;
  auto start = std::chrono::steady_clock::now();
  auto r = service.SubmitWorkload(wl, jo).get();
  double elapsed = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsTimeout()) << r.status().ToString();
  EXPECT_NE(r.status().ToString().find("watchdog"), std::string::npos)
      << r.status().ToString();
  EXPECT_LT(elapsed, 10.0) << "watchdog must stop the job long before the "
                              "workload would finish on its own";
  auto stats = service.stats();
  EXPECT_GE(stats.watchdog_cancels, 1u);
  EXPECT_EQ(stats.cancelled, 0u)
      << "a watchdog stop is a timeout, not a user cancel";
}

TEST_F(ServiceDbTest, WatchdogForceCancelStopsMorselDispatch) {
  // Regression for the vectorized path: a session with an intra-query
  // parallelism budget routes queries through the morsel scheduler, whose
  // workers must observe the watchdog's force-cancel of the job's private
  // token — stop dispatching morsels, drain, and surface Cancelled — so
  // the service can report the same watchdog Timeout as the Volcano path
  // instead of letting in-flight morsel loops run the budget over.
  WorkloadService service(db(), WorkerOpts(2));
  SessionOptions so;
  so.intra_query_parallelism = 4;
  SessionId vec_session = service.OpenSession(so);
  std::vector<std::string> wl(4000, std::string(kScan));
  JobOptions jo;
  jo.session = vec_session;
  jo.wall_timeout_seconds = 0.05;
  auto start = std::chrono::steady_clock::now();
  auto r = service.SubmitWorkload(wl, jo).get();
  double elapsed = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsTimeout()) << r.status().ToString();
  EXPECT_NE(r.status().ToString().find("watchdog"), std::string::npos)
      << r.status().ToString();
  EXPECT_LT(elapsed, 10.0) << "the morsel scheduler must drain promptly "
                              "after the watchdog fires";
  auto stats = service.stats();
  EXPECT_GE(stats.watchdog_cancels, 1u);
  EXPECT_EQ(stats.cancelled, 0u)
      << "a watchdog stop is a timeout, not a user cancel";
  TB_ASSERT_OK(service.CloseSession(vec_session));
}

TEST_F(ServiceDbTest, UserCancelIsNotRemappedByTheWatchdog) {
  WorkloadService service(db(), WorkerOpts(2));
  std::vector<std::string> wl(4000, std::string(kScan));
  JobOptions jo;
  jo.wall_timeout_seconds = 30.0;  // watchdog armed but far away
  auto fut = service.SubmitWorkload(wl, jo);
  jo.cancel.RequestCancel();
  auto r = fut.get();
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCancelled()) << r.status().ToString();
  EXPECT_EQ(service.stats().watchdog_cancels, 0u);
}

TEST_F(ServiceDbTest, ServiceBreakerIsolatesTheFailingDomain) {
  FaultGuard guard;
  ArmAlwaysUnavailable("service.session_execute");
  ServiceOptions so = WorkerOpts(2);
  so.breaker.failure_threshold = 2;
  so.breaker.open_seconds = 3600.0;  // stays open for the whole test
  WorkloadService service(db(), so);
  SessionId bad = service.OpenSession();
  SessionId good = service.OpenSession();

  JobOptions on_bad;
  on_bad.session = bad;
  for (int i = 0; i < 2; ++i) {
    auto r = service.SubmitQuery(kGrouped, on_bad).get();
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(r.status().IsUnavailable()) << r.status().ToString();
    EXPECT_EQ(r.status().ToString().find("circuit breaker"),
              std::string::npos)
        << "these are real executions failing, not breaker bounces";
  }
  EXPECT_EQ(service.stats().breaker_opens, 1u);

  auto bounced = service.SubmitQuery(kGrouped, on_bad).get();
  ASSERT_FALSE(bounced.ok());
  EXPECT_TRUE(bounced.status().IsUnavailable());
  EXPECT_NE(bounced.status().ToString().find("circuit breaker"),
            std::string::npos)
      << bounced.status().ToString();
  auto mid = service.stats();
  EXPECT_EQ(mid.breaker_rejections, 1u);
  EXPECT_GE(mid.rejected, 1u);

  // The healthy domain never noticed: disarm the fault and it executes.
  FaultRegistry::Global().DisarmAll();
  JobOptions on_good;
  on_good.session = good;
  auto ok = service.SubmitQuery(kGrouped, on_good).get();
  EXPECT_TRUE(ok.ok()) << ok.status().ToString();
  // The bad domain is still open even though the fault is gone.
  EXPECT_FALSE(service.SubmitQuery(kGrouped, on_bad).get().ok());
}

TEST_F(ServiceDbTest, ServiceBreakerHalfOpenProbeRecoversTheDomain) {
  FaultGuard guard;
  ArmAlwaysUnavailable("service.session_execute");
  ServiceOptions so = WorkerOpts(2);
  so.breaker.failure_threshold = 1;
  so.breaker.open_seconds = 0.05;
  WorkloadService service(db(), so);
  SessionId id = service.OpenSession();
  JobOptions jo;
  jo.session = id;

  ASSERT_FALSE(service.SubmitQuery(kGrouped, jo).get().ok());
  EXPECT_EQ(service.stats().breaker_opens, 1u);
  auto bounced = service.SubmitQuery(kGrouped, jo).get();
  ASSERT_FALSE(bounced.ok());
  EXPECT_NE(bounced.status().ToString().find("circuit breaker"),
            std::string::npos);

  // Dependency recovers; after the cooldown one probe goes through, its
  // success closes the domain, and traffic flows again.
  FaultRegistry::Global().DisarmAll();
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  auto probe = service.SubmitQuery(kGrouped, jo).get();
  EXPECT_TRUE(probe.ok()) << probe.status().ToString();
  auto after = service.SubmitQuery(kGrouped, jo).get();
  EXPECT_TRUE(after.ok()) << after.status().ToString();
  auto stats = service.stats();
  EXPECT_EQ(stats.breaker_rejections, 1u);
  EXPECT_EQ(stats.breaker_opens, 1u);
}

TEST_F(ServiceDbTest, ServiceOutcomeJournalRecordsExecutedQueries) {
  std::string path = ::testing::TempDir() + "/tabbench_service_journal.tbj";
  std::remove(path.c_str());
  {
    ServiceOptions so = WorkerOpts(2);
    so.journal_path = path;
    WorkloadService service(db(), so);
    TB_EXPECT_OK(service.journal_status());
    auto wl = service.SubmitWorkload({kScan, kGrouped}, {}).get();
    ASSERT_TRUE(wl.ok()) << wl.status().ToString();
    auto q = service.SubmitQuery(kGrouped, {}).get();
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    TB_EXPECT_OK(service.journal_status());
    service.Shutdown();
  }
  auto loaded = LoadRunJournal(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->header.metadata.at("writer"), "workload-service");
  EXPECT_EQ(loaded->header.query_count, 0u);
  ASSERT_EQ(loaded->records.size(), 3u);
  for (const auto& rec : loaded->records) {
    EXPECT_GE(rec.attempts, 1u);
    EXPECT_GT(rec.seconds, 0.0);
    EXPECT_FALSE(rec.failed);
  }

  // A service outcome journal is an audit log, not a checkpoint: the
  // workload runners must refuse to resume from it.
  auto resumed = RunWorkload(db(), {kScan, kGrouped}, ResumeFrom(path));
  ASSERT_FALSE(resumed.ok());
  EXPECT_TRUE(resumed.status().IsInvalidArgument())
      << resumed.status().ToString();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace tabbench
