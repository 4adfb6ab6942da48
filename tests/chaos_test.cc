// Chaos suite: deterministic fault injection, failure isolation, and the
// serial/parallel bit-identity contract under injected faults. Lives in its
// own binary so `ctest -L chaos` (optionally under TABBENCH_SANITIZE=thread)
// can target exactly these tests.

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/runner.h"
#include "util/rng.h"
#include "util/run_journal.h"
#include "util/thread_pool.h"
#include "test_util.h"
#include "util/fault_injection.h"
#include "util/strings.h"

namespace tabbench {
namespace {

/// Disarms every fault point on scope exit so a failing ASSERT cannot leak
/// an armed schedule into later tests.
struct FaultGuard {
  FaultGuard() { FaultRegistry::Global().DisarmAll(); }
  ~FaultGuard() { FaultRegistry::Global().DisarmAll(); }
};

FaultSpec Spec(const std::string& point, Status::Code code,
               FaultSpec::Trigger trigger, uint64_t nth = 1,
               double probability = 0.0, uint64_t seed = 0) {
  FaultSpec s;
  s.point = point;
  s.code = code;
  s.trigger = trigger;
  s.nth = nth;
  s.probability = probability;
  s.seed = seed;
  return s;
}

// ------------------------------------------------------------ spec parsing

TEST(FaultSpecTest, ParsesEveryTriggerForm) {
  auto once = FaultRegistry::ParseSpec("storage.page_read=unavailable@once");
  ASSERT_TRUE(once.ok()) << once.status().ToString();
  EXPECT_EQ(once->point, "storage.page_read");
  EXPECT_EQ(once->code, Status::Code::kUnavailable);
  EXPECT_EQ(once->trigger, FaultSpec::Trigger::kOnce);

  auto nth = FaultRegistry::ParseSpec("engine.query=internal@nth:7");
  ASSERT_TRUE(nth.ok()) << nth.status().ToString();
  EXPECT_EQ(nth->trigger, FaultSpec::Trigger::kNth);
  EXPECT_EQ(nth->nth, 7u);

  auto prob = FaultRegistry::ParseSpec("a.b=resource_exhausted@prob:0.25");
  ASSERT_TRUE(prob.ok()) << prob.status().ToString();
  EXPECT_EQ(prob->trigger, FaultSpec::Trigger::kProbability);
  EXPECT_DOUBLE_EQ(prob->probability, 0.25);
  EXPECT_EQ(prob->seed, 0u);

  auto seeded = FaultRegistry::ParseSpec("a.b=timeout@prob:1:99");
  ASSERT_TRUE(seeded.ok()) << seeded.status().ToString();
  EXPECT_DOUBLE_EQ(seeded->probability, 1.0);
  EXPECT_EQ(seeded->seed, 99u);
}

TEST(FaultSpecTest, RejectsMalformedSpecs) {
  EXPECT_FALSE(FaultRegistry::ParseSpec("").ok());
  EXPECT_FALSE(FaultRegistry::ParseSpec("no_equals").ok());
  EXPECT_FALSE(FaultRegistry::ParseSpec("=unavailable@once").ok());
  EXPECT_FALSE(FaultRegistry::ParseSpec("p=@once").ok());
  EXPECT_FALSE(FaultRegistry::ParseSpec("p=not_a_code@once").ok());
  EXPECT_FALSE(FaultRegistry::ParseSpec("p=unavailable@sometimes").ok());
  EXPECT_FALSE(FaultRegistry::ParseSpec("p=unavailable@nth:0").ok());
  EXPECT_FALSE(FaultRegistry::ParseSpec("p=unavailable@nth:x").ok());
  EXPECT_FALSE(FaultRegistry::ParseSpec("p=unavailable@prob:1.5").ok());
  EXPECT_FALSE(FaultRegistry::ParseSpec("p=unavailable@prob:0.5:zz").ok());
  // Each number must be the whole field in from_chars form: no sign that
  // wraps, no overflow that saturates, no leading space, no NaN (which
  // would slip past a [0,1] range check).
  EXPECT_FALSE(FaultRegistry::ParseSpec("p=unavailable@nth:-3").ok());
  EXPECT_FALSE(
      FaultRegistry::ParseSpec("p=unavailable@nth:99999999999999999999999")
          .ok());
  EXPECT_FALSE(FaultRegistry::ParseSpec("p=unavailable@nth: 7").ok());
  EXPECT_FALSE(FaultRegistry::ParseSpec("p=unavailable@nth:+7").ok());
  EXPECT_FALSE(FaultRegistry::ParseSpec("p=unavailable@prob:0.5:-1").ok());
  EXPECT_FALSE(FaultRegistry::ParseSpec("p=unavailable@prob:0.5: 1").ok());
  EXPECT_FALSE(FaultRegistry::ParseSpec("p=unavailable@prob:nan").ok());
  EXPECT_FALSE(FaultRegistry::ParseSpec("p=unavailable@prob:nan:3").ok());
  EXPECT_FALSE(FaultRegistry::ParseSpec("p=unavailable@prob:inf").ok());
  EXPECT_FALSE(FaultRegistry::ParseSpec("p=unavailable@prob: 0.5").ok());

  // Arm applies the same range rule to a spec built in code.
  FaultGuard guard;
  FaultSpec nan_spec = Spec("p", Status::Code::kUnavailable,
                            FaultSpec::Trigger::kProbability, 1, std::nan(""));
  EXPECT_TRUE(FaultRegistry::Global().Arm(nan_spec).IsInvalidArgument());
  EXPECT_TRUE(FaultRegistry::Global().armed_points().empty());
}

TEST(FaultSpecTest, ArmFromStringArmsEveryValidSpec) {
  FaultGuard guard;
  TB_ASSERT_OK(FaultRegistry::Global().ArmFromString(
      "a.x=unavailable@once; b.y=internal@nth:3"));
  auto points = FaultRegistry::Global().armed_points();
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0], "a.x");
  EXPECT_EQ(points[1], "b.y");

  // A bad chunk reports an error but the good chunks still arm — the
  // TABBENCH_FAULTS path warns instead of silently dropping the schedule.
  FaultRegistry::Global().DisarmAll();
  Status st = FaultRegistry::Global().ArmFromString(
      "a.x=unavailable@once; broken; b.y=internal@once");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(FaultRegistry::Global().armed_points().size(), 2u);
}

// --------------------------------------------------------------- registry

TEST(FaultRegistryTest, ArmedGateTracksRegistryContents) {
  FaultGuard guard;
  EXPECT_FALSE(FaultInjectionArmed());
  TB_ASSERT_OK(FaultRegistry::Global().Arm(
      Spec("gate.p", Status::Code::kUnavailable, FaultSpec::Trigger::kOnce)));
  EXPECT_TRUE(FaultInjectionArmed());
  FaultRegistry::Global().Disarm("gate.p");
  EXPECT_FALSE(FaultInjectionArmed());
}

TEST(FaultRegistryTest, OnceFiresOnFirstHitPerScope) {
  FaultGuard guard;
  TB_ASSERT_OK(FaultRegistry::Global().Arm(
      Spec("once.p", Status::Code::kUnavailable, FaultSpec::Trigger::kOnce)));
  {
    FaultScope scope(1);
    EXPECT_TRUE(FaultRegistry::Global().Check("once.p").IsUnavailable());
    EXPECT_TRUE(FaultRegistry::Global().Check("once.p").ok());
  }
  {
    FaultScope scope(2);  // a fresh scope restarts the hit count
    EXPECT_TRUE(FaultRegistry::Global().Check("once.p").IsUnavailable());
  }
  auto stats = FaultRegistry::Global().stats("once.p");
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.fires, 2u);
}

TEST(FaultRegistryTest, ProbabilityDecisionsAreAScopePureFunction) {
  FaultGuard guard;
  TB_ASSERT_OK(FaultRegistry::Global().Arm(
      Spec("prob.p", Status::Code::kUnavailable,
           FaultSpec::Trigger::kProbability, 1, 0.5, /*seed=*/11)));
  auto pattern = [](uint64_t scope_seed) {
    FaultScope scope(scope_seed);
    std::string bits;
    for (int i = 0; i < 64; ++i) {
      bits += FaultRegistry::Global().Check("prob.p").ok() ? '0' : '1';
    }
    return bits;
  };
  std::string a = pattern(7);
  std::string b = pattern(7);
  std::string c = pattern(8);
  EXPECT_EQ(a, b) << "same scope seed must reproduce the same schedule";
  EXPECT_NE(a, c) << "distinct scopes must draw distinct schedules";
  EXPECT_NE(a.find('1'), std::string::npos);  // p=0.5 over 64 draws
  EXPECT_NE(a.find('0'), std::string::npos);
}

TEST(FaultRegistryTest, TriggerLatchesIntoScopeUntilTaken) {
  FaultGuard guard;
  TB_ASSERT_OK(FaultRegistry::Global().Arm(
      Spec("latch.p", Status::Code::kInternal, FaultSpec::Trigger::kOnce)));
  {
    FaultScope scope(1);
    FaultRegistry::Global().Trigger("latch.p");
    Status st = FaultRegistry::TakePending();
    EXPECT_TRUE(st.code() == Status::Code::kInternal) << st.ToString();
    EXPECT_TRUE(FaultRegistry::TakePending().ok());  // consumed
  }
  // Without a scope there is nowhere to latch: the fire is counted as
  // dropped instead of crashing or leaking across threads.
  FaultRegistry::Global().DisarmAll();
  TB_ASSERT_OK(FaultRegistry::Global().Arm(
      Spec("latch.p", Status::Code::kInternal, FaultSpec::Trigger::kOnce)));
  FaultRegistry::Global().Trigger("latch.p");
  EXPECT_EQ(FaultRegistry::Global().dropped_fires(), 1u);
}

// ------------------------------------------------------------ runner chaos

class ChaosRunnerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    tiny_ = std::make_unique<testing::TinyDb>(testing::TinyDb::Make(3000, 20));
    for (int d = 0; d < 12; ++d) {
      sql_.push_back(StrFormat(
          "SELECT p.city, COUNT(*) FROM people p WHERE p.dept = %d "
          "GROUP BY p.city",
          d));
      sql_.push_back("SELECT p.dept, COUNT(*) FROM people p GROUP BY p.dept");
    }
  }
  static void TearDownTestSuite() {
    tiny_.reset();
    sql_.clear();
  }
  static Database* db() { return tiny_->db.get(); }

  static void ExpectIdentical(const WorkloadResult& a,
                              const WorkloadResult& b) {
    ASSERT_EQ(a.timings.size(), b.timings.size());
    for (size_t i = 0; i < a.timings.size(); ++i) {
      EXPECT_EQ(a.timings[i].timed_out, b.timings[i].timed_out) << i;
      EXPECT_EQ(a.timings[i].failed, b.timings[i].failed) << i;
      // Exact ==, not approximate: the replay applies the same FP ops in
      // the same order.
      EXPECT_EQ(a.timings[i].seconds, b.timings[i].seconds) << i;
    }
    EXPECT_EQ(a.timeouts, b.timeouts);
    EXPECT_EQ(a.failures, b.failures);
    EXPECT_EQ(a.total_clamped_seconds, b.total_clamped_seconds);
    ASSERT_EQ(a.failure_details.size(), b.failure_details.size());
    for (size_t i = 0; i < a.failure_details.size(); ++i) {
      EXPECT_EQ(a.failure_details[i].query_index,
                b.failure_details[i].query_index)
          << i;
      EXPECT_EQ(a.failure_details[i].status.ToString(),
                b.failure_details[i].status.ToString())
          << i;
    }
  }

  static std::unique_ptr<testing::TinyDb> tiny_;
  static std::vector<std::string> sql_;
};

std::unique_ptr<testing::TinyDb> ChaosRunnerTest::tiny_;
std::vector<std::string> ChaosRunnerTest::sql_;

TEST_F(ChaosRunnerTest, UnrecoverableFaultsAreIsolatedAndCensored) {
  // Every query runs once, so every injected error is final: transient
  // ones, bugs and a cancelled code alike. The run must still complete,
  // with each query censored at the timeout cost — the paper's treatment
  // of an advisor that fails outright.
  const double t_out = db()->options().cost.timeout_seconds;
  for (Status::Code code :
       {Status::Code::kInternal, Status::Code::kUnavailable,
        Status::Code::kCancelled}) {
    FaultGuard guard;
    TB_ASSERT_OK(FaultRegistry::Global().Arm(
        Spec("engine.query", code, FaultSpec::Trigger::kOnce)));
    auto r = RunWorkload(db(), sql_);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->failures, sql_.size());
    EXPECT_EQ(r->timeouts, sql_.size());
    ASSERT_EQ(r->failure_details.size(), sql_.size());
    for (size_t i = 0; i < sql_.size(); ++i) {
      EXPECT_TRUE(r->timings[i].failed) << i;
      EXPECT_TRUE(r->timings[i].timed_out) << i;
      EXPECT_DOUBLE_EQ(r->timings[i].seconds, t_out) << i;
      EXPECT_EQ(r->failure_details[i].query_index, i);
      EXPECT_TRUE(r->failure_details[i].status.code() == code) << i;
    }
    EXPECT_DOUBLE_EQ(r->total_clamped_seconds,
                     t_out * static_cast<double>(sql_.size()));
  }
}

TEST_F(ChaosRunnerTest, SerialAndParallelBitIdenticalUnderFaultSchedule) {
  FaultGuard guard;
  // A mixed schedule: a latched mid-scan fault plus a sparse fault at query
  // entry — so the workload exercises success and censored failure, from
  // both kinds of fault point, in one run.
  TB_ASSERT_OK(FaultRegistry::Global().ArmFromString(
      "storage.heap_scan=unavailable@prob:0.02:21; "
      "engine.query=internal@prob:0.08:5"));

  auto serial = RunWorkload(db(), sql_);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  auto serial_pool = db()->buffer_stats();

  // 4 workers record in batches of 16, so the 24 queries cross a batch
  // boundary.
  ThreadPool pool(4);
  ParallelOptions par;
  par.pool = &pool;
  auto parallel = RunWorkloadParallel(db(), sql_, par);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  auto par_pool = db()->buffer_stats();

  // The schedule must actually perturb the run for this test to mean
  // anything; both outcomes are deterministic, so these are stable.
  EXPECT_GT(serial->failures, 0u);
  EXPECT_LT(serial->failures, sql_.size());

  ExpectIdentical(*serial, *parallel);
  EXPECT_EQ(par_pool.hits, serial_pool.hits);
  EXPECT_EQ(par_pool.misses, serial_pool.misses);
  EXPECT_EQ(par_pool.resident, serial_pool.resident);
}

TEST_F(ChaosRunnerTest, FaultFreeRunsUnchangedAfterDisarm) {
  FaultGuard guard;
  auto before = RunWorkload(db(), sql_, RunOptions{});
  ASSERT_TRUE(before.ok());

  TB_ASSERT_OK(FaultRegistry::Global().ArmFromString(
      "storage.heap_scan=unavailable@prob:0.5:2"));
  auto chaotic = RunWorkload(db(), sql_);
  ASSERT_TRUE(chaotic.ok());
  EXPECT_GT(chaotic->failures, 0u);

  FaultRegistry::Global().DisarmAll();
  auto after = RunWorkload(db(), sql_, RunOptions{});
  ASSERT_TRUE(after.ok());
  ExpectIdentical(*before, *after);
  EXPECT_EQ(after->failures, 0u);
}

// -------------------------------------------------------------- kill-resume
//
// The crash-safety contract end to end: a benchmark process is SIGKILLed
// mid-run (no destructors, no flush — the journal's fsync-per-record is all
// that survives), and the resumed run must produce the bit-identical final
// report. The child is a real fork so the kill exercises the same code path
// an OOM-kill or power cut would.

class KillResumeChaosTest : public ChaosRunnerTest {
 protected:
  static std::string TempPath(const std::string& name) {
    return ::testing::TempDir() + "/" + name;
  }

  static std::string Slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
  }

  /// Forks a child that runs the journaled workload and is SIGKILLed by the
  /// TABBENCH_JOURNAL_CRASH_AFTER hook right after its `crash_after`-th
  /// record hits disk. Asserts the child actually died by SIGKILL and the
  /// journal holds exactly `crash_after` durable records.
  static void RunChildUntilKilled(const std::string& journal_path,
                                  const RunOptions& opts, size_t crash_after) {
    std::remove(journal_path.c_str());
    ASSERT_EQ(setenv("TABBENCH_JOURNAL_CRASH_AFTER",
                     std::to_string(crash_after).c_str(), 1),
              0);
    pid_t pid = fork();
    ASSERT_NE(pid, -1) << "fork failed";
    if (pid == 0) {
      // Child. The journal writer raises SIGKILL after the n-th fsync'd
      // append; reaching _exit means the hook never fired — make that loud.
      RunOptions child_opts = opts;
      child_opts.journal_path = journal_path;
      auto r = RunWorkload(db(), sql_, child_opts);
      (void)r;
      _exit(42);
    }
    unsetenv("TABBENCH_JOURNAL_CRASH_AFTER");
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status))
        << "child survived to exit code "
        << (WIFEXITED(status) ? WEXITSTATUS(status) : -1);
    EXPECT_EQ(WTERMSIG(status), SIGKILL);

    auto loaded = LoadRunJournal(journal_path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded->records.size(), crash_after);
  }
};

TEST_F(KillResumeChaosTest, SigkilledRunResumesBitIdentical) {
  FaultGuard guard;
  auto baseline = RunWorkload(db(), sql_);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  const BufferPoolStats base_pool = db()->buffer_stats();

  // The uninterrupted journal, for the byte-level comparison at the end.
  std::string clean_path = TempPath("killresume_clean.tbj");
  RunOptions clean_opts;
  clean_opts.journal_path = clean_path;
  ASSERT_TRUE(RunWorkload(db(), sql_, clean_opts).ok());

  // Crash points drawn from a fixed seed: reproducible, but not hand-picked
  // round numbers.
  Rng rng(20260805);
  for (int round = 0; round < 3; ++round) {
    size_t crash_after =
        1 + static_cast<size_t>(rng.Uniform(sql_.size() - 1));
    std::string path = TempPath("killresume_" + std::to_string(round) +
                                ".tbj");
    SCOPED_TRACE("crash_after=" + std::to_string(crash_after));
    RunChildUntilKilled(path, RunOptions{}, crash_after);

    auto resumed = RunWorkload(db(), sql_, ResumeFrom(path));
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    ExpectIdentical(*baseline, *resumed);
    const BufferPoolStats pool = db()->buffer_stats();
    EXPECT_EQ(pool.hits, base_pool.hits);
    EXPECT_EQ(pool.misses, base_pool.misses);

    // The healed journal is byte-identical to one never interrupted.
    EXPECT_EQ(Slurp(path), Slurp(clean_path));
    std::remove(path.c_str());
  }
  std::remove(clean_path.c_str());
}

TEST_F(KillResumeChaosTest, SigkilledRunResumesUnderTheParallelRunner) {
  FaultGuard guard;
  auto baseline = RunWorkload(db(), sql_);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  std::string path = TempPath("killresume_parallel.tbj");
  RunChildUntilKilled(path, RunOptions{}, 9);

  ThreadPool pool(4);
  ParallelOptions par;
  par.pool = &pool;
  auto resumed = RunWorkloadParallel(db(), sql_, par, ResumeFrom(path));
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ExpectIdentical(*baseline, *resumed);
  auto reloaded = LoadRunJournal(path);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ(reloaded->records.size(), sql_.size());
  std::remove(path.c_str());
}

TEST_F(KillResumeChaosTest, SigkilledRunUnderFaultsResumesExact) {
  // The full gauntlet: injected faults, censored failures, and a SIGKILL —
  // the resumed run must still land on the same bits, fault schedule
  // included (the schedule is a pure function of the query index, so the
  // live tail re-draws exactly what the dead process would have).
  FaultGuard guard;
  TB_ASSERT_OK(FaultRegistry::Global().ArmFromString(
      "storage.heap_scan=unavailable@prob:0.02:21; "
      "engine.query=internal@prob:0.08:5"));

  auto baseline = RunWorkload(db(), sql_);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  // Failures on both sides of the crash point, so the resume replays
  // censored records and the live tail draws fresh ones.
  constexpr size_t kCrashAfter = 14;
  size_t failed_before_crash = 0;
  for (size_t i = 0; i < kCrashAfter; ++i) {
    if (baseline->timings[i].failed) ++failed_before_crash;
  }
  ASSERT_GT(failed_before_crash, 0u);
  ASSERT_LT(failed_before_crash, baseline->failures);

  std::string path = TempPath("killresume_faulted.tbj");
  RunChildUntilKilled(path, RunOptions{}, kCrashAfter);

  auto resumed = RunWorkload(db(), sql_, ResumeFrom(path));
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ExpectIdentical(*baseline, *resumed);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace tabbench
