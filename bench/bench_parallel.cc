// Wall-clock ablation for the concurrent execution layers: runs the same
// NREF2J workload (a) through the sequential runner, (b) through
// RunWorkloadParallel at increasing worker counts (inter-query parallelism,
// util/thread_pool.h), and (c) query-at-a-time on the morsel-driven vectorized
// engine at increasing helper budgets (intra-query parallelism,
// src/exec/vec/). Every mode's simulated results must be bit-identical to
// the sequential run (the trace-record/replay determinism contract,
// src/core/runner.h) — only wall-clock may differ.
//
// Knobs: TABBENCH_SCALE, TABBENCH_WORKLOAD (bench_support.h), and
// TABBENCH_WORKERS (max worker count to sweep to, default 8; an integer
// from 1 to 256, anything else exits 2 before any work starts).

#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "bench_support.h"
#include "core/runner.h"
#include "core/sampling.h"
#include "util/thread_pool.h"

namespace {

// Each sweep step builds a ThreadPool of up to this many threads.
constexpr size_t kMaxWorkers = 256;

/// Parses a whole-string integer in [1, kMaxWorkers] into *out.
bool ParseWorkers(const char* text, size_t* out) {
  const char* end = text + std::strlen(text);
  size_t v = 0;
  const auto [ptr, ec] = std::from_chars(text, end, v);
  if (ec != std::errc() || ptr != end || v < 1 || v > kMaxWorkers) {
    return false;
  }
  *out = v;
  return true;
}

}  // namespace

int main() {
  using namespace tabbench;
  using namespace tabbench::bench;
  using Clock = std::chrono::steady_clock;

  size_t max_workers = 8;
  if (const char* w = std::getenv("TABBENCH_WORKERS")) {
    if (!ParseWorkers(w, &max_workers)) {
      std::fprintf(stderr,
                   "bench_parallel: TABBENCH_WORKERS must be an integer "
                   "from 1 to %zu, got '%s'\n",
                   kMaxWorkers, w);
      return 2;
    }
  }

  std::printf("=== Parallel workload execution: wall-time vs workers ===\n");

  auto db = MakeNrefDb();
  if (!db) return 1;
  QueryFamily family = GenerateNref2J(db->catalog(), db->stats());
  auto sampled = SampleFamily(family, db.get(), WorkloadSize(), /*seed=*/7);
  if (!sampled.ok()) {
    std::printf("sampling failed: %s\n", sampled.status().ToString().c_str());
    return 1;
  }
  const std::vector<std::string> sql = sampled->Sql();
  const unsigned cores = std::thread::hardware_concurrency();
  std::printf("workload: %zu NREF2J queries, scale 1/%.0f, %u core%s\n",
              sql.size(), ScaleInverse(), cores, cores == 1 ? "" : "s");
  if (cores <= 1) {
    std::printf("(single core: workers time-slice one CPU, so no speedup "
                "is expected here —\n this run checks determinism and "
                "measures the sequential replay floor)\n");
  }
  std::printf("\n");

  RunOptions opts;
  opts.collect_estimates = true;

  auto t0 = Clock::now();
  auto seq = RunWorkload(db.get(), sql, opts);
  auto t1 = Clock::now();
  if (!seq.ok()) {
    std::printf("sequential run failed: %s\n",
                seq.status().ToString().c_str());
    return 1;
  }
  const double seq_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  std::printf("%-12s %10.1f ms   (%zu timeouts, total %.1f sim-s)\n",
              "sequential", seq_ms, seq->timeouts,
              seq->total_clamped_seconds);

  for (size_t workers = 1; workers <= max_workers; workers *= 2) {
    ThreadPool pool(workers);
    ParallelOptions par;
    par.pool = &pool;
    auto p0 = Clock::now();
    auto parallel = RunWorkloadParallel(db.get(), sql, par, opts);
    auto p1 = Clock::now();
    if (!parallel.ok()) {
      std::printf("parallel run failed: %s\n",
                  parallel.status().ToString().c_str());
      return 1;
    }
    const double par_ms =
        std::chrono::duration<double, std::milli>(p1 - p0).count();

    bool identical = parallel->timings.size() == seq->timings.size() &&
                     parallel->timeouts == seq->timeouts &&
                     parallel->total_clamped_seconds ==
                         seq->total_clamped_seconds;
    for (size_t i = 0; identical && i < seq->timings.size(); ++i) {
      identical = parallel->timings[i].seconds == seq->timings[i].seconds &&
                  parallel->timings[i].timed_out == seq->timings[i].timed_out;
    }
    for (size_t i = 0; identical && i < seq->estimates.size(); ++i) {
      identical = parallel->estimates[i] == seq->estimates[i];
    }
    std::printf("%zu worker%-5s %10.1f ms   speedup %4.2fx   results %s\n",
                workers, workers == 1 ? "" : "s", par_ms, seq_ms / par_ms,
                identical ? "bit-identical" : "DIVERGED (bug!)");
    if (!identical) return 1;
  }

  // Intra-query parallelism: the same workload, one query at a time, on
  // the vectorized engine with growing helper budgets. This is the
  // single-query speedup knob (a session's queries finish faster), where
  // the sweep above only improves whole-workload throughput.
  std::printf("\n=== Intra-query parallelism: vectorized engine ===\n");
  for (size_t workers = 1; workers <= max_workers; workers *= 2) {
    ThreadPool pool(workers);
    RunOptions vopts = opts;
    vopts.executor = QueryExecutor::kVectorized;
    vopts.intra_query_pool = &pool;
    vopts.intra_query_parallelism = workers;
    auto v0 = Clock::now();
    auto vec = RunWorkload(db.get(), sql, vopts);
    auto v1 = Clock::now();
    if (!vec.ok()) {
      std::printf("vectorized run failed: %s\n",
                  vec.status().ToString().c_str());
      return 1;
    }
    const double vec_ms =
        std::chrono::duration<double, std::milli>(v1 - v0).count();

    bool identical = vec->timings.size() == seq->timings.size() &&
                     vec->timeouts == seq->timeouts &&
                     vec->total_clamped_seconds == seq->total_clamped_seconds;
    for (size_t i = 0; identical && i < seq->timings.size(); ++i) {
      identical = vec->timings[i].seconds == seq->timings[i].seconds &&
                  vec->timings[i].timed_out == seq->timings[i].timed_out;
    }
    for (size_t i = 0; identical && i < seq->estimates.size(); ++i) {
      identical = vec->estimates[i] == seq->estimates[i];
    }
    std::printf("%zu thread%-5s %10.1f ms   speedup %4.2fx   results %s\n",
                workers, workers == 1 ? "" : "s", vec_ms, seq_ms / vec_ms,
                identical ? "bit-identical" : "DIVERGED (bug!)");
    if (!identical) return 1;
  }
  return 0;
}
