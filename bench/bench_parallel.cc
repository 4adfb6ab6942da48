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
// TABBENCH_WORKERS (max worker count to sweep to, default 8).
// `--bench-json <path>` additionally writes the intra-query sweep's best
// point as a BENCH_*.json perf-trajectory record (bench_support.h).

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "bench_support.h"
#include "core/runner.h"
#include "core/sampling.h"
#include "util/thread_pool.h"

int main(int argc, char** argv) {
  using namespace tabbench;
  using namespace tabbench::bench;
  using Clock = std::chrono::steady_clock;

  const std::string bench_json = TakeBenchJsonArg(&argc, argv);

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

  size_t max_workers = 8;
  if (const char* w = std::getenv("TABBENCH_WORKERS")) {
    max_workers = static_cast<size_t>(std::atoi(w));
  }
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
  double best_ms = 0.0;
  size_t best_threads = 1;
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
    if (best_ms == 0.0 || vec_ms < best_ms) {
      best_ms = vec_ms;
      best_threads = workers;
    }
  }

  if (!bench_json.empty()) {
    BenchJsonReport report;
    report.name = "parallel_nref2j_vectorized";
    report.wall_seconds = best_ms / 1e3;
    report.queries_per_second =
        best_ms > 0.0 ? static_cast<double>(sql.size()) / (best_ms / 1e3)
                      : 0.0;
    report.speedup_vs_serial = best_ms > 0.0 ? seq_ms / best_ms : 1.0;
    report.thread_count = best_threads;
    Status st = WriteBenchJsonReport(bench_json, report);
    if (!st.ok()) {
      std::printf("bench-json write failed: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("\nwrote %s (best: %zu threads, %.2fx vs serial Volcano)\n",
                bench_json.c_str(), best_threads,
                best_ms > 0.0 ? seq_ms / best_ms : 1.0);
  }
  return 0;
}
