#ifndef TABBENCH_BENCH_BENCH_SUPPORT_H_
#define TABBENCH_BENCH_BENCH_SUPPORT_H_

#include <memory>
#include <string>

#include "advisor/profiles.h"
#include "core/benchmark_suite.h"
#include "core/nref_families.h"
#include "core/report.h"
#include "core/tpch_families.h"
#include "datagen/nref_gen.h"
#include "datagen/tpch_gen.h"

namespace tabbench {
namespace bench {

/// Environment knobs shared by tabbench_suite, bench_parallel and
/// bench_insertions:
///   TABBENCH_SCALE     data scale inverse, a number >= 50 (default 400 =
///                      1/400 of paper)
///   TABBENCH_WORKLOAD  queries per workload, an integer >= 5 (default 100,
///                      as the paper)
/// A malformed or out-of-range value exits 2 with a message naming it.
double ScaleInverse();
size_t WorkloadSize();

/// Benchmark databases at the configured scale (stats collected, P built).
std::unique_ptr<Database> MakeNrefDb();
std::unique_ptr<Database> MakeSkthDb();  // TPC-H, Zipf(1)
std::unique_ptr<Database> MakeUnthDb();  // TPC-H, uniform

}  // namespace bench
}  // namespace tabbench

#endif  // TABBENCH_BENCH_BENCH_SUPPORT_H_
