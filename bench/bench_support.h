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

/// Environment knobs shared by every reproduction binary:
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

/// The experiment protocol for one figure: sample the family, obtain the
/// profile's recommendation (may legitimately fail for System A), run the
/// standard configuration ladder, and print histograms/CFC/goal sections.
struct FigureOptions {
  std::string figure;        // "Figure 3"
  std::string system;        // "A" / "B" / "C"
  std::string family_name;   // for display
  bool print_histograms = false;  // Figs 1-2 style per-config histograms
  bool print_goal = false;        // Example 2 goal check
};

/// Runs and prints; returns 0 on success (main()-friendly).
int RunCfcFigure(Database* db, QueryFamily family,
                 const AdvisorOptions* profile, const FigureOptions& opts);

/// Rendering of one configuration line of paper Table 1.
std::string Table1Row(const std::string& label, uint64_t total_pages,
                      double build_seconds, double scale_inverse);

}  // namespace bench
}  // namespace tabbench

#endif  // TABBENCH_BENCH_BENCH_SUPPORT_H_
