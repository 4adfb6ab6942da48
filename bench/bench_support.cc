#include "bench_support.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "core/goal.h"
#include "util/status.h"
#include "util/strings.h"

namespace tabbench {
namespace bench {

namespace {

/// TABBENCH_SCALE and TABBENCH_WORKLOAD, parsed once. Each must be unset or
/// a whole-string number in range; anything else ends the process with
/// exit 2 and a message naming the variable, before any work starts (the
/// first MakeNrefDb/MakeSkthDb/MakeUnthDb call reads both).
struct Knobs {
  double scale_inverse = 400.0;
  size_t workload_size = 100;
};

[[noreturn]] void RejectKnob(const char* name, const char* requirement,
                             const char* value) {
  std::fprintf(stderr, "%s must be %s, got '%s'\n", name, requirement, value);
  std::exit(2);
}

Knobs ParseKnobs() {
  Knobs k;
  if (const char* env = std::getenv("TABBENCH_SCALE")) {
    const char* end = env + std::strlen(env);
    double v = 0.0;
    const auto [ptr, ec] = std::from_chars(env, end, v);
    if (ec != std::errc() || ptr != end || !std::isfinite(v) || v < 50.0) {
      RejectKnob("TABBENCH_SCALE", "a number of at least 50", env);
    }
    k.scale_inverse = v;
  }
  if (const char* env = std::getenv("TABBENCH_WORKLOAD")) {
    const char* end = env + std::strlen(env);
    size_t v = 0;
    const auto [ptr, ec] = std::from_chars(env, end, v);
    if (ec != std::errc() || ptr != end || v < 5) {
      RejectKnob("TABBENCH_WORKLOAD", "an integer of at least 5", env);
    }
    k.workload_size = v;
  }
  return k;
}

const Knobs& GetKnobs() {
  static const Knobs knobs = ParseKnobs();
  return knobs;
}

}  // namespace

double ScaleInverse() { return GetKnobs().scale_inverse; }

size_t WorkloadSize() { return GetKnobs().workload_size; }

std::unique_ptr<Database> MakeNrefDb() {
  NrefScaleOptions opts;
  opts.scale_inverse = ScaleInverse();
  auto db = GenerateNref(opts);
  if (!db.ok()) {
    std::fprintf(stderr, "NREF generation failed: %s\n",
                 db.status().ToString().c_str());
    return nullptr;
  }
  return db.TakeValue();
}

std::unique_ptr<Database> MakeSkthDb() {
  TpchScaleOptions opts;
  opts.scale_inverse = ScaleInverse();
  opts.zipf_theta = 1.0;
  auto db = GenerateTpch(opts);
  if (!db.ok()) {
    std::fprintf(stderr, "SkTH generation failed: %s\n",
                 db.status().ToString().c_str());
    return nullptr;
  }
  return db.TakeValue();
}

std::unique_ptr<Database> MakeUnthDb() {
  TpchScaleOptions opts;
  opts.scale_inverse = ScaleInverse();
  opts.zipf_theta = 0.0;
  auto db = GenerateTpch(opts);
  if (!db.ok()) {
    std::fprintf(stderr, "UnTH generation failed: %s\n",
                 db.status().ToString().c_str());
    return nullptr;
  }
  return db.TakeValue();
}

int RunCfcFigure(Database* db, QueryFamily family,
                 const AdvisorOptions* profile, const FigureOptions& opts) {
  std::printf("=== %s: system %s on %s (scale 1/%.0f, %zu queries) ===\n",
              opts.figure.c_str(), opts.system.c_str(),
              opts.family_name.c_str(), ScaleInverse(), WorkloadSize());
  std::printf("family size before sampling: %zu queries\n",
              family.queries.size());

  ExperimentOptions eopts;
  eopts.workload_size = WorkloadSize();
  FamilyExperiment exp(db, std::move(family), eopts);
  Status st = exp.Prepare();
  if (!st.ok()) {
    std::fprintf(stderr, "prepare failed: %s\n", st.ToString().c_str());
    return 1;
  }

  Recommendation rec;
  bool have_rec = false;
  if (profile != nullptr) {
    auto r = exp.Recommend(*profile);
    if (r.ok()) {
      rec = r.TakeValue();
      have_rec = true;
      std::printf(
          "recommendation: %zu indexes, %zu views "
          "(est. workload cost %.0fs -> %.0fs, %.0f pages of budget %.0f)\n",
          rec.config.indexes.size(), rec.config.views.size(),
          rec.est_cost_before, rec.est_cost_after, rec.est_pages,
          exp.SpaceBudgetPages());
    } else {
      // The paper's System A produced no recommendation for NREF3J
      // (Section 4.1.2); surface that outcome rather than failing.
      std::printf("recommender declined: %s\n",
                  r.status().ToString().c_str());
    }
  }

  auto runs = exp.RunStandard(have_rec ? &rec.config : nullptr);
  if (!runs.ok()) {
    std::fprintf(stderr, "runs failed: %s\n",
                 runs.status().ToString().c_str());
    return 1;
  }

  std::vector<NamedCurve> curves;
  for (const auto& r : *runs) {
    std::printf(
        "%-3s built in %s (%llu secondary pages); workload: %zu timeouts, "
        "clamped total %s\n",
        r.config_name.c_str(), HumanSeconds(r.build.build_seconds).c_str(),
        static_cast<unsigned long long>(r.build.secondary_pages),
        r.result.timeouts, HumanSeconds(r.result.total_clamped_seconds).c_str());
    curves.push_back({r.config_name, r.result.Cfc()});
  }
  if (opts.print_histograms) {
    for (const auto& r : *runs) {
      auto h = LogHistogram::Build(r.result.timings, 1.0, 1800.0, 2);
      std::printf("%s\n",
                  RenderHistogram(
                      h, StrFormat("-- query elapsed times on %s --",
                                   r.config_name.c_str()))
                      .c_str());
    }
  }
  std::printf("%s",
              RenderCfcComparison(curves, {},
                                  "-- cumulative frequency of elapsed times --")
                  .c_str());
  std::printf("%s", RenderQuantiles(curves, {0.25, 0.5, 0.75, 0.9}).c_str());
  if (opts.print_goal) {
    std::printf("%s", RenderGoalCheck(PerformanceGoal::PaperExample2(), curves)
                          .c_str());
  }
  // First-order stochastic dominance verdicts (Section 2.2).
  for (size_t i = 0; i < curves.size(); ++i) {
    for (size_t j = 0; j < curves.size(); ++j) {
      if (i == j) continue;
      if (curves[i].cfc.Dominates(curves[j].cfc)) {
        std::printf("dominance: %s > %s\n", curves[i].name.c_str(),
                    curves[j].name.c_str());
      }
    }
  }
  return 0;
}

std::string Table1Row(const std::string& label, uint64_t total_pages,
                      double build_seconds, double scale_inverse) {
  // Scaled pages -> paper-equivalent bytes: each scaled page stands for
  // scale_inverse real pages.
  double bytes = static_cast<double>(total_pages) *
                 static_cast<double>(kPageSize) * scale_inverse;
  double gib = bytes / (1024.0 * 1024.0 * 1024.0);
  return StrFormat("  %-14s %8.1f GB-equiv   build %8.0f min", label.c_str(),
                   gib, build_seconds / 60.0);
}

}  // namespace bench
}  // namespace tabbench
