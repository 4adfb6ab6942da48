#include "bench_support.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "util/status.h"

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

}  // namespace bench
}  // namespace tabbench
