#include "util/retry.h"

#include <algorithm>

#include "util/rng.h"

namespace tabbench {

double RetryPolicy::BackoffSeconds(int attempt) const {
  if (attempt <= 0) return 0.0;
  double delay = initial_backoff_seconds;
  for (int i = 1; i < attempt; ++i) {
    delay *= backoff_multiplier;
    if (delay >= max_backoff_seconds) break;
  }
  delay = std::min(delay, max_backoff_seconds);
  if (jitter_fraction > 0.0) {
    // One draw per (seed, attempt); the golden-ratio stride decorrelates
    // consecutive attempts under the same seed.
    Rng rng(seed + 0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(attempt));
    double factor = 1.0 + jitter_fraction * (2.0 * rng.UniformDouble() - 1.0);
    delay *= factor;
  }
  return std::max(delay, 0.0);
}

}  // namespace tabbench
