#ifndef TABBENCH_UTIL_RETRY_H_
#define TABBENCH_UTIL_RETRY_H_

#include <cstdint>

#include "util/status.h"

namespace tabbench {

/// Exponential backoff with deterministic jitter for transient errors
/// (Status::IsTransient(): kUnavailable, kResourceExhausted). The delays
/// are simulated, never slept: the runner charges each backoff into the
/// query's sim time (ExecContext::ChargeBackoff), so a retried query pays
/// for its retries in the CFC exactly like the paper charges timed-out
/// queries their timeout.
///
/// Jitter is seeded, not sampled from global entropy: BackoffSeconds is a
/// pure function of (policy, attempt), so a retried run reproduces the same
/// delays — the same determinism contract as util/fault_injection.h.
struct RetryPolicy {
  /// Total attempts including the first; 1 means no retry (the default, so
  /// existing call sites keep their semantics until they opt in).
  int max_attempts = 1;
  /// Delay before attempt 2; successive delays multiply by
  /// `backoff_multiplier` and clamp at `max_backoff_seconds`.
  double initial_backoff_seconds = 0.05;
  double backoff_multiplier = 2.0;
  double max_backoff_seconds = 2.0;
  /// Each delay is scaled by a factor drawn deterministically from
  /// [1 - jitter_fraction, 1 + jitter_fraction].
  double jitter_fraction = 0.1;
  /// Seed for the jitter draws (mixed with the attempt number).
  uint64_t seed = 0;

  /// Convenience: a policy that retries transient errors `attempts` times
  /// total with the default backoff shape.
  static RetryPolicy WithAttempts(int attempts) {
    RetryPolicy p;
    p.max_attempts = attempts;
    return p;
  }

  /// The delay, in seconds, between failed attempt `attempt` (1-based) and
  /// the next one. Deterministic; >= 0; returns 0 for attempt <= 0.
  double BackoffSeconds(int attempt) const;

  /// True when attempt `attempt` (1-based) failing with `status` should be
  /// retried: the error is transient and attempts remain.
  bool ShouldRetry(const Status& status, int attempt) const {
    return status.IsTransient() && attempt < max_attempts;
  }
};

}  // namespace tabbench

#endif  // TABBENCH_UTIL_RETRY_H_
