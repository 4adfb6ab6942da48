#include "core/runner.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <memory>

#include "util/fault_injection.h"
#include "util/run_journal.h"

namespace tabbench {

namespace {

/// What one record worker captures for one query: every attempt of its
/// retry loop, in the journal's own attempt record. Slots are preallocated
/// per batch, so workers write disjoint memory and the batch joins
/// race-free.
struct RecordedQuery {
  std::vector<JournalAttempt> attempts;
  Status spawn_status;  // ParallelFor rejection / pre-spawn cancellation
  double estimate = 0.0;
  Status est_status;
};

/// The serial runner's per-query decisions, recomputed from attempt traces.
struct QueryReplayOutcome {
  QueryTiming timing;
  size_t attempts_consumed = 0;  // executions the serial walk performed
  size_t retries = 0;
  bool failed = false;
  Status failure_status;
};

/// Walks one query's recorded attempts through the shared pool in workload
/// position, making exactly the decisions RunWorkload's live loop makes:
/// one cumulative context per query that Applies each attempt's trace and
/// charges the backoff between attempts, the same retry choices on the
/// recorded statuses, the same repetition averaging (each repetition on a
/// fresh context) and single-run rule for timeouts, the same final pool
/// state. Both the parallel runner's replay phase and journal resume are
/// this walk — which is what makes a journal written by either runner
/// resumable by either runner, bit-identically.
///
/// When the replay trips a timeout mid-attempt, the serial run stopped
/// there too, and any further recorded attempts are discarded
/// (attempts_consumed tells the caller how many were used). Returns non-OK
/// only for a recorded cancellation, which aborts the whole run.
Result<QueryReplayOutcome> ReplayQueryAttempts(
    const std::vector<JournalAttempt>& attempts, Database* db,
    const CostParams& cost, const RetryPolicy& retry, int repetitions) {
  const double timeout = cost.timeout_seconds;
  QueryReplayOutcome out;
  double total = 0.0;
  int runs = 0;
  const AccessTrace* final_trace = nullptr;
  ExecContext ctx = db->MakeSessionContext(db->buffer_pool(), cost);
  for (size_t a = 0; a < attempts.size(); ++a) {
    const JournalAttempt& att = attempts[a];
    const Status status = Status::FromCode(att.code, att.message);
    out.attempts_consumed = a + 1;
    if (status.IsCancelled()) return status;
    Status applied = ApplyIsolated(&ctx, att.trace);
    if (applied.IsTimeout()) {
      out.timing.timed_out = true;
      out.timing.seconds = timeout;
      break;
    }
    TB_RETURN_IF_ERROR(applied);
    if (status.ok()) {
      if (att.timed_out) {
        // An injected-timeout attempt: a genuinely doomed query trips in
        // the replay above instead. Censored like any timeout.
        out.timing.timed_out = true;
        out.timing.seconds = timeout;
      } else {
        total += ctx.sim_time();
        ++runs;
        final_trace = &att.trace;
      }
      break;
    }
    if (retry.ShouldRetry(status, static_cast<int>(a) + 1)) {
      ctx.ChargeBackoff(retry.BackoffSeconds(static_cast<int>(a) + 1));
      ++out.retries;
      continue;
    }
    out.timing.timed_out = true;
    out.timing.failed = true;
    out.timing.seconds = timeout;
    out.failed = true;
    out.failure_status = status;
    break;
  }

  // Extra repetitions (warm-cache averaging) replay the final successful
  // attempt's trace on a fresh context — the trace is pool-independent, so
  // one recording serves every repetition.
  if (final_trace != nullptr) {
    for (int rep = 1; rep < std::max(1, repetitions); ++rep) {
      ExecContext rep_ctx = db->MakeSessionContext(db->buffer_pool(), cost);
      Status applied = ApplyIsolated(&rep_ctx, *final_trace);
      if (applied.IsTimeout()) {
        out.timing.timed_out = true;
        out.timing.seconds = timeout;
        break;
      }
      TB_RETURN_IF_ERROR(applied);
      total += rep_ctx.sim_time();
      ++runs;
    }
  }

  if (!out.timing.timed_out) {
    out.timing.seconds = runs > 0 ? total / runs : 0.0;
  }
  return out;
}

/// Folds one replayed query into the workload result, mirroring the serial
/// loop's counter updates.
void FoldIntoResult(const QueryReplayOutcome& rq, size_t query_index,
                    double timeout, WorkloadResult* out) {
  out->retries += rq.retries;
  if (rq.failed) {
    ++out->failures;
    out->failure_details.push_back(QueryFailure{
        query_index, static_cast<int>(rq.attempts_consumed),
        rq.failure_status});
  }
  if (rq.timing.timed_out) ++out->timeouts;
  out->total_clamped_seconds += std::min(rq.timing.seconds, timeout);
  out->timings.push_back(rq.timing);
}

// ------------------------------------------------------------ journal glue

/// Exact (bitwise) double equality: resume promises bit-identity, so the
/// compatibility and cross checks must not accept "close enough".
bool BitEqual(double a, double b) {
  uint64_t ab, bb;
  std::memcpy(&ab, &a, sizeof(ab));
  std::memcpy(&bb, &b, sizeof(bb));
  return ab == bb;
}

JournalHeader MakeJournalHeader(const std::vector<std::string>& sql,
                                const RunOptions& opts, double timeout) {
  JournalHeader h;
  h.query_count = static_cast<uint32_t>(sql.size());
  h.repetitions = opts.repetitions;
  h.collect_estimates = opts.collect_estimates;
  h.cold_start = opts.cold_start;
  h.fault_scope_salt = opts.fault_scope_salt;
  h.timeout_seconds = timeout;
  h.retry = opts.retry;
  h.sql = sql;
  h.metadata = opts.journal_metadata;
  return h;
}

/// A journal is only resumable under the exact run it was started with: the
/// same workload text and every option that shapes timings, retry decisions
/// or fault schedules. Anything else must be refused loudly — resuming a
/// 3-repetition run as a 1-repetition run would silently fabricate results.
Status CheckJournalCompatible(const JournalHeader& h,
                              const std::vector<std::string>& sql,
                              const RunOptions& opts, double timeout) {
  auto mismatch = [](const std::string& what) {
    return Status::InvalidArgument(
        "journal was written under different run options (" + what +
        "); resume with the original options or start a fresh journal");
  };
  if (h.sql != sql) return mismatch("workload SQL");
  if (h.query_count != sql.size()) return mismatch("query count");
  if (h.repetitions != opts.repetitions) return mismatch("repetitions");
  if (h.collect_estimates != opts.collect_estimates) {
    return mismatch("collect_estimates");
  }
  if (h.cold_start != opts.cold_start) return mismatch("cold_start");
  if (h.fault_scope_salt != opts.fault_scope_salt) {
    return mismatch("fault_scope_salt");
  }
  if (!BitEqual(h.timeout_seconds, timeout)) return mismatch("timeout");
  const RetryPolicy& a = h.retry;
  const RetryPolicy& b = opts.retry;
  if (a.max_attempts != b.max_attempts || a.seed != b.seed ||
      !BitEqual(a.initial_backoff_seconds, b.initial_backoff_seconds) ||
      !BitEqual(a.backoff_multiplier, b.backoff_multiplier) ||
      !BitEqual(a.max_backoff_seconds, b.max_backoff_seconds) ||
      !BitEqual(a.jitter_fraction, b.jitter_fraction)) {
    return mismatch("retry policy");
  }
  return Status::OK();
}

/// Replays a loaded journal's completed prefix through the shared pool,
/// folding the recomputed outcomes into `out`. Every record is
/// cross-checked against what its traces actually replay to — timing bits,
/// flags, attempt count, and the pool's hit/miss movement — so a journal
/// replayed against the wrong database, configuration, or initial pool
/// state fails with kDataLoss instead of silently poisoning the run.
Status ReplayJournalPrefix(const RunJournal& j, Database* db,
                           const CostParams& cost, const RunOptions& opts,
                           WorkloadResult* out) {
  const double timeout = cost.timeout_seconds;
  for (size_t i = 0; i < j.records.size(); ++i) {
    const JournalQueryRecord& rec = j.records[i];
    auto corrupt = [&](const std::string& what) {
      return Status::DataLoss("journal record " + std::to_string(i) + " " +
                              what + "; the journal does not match this "
                              "database/configuration or is corrupted");
    };
    if (rec.query_index != i) return corrupt("is out of order");
    if (rec.attempt_log.empty()) return corrupt("has no attempts");
    BufferPoolStats before = db->buffer_pool()->stats();
    auto rq = ReplayQueryAttempts(rec.attempt_log, db, cost, opts.retry,
                                  opts.repetitions);
    if (!rq.ok()) return rq.status();
    BufferPoolStats after = db->buffer_pool()->stats();
    if (!BitEqual(rq->timing.seconds, rec.seconds) ||
        rq->timing.timed_out != rec.timed_out ||
        rq->timing.failed != rec.failed ||
        rq->attempts_consumed != rec.attempts ||
        after.hits - before.hits != rec.pool_hit_delta ||
        after.misses - before.misses != rec.pool_miss_delta) {
      return corrupt("does not replay to its recorded outcome");
    }
    FoldIntoResult(*rq, i, timeout, out);
    if (opts.collect_estimates) {
      if (!rec.has_estimate) return corrupt("is missing its estimate");
      out->estimates.push_back(rec.estimate);
    }
  }
  return Status::OK();
}

/// Opens the run's journal: fresh (header written and synced) or, with
/// opts.resume and an existing file, loaded + validated + replayed into
/// `out`, positioned to append. `start_index` is the first query left to
/// execute live.
Status OpenRunJournal(Database* db, const std::vector<std::string>& sql,
                      const RunOptions& opts, const CostParams& cost,
                      WorkloadResult* out,
                      std::unique_ptr<RunJournalWriter>* journal,
                      size_t* start_index) {
  *start_index = 0;
  if (opts.resume && std::filesystem::exists(opts.journal_path)) {
    TB_ASSIGN_OR_RETURN(RunJournal loaded, LoadRunJournal(opts.journal_path));
    TB_RETURN_IF_ERROR(CheckJournalCompatible(loaded.header, sql, opts,
                                              cost.timeout_seconds));
    if (loaded.records.size() > sql.size()) {
      return Status::DataLoss("journal holds more records than the workload "
                              "has queries: " + opts.journal_path);
    }
    TB_RETURN_IF_ERROR(ReplayJournalPrefix(loaded, db, cost, opts, out));
    *start_index = loaded.records.size();
    TB_ASSIGN_OR_RETURN(*journal, RunJournalWriter::OpenAppend(
                                      opts.journal_path, loaded));
    return Status::OK();
  }
  TB_ASSIGN_OR_RETURN(
      *journal,
      RunJournalWriter::Create(opts.journal_path,
                               MakeJournalHeader(sql, opts,
                                                 cost.timeout_seconds)));
  return Status::OK();
}

/// Runs one query on the engine RunOptions selects. The two engines are
/// bit-identical in simulated cost and result, so every caller treats the
/// choice as opaque.
Result<QueryResult> RunQueryWithOptions(Database* db, const std::string& q,
                                        ExecContext* ctx,
                                        const RunOptions& opts) {
  if (opts.executor == QueryExecutor::kVectorized) {
    vec::VecExecOptions vopts;
    vopts.pool = opts.intra_query_pool;
    vopts.max_parallelism = opts.intra_query_parallelism;
    return db->RunWithContextVectorized(q, ctx, vopts);
  }
  return db->RunWithContext(q, ctx);
}

/// One query's retry loop on `ctx`, shared by the serial runner and the
/// parallel record workers so both make the same attempts: run, drop a
/// fault latched after the last safe point, and on a retryable error charge
/// the backoff to ctx's clock and go again. With `log`, each attempt is
/// traced into its own JournalAttempt with its outcome. Returns the last
/// attempt's result; `attempts` receives the number of executions.
Result<QueryResult> RunQueryAttempts(Database* db, const std::string& q,
                                     ExecContext* ctx, const RunOptions& opts,
                                     std::vector<JournalAttempt>* log,
                                     int* attempts) {
  for (int attempt = 1;; ++attempt) {
    JournalAttempt* att = nullptr;
    if (log != nullptr) {
      // Recording changes no charge and no timing (see ExecContext).
      att = &log->emplace_back();
      ctx->set_trace(&att->trace);
    }
    auto res = RunQueryWithOptions(db, q, ctx, opts);
    ctx->set_trace(nullptr);
    DropStaleLatchedFault();
    *attempts = attempt;
    if (att != nullptr) {
      if (res.ok()) {
        att->timed_out = res->timed_out;
      } else {
        att->code = res.status().code();
        att->message = res.status().message();
      }
    }
    if (res.ok() || !opts.retry.ShouldRetry(res.status(), attempt)) {
      return res;
    }
    ctx->ChargeBackoff(opts.retry.BackoffSeconds(attempt));
  }
}

/// The journal record of one finished query, built the same way by both
/// runners so either runner resumes the other's journal. `after` is sampled
/// before estimate collection: planning does not touch the pool, and the
/// resume replay (which uses the journaled estimate instead of re-planning)
/// must see the same delta.
JournalQueryRecord MakeQueryRecord(size_t k, const QueryTiming& timing,
                                   std::vector<JournalAttempt> attempt_log,
                                   const BufferPoolStats& before,
                                   const BufferPoolStats& after,
                                   const RunOptions& opts, double estimate) {
  JournalQueryRecord rec;
  rec.query_index = static_cast<uint32_t>(k);
  rec.seconds = timing.seconds;
  rec.timed_out = timing.timed_out;
  rec.failed = timing.failed;
  rec.attempts = static_cast<uint32_t>(attempt_log.size());
  rec.has_estimate = opts.collect_estimates;
  rec.estimate = opts.collect_estimates ? estimate : 0.0;
  rec.pool_hit_delta = after.hits - before.hits;
  rec.pool_miss_delta = after.misses - before.misses;
  rec.attempt_log = std::move(attempt_log);
  return rec;
}

}  // namespace

Result<WorkloadResult> RunWorkload(Database* db,
                                   const std::vector<std::string>& sql,
                                   const RunOptions& opts) {
  WorkloadResult out;
  if (opts.cold_start) db->buffer_pool()->Clear();
  const CostParams cost = db->options().cost;
  const double timeout = cost.timeout_seconds;

  std::unique_ptr<RunJournalWriter> journal;
  size_t start_index = 0;
  if (!opts.journal_path.empty()) {
    TB_RETURN_IF_ERROR(
        OpenRunJournal(db, sql, opts, cost, &out, &journal, &start_index));
  }

  for (size_t k = start_index; k < sql.size(); ++k) {
    const std::string& q = sql[k];
    // Fault decisions are pure functions of (spec, per-scope hit index,
    // scope seed); seeding by query index gives query k the same injected
    // schedule here, in RunWorkloadParallel's record workers, and in a
    // resumed run (which skips the journaled prefix without consuming any
    // fault schedule — scopes are per-query, not shared).
    FaultScope scope(opts.fault_scope_salt + k);
    QueryTiming timing;
    double total = 0.0;
    int runs = 0;
    std::vector<JournalAttempt> attempt_log;  // only filled when journaling
    const BufferPoolStats pool_before = db->buffer_pool()->stats();

    // The first repetition carries the retry loop on one cumulative
    // context: failed attempts and backoff delays stay on the query's
    // simulated clock, so a retried query pays for its retries in the CFC
    // and the timeout bounds the whole loop, not each attempt.
    ExecContext ctx = db->MakeSessionContext(db->buffer_pool(), cost);
    int attempts = 0;
    auto res = RunQueryAttempts(db, q, &ctx, opts,
                                journal != nullptr ? &attempt_log : nullptr,
                                &attempts);
    if (!res.ok() && res.status().IsCancelled()) return res.status();
    out.retries += static_cast<size_t>(attempts - 1);
    if (!res.ok()) {
      // Retries exhausted (or the error is not retryable): isolate the
      // query, censored at the timeout cost exactly like a timed-out query
      // — the run keeps going, mirroring how the paper keeps scoring an
      // advisor that "fails outright" (Section 5).
      timing.timed_out = true;
      timing.failed = true;
      timing.seconds = timeout;
      ++out.failures;
      out.failure_details.push_back(QueryFailure{k, attempts, res.status()});
    } else if (res->timed_out) {
      // Timeout queries are run once (paper Section 4.1).
      timing.timed_out = true;
      timing.seconds = timeout;
    } else {
      total += res->sim_seconds;
      ++runs;
    }

    // Extra repetitions (warm-cache averaging) re-run a query that already
    // survived its fault schedule; suppression keeps them from re-rolling
    // it — the parallel runner replays the recorded trace for the same
    // reason.
    if (!timing.timed_out) {
      scope.set_suppressed(true);
      for (int rep = 1; rep < std::max(1, opts.repetitions); ++rep) {
        ExecContext rep_ctx = db->MakeSessionContext(db->buffer_pool(), cost);
        auto rep_res = RunQueryWithOptions(db, q, &rep_ctx, opts);
        if (!rep_res.ok()) {
          scope.set_suppressed(false);
          return rep_res.status();
        }
        if (rep_res->timed_out) {
          timing.timed_out = true;
          timing.seconds = timeout;
          break;
        }
        total += rep_res->sim_seconds;
        ++runs;
      }
      scope.set_suppressed(false);
    }

    if (!timing.timed_out) {
      timing.seconds = runs > 0 ? total / runs : 0.0;
    } else {
      ++out.timeouts;
    }
    out.total_clamped_seconds += std::min(timing.seconds, timeout);
    out.timings.push_back(timing);

    const BufferPoolStats pool_after = db->buffer_pool()->stats();
    double estimate = 0.0;
    if (opts.collect_estimates) {
      auto est = db->Estimate(q);
      if (!est.ok()) return est.status();
      estimate = *est;
      out.estimates.push_back(estimate);
    }

    // The durability point: once this returns, query k survives any crash.
    if (journal != nullptr) {
      TB_RETURN_IF_ERROR(journal->Append(
          MakeQueryRecord(k, timing, std::move(attempt_log), pool_before,
                          pool_after, opts, estimate)));
    }
  }
  return out;
}

Result<std::vector<double>> EstimateWorkload(
    Database* db, const std::vector<std::string>& sql) {
  std::vector<double> out;
  out.reserve(sql.size());
  for (const auto& q : sql) {
    auto est = db->Estimate(q);
    if (!est.ok()) return est.status();
    out.push_back(*est);
  }
  return out;
}

Result<std::vector<double>> HypotheticalWorkload(
    Database* db, const std::vector<std::string>& sql,
    const Configuration& hypothetical, const HypotheticalRules& rules) {
  std::vector<double> out;
  out.reserve(sql.size());
  for (const auto& q : sql) {
    auto est = db->HypotheticalEstimate(q, hypothetical, rules);
    if (!est.ok()) return est.status();
    out.push_back(*est);
  }
  return out;
}

Result<WorkloadResult> RunWorkloadParallel(Database* db,
                                           const std::vector<std::string>& sql,
                                           const ParallelOptions& par,
                                           const RunOptions& opts) {
  if (par.pool == nullptr) return RunWorkload(db, sql, opts);

  WorkloadResult out;
  if (opts.cold_start) db->buffer_pool()->Clear();
  const CostParams cost = db->options().cost;
  const double timeout = cost.timeout_seconds;
  const int max_attempts = std::max(1, opts.retry.max_attempts);

  std::unique_ptr<RunJournalWriter> journal;
  size_t start_index = 0;
  if (!opts.journal_path.empty()) {
    TB_RETURN_IF_ERROR(
        OpenRunJournal(db, sql, opts, cost, &out, &journal, &start_index));
  }

  size_t window = par.window;
  if (window == 0) {
    window = std::max<size_t>(4 * par.pool->num_workers(), size_t{8});
  }

  // Recording runs on a cold pool, so a doomed query need not execute to
  // completion: a replay from any warm pool saves at most one first-touch
  // hit per resident page *per attempt* versus the cold recording run, so
  // once the cold cumulative clock is this far past the timeout, every
  // replay is guaranteed to trip inside the recorded prefix.
  const double record_budget =
      timeout + static_cast<double>(max_attempts) *
                    static_cast<double>(db->options().buffer_pool_pages) *
                    std::max(cost.page_io_seconds, cost.random_io_seconds);

  // Batched so at most `window` queries' full traces are alive at once.
  for (size_t base = start_index; base < sql.size(); base += window) {
    const size_t count = std::min(window, sql.size() - base);
    std::vector<RecordedQuery> rec(count);

    // Record phase (parallel): every query runs its whole retry loop
    // against a private cold pool with the timeout off, capturing one
    // charge trace per attempt. Traces are pool-independent, so one
    // recording serves the replay and all repetitions.
    ParallelFor(
        par.pool, count,
        [&](size_t i) {
          RecordedQuery& r = rec[i];
          const std::string& q = sql[base + i];
          if (par.cancel.cancelled()) {
            r.spawn_status = Status::Cancelled("workload cancelled");
            return;
          }
          // Same scope seed the serial runner gives this query, so the
          // worker sees the exact fault schedule a serial run would.
          FaultScope scope(opts.fault_scope_salt + base + i);
          BufferPool session_pool(db->options().buffer_pool_pages);
          ExecContext ctx = db->MakeSessionContext(&session_pool, cost);
          ctx.set_cancellation_token(par.cancel);
          ctx.set_enforce_timeout(false);
          ctx.set_record_budget(record_budget);
          // The outcome lives in the attempt log; the replay decides.
          int attempts = 0;
          (void)RunQueryAttempts(db, q, &ctx, opts, &r.attempts, &attempts);
          if (opts.collect_estimates) {
            auto est = db->Estimate(q);
            if (est.ok()) {
              r.estimate = *est;
            } else {
              r.est_status = est.status();
            }
          }
        },
        [&](size_t i, Status s) { rec[i].spawn_status = std::move(s); });

    // Replay phase (sequential): walk each query's attempts in workload
    // order through the shared pool via the shared replay walk (the same
    // one journal resume uses), then journal the consumed attempts.
    for (size_t i = 0; i < count; ++i) {
      RecordedQuery& r = rec[i];
      if (!r.spawn_status.ok()) return r.spawn_status;
      const BufferPoolStats pool_before = db->buffer_pool()->stats();
      auto rq = ReplayQueryAttempts(r.attempts, db, cost, opts.retry,
                                    opts.repetitions);
      if (!rq.ok()) return rq.status();
      FoldIntoResult(*rq, base + i, timeout, &out);

      if (opts.collect_estimates) {
        if (!r.est_status.ok()) return r.est_status;
        out.estimates.push_back(r.estimate);
      }

      if (journal != nullptr) {
        // Only the attempts the serial walk consumed: anything recorded
        // past a timeout trip never happened in serial semantics.
        r.attempts.resize(rq->attempts_consumed);
        TB_RETURN_IF_ERROR(journal->Append(MakeQueryRecord(
            base + i, rq->timing, std::move(r.attempts), pool_before,
            db->buffer_pool()->stats(), opts, r.estimate)));
      }
    }
  }
  return out;
}

Result<std::vector<double>> EstimateWorkloadParallel(
    Database* db, const std::vector<std::string>& sql,
    const ParallelOptions& par) {
  if (par.pool == nullptr) return EstimateWorkload(db, sql);
  std::vector<double> ests(sql.size(), 0.0);
  std::vector<Status> sts(sql.size());
  ParallelFor(
      par.pool, sql.size(),
      [&](size_t i) {
        if (par.cancel.cancelled()) {
          sts[i] = Status::Cancelled("workload cancelled");
          return;
        }
        auto est = db->Estimate(sql[i]);
        if (est.ok()) {
          ests[i] = *est;
        } else {
          sts[i] = est.status();
        }
      },
      [&](size_t i, Status s) { sts[i] = std::move(s); });
  for (size_t i = 0; i < sql.size(); ++i) {
    if (!sts[i].ok()) return sts[i];  // first error in workload order
  }
  return ests;
}

Result<std::vector<double>> HypotheticalWorkloadParallel(
    Database* db, const std::vector<std::string>& sql,
    const Configuration& hypothetical, const HypotheticalRules& rules,
    const ParallelOptions& par) {
  if (par.pool == nullptr) {
    return HypotheticalWorkload(db, sql, hypothetical, rules);
  }
  std::vector<double> ests(sql.size(), 0.0);
  std::vector<Status> sts(sql.size());
  ParallelFor(
      par.pool, sql.size(),
      [&](size_t i) {
        if (par.cancel.cancelled()) {
          sts[i] = Status::Cancelled("workload cancelled");
          return;
        }
        auto est = db->HypotheticalEstimate(sql[i], hypothetical, rules);
        if (est.ok()) {
          ests[i] = *est;
        } else {
          sts[i] = est.status();
        }
      },
      [&](size_t i, Status s) { sts[i] = std::move(s); });
  for (size_t i = 0; i < sql.size(); ++i) {
    if (!sts[i].ok()) return sts[i];
  }
  return ests;
}

}  // namespace tabbench
