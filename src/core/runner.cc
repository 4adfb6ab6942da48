#include "core/runner.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>

#include "util/fault_injection.h"
#include "util/run_journal.h"

namespace tabbench {

namespace {

/// What one worker records for one query: every attempt of its retry loop.
/// Slots are preallocated per batch, so workers write disjoint memory and
/// the batch joins race-free.
struct RecordedAttempt {
  AccessTrace trace;
  Status status;          // OK, or the attempt's error
  bool timed_out = false; // QueryResult::timed_out when status is OK
};

struct RecordedQuery {
  std::vector<RecordedAttempt> attempts;
  Status spawn_status;  // ParallelFor rejection / pre-spawn cancellation
  double estimate = 0.0;
  Status est_status;
};

/// A borrowed view of one recorded execution attempt — from the parallel
/// record phase (RecordedAttempt) or a journal record (JournalAttempt).
struct AttemptView {
  const AccessTrace* trace;
  Status status;
  bool timed_out;
};

/// The serial runner's per-query decisions, recomputed from attempt traces.
struct QueryReplayOutcome {
  QueryTiming timing;
  size_t attempts_consumed = 0;  // executions the serial walk performed
  size_t retries = 0;
  bool failed = false;
  Status failure_status;
};

/// Walks one query's recorded attempts through `pool` in workload position,
/// making exactly the decisions RunWorkload's live loop makes: the same
/// retry choices on the recorded statuses, the same cumulative clock
/// (ReplayTrace's start_seconds re-applies the backoff charges), the same
/// repetition averaging and single-run rule for timeouts, the same final
/// pool state. Both the parallel runner's replay phase and journal resume
/// are this walk — which is what makes a journal written by either runner
/// resumable by either runner, bit-identically.
///
/// When the replay trips a timeout mid-attempt, the serial run stopped
/// there too, and any further recorded attempts are discarded
/// (attempts_consumed tells the caller how many were used). Returns non-OK
/// only for a recorded cancellation, which aborts the whole run.
Result<QueryReplayOutcome> ReplayQueryAttempts(
    const std::vector<AttemptView>& attempts, BufferPool* pool,
    const CostParams& cost, const RetryPolicy& retry, int repetitions) {
  const double timeout = cost.timeout_seconds;
  QueryReplayOutcome out;
  double total = 0.0;
  int runs = 0;
  double start = 0.0;
  size_t final_attempt = 0;
  bool succeeded = false;
  for (size_t a = 0; a < attempts.size(); ++a) {
    const AttemptView& att = attempts[a];
    out.attempts_consumed = a + 1;
    if (att.status.IsCancelled()) return att.status;
    ReplayOutcome ro = ReplayTrace(*att.trace, pool, cost, start);
    if (ro.timed_out) {
      out.timing.timed_out = true;
      out.timing.seconds = timeout;
      break;
    }
    if (att.status.ok()) {
      if (att.timed_out) {
        // An injected-timeout attempt: a genuinely doomed query trips in
        // the replay above instead. Censored like any timeout.
        out.timing.timed_out = true;
        out.timing.seconds = timeout;
      } else {
        total += ro.sim_seconds;
        ++runs;
        final_attempt = a;
        succeeded = true;
      }
      break;
    }
    if (retry.ShouldRetry(att.status, static_cast<int>(a) + 1)) {
      start = ro.sim_seconds + retry.BackoffSeconds(static_cast<int>(a) + 1);
      ++out.retries;
      continue;
    }
    out.timing.timed_out = true;
    out.timing.failed = true;
    out.timing.seconds = timeout;
    out.failed = true;
    out.failure_status = att.status;
    break;
  }

  // Extra repetitions (warm-cache averaging) replay the final successful
  // attempt's trace from a zero clock — the trace is pool-independent, so
  // one recording serves every repetition.
  if (succeeded) {
    for (int rep = 1; rep < std::max(1, repetitions); ++rep) {
      ReplayOutcome ro =
          ReplayTrace(*attempts[final_attempt].trace, pool, cost, 0.0);
      if (ro.timed_out) {
        out.timing.timed_out = true;
        out.timing.seconds = timeout;
        break;
      }
      total += ro.sim_seconds;
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
    std::vector<AttemptView> views;
    views.reserve(rec.attempt_log.size());
    for (const auto& a : rec.attempt_log) {
      views.push_back(
          {&a.trace, Status::FromCode(a.code, a.message), a.timed_out});
    }
    BufferPoolStats before = db->buffer_pool()->stats();
    auto rq = ReplayQueryAttempts(views, db->buffer_pool(), cost, opts.retry,
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
    int attempt = 1;
    JournalQueryRecord rec;  // only filled when journaling
    const BufferPoolStats pool_before = db->buffer_pool()->stats();

    // The first repetition carries the retry loop on one cumulative
    // context: failed attempts and backoff delays stay on the query's
    // simulated clock, so a retried query pays for its retries in the CFC
    // and the timeout bounds the whole loop, not each attempt.
    ExecContext ctx = db->MakeSessionContext(db->buffer_pool(), cost);
    for (;;) {
      JournalAttempt* att = nullptr;
      if (journal != nullptr) {
        // Trace this attempt so the journal can replay it on resume.
        // Recording changes no charge and no timing (see ExecContext).
        rec.attempt_log.emplace_back();
        att = &rec.attempt_log.back();
        ctx.set_trace(&att->trace);
      }
      auto res = RunQueryWithOptions(db, q, &ctx, opts);
      ctx.set_trace(nullptr);
      DropStaleLatchedFault();
      if (res.ok()) {
        if (att != nullptr) att->timed_out = res->timed_out;
        if (res->timed_out) {
          // Timeout queries are run once (paper Section 4.1).
          timing.timed_out = true;
          timing.seconds = timeout;
        } else {
          total += res->sim_seconds;
          ++runs;
        }
        break;
      }
      Status st = res.status();
      if (st.IsCancelled()) return st;
      if (att != nullptr) {
        att->code = st.code();
        att->message = st.message();
      }
      if (opts.retry.ShouldRetry(st, attempt)) {
        ctx.ChargeBackoff(opts.retry.BackoffSeconds(attempt));
        ++attempt;
        ++out.retries;
        continue;
      }
      // Retries exhausted (or the error is not retryable): isolate the
      // query, censored at the timeout cost exactly like a timed-out query
      // — the run keeps going, mirroring how the paper keeps scoring an
      // advisor that "fails outright" (Section 5).
      timing.timed_out = true;
      timing.failed = true;
      timing.seconds = timeout;
      ++out.failures;
      out.failure_details.push_back(QueryFailure{k, attempt, std::move(st)});
      break;
    }

    // Extra repetitions (warm-cache averaging) re-run a query that already
    // survived its fault schedule; suppression keeps them from re-rolling
    // it — the parallel runner replays the recorded trace for the same
    // reason.
    if (!timing.timed_out) {
      scope.set_suppressed(true);
      for (int rep = 1; rep < std::max(1, opts.repetitions); ++rep) {
        ExecContext rep_ctx = db->MakeSessionContext(db->buffer_pool(), cost);
        auto res = RunQueryWithOptions(db, q, &rep_ctx, opts);
        if (!res.ok()) {
          scope.set_suppressed(false);
          return res.status();
        }
        if (res->timed_out) {
          timing.timed_out = true;
          timing.seconds = timeout;
          break;
        }
        total += res->sim_seconds;
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

    if (journal != nullptr) {
      // Pool movement is sampled before estimate collection: planning does
      // not touch the pool, and the resume replay (which uses the journaled
      // estimate instead of re-planning) must see the same delta.
      const BufferPoolStats pool_after = db->buffer_pool()->stats();
      rec.query_index = static_cast<uint32_t>(k);
      rec.seconds = timing.seconds;
      rec.timed_out = timing.timed_out;
      rec.failed = timing.failed;
      rec.attempts = static_cast<uint32_t>(attempt);
      rec.pool_hit_delta = pool_after.hits - pool_before.hits;
      rec.pool_miss_delta = pool_after.misses - pool_before.misses;
    }

    if (opts.collect_estimates) {
      auto est = db->Estimate(q);
      if (!est.ok()) return est.status();
      out.estimates.push_back(*est);
      if (journal != nullptr) {
        rec.has_estimate = true;
        rec.estimate = *est;
      }
    }

    // The durability point: once this returns, query k survives any crash.
    if (journal != nullptr) TB_RETURN_IF_ERROR(journal->Append(rec));
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

  double record_ms = 0.0, replay_ms = 0.0;
  uint64_t trace_events = 0;
  const bool phase_timing = std::getenv("TABBENCH_PHASE_TIMING") != nullptr;

  // Batched so at most `window` queries' full traces are alive at once.
  for (size_t base = start_index; base < sql.size(); base += window) {
    const size_t count = std::min(window, sql.size() - base);
    std::vector<RecordedQuery> rec(count);

    // Record phase (parallel): every query runs its whole retry loop
    // against a private cold pool with the timeout off, capturing one
    // charge trace per attempt. Traces are pool-independent, so one
    // recording serves the replay and all repetitions.
    auto t0 = std::chrono::steady_clock::now();
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
          for (int attempt = 1;; ++attempt) {
            r.attempts.emplace_back();
            RecordedAttempt& att = r.attempts.back();
            ctx.set_trace(&att.trace);
            auto res = RunQueryWithOptions(db, q, &ctx, opts);
            ctx.set_trace(nullptr);
            DropStaleLatchedFault();
            if (res.ok()) {
              att.timed_out = res->timed_out;
              break;
            }
            att.status = res.status();
            if (!opts.retry.ShouldRetry(att.status, attempt)) break;
            ctx.ChargeBackoff(opts.retry.BackoffSeconds(attempt));
          }
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
    auto t1 = std::chrono::steady_clock::now();
    record_ms += std::chrono::duration<double, std::milli>(t1 - t0).count();
    for (const auto& r : rec) {
      for (const auto& att : r.attempts) trace_events += att.trace.size();
    }

    // Replay phase (sequential): walk each query's attempts in workload
    // order through the shared pool via the shared replay walk (the same
    // one journal resume uses), then journal the consumed attempts.
    for (size_t i = 0; i < count; ++i) {
      RecordedQuery& r = rec[i];
      if (!r.spawn_status.ok()) return r.spawn_status;
      std::vector<AttemptView> views;
      views.reserve(r.attempts.size());
      for (const auto& att : r.attempts) {
        views.push_back({&att.trace, att.status, att.timed_out});
      }
      const BufferPoolStats pool_before = db->buffer_pool()->stats();
      auto rq = ReplayQueryAttempts(views, db->buffer_pool(), cost,
                                    opts.retry, opts.repetitions);
      if (!rq.ok()) return rq.status();
      FoldIntoResult(*rq, base + i, timeout, &out);

      if (opts.collect_estimates) {
        if (!r.est_status.ok()) return r.est_status;
        out.estimates.push_back(r.estimate);
      }

      if (journal != nullptr) {
        const BufferPoolStats pool_after = db->buffer_pool()->stats();
        JournalQueryRecord jrec;
        jrec.query_index = static_cast<uint32_t>(base + i);
        jrec.seconds = rq->timing.seconds;
        jrec.timed_out = rq->timing.timed_out;
        jrec.failed = rq->timing.failed;
        jrec.attempts = static_cast<uint32_t>(rq->attempts_consumed);
        jrec.has_estimate = opts.collect_estimates;
        jrec.estimate = opts.collect_estimates ? r.estimate : 0.0;
        jrec.pool_hit_delta = pool_after.hits - pool_before.hits;
        jrec.pool_miss_delta = pool_after.misses - pool_before.misses;
        // Only the attempts the serial walk consumed: anything recorded
        // past a timeout trip never happened in serial semantics.
        jrec.attempt_log.reserve(rq->attempts_consumed);
        for (size_t a = 0; a < rq->attempts_consumed; ++a) {
          RecordedAttempt& att = r.attempts[a];
          JournalAttempt ja;
          ja.code = att.status.code();
          ja.message = att.status.message();
          ja.timed_out = att.timed_out;
          ja.trace = std::move(att.trace);  // batch slot is done with it
          jrec.attempt_log.push_back(std::move(ja));
        }
        TB_RETURN_IF_ERROR(journal->Append(jrec));
      }
    }
    auto t2 = std::chrono::steady_clock::now();
    replay_ms += std::chrono::duration<double, std::milli>(t2 - t1).count();
  }
  if (phase_timing) {
    std::fprintf(stderr,
                 "[phase] record %.1f ms, replay %.1f ms, %llu events\n",
                 record_ms, replay_ms,
                 static_cast<unsigned long long>(trace_events));
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
