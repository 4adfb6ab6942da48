#include "core/runner.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <memory>

#include "util/fault_injection.h"
#include "util/run_journal.h"

namespace tabbench {

namespace {

/// What one record worker captures for one query: its one execution, in
/// the journal's own attempt record. Slots are preallocated per batch, so
/// workers write disjoint memory and the batch joins race-free.
struct RecordedQuery {
  JournalAttempt execution;
  Status spawn_status;  // ParallelFor rejection
  double estimate = 0.0;
  Status est_status;
};

/// One query's outcome: its censored timing and, for a failed query, the
/// error its execution ended with.
struct QueryOutcome {
  QueryTiming timing;
  Status failure;  // non-OK exactly when timing.failed
};

/// The outcome of one execution that ended with `status` — and, when that
/// is OK, with `timed_out` and `seconds`. A failure and a timeout are both
/// censored at the timeout cost (paper Section 4.1 runs a timeout query
/// once; Section 5 keeps scoring the advisor that "fails outright").
QueryOutcome Censor(const Status& status, bool timed_out, double seconds,
                    double timeout) {
  QueryOutcome out;
  if (!status.ok()) {
    out.timing.failed = true;
    out.failure = status;
  }
  if (!status.ok() || timed_out) {
    out.timing.timed_out = true;
    out.timing.seconds = timeout;
  } else {
    out.timing.seconds = seconds;
  }
  return out;
}

/// Replays one query's recorded execution through the shared pool in
/// workload position, reaching the outcome RunWorkload's live loop reaches
/// and leaving the same pool state. Both the parallel runner's replay phase
/// and journal resume are this walk — which is what makes a journal
/// written by either runner resumable by either runner, bit-identically.
///
/// A replay that trips the timeout is a timeout whatever the recording
/// ended with: the serial run stopped there too. Returns non-OK only when
/// the replay itself fails with something other than a timeout.
Result<QueryOutcome> ReplayQuery(const JournalAttempt& execution,
                                 Database* db, const CostParams& cost) {
  ExecContext ctx = db->MakeSessionContext(db->buffer_pool(), cost);
  Status applied = ApplyIsolated(&ctx, execution.trace);
  if (applied.IsTimeout()) {
    return Censor(Status::OK(), true, 0.0, cost.timeout_seconds);
  }
  TB_RETURN_IF_ERROR(applied);
  // An OK recording that timed out was an injected timeout: a genuinely
  // doomed query trips in the replay above instead.
  return Censor(Status::FromCode(execution.code, execution.message),
                execution.timed_out, ctx.sim_time(), cost.timeout_seconds);
}

/// Folds one query's outcome into the workload result.
void FoldIntoResult(const QueryOutcome& q, size_t query_index,
                    double timeout, WorkloadResult* out) {
  if (q.timing.failed) {
    ++out->failures;
    out->failure_details.push_back(QueryFailure{query_index, q.failure});
  }
  if (q.timing.timed_out) ++out->timeouts;
  out->total_clamped_seconds += std::min(q.timing.seconds, timeout);
  out->timings.push_back(q.timing);
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

/// A fresh journal's header. The retired fields (repetitions, fault-scope
/// salt, retry policy) keep their defaults, so the header bytes are the
/// ones the format has always had for a default run.
JournalHeader MakeJournalHeader(const std::vector<std::string>& sql,
                                const RunOptions& opts, double timeout) {
  JournalHeader h;
  h.query_count = static_cast<uint32_t>(sql.size());
  h.collect_estimates = opts.collect_estimates;
  h.cold_start = opts.cold_start;
  h.timeout_seconds = timeout;
  h.sql = sql;
  h.metadata = opts.journal_metadata;
  return h;
}

/// A journal is only resumable under the exact run it was started with: the
/// same workload text and every option that shapes timings. Anything else
/// must be refused loudly — resuming a 3-repetition run as a one-execution
/// run would silently fabricate results.
Status CheckJournalCompatible(const JournalHeader& h,
                              const std::vector<std::string>& sql,
                              const RunOptions& opts, double timeout) {
  auto mismatch = [](const std::string& what) {
    return Status::InvalidArgument(
        "journal was written under different run options (" + what +
        "); resume with the original options or start a fresh journal");
  };
  auto retired = [](const std::string& what) {
    return Status::InvalidArgument(
        "journal was written with " + what +
        " set, a run option this runner no longer has (it runs each query "
        "once); start a fresh journal");
  };
  if (h.sql != sql) return mismatch("workload SQL");
  if (h.query_count != sql.size()) return mismatch("query count");
  if (h.repetitions != 1) return retired("repetitions");
  if (h.collect_estimates != opts.collect_estimates) {
    return mismatch("collect_estimates");
  }
  if (h.cold_start != opts.cold_start) return mismatch("cold_start");
  if (h.fault_scope_salt != 0) return retired("fault_scope_salt");
  if (!BitEqual(h.timeout_seconds, timeout)) return mismatch("timeout");
  const JournalRetryFields& r = h.retry;
  const JournalRetryFields d;
  if (r.max_attempts != d.max_attempts || r.seed != d.seed ||
      !BitEqual(r.initial_backoff_seconds, d.initial_backoff_seconds) ||
      !BitEqual(r.backoff_multiplier, d.backoff_multiplier) ||
      !BitEqual(r.max_backoff_seconds, d.max_backoff_seconds) ||
      !BitEqual(r.jitter_fraction, d.jitter_fraction)) {
    return retired("a retry policy");
  }
  return Status::OK();
}

/// Replays a loaded journal's completed prefix through the shared pool,
/// folding the recomputed outcomes into `out`. Every record is
/// cross-checked against what its trace actually replays to — timing bits,
/// flags, and the pool's hit/miss movement — so a journal replayed against
/// the wrong database, configuration, or initial pool state fails with
/// kDataLoss instead of silently poisoning the run. A record must hold
/// exactly one execution: the header check has already refused every
/// journal written with retries.
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
    if (rec.attempt_log.size() != 1 || rec.attempts != 1) {
      return corrupt("does not hold exactly one execution");
    }
    BufferPoolStats before = db->buffer_pool()->stats();
    TB_ASSIGN_OR_RETURN(QueryOutcome q,
                        ReplayQuery(rec.attempt_log[0], db, cost));
    BufferPoolStats after = db->buffer_pool()->stats();
    if (!BitEqual(q.timing.seconds, rec.seconds) ||
        q.timing.timed_out != rec.timed_out ||
        q.timing.failed != rec.failed ||
        after.hits - before.hits != rec.pool_hit_delta ||
        after.misses - before.misses != rec.pool_miss_delta) {
      return corrupt("does not replay to its recorded outcome");
    }
    FoldIntoResult(q, i, timeout, out);
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

/// Runs query `q` once on `ctx`, on the engine RunOptions selects (the two
/// are bit-identical in simulated cost and result, so every caller treats
/// the choice as opaque). With `traced`, the execution's charge trace and
/// outcome are recorded into it; recording changes no charge and no timing.
Result<QueryResult> RunQueryOnce(Database* db, const std::string& q,
                                 ExecContext* ctx, const RunOptions& opts,
                                 JournalAttempt* traced) {
  vec::VecExecOptions vopts;
  vopts.pool = opts.intra_query_pool;
  vopts.max_parallelism = opts.intra_query_parallelism;
  if (traced != nullptr) ctx->set_trace(&traced->trace);
  Result<QueryResult> res = opts.executor == QueryExecutor::kVectorized
                                ? db->RunWithContextVectorized(q, ctx, vopts)
                                : db->RunWithContext(q, ctx);
  ctx->set_trace(nullptr);
  if (traced != nullptr) {
    if (res.ok()) {
      traced->timed_out = res->timed_out;
    } else {
      traced->code = res.status().code();
      traced->message = res.status().message();
    }
  }
  return res;
}

/// The journal record of one finished query, built the same way by both
/// runners so either runner resumes the other's journal. `after` is sampled
/// before estimate collection: planning does not touch the pool, and the
/// resume replay (which uses the journaled estimate instead of re-planning)
/// must see the same delta.
JournalQueryRecord MakeQueryRecord(size_t k, const QueryTiming& timing,
                                   JournalAttempt execution,
                                   const BufferPoolStats& before,
                                   const BufferPoolStats& after,
                                   const RunOptions& opts, double estimate) {
  JournalQueryRecord rec;
  rec.query_index = static_cast<uint32_t>(k);
  rec.seconds = timing.seconds;
  rec.timed_out = timing.timed_out;
  rec.failed = timing.failed;
  rec.attempts = 1;
  rec.has_estimate = opts.collect_estimates;
  rec.estimate = opts.collect_estimates ? estimate : 0.0;
  rec.pool_hit_delta = after.hits - before.hits;
  rec.pool_miss_delta = after.misses - before.misses;
  rec.attempt_log.push_back(std::move(execution));
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
    FaultScope scope(k);
    JournalAttempt execution;  // only traced when journaling
    const BufferPoolStats pool_before = db->buffer_pool()->stats();
    ExecContext ctx = db->MakeSessionContext(db->buffer_pool(), cost);
    auto res = RunQueryOnce(db, q, &ctx, opts,
                            journal != nullptr ? &execution : nullptr);
    const QueryOutcome outcome =
        res.ok() ? Censor(Status::OK(), res->timed_out, res->sim_seconds,
                          timeout)
                 : Censor(res.status(), false, 0.0, timeout);
    FoldIntoResult(outcome, k, timeout, &out);

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
          MakeQueryRecord(k, outcome.timing, std::move(execution),
                          pool_before, pool_after, opts, estimate)));
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

  std::unique_ptr<RunJournalWriter> journal;
  size_t start_index = 0;
  if (!opts.journal_path.empty()) {
    TB_RETURN_IF_ERROR(
        OpenRunJournal(db, sql, opts, cost, &out, &journal, &start_index));
  }

  const size_t window =
      std::max<size_t>(4 * par.pool->num_workers(), size_t{8});

  // Recording runs on a cold pool, so a doomed query need not execute to
  // completion: a replay from any warm pool saves at most one first-touch
  // hit per resident page versus the cold recording run, so once the cold
  // clock is this far past the timeout, every replay is guaranteed to trip
  // inside the recorded prefix.
  const double record_budget =
      timeout + static_cast<double>(db->options().buffer_pool_pages) *
                    std::max(cost.page_io_seconds, cost.random_io_seconds);

  // Batched so at most `window` queries' full traces are alive at once.
  for (size_t base = start_index; base < sql.size(); base += window) {
    const size_t count = std::min(window, sql.size() - base);
    std::vector<RecordedQuery> rec(count);

    // Record phase (parallel): every query runs once against a private
    // cold pool with the timeout off, capturing its charge trace.
    ParallelFor(
        par.pool, count,
        [&](size_t i) {
          RecordedQuery& r = rec[i];
          const std::string& q = sql[base + i];
          // Same scope seed the serial runner gives this query, so the
          // worker sees the exact fault schedule a serial run would.
          FaultScope scope(base + i);
          BufferPool session_pool(db->options().buffer_pool_pages);
          ExecContext ctx = db->MakeSessionContext(&session_pool, cost);
          ctx.set_enforce_timeout(false);
          ctx.set_record_budget(record_budget);
          // The outcome lives in the execution record; the replay decides.
          (void)RunQueryOnce(db, q, &ctx, opts, &r.execution);
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

    // Replay phase (sequential): walk each query's execution in workload
    // order through the shared pool via the shared replay walk (the same
    // one journal resume uses), then journal it.
    for (size_t i = 0; i < count; ++i) {
      RecordedQuery& r = rec[i];
      if (!r.spawn_status.ok()) return r.spawn_status;
      const BufferPoolStats pool_before = db->buffer_pool()->stats();
      TB_ASSIGN_OR_RETURN(QueryOutcome q, ReplayQuery(r.execution, db, cost));
      FoldIntoResult(q, base + i, timeout, &out);

      if (opts.collect_estimates) {
        if (!r.est_status.ok()) return r.est_status;
        out.estimates.push_back(r.estimate);
      }

      if (journal != nullptr) {
        TB_RETURN_IF_ERROR(journal->Append(MakeQueryRecord(
            base + i, q.timing, std::move(r.execution), pool_before,
            db->buffer_pool()->stats(), opts, r.estimate)));
      }
    }
  }
  return out;
}

}  // namespace tabbench
