// perfbench: the repository benchmark. One process runs one workload — a
// step-by-step replay of one of the paper's protocols by a single closed-loop
// client — for a fixed wall-clock budget and prints its metrics. Every layer
// is timed from outside, around calls into its public functions; nothing
// inside src/ is instrumented.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <path>]
//
// Each iteration generates a fresh NREF database (the set-up, timed as
// setup_s) and runs the workload on it (run_s). Iterations repeat until the
// budget is spent; setup_s is their median, and the workload timings are
// built from each layer call's fastest wall across them. Every iteration
// also digests its simulated outputs; all digests of a run must agree, and
// for the default seed they must equal the value carried below.
//
// --trace 1 runs one traced iteration of every workload (per-layer metrics
// are each taken on the workload README.md ties them to), then alternates
// untraced and traced iterations of --workload to measure tracing overhead.
// The last line of stdout is the JSON result.

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "advisor/advisor.h"
#include "advisor/profiles.h"
#include "core/benchmark_suite.h"
#include "core/configurations.h"
#include "core/nref_families.h"
#include "core/runner.h"
#include "core/sampling.h"
#include "datagen/nref_gen.h"
#include "sql/binder.h"
#include "trace.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/zipf.h"

namespace perfbench {
namespace {

using tabbench::Configuration;
using tabbench::Database;
using tabbench::QueryTiming;
using tabbench::Result;
using tabbench::Status;

// Pinned inputs. 1/25600 of the paper's NREF (the figure binaries use 1/400;
// the simulated hardware scales with the data, so the paper's shapes still
// hold: System A recommends on NREF2J, P has timeouts, 1C dominates). A
// cfc_nref2j iteration then takes about 0.3 s, so a run repeats each call
// over a hundred times and each call's fastest wall is one taken while the
// host was quiet (with about ten repeats, a slow spell on the host could
// cover every one). Execution still does the largest share of cfc_nref2j.
// NREF2J workloads run the whole family (176 queries) in a seed-shuffled
// order: with 160-query samples, which queries a seed left out moved
// query_ms.p90 by 30-35% across seeds. NREF3J is sampled, 400 of its
// 722 queries, with a pinned sampling seed, and the run seed shuffles the
// order in which E and H are taken: System B evaluates a subset of its input
// picked by position, and with seed-drawn samples its time moved by 2x
// between seeds.
constexpr double kScaleInverse = 25600.0;
constexpr size_t kNref3jSample = 400;
constexpr uint64_t kNref3jSampleSeed = 1;
constexpr uint64_t kDefaultSeed = 1;

// churn_nref op stream: writes on neighboring_seq, split evenly between
// inserts, updates and deletes (MutationWorkloadSpec's default split), the
// NREF2J reads spread evenly among them, and a statistics pass every
// kChurnStatsEvery writes.
constexpr size_t kChurnWrites = 8000;
constexpr size_t kChurnStatsEvery = 2000;
constexpr double kChurnZipfTheta = 0.8;
constexpr size_t kZipfDomain = 4096;

// Simulated-output digests of one iteration at kDefaultSeed. They change only
// with a deliberate re-baseline of the simulated results.
struct ExpectedDigest {
  const char* workload;
  uint64_t digest;
};
constexpr ExpectedDigest kExpected[] = {
    {"cfc_nref2j", 0x469badaf6e822d40ULL},
    {"whatif_nref3j", 0xa38b0aa0ce959f8fULL},
    {"churn_nref", 0x2e80c301636ad524ULL},
    {"parallel_nref2j", 0xd81d2db5cec9fff6ULL},
};

/// State of one benchmark process: the tracer, failure accounting, the
/// current iteration's layer calls, and per-layer counts.
struct Run {
  explicit Run(bool trace) : tracer(trace) {}

  Tracer tracer;
  tabbench::ThreadPool pool{tabbench::ThreadPool::Options{}};  // nproc workers
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // The current iteration's layer calls, in call order: wall seconds, and
  // how many workload queries each call answered (0 for other calls).
  std::vector<double> call_s;
  std::vector<size_t> call_answers;
  std::map<std::string, double> counts;  // "<workload>/<metric>", summed
  std::map<std::string, double> ratios;  // traced-run executor comparisons

  /// Counts one attempted operation; false (and counted failed) if !ok.
  bool Ok(const Status& st) {
    ++attempted;
    if (st.ok()) return true;
    ++failed;
    std::fprintf(stderr, "operation failed: %s\n", st.ToString().c_str());
    return false;
  }
  void Call(double wall, size_t answers = 0) {
    call_s.push_back(wall);
    call_answers.push_back(answers);
  }
  void Count(const std::string& workload, const std::string& key, double v) {
    if (tracer.enabled()) counts[workload + "/" + key] += v;
  }
};

/// What one iteration leaves for the end-of-run checks.
struct Iteration {
  std::string workload;
  std::unique_ptr<Database> db;
  Digest digest;
  std::vector<std::string> sql;
  // Per-query A of each executed configuration, in the order applied.
  std::vector<std::vector<QueryTiming>> timings;
};

bool SameTimings(const std::vector<QueryTiming>& a,
                 const std::vector<QueryTiming>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].seconds != b[i].seconds || a[i].timed_out != b[i].timed_out ||
        a[i].failed != b[i].failed) {
      return false;
    }
  }
  return true;
}

void AddTiming(Digest* d, const QueryTiming& t) {
  d->Add(t.seconds);
  d->Add(static_cast<uint64_t>(t.timed_out) | (static_cast<uint64_t>(t.failed) << 1));
}

// ------------------------------------------------------------ layer calls

Result<std::vector<std::string>> Nref3jSample(Run* run, Database* db) {
  Span f(&run->tracer, "core.family");
  const tabbench::QueryFamily family =
      tabbench::GenerateNref3J(db->catalog(), db->stats());
  run->Call(f.Stop());
  Span s(&run->tracer, "core.sample");
  auto sampled =
      tabbench::SampleFamily(family, db, kNref3jSample, kNref3jSampleSeed);
  run->Call(s.Stop());
  if (!run->Ok(sampled.status())) return sampled.status();
  return sampled->Sql();
}

std::vector<std::string> Nref2j(Run* run, Database* db) {
  Span s(&run->tracer, "core.family");
  std::vector<std::string> sql =
      tabbench::GenerateNref2J(db->catalog(), db->stats()).Sql();
  run->Call(s.Stop());
  return sql;
}

std::vector<std::string> Shuffled(std::vector<std::string> sql, uint64_t seed) {
  tabbench::Rng rng(seed);
  rng.Shuffle(&sql);
  return sql;
}

Result<std::vector<tabbench::BoundQuery>> Bind(Run* run, Database* db,
                                               const std::vector<std::string>& sql) {
  std::vector<tabbench::BoundQuery> bound;
  for (size_t i = 0; i < sql.size(); ++i) {
    Span s(&run->tracer, "sql.bind", static_cast<int64_t>(i));
    auto b = tabbench::ParseAndBind(sql[i], db->catalog());
    run->Call(s.Stop());
    if (!run->Ok(b.status())) return b.status();
    bound.push_back(b.TakeValue());
  }
  return bound;
}

/// The paper's recommendation step: from P, with size(1C) - size(P) as the
/// space budget. A declined recommendation (NotFound) is an outcome of the
/// protocol, not a failure.
Result<Configuration> Recommend(Run* run, Iteration* it,
                                const std::vector<tabbench::BoundQuery>& bound,
                                tabbench::AdvisorOptions profile) {
  Database* db = it->db.get();
  profile.space_budget_pages =
      tabbench::FamilyExperiment(db, {}, {}).SpaceBudgetPages();
  tabbench::Advisor advisor(db->CurrentView(), profile);
  Span s(&run->tracer, "advisor.recommend");
  auto rec = advisor.Recommend(bound);
  run->Call(s.Stop());
  it->digest.Add(static_cast<uint64_t>(rec.ok()));
  if (!rec.ok()) {
    if (rec.status().IsNotFound()) {
      ++run->attempted;
    } else {
      run->Ok(rec.status());
    }
    return rec.status();
  }
  ++run->attempted;
  it->digest.Add(rec->est_cost_before);
  it->digest.Add(rec->est_cost_after);
  it->digest.Add(static_cast<uint64_t>(rec->candidates_considered));
  for (const auto& idx : rec->config.indexes) it->digest.Add(idx.name);
  const double picks =
      static_cast<double>(rec->config.indexes.size() + rec->config.views.size());
  run->Count(it->workload, "advisor.calls", 1.0);
  run->Count(it->workload, "advisor.candidates",
             static_cast<double>(rec->candidates_considered));
  run->Count(it->workload, "advisor.picks", picks);
  return rec->config;
}

/// Builds `config` (P: back to primary keys) and digests its build report.
Status Apply(Run* run, Iteration* it, const Configuration& config) {
  Database* db = it->db.get();
  tabbench::BuildReport report;
  if (config.indexes.empty() && config.views.empty()) {
    Span s(&run->tracer, "engine.reset");
    Status st = db->ResetToPrimary();
    run->Call(s.Stop());
    if (!run->Ok(st)) return st;
  } else {
    Span s(&run->tracer, "engine.apply_config");
    auto r = db->ApplyConfiguration(config);
    run->Call(s.Stop());
    if (!run->Ok(r.status())) return r.status();
    report = r.TakeValue();
  }
  it->digest.Add(report.secondary_pages);
  it->digest.Add(report.build_seconds);
  for (const auto& o : report.objects) {
    it->digest.Add(o.pages);
    it->digest.Add(o.build_seconds);
  }
  run->Count(it->workload, "engine.secondary_pages",
             static_cast<double>(report.secondary_pages));
  return Status::OK();
}

/// Executes one query as a one-query RunWorkload call (cold pool only for
/// the first query of a configuration) and digests its A.
QueryTiming ExecuteOne(Run* run, Iteration* it, size_t i, bool cold,
                       const std::string& sql) {
  tabbench::RunOptions opts;
  opts.cold_start = cold;
  Span s(&run->tracer, "exec.run", static_cast<int64_t>(i));
  auto r = tabbench::RunWorkload(it->db.get(), {sql}, opts);
  run->Call(s.Stop(), 1);
  QueryTiming t;
  if (run->Ok(r.status())) {
    t = r->timings.at(0);
    if (r->failures > 0) ++run->failed;
    run->Count(it->workload, "exec.timeouts", static_cast<double>(r->timeouts));
  }
  AddTiming(&it->digest, t);
  return t;
}

/// The Figure 3 step on one configuration: E then A for every query, plus
/// the configuration's buffer-pool hit/miss counts.
void PlanAndExecuteEach(Run* run, Iteration* it) {
  Database* db = it->db.get();
  it->timings.emplace_back();
  for (size_t i = 0; i < it->sql.size(); ++i) {
    Span q(&run->tracer, "query", static_cast<int64_t>(i));
    {
      Span s(&run->tracer, "optimizer.plan", static_cast<int64_t>(i));
      auto plan = db->Plan(it->sql[i]);
      run->Call(s.Stop());
      if (run->Ok(plan.status())) it->digest.Add(plan->est_cost);
    }
    it->timings.back().push_back(ExecuteOne(run, it, i, i == 0, it->sql[i]));
  }
  const tabbench::BufferPoolStats pool = db->buffer_stats();
  it->digest.Add(pool.hits);
  it->digest.Add(pool.misses);
  run->Count(it->workload, "storage.pool_hits", static_cast<double>(pool.hits));
  run->Count(it->workload, "storage.pool_misses", static_cast<double>(pool.misses));
}

/// E (hypothetical == nullptr) or H of every query on the built
/// configuration; each call is one answered query.
void EstimateEach(Run* run, Iteration* it, const Configuration* hypothetical,
                  const tabbench::HypotheticalRules& rules) {
  Database* db = it->db.get();
  for (size_t i = 0; i < it->sql.size(); ++i) {
    Span s(&run->tracer, hypothetical ? "optimizer.whatif" : "optimizer.estimate",
           static_cast<int64_t>(i));
    auto e = hypothetical ? db->HypotheticalEstimate(it->sql[i], *hypothetical, rules)
                          : db->Estimate(it->sql[i]);
    run->Call(s.Stop(), 1);
    it->digest.Add(run->Ok(e.status()) ? *e : -1.0);
  }
}

/// The workload as one RunWorkloadParallel call. Its queries are answered
/// together, so each query's latency is the call's wall time.
void ExecuteParallel(Run* run, Iteration* it) {
  tabbench::ParallelOptions par;
  par.pool = &run->pool;
  Span s(&run->tracer, "core.run_parallel");
  auto r = tabbench::RunWorkloadParallel(it->db.get(), it->sql, par, {});
  run->Call(s.Stop(), it->sql.size());
  it->timings.emplace_back();
  if (!run->Ok(r.status())) return;
  if (r->failures > 0) ++run->failed;
  it->timings.back() = r->timings;
  for (const QueryTiming& t : r->timings) AddTiming(&it->digest, t);
}

// -------------------------------------------------------------- workloads

/// Figure 3: System A recommends R for NREF2J, then P, R and 1C are built
/// and every query is planned and executed serially on Volcano.
Status CfcNref2j(Run* run, Iteration* it, uint64_t seed) {
  Database* db = it->db.get();
  const std::vector<std::string> family = Nref2j(run, db);
  it->sql = Shuffled(family, seed);
  // The advisor sees the family in its generated order. It evaluates a
  // subset of the workload picked by position, so a shuffled input gave each
  // seed its own R, whose execution moved query_ms.p90 by up to 60%.
  std::vector<tabbench::BoundQuery> bound;
  TB_ASSIGN_OR_RETURN(bound, Bind(run, db, family));
  auto rec = Recommend(run, it, bound, tabbench::SystemAProfile());
  std::vector<Configuration> configs = {tabbench::MakePConfig()};
  if (rec.ok()) configs.push_back(*rec);
  configs.push_back(tabbench::Make1CConfig(db->catalog()));
  for (const Configuration& c : configs) {
    TB_RETURN_IF_ERROR(Apply(run, it, c));
    PlanAndExecuteEach(run, it);
  }
  return Status::OK();
}

/// Figure 10: NREF3J sampled, System B recommends R; H of R and 1C taken
/// from P, E taken on P, R and 1C, in a seed-shuffled order. No query
/// executes.
Status WhatifNref3j(Run* run, Iteration* it, uint64_t seed) {
  Database* db = it->db.get();
  std::vector<std::string> sample;
  TB_ASSIGN_OR_RETURN(sample, Nref3jSample(run, db));
  it->sql = Shuffled(sample, seed);
  std::vector<tabbench::BoundQuery> bound;
  TB_ASSIGN_OR_RETURN(bound, Bind(run, db, sample));
  const tabbench::AdvisorOptions profile = tabbench::SystemBProfile();
  auto rec = Recommend(run, it, bound, profile);
  // Section 5's rules for unbuilt indexes, value-density stats left intact
  // (as bench_fig10 evaluates them).
  tabbench::HypotheticalRules rules = profile.whatif;
  rules.uniform_value_assumption = false;
  const Configuration one_c = tabbench::Make1CConfig(db->catalog());
  if (rec.ok()) EstimateEach(run, it, &*rec, rules);
  EstimateEach(run, it, &one_c, rules);
  EstimateEach(run, it, nullptr, rules);
  if (rec.ok()) {
    TB_RETURN_IF_ERROR(Apply(run, it, *rec));
    EstimateEach(run, it, nullptr, rules);
  }
  TB_RETURN_IF_ERROR(Apply(run, it, one_c));
  EstimateEach(run, it, nullptr, rules);
  return Status::OK();
}

/// A neighboring_seq row shaped like the generator's, with a fresh ordinal.
tabbench::Tuple ChurnRow(tabbench::Rng* rng, size_t n_protein, int64_t ordinal) {
  std::vector<tabbench::Value> row;
  row.emplace_back(static_cast<int64_t>(rng->Uniform(n_protein)));
  row.emplace_back(ordinal);
  row.emplace_back(static_cast<int64_t>(rng->Uniform(n_protein)));
  row.emplace_back(static_cast<int64_t>(rng->Uniform(600)));
  row.emplace_back(static_cast<int64_t>(40 + rng->Uniform(3000)));
  row.emplace_back(40.0 + rng->UniformDouble() * 960.0);
  row.emplace_back(static_cast<int64_t>(40 + rng->Uniform(3000)));
  const int64_t s1 = rng->UniformInt(1, 400);
  const int64_t s2 = rng->UniformInt(1, 400);
  row.emplace_back(s1);
  row.emplace_back(s2);
  row.emplace_back(s1 + 100);
  row.emplace_back(s2 + 100);
  return tabbench::Tuple(std::move(row));
}

/// Writes beside reads on 1C: a seeded insert/update/delete stream on
/// neighboring_seq (victims Zipf-skewed toward the youngest rows it wrote),
/// with every NREF2J query read once, evenly spread over the stream, and
/// periodic statistics passes.
Status ChurnNref(Run* run, Iteration* it, uint64_t seed) {
  Database* db = it->db.get();
  it->sql = Shuffled(Nref2j(run, db), seed);
  const Configuration one_c = tabbench::Make1CConfig(db->catalog());
  TB_RETURN_IF_ERROR(Apply(run, it, one_c));

  const std::string table = "neighboring_seq";
  const size_t n_protein = db->TableRowCount("protein");
  tabbench::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 1);
  tabbench::ZipfSampler zipf(kZipfDomain, kChurnZipfTheta);
  std::vector<tabbench::Rid> live;  // rows this stream wrote; back = youngest
  int64_t next_ordinal = 1'000'000;
  const size_t n = it->sql.size();
  size_t reads = 0;
  for (size_t w = 0; w < kChurnWrites; ++w) {
    // Read q is due at write q * kChurnWrites / n.
    for (; reads < n && reads * kChurnWrites <= w * n; ++reads) {
      ExecuteOne(run, it, reads, reads == 0, it->sql[reads]);
    }
    if (w > 0 && w % kChurnStatsEvery == 0) {
      Span s(&run->tracer, "stats.collect");
      Status st = db->CollectStatistics();
      run->Call(s.Stop());
      run->Ok(st);
    }
    const double draw = rng.UniformDouble();
    if (draw < 1.0 / 3.0 || live.empty()) {
      tabbench::Tuple row = ChurnRow(&rng, n_protein, next_ordinal++);
      tabbench::Rid rid;
      Span s(&run->tracer, "storage.insert");
      auto r = db->TimedInsert(table, std::move(row), &rid);
      run->Call(s.Stop());
      if (run->Ok(r.status())) {
        live.push_back(rid);
        it->digest.Add(*r);
      }
      continue;
    }
    const size_t rank = zipf.Sample(&rng);
    const size_t idx = live.size() - 1 - (rank % live.size());
    const tabbench::Rid victim = live[idx];
    live.erase(live.begin() + static_cast<ptrdiff_t>(idx));
    if (draw < 2.0 / 3.0) {
      tabbench::Tuple row = ChurnRow(&rng, n_protein, next_ordinal++);
      tabbench::Rid moved;
      Span s(&run->tracer, "storage.update");
      auto r = db->TimedUpdate(table, victim, std::move(row), &moved);
      run->Call(s.Stop());
      if (run->Ok(r.status())) {
        live.push_back(moved);  // the new version is the youngest row
        it->digest.Add(*r);
      }
    } else {
      Span s(&run->tracer, "storage.delete");
      auto r = db->TimedDelete(table, victim);
      run->Call(s.Stop());
      if (run->Ok(r.status())) it->digest.Add(*r);
    }
  }
  for (const auto& idx : one_c.indexes) {
    auto fp = db->SecondaryIndexFingerprint(idx.name);
    if (run->Ok(fp.status())) it->digest.Add(*fp);
  }
  return Status::OK();
}

std::vector<Configuration> PAnd1C(const Database& db) {
  return {tabbench::MakePConfig(), tabbench::Make1CConfig(db.catalog())};
}

/// NREF2J on P and 1C through RunWorkloadParallel on nproc workers (trace
/// record/replay and the thread pool).
Status ParallelNref2j(Run* run, Iteration* it, uint64_t seed) {
  Database* db = it->db.get();
  it->sql = Shuffled(Nref2j(run, db), seed);
  for (const Configuration& c : PAnd1C(*db)) {
    TB_RETURN_IF_ERROR(Apply(run, it, c));
    ExecuteParallel(run, it);
  }
  return Status::OK();
}

using WorkloadFn = Status (*)(Run*, Iteration*, uint64_t);
struct Workload {
  const char* name;
  WorkloadFn fn;
};
constexpr Workload kWorkloads[] = {
    {"cfc_nref2j", CfcNref2j},
    {"whatif_nref3j", WhatifNref3j},
    {"churn_nref", ChurnNref},
    {"parallel_nref2j", ParallelNref2j},
};

// ---------------------------------------------------------------- checks

/// Per-query timing must not change what is measured: on cfc_nref2j, the
/// one-query calls of the last configuration must equal one whole-workload
/// call. (churn_nref interleaves writes, so no whole call exists to compare.)
bool CheckWholeWorkload(Iteration* it) {
  if (it->workload != "cfc_nref2j") return true;
  auto whole = tabbench::RunWorkload(it->db.get(), it->sql, {});
  return whole.ok() && !it->timings.empty() &&
         SameTimings(whole->timings, it->timings.back());
}

std::vector<double> SpanSeconds(const std::vector<SpanRecord>& spans,
                                const std::string& workload,
                                const std::set<std::string>& names) {
  std::vector<double> out;
  for (const SpanRecord& s : spans) {
    if ((workload.empty() || s.workload == workload) && names.count(s.name)) {
      out.push_back(s.seconds());
    }
  }
  return out;
}

/// Traced-run extras right after the traced cfc_nref2j iteration (on its
/// last configuration, 1C) or parallel_nref2j iteration (on P and 1C); every
/// mode must reproduce the iteration's simulated timings exactly. False on
/// divergence.
bool MeasureExecutors(Run* run, Iteration* it) {
  Database* db = it->db.get();
  const std::string& w = it->workload;
  if (w == "cfc_nref2j") {
    // Per-query Volcano vs per-query vectorized with an nproc pool.
    auto each = [&](tabbench::RunOptions opts, const char* name,
                    std::vector<QueryTiming>* out) {
      Span s(&run->tracer, name);
      for (size_t i = 0; i < it->sql.size(); ++i) {
        opts.cold_start = i == 0;
        auto r = tabbench::RunWorkload(db, {it->sql[i]}, opts);
        out->push_back(r.ok() ? r->timings.at(0) : QueryTiming{-1.0, true, true});
      }
      return s.Stop();
    };
    std::vector<QueryTiming> volcano, vectorized;
    tabbench::RunOptions vec;
    vec.executor = tabbench::QueryExecutor::kVectorized;
    vec.intra_query_pool = &run->pool;
    vec.intra_query_parallelism = run->pool.num_workers();
    const double v = each({}, "exec.run_each_volcano", &volcano);
    const double z = each(vec, "exec_vec.run_each", &vectorized);
    run->ratios["exec_vec.speedup_vs_volcano"] = v / z;
    return SameTimings(volcano, it->timings.back()) &&
           SameTimings(vectorized, it->timings.back());
  }
  if (w == "parallel_nref2j") {
    // Serial and 1-worker runs of the workload on P and 1C, against the
    // iteration's own nproc-worker runs (its core.run_parallel spans).
    const std::vector<Configuration> configs = PAnd1C(*db);
    if (it->timings.size() != configs.size()) return false;
    tabbench::ThreadPool one(1);
    tabbench::ParallelOptions par1;
    par1.pool = &one;
    double serial_s = 0.0, one_s = 0.0, n_s = 0.0;
    for (size_t c = 0; c < configs.size(); ++c) {
      if (configs[c].indexes.empty() ? !db->ResetToPrimary().ok()
                                     : !db->ApplyConfiguration(configs[c]).ok()) {
        return false;
      }
      Span s(&run->tracer, "core.run_serial");
      auto serial = tabbench::RunWorkload(db, it->sql, {});
      serial_s += s.Stop();
      Span s1(&run->tracer, "core.run_parallel_1w");
      auto p1 = tabbench::RunWorkloadParallel(db, it->sql, par1, {});
      one_s += s1.Stop();
      if (!serial.ok() || !p1.ok() || !SameTimings(serial->timings, it->timings[c]) ||
          !SameTimings(p1->timings, it->timings[c])) {
        return false;
      }
    }
    for (double s : SpanSeconds(run->tracer.spans(), w, {"core.run_parallel"})) n_s += s;
    run->ratios["core.parallel_speedup"] = serial_s / n_s;
    run->ratios["core.parallel_1w_ratio"] = serial_s / one_s;
    return true;
  }
  return true;
}

// ------------------------------------------------------------- reporting

struct Metric {
  std::string name;
  double value;
  std::string unit;
  size_t samples;
};

/// exec self time per cfc_nref2j query: its RunWorkload wall minus its Plan
/// wall (the planning RunWorkload repeats internally).
std::vector<double> ExecSelfSeconds(const std::vector<SpanRecord>& spans) {
  std::map<int64_t, std::pair<double, double>> by_query;  // parent -> plan, run
  for (const SpanRecord& s : spans) {
    if (s.workload != "cfc_nref2j" || s.parent < 0) continue;
    if (s.name == "optimizer.plan") by_query[s.parent].first = s.seconds();
    if (s.name == "exec.run") by_query[s.parent].second = s.seconds();
  }
  std::vector<double> out;
  for (const auto& [parent, pr] : by_query) out.push_back(pr.second - pr.first);
  return out;
}

std::vector<Metric> PerLayerMetrics(const Run& run,
                                    const std::map<std::string, int>& iterations,
                                    double rows_per_db, double overhead_s) {
  const auto& spans = run.tracer.spans();
  auto per_iter = [&](const std::string& w, const std::string& key) {
    auto it = run.counts.find(w + "/" + key);
    const int n = iterations.count(w) ? iterations.at(w) : 0;
    return it == run.counts.end() || n == 0 ? 0.0 : it->second / n;
  };
  auto ratio = [&](const std::string& key) {
    auto it = run.ratios.find(key);
    return it == run.ratios.end() ? 0.0 : it->second;
  };
  std::vector<Metric> m;
  auto dist = [&](const std::string& name, const std::string& unit, double scale,
                  const std::string& workload, const std::set<std::string>& spans_named,
                  double q) {
    auto v = SpanSeconds(spans, workload, spans_named);
    m.push_back({name, Quantile(v, q) * scale, unit, v.size()});
  };
  dist("datagen.generate_s", "s", 1.0, "", {"datagen.generate"}, 0.5);
  const double gen = m.back().value;
  m.push_back({"datagen.rows_per_s", gen > 0 ? rows_per_db / gen : 0.0, "1/s",
               m.back().samples});
  dist("stats.collect_ms", "ms", 1e3, "churn_nref", {"stats.collect"}, 0.5);
  dist("sql.bind_us.p50", "us", 1e6, "whatif_nref3j", {"sql.bind"}, 0.5);
  dist("core.sample_ms", "ms", 1e3, "whatif_nref3j", {"core.sample"}, 0.5);
  m.push_back({"core.parallel_speedup", ratio("core.parallel_speedup"), "ratio", 1});
  m.push_back({"core.parallel_1w_ratio", ratio("core.parallel_1w_ratio"), "ratio", 1});
  dist("advisor.recommend_ms", "ms", 1e3, "whatif_nref3j", {"advisor.recommend"}, 0.5);
  const double calls = per_iter("whatif_nref3j", "advisor.calls");
  const double cands = per_iter("whatif_nref3j", "advisor.candidates");
  m.push_back({"advisor.candidates", calls > 0 ? cands / calls : 0.0, "count", 1});
  m.push_back({"advisor.picks_per_candidate",
               cands > 0 ? per_iter("whatif_nref3j", "advisor.picks") / cands : 0.0,
               "ratio", 1});
  dist("optimizer.whatif_us.p50", "us", 1e6, "whatif_nref3j", {"optimizer.whatif"}, 0.5);
  dist("optimizer.whatif_us.p90", "us", 1e6, "whatif_nref3j", {"optimizer.whatif"}, 0.9);
  dist("optimizer.estimate_us.p50", "us", 1e6, "whatif_nref3j", {"optimizer.estimate"},
       0.5);
  dist("optimizer.plan_us.p50", "us", 1e6, "cfc_nref2j", {"optimizer.plan"}, 0.5);
  dist("optimizer.plan_us.p90", "us", 1e6, "cfc_nref2j", {"optimizer.plan"}, 0.9);
  dist("engine.apply_config_ms", "ms", 1e3, "", {"engine.apply_config"}, 0.5);
  m.push_back({"engine.secondary_pages",
               per_iter("cfc_nref2j", "engine.secondary_pages"), "pages", 1});
  const auto self = ExecSelfSeconds(spans);
  m.push_back({"exec.self_ms.p50", Quantile(self, 0.5) * 1e3, "ms", self.size()});
  m.push_back({"exec.self_ms.p90", Quantile(self, 0.9) * 1e3, "ms", self.size()});
  m.push_back({"exec.timeouts", per_iter("cfc_nref2j", "exec.timeouts"), "count", 1});
  const double hits = per_iter("cfc_nref2j", "storage.pool_hits");
  const double misses = per_iter("cfc_nref2j", "storage.pool_misses");
  m.push_back({"storage.pool_hit_ratio",
               hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio", 1});
  m.push_back({"storage.pool_misses", misses, "count", 1});
  dist("storage.insert_us.p50", "us", 1e6, "churn_nref", {"storage.insert"}, 0.5);
  dist("storage.update_us.p50", "us", 1e6, "churn_nref", {"storage.update"}, 0.5);
  dist("storage.delete_us.p50", "us", 1e6, "churn_nref", {"storage.delete"}, 0.5);
  dist("storage.write_us.p90", "us", 1e6, "churn_nref",
       {"storage.insert", "storage.update", "storage.delete"}, 0.9);
  m.push_back({"exec_vec.speedup_vs_volcano", ratio("exec_vec.speedup_vs_volcano"),
               "ratio", 1});
  m.push_back({"trace.overhead_s", overhead_s, "s", 1});
  return m;
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

double PeakRssMb() {
  struct rusage ru;
  std::memset(&ru, 0, sizeof ru);
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Args {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") a->workload = v;
    else if (k == "--seed") a->seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds") a->seconds = std::atof(v);
    else if (k == "--trace") a->trace = std::string(v) == "1";
    else if (k == "--trace-out") a->trace_out = v;
    else return false;
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0;
}

int Main(int argc, char** argv) {
  Args args;
  const Workload* selected = nullptr;
  if (ParseArgs(argc, argv, &args)) {
    for (const Workload& w : kWorkloads) {
      if (args.workload == w.name) selected = &w;
    }
  }
  if (selected == nullptr) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <cfc_nref2j|whatif_nref3j|churn_nref|"
                 "parallel_nref2j> --seed <n> --seconds <s> --trace <0|1> "
                 "[--trace-out <path>]\n");
    return 2;
  }

  Run run(args.trace);
  tabbench::NrefScaleOptions scale;
  scale.scale_inverse = kScaleInverse;

  // Untraced iterations of --workload give the end-to-end metrics. They make
  // the same layer calls in the same order, so each call's fastest wall
  // across them is its time without interference from the rest of the host:
  // the timings are built from those, and a slow spell that misses any one
  // iteration of a call does not move them. setup_s is the median set-up.
  std::vector<double> setup_s, best_call_s;
  std::vector<size_t> call_answers;
  double best_glue_s = 0.0;  // iteration wall outside the layer calls
  // Iteration walls, for the tracing overhead.
  std::vector<double> run_s_untraced, run_s_traced;
  std::map<std::string, int> iterations;         // traced, per workload
  std::map<std::string, uint64_t> first_digest;  // per workload
  double rows_per_db = 0.0;
  bool correct = true;

  // One iteration: fresh database (set-up), then the workload on it.
  auto iterate = [&](const Workload& w) -> std::unique_ptr<Iteration> {
    auto it = std::make_unique<Iteration>();
    it->workload = w.name;
    run.tracer.set_workload(w.name);
    {
      Span s(&run.tracer, "datagen.generate");
      auto db = tabbench::GenerateNref(scale);
      const double wall = s.Stop();
      if (!run.Ok(db.status())) return nullptr;
      it->db = db.TakeValue();
      if (&w == selected && !run.tracer.enabled()) setup_s.push_back(wall);
    }
    if (rows_per_db == 0.0) {
      for (const auto& t : it->db->catalog().tables()) {
        rows_per_db += static_cast<double>(it->db->TableRowCount(t.name));
      }
    }
    run.call_s.clear();
    run.call_answers.clear();
    Span s(&run.tracer, "workload");
    Status st = w.fn(&run, it.get(), args.seed);
    const double wall = s.Stop();
    if (!st.ok()) {
      std::fprintf(stderr, "%s: %s\n", w.name, st.ToString().c_str());
      return nullptr;
    }
    if (&w == selected && run.tracer.enabled()) run_s_traced.push_back(wall);
    if (&w == selected && !run.tracer.enabled()) {
      double calls = 0.0;
      for (double c : run.call_s) calls += c;
      if (run_s_untraced.empty()) {
        best_call_s = run.call_s;
        call_answers = run.call_answers;
        best_glue_s = wall - calls;
      } else if (run.call_answers != call_answers) {
        std::fprintf(stderr, "%s: iterations made different calls\n", w.name);
        correct = false;
      } else {
        for (size_t k = 0; k < best_call_s.size(); ++k) {
          best_call_s[k] = std::min(best_call_s[k], run.call_s[k]);
        }
        best_glue_s = std::min(best_glue_s, wall - calls);
      }
      run_s_untraced.push_back(wall);
    }
    if (run.tracer.enabled()) ++iterations[w.name];
    auto [prev, fresh] = first_digest.emplace(w.name, it->digest.value());
    if (!fresh && prev->second != it->digest.value()) {
      std::fprintf(stderr, "%s: iterations disagree on simulated outputs\n", w.name);
      correct = false;
    }
    return it;
  };

  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(args.seconds));
  std::unique_ptr<Iteration> last;
  if (args.trace) {
    for (const Workload& w : kWorkloads) {
      last.reset();  // one database alive at a time
      last = iterate(w);
      if (last == nullptr) return 1;
      if (!MeasureExecutors(&run, last.get())) {
        std::fprintf(stderr, "%s: executors disagree on simulated timings\n", w.name);
        correct = false;
      }
    }
  }
  // Untraced iterations give the end-to-end metrics; in a traced run they
  // alternate with traced ones, whose difference is the tracing overhead.
  const bool traced_run = args.trace;
  bool trace_next = false;
  do {
    run.tracer.set_enabled(traced_run && trace_next);
    trace_next = !trace_next;
    last.reset();
    last = iterate(*selected);
    if (last == nullptr) return 1;
  } while (Clock::now() < deadline || (traced_run && run_s_traced.size() < 2));
  run.tracer.set_enabled(traced_run);

  if (!CheckWholeWorkload(last.get())) {
    std::fprintf(stderr, "%s: per-query timings differ from a whole-workload call\n",
                 selected->name);
    correct = false;
  }
  for (const auto& [w, digest] : first_digest) {
    uint64_t expected = 0;
    for (const ExpectedDigest& e : kExpected) {
      if (w == e.workload) expected = e.digest;
    }
    std::printf("digest %s seed %" PRIu64 ": %016" PRIx64 "\n", w.c_str(), args.seed,
                digest);
    if (args.seed == kDefaultSeed && digest != expected) {
      std::fprintf(stderr, "%s: digest %016" PRIx64 " != expected %016" PRIx64 "\n",
                   w.c_str(), digest, expected);
      correct = false;
    }
  }

  std::vector<Metric> metrics;
  if (!traced_run) {
    // A call answering several queries at once is each one's latency.
    std::vector<double> query_s;
    double run_s = best_glue_s, answer_s = 0.0;
    for (size_t k = 0; k < best_call_s.size(); ++k) {
      run_s += best_call_s[k];
      if (call_answers[k] == 0) continue;
      query_s.insert(query_s.end(), call_answers[k], best_call_s[k]);
      answer_s += best_call_s[k];
    }
    const size_t n = run_s_untraced.size();
    metrics.push_back({"setup_s", Median(setup_s), "s", n});
    metrics.push_back({"run_s", run_s, "s", n});
    metrics.push_back({"query_ms.p50", Quantile(query_s, 0.5) * 1e3, "ms", query_s.size()});
    metrics.push_back({"query_ms.p90", Quantile(query_s, 0.9) * 1e3, "ms", query_s.size()});
    metrics.push_back({"queries_per_s", static_cast<double>(query_s.size()) / answer_s, "1/s",
                       query_s.size()});
    metrics.push_back({"peak_rss_mb", PeakRssMb(), "MB", 1});
  } else {
    metrics = PerLayerMetrics(run, iterations, rows_per_db,
                              Median(run_s_traced) - Median(run_s_untraced));
    if (!args.trace_out.empty() && !run.tracer.WriteJsonLines(args.trace_out)) {
      std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
    }
  }

  std::printf("perfbench %s seed %" PRIu64 " trace %d: %zu untraced, %zu traced "
              "iterations of %zu layer calls, %" PRIu64 " operations, %" PRIu64
              " failed\n",
              selected->name, args.seed, traced_run ? 1 : 0, run_s_untraced.size(),
              run_s_traced.size(), run.call_s.size(), run.attempted, run.failed);
  for (const Metric& m : metrics) {
    std::printf("  %-30s %14.6g %-6s (n=%zu)\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(run.attempted) +
                     ", \"failed\": " + std::to_string(run.failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            JsonNumber(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
