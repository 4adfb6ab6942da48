// An interactive (or piped) SQL shell over the tabbench engine: generate a
// benchmark database, run ad-hoc queries with simulated timings, inspect
// plans, switch physical configurations, and invoke the recommenders.
//
//   $ ./build/examples/tabbench_cli
//   tabbench> \gen nref 800
//   tabbench> SELECT COUNT(*) FROM protein p WHERE p.length = 124
//   tabbench> \explain SELECT ...
//   tabbench> \config 1c
//   tabbench> \advise B nref3j
//   tabbench> \quit
//
// Meta-commands: \gen <nref|skth|unth> [scale]   generate + load a database
//                \tables                         list tables and sizes
//                \config <p|1c>                  apply a configuration
//                \advise <A|B|C> <family>        run a recommender profile
//                \explain <sql>                  show the chosen plan
//                \goal                           Example-2 goal check of the
//                                                last \advise workload
//                \help, \quit
//
// Batch modes (argv instead of the shell):
//
//   $ tabbench bench <nref|skth|unth> <family> <journal> [scale] [p|1c]
//   $ tabbench resume <journal>
//
// `bench` runs a workload with a durable run journal (util/run_journal.h):
// every completed query is fsync'd before the next starts. If the process
// dies — crash, OOM kill, power loss — `resume` rebuilds the database from
// the journal's own metadata, replays the completed prefix bit for bit, and
// finishes the remaining queries, producing the same result an
// uninterrupted run would have.

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

#include "advisor/profiles.h"
#include "core/benchmark_suite.h"
#include "core/nref_families.h"
#include "core/tpch_families.h"
#include "datagen/nref_gen.h"
#include "core/runner.h"
#include "core/workload_io.h"
#include "datagen/tpch_gen.h"
#include "util/run_journal.h"
#include "util/strings.h"

using namespace tabbench;

namespace {

/// Parses a whole-string scale divisor of at least 50 (the rule
/// TABBENCH_SCALE follows) into *out; anything else leaves *out alone.
bool ParseScale(const std::string& text, double* out) {
  const char* end = text.data() + text.size();
  double v = 0.0;
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || ptr != end || !std::isfinite(v) || v < 50.0) {
    return false;
  }
  *out = v;
  return true;
}

constexpr const char* kScaleRule = "a number of at least 50";

/// Builds one of the three paper databases at 1/`scale`.
Result<std::unique_ptr<Database>> BuildDatabase(const std::string& kind,
                                                double scale) {
  if (kind == "nref") {
    NrefScaleOptions opts;
    opts.scale_inverse = scale;
    return GenerateNref(opts);
  }
  if (kind == "skth" || kind == "unth") {
    TpchScaleOptions opts;
    opts.scale_inverse = scale;
    opts.zipf_theta = (kind == "skth") ? 1.0 : 0.0;
    return GenerateTpch(opts);
  }
  return Status::InvalidArgument("unknown database '" + kind +
                                 "' (nref | skth | unth)");
}

QueryFamily FamilyByName(Database* db, const std::string& db_kind,
                         const std::string& name) {
  if (name == "nref2j") return GenerateNref2J(db->catalog(), db->stats());
  if (name == "nref3j") return GenerateNref3J(db->catalog(), db->stats());
  if (name == "3js") return GenerateTpch3Js(db->catalog(), db->stats());
  if (name == "3j") {
    return GenerateTpch3J(db->catalog(), db->stats(),
                          db_kind == "unth" ? "UnTH3J" : "SkTH3J");
  }
  return QueryFamily{};
}

struct Shell {
  std::unique_ptr<Database> db;
  std::string db_kind;

  bool Ready() const {
    if (db == nullptr) {
      std::printf("no database loaded; try: \\gen nref\n");
      return false;
    }
    return true;
  }

  void Generate(const std::string& kind, double scale) {
    auto r = BuildDatabase(kind, scale);
    if (!r.ok()) {
      std::printf("error: %s\n", r.status().ToString().c_str());
      return;
    }
    db = r.TakeValue();
    db_kind = kind;
    std::printf("loaded %s at 1/%.0f scale (config P):\n", kind.c_str(),
                scale);
    Tables();
  }

  void Tables() {
    if (!Ready()) return;
    for (const auto& t : db->catalog().tables()) {
      const TableStats* ts = db->stats().FindTable(t.name);
      std::printf("  %-18s %9llu rows %7llu pages\n", t.name.c_str(),
                  static_cast<unsigned long long>(db->TableRowCount(t.name)),
                  static_cast<unsigned long long>(ts ? ts->pages : 0));
    }
    std::printf("  configuration: %s (%llu secondary pages)\n",
                db->current_config().name.c_str(),
                static_cast<unsigned long long>(db->SecondaryPages()));
  }

  void Config(const std::string& which) {
    if (!Ready()) return;
    if (which == "p") {
      (void)db->ResetToPrimary();
      std::printf("configuration P (primary keys only)\n");
      return;
    }
    if (which == "1c") {
      auto rep = db->ApplyConfiguration(Make1CConfig(db->catalog()));
      if (!rep.ok()) {
        std::printf("error: %s\n", rep.status().ToString().c_str());
        return;
      }
      std::printf("built 1C: %zu indexes, %llu pages, %s simulated\n",
                  rep->objects.size(),
                  static_cast<unsigned long long>(rep->secondary_pages),
                  HumanSeconds(rep->build_seconds).c_str());
      return;
    }
    std::printf("unknown configuration '%s' (p | 1c)\n", which.c_str());
  }

  void Advise(const std::string& system, const std::string& family_name) {
    if (!Ready()) return;
    QueryFamily family = FamilyByName(db.get(), db_kind, family_name);
    if (family.queries.empty()) {
      std::printf("unknown/empty family '%s' "
                  "(nref2j | nref3j | 3j | 3js)\n",
                  family_name.c_str());
      return;
    }
    ExperimentOptions eopts;
    eopts.workload_size = 50;
    FamilyExperiment exp(db.get(), std::move(family), eopts);
    if (!exp.Prepare().ok()) return;
    auto rec = exp.Recommend(ProfileByName(system));
    if (!rec.ok()) {
      std::printf("system %s declined: %s\n", system.c_str(),
                  rec.status().message().c_str());
      return;
    }
    std::printf("system %s recommends %zu indexes, %zu views "
                "(est. %.0fs -> %.0fs, %.0f of %.0f budget pages):\n",
                system.c_str(), rec->config.indexes.size(),
                rec->config.views.size(), rec->est_cost_before,
                rec->est_cost_after, rec->est_pages, exp.SpaceBudgetPages());
    for (const auto& idx : rec->config.indexes) {
      std::printf("  CREATE INDEX %s ON %s(%s)\n", idx.name.c_str(),
                  idx.target.c_str(), StrJoin(idx.columns, ", ").c_str());
    }
    for (const auto& v : rec->config.views) {
      std::printf("  CREATE MATERIALIZED VIEW %s  -- %zu tables, %zu cols\n",
                  v.name.c_str(), v.tables.size(), v.projection.size());
    }
    auto rep = db->ApplyConfiguration(rec->config);
    if (rep.ok()) {
      std::printf("applied (build %s, %llu pages). \\config p to undo.\n",
                  HumanSeconds(rep->build_seconds).c_str(),
                  static_cast<unsigned long long>(rep->secondary_pages));
    }
  }

  void SaveWorkload(const std::string& family_name,
                    const std::string& path) {
    if (!Ready()) return;
    QueryFamily family = FamilyByName(db.get(), db_kind, family_name);
    if (family.queries.empty()) {
      std::printf("unknown/empty family '%s'\n", family_name.c_str());
      return;
    }
    Status st = SaveFamily(family, path);
    if (!st.ok()) {
      std::printf("error: %s\n", st.ToString().c_str());
      return;
    }
    std::printf("wrote %zu queries of %s to %s\n", family.queries.size(),
                family.name.c_str(), path.c_str());
  }

  void Analyze(const std::string& sql) {
    if (!Ready()) return;
    auto run = db->RunAnalyze(sql);
    if (!run.ok()) {
      std::printf("error: %s\n", run.status().ToString().c_str());
      return;
    }
    std::printf("%s", run->plan.ToString().c_str());
    std::printf("%zu row(s) in %s simulated%s\n", run->result.rows.size(),
                HumanSeconds(run->result.sim_seconds).c_str(),
                run->result.timed_out ? " ** timeout **" : "");
  }

  void Explain(const std::string& sql) {
    if (!Ready()) return;
    auto plan = db->Plan(sql);
    if (!plan.ok()) {
      std::printf("error: %s\n", plan.status().ToString().c_str());
      return;
    }
    std::printf("%s", plan->ToString().c_str());
  }

  void Run(const std::string& sql) {
    if (!Ready()) return;
    auto res = db->Run(sql);
    if (!res.ok()) {
      std::printf("error: %s\n", res.status().ToString().c_str());
      return;
    }
    if (res->timed_out) {
      std::printf("** timeout after %s simulated **\n",
                  HumanSeconds(res->sim_seconds).c_str());
      return;
    }
    size_t shown = 0;
    for (const auto& row : res->rows) {
      if (shown++ >= 20) {
        std::printf("  ... (%zu more rows)\n", res->rows.size() - 20);
        break;
      }
      std::printf("  %s\n", row.ToString().c_str());
    }
    std::printf("%zu row(s) in %s simulated (%llu pages, %llu tuples)\n",
                res->rows.size(), HumanSeconds(res->sim_seconds).c_str(),
                static_cast<unsigned long long>(res->pages_read),
                static_cast<unsigned long long>(res->tuples_processed));
  }

  void Help() {
    std::printf(
        "  \\gen <nref|skth|unth> [scale]   generate + load (default 800)\n"
        "  \\tables                         tables, sizes, configuration\n"
        "  \\config <p|1c>                  switch configuration\n"
        "  \\advise <A|B|C> <family>        recommend + apply "
        "(families: nref2j nref3j 3j 3js)\n"
        "  \\explain <sql>                  show the plan\n"
        "  \\analyze <sql>                  run + estimated vs actual rows\n"
        "  \\save <family> <path>           dump a query family to a file\n"
        "  \\help  \\quit\n"
        "  anything else is run as SQL\n");
  }
};

/// Shared tail of bench/resume: run (or continue) the journaled workload
/// and print the outcome.
int RunJournaled(Database* db, const std::vector<std::string>& sql,
                 const RunOptions& opts) {
  auto res = RunWorkload(db, sql, opts);
  if (!res.ok()) {
    std::fprintf(stderr, "error: %s\n", res.status().ToString().c_str());
    return 1;
  }
  std::printf("done: %zu queries, %s simulated total, %zu timeouts, "
              "%zu failures\n",
              res->timings.size(),
              HumanSeconds(res->total_clamped_seconds).c_str(),
              res->timeouts, res->failures);
  std::printf("journal: %s (resume with: tabbench resume %s)\n",
              opts.journal_path.c_str(), opts.journal_path.c_str());
  return 0;
}

/// `tabbench bench <nref|skth|unth> <family> <journal> [scale] [p|1c]`:
/// a crash-safe workload run. The journal's metadata records everything
/// `resume` needs to rebuild the database, so the journal file alone is the
/// checkpoint.
int RunBench(const std::string& kind, const std::string& family_name,
             const std::string& journal, double scale,
             const std::string& config) {
  auto built = BuildDatabase(kind, scale);
  if (!built.ok()) {
    std::fprintf(stderr, "error: %s\n", built.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<Database> db = built.TakeValue();
  if (config == "1c") {
    auto rep = db->ApplyConfiguration(Make1CConfig(db->catalog()));
    if (!rep.ok()) {
      std::fprintf(stderr, "error: %s\n", rep.status().ToString().c_str());
      return 1;
    }
  } else if (config != "p") {
    std::fprintf(stderr, "unknown configuration '%s' (p | 1c)\n",
                 config.c_str());
    return 1;
  }
  QueryFamily family = FamilyByName(db.get(), kind, family_name);
  if (family.queries.empty()) {
    std::fprintf(stderr, "unknown/empty family '%s' "
                 "(nref2j | nref3j | 3j | 3js)\n", family_name.c_str());
    return 1;
  }
  RunOptions opts = ResumeFrom(journal);  // picks up a prior partial run
  opts.journal_metadata["db"] = kind;
  opts.journal_metadata["scale"] = StrFormat("%.0f", scale);
  opts.journal_metadata["config"] = config;
  opts.journal_metadata["family"] = family_name;
  std::printf("running %s (%zu queries) on %s 1/%.0f config %s, journal %s\n",
              family.name.c_str(), family.queries.size(), kind.c_str(),
              scale, config.c_str(), journal.c_str());
  return RunJournaled(db.get(), family.Sql(), opts);
}

/// `tabbench resume <journal>`: finish an interrupted `bench` run from
/// nothing but the journal file. The header's metadata rebuilds the
/// database and configuration; the completed prefix is replayed bit for
/// bit; the remaining queries run live.
int RunResume(const std::string& journal) {
  auto loaded = LoadRunJournal(journal);
  if (!loaded.ok()) {
    std::fprintf(stderr, "error: %s\n", loaded.status().ToString().c_str());
    return 1;
  }
  const JournalHeader& h = loaded->header;
  auto meta = [&](const char* key) -> std::string {
    auto it = h.metadata.find(key);
    return it == h.metadata.end() ? std::string() : it->second;
  };
  const std::string kind = meta("db");
  const std::string config = meta("config").empty() ? "p" : meta("config");
  if (kind.empty()) {
    std::fprintf(stderr,
                 "journal %s carries no 'db' metadata — it was not written "
                 "by `tabbench bench`, so the database cannot be rebuilt "
                 "from it. Re-run the original producer with resume "
                 "enabled instead.\n",
                 journal.c_str());
    return 1;
  }
  double scale = 800.0;
  if (!meta("scale").empty() && !ParseScale(meta("scale"), &scale)) {
    std::fprintf(stderr,
                 "resume: the 'scale' metadata of journal %s must be %s, "
                 "got '%s'\n",
                 journal.c_str(), kScaleRule, meta("scale").c_str());
    return 2;
  }
  std::printf("resuming %s: %zu of %u queries already journaled "
              "(db=%s scale=1/%.0f config=%s)\n",
              journal.c_str(), loaded->records.size(), h.query_count,
              kind.c_str(), scale, config.c_str());
  auto built = BuildDatabase(kind, scale);
  if (!built.ok()) {
    std::fprintf(stderr, "error: %s\n", built.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<Database> db = built.TakeValue();
  if (config == "1c") {
    auto rep = db->ApplyConfiguration(Make1CConfig(db->catalog()));
    if (!rep.ok()) {
      std::fprintf(stderr, "error: %s\n", rep.status().ToString().c_str());
      return 1;
    }
  }
  // Mirror the recorded run options exactly — the journal refuses to
  // resume under different ones (and refuses a header carrying a retired
  // option: repetitions, fault-scope salt or retry policy).
  RunOptions opts = ResumeFrom(journal);
  opts.collect_estimates = h.collect_estimates;
  opts.cold_start = h.cold_start;
  return RunJournaled(db.get(), h.sql, opts);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2) {
    const std::string mode = argv[1];
    if (mode == "resume" && argc == 3) return RunResume(argv[2]);
    if (mode == "bench" && (argc == 5 || argc == 6 || argc == 7)) {
      double scale = 800.0;
      if (argc >= 6 && !ParseScale(argv[5], &scale)) {
        std::fprintf(stderr, "bench: scale must be %s, got '%s'\n",
                     kScaleRule, argv[5]);
        return 2;
      }
      return RunBench(argv[2], argv[3], argv[4], scale,
                      argc >= 7 ? argv[6] : "p");
    }
    std::fprintf(stderr,
                 "usage: %s                                   "
                 "interactive shell\n"
                 "       %s bench <nref|skth|unth> <family> <journal> "
                 "[scale] [p|1c]\n"
                 "       %s resume <journal>\n",
                 argv[0], argv[0], argv[0]);
    return 2;
  }
  Shell shell;
  std::printf("tabbench shell — \\help for commands\n");
  std::string line;
  while (true) {
    std::printf("tabbench> ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    std::istringstream in(line);
    std::string word;
    in >> word;
    if (word.empty()) continue;
    if (word == "\\quit" || word == "\\q") break;
    if (word == "\\help") {
      shell.Help();
    } else if (word == "\\gen") {
      std::string kind, scale_text;
      in >> kind >> scale_text;
      double scale = 800.0;
      if (!scale_text.empty() && !ParseScale(scale_text, &scale)) {
        std::printf("scale must be %s, got '%s'\n", kScaleRule,
                    scale_text.c_str());
        continue;
      }
      shell.Generate(kind, scale);
    } else if (word == "\\tables") {
      shell.Tables();
    } else if (word == "\\config") {
      std::string which;
      in >> which;
      shell.Config(which);
    } else if (word == "\\advise") {
      std::string system, family;
      in >> system >> family;
      shell.Advise(system, family);
    } else if (word == "\\save") {
      std::string family, path;
      in >> family >> path;
      shell.SaveWorkload(family, path);
    } else if (word == "\\analyze") {
      std::string rest;
      std::getline(in, rest);
      shell.Analyze(rest);
    } else if (word == "\\explain") {
      std::string rest;
      std::getline(in, rest);
      shell.Explain(rest);
    } else if (word[0] == '\\') {
      std::printf("unknown command %s (\\help)\n", word.c_str());
    } else {
      shell.Run(line);
    }
  }
  return 0;
}
