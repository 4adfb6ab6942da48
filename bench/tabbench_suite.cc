// The figure suite: every reproduced figure and table of the paper, the
// goal-driven-advisor extension and the scan-cost and memory ablations, from
// one process.
//
//   tabbench_suite                 every section, in the order of kSections
//   tabbench_suite fig8 totals     the named sections, in the order given
//
// Each database is generated once, and each experiment cell — a family
// sampled on its database at one workload size — is computed once: its
// workload, each profile's recommendation (or the reason it declined), the
// what-if estimates of R and 1C taken from P, and the runs on P, 1C and each
// recommendation with their build reports and E estimates. Sections render
// from the cells, so sections that show the same experiment share it, and
// a section's text does not depend on which sections ran before it.
// TABBENCH_SCALE and TABBENCH_WORKLOAD are read as in bench_support.h.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "advisor/goal_advisor.h"
#include "bench_support.h"
#include "core/goal.h"
#include "core/improvement.h"
#include "core/runner.h"
#include "util/strings.h"

namespace tabbench {
namespace bench {
namespace {

AdvisorOptions Profile(char system) {
  switch (system) {
    case 'A':
      return SystemAProfile();
    case 'B':
      return SystemBProfile();
    default:
      return SystemCProfile();
  }
}

/// H(q, R, P) and H(q, 1C, P), the estimates the recommender itself sees.
struct Hypothetical {
  std::vector<double> hr;
  std::vector<double> h1c;
};

/// One experiment cell. Every product is computed on first use and kept;
/// each starts by putting the database in the configuration it needs, so
/// the order in which sections ask does not change any result.
class Cell {
 public:
  Cell(Database* db, QueryFamily family, size_t workload_size)
      : exp_(db, std::move(family), Options(workload_size)) {}

  Status Prepare() { return exp_.Prepare(); }
  Database* db() const { return exp_.db(); }
  FamilyExperiment& exp() { return exp_; }

  /// The system's recommendation, or the status it declined with.
  const Result<Recommendation>& Recommend(char system) {
    auto it = recs_.find(system);
    if (it == recs_.end()) {
      it = recs_.emplace(system, exp_.Recommend(Profile(system))).first;
    }
    return it->second;
  }

  Result<const ConfigRunRecord*> RunP() { return Run("P", MakePConfig()); }
  Result<const ConfigRunRecord*> Run1C() {
    return Run("1C", Make1CConfig(db()->catalog()));
  }
  /// The run on the system's recommendation; an error if it declined.
  Result<const ConfigRunRecord*> RunR(char system) {
    const Result<Recommendation>& rec = Recommend(system);
    if (!rec.ok()) return rec.status();
    return Run(std::string("R") + system, rec->config);
  }

  /// The paper's ladder: P, R (when the system recommends) and 1C.
  Result<std::vector<const ConfigRunRecord*>> Ladder(char system) {
    std::vector<const ConfigRunRecord*> out;
    const ConfigRunRecord* run = nullptr;
    TB_ASSIGN_OR_RETURN(run, RunP());
    out.push_back(run);
    if (Recommend(system).ok()) {
      TB_ASSIGN_OR_RETURN(run, RunR(system));
      out.push_back(run);
    }
    TB_ASSIGN_OR_RETURN(run, Run1C());
    out.push_back(run);
    return out;
  }

  /// HR and H1C under the system's what-if rules. Section 5 isolates the
  /// error of *hypothetical-configuration* estimation — the optimizer
  /// deriving statistics for indexes it cannot measure ("the parameters
  /// describing Cjk are also estimated by the query optimizer"), so H is
  /// evaluated under exactly those derivation rules (worst-case clustering,
  /// leading-column NDV, no index-only credit), with value-density stats
  /// left intact on both sides so the H-vs-E gap is purely the
  /// unbuilt-index effect.
  Result<const Hypothetical*> WhatIf(char system) {
    auto it = whatif_.find(system);
    if (it != whatif_.end()) return &it->second;
    const Result<Recommendation>& rec = Recommend(system);
    if (!rec.ok()) return rec.status();
    HypotheticalRules rules = Profile(system).whatif;
    rules.uniform_value_assumption = false;
    const std::vector<std::string> sql = exp_.workload().Sql();
    TB_RETURN_IF_ERROR(db()->ResetToPrimary());
    Hypothetical h;
    TB_ASSIGN_OR_RETURN(h.hr,
                        HypotheticalWorkload(db(), sql, rec->config, rules));
    TB_ASSIGN_OR_RETURN(
        h.h1c,
        HypotheticalWorkload(db(), sql, Make1CConfig(db()->catalog()), rules));
    return &whatif_.emplace(system, std::move(h)).first->second;
  }

 private:
  static ExperimentOptions Options(size_t workload_size) {
    ExperimentOptions o;
    o.workload_size = workload_size;
    return o;
  }

  /// Builds `config`, runs the workload on it and, while it is still
  /// built, takes E(q, config) for every query.
  Result<const ConfigRunRecord*> Run(const std::string& key,
                                     const Configuration& config) {
    auto it = runs_.find(key);
    if (it == runs_.end()) {
      ConfigRunRecord rec;
      TB_ASSIGN_OR_RETURN(rec, exp_.RunOn(config));
      TB_ASSIGN_OR_RETURN(rec.result.estimates,
                          EstimateWorkload(db(), exp_.workload().Sql()));
      it = runs_.emplace(key, std::move(rec)).first;
    }
    return &it->second;
  }

  FamilyExperiment exp_;
  std::map<char, Result<Recommendation>> recs_;
  std::map<std::string, ConfigRunRecord> runs_;
  std::map<char, Hypothetical> whatif_;
};

/// The databases and cells of one suite run.
class Suite {
 public:
  /// "NREF", "SkTH" (TPC-H, Zipf(1)) or "UnTH" (TPC-H, uniform), generated
  /// on first use.
  Result<Database*> Db(const std::string& name) {
    std::unique_ptr<Database>& db = dbs_[name];
    if (db == nullptr) {
      db = name == "NREF"   ? MakeNrefDb()
           : name == "SkTH" ? MakeSkthDb()
                            : MakeUnthDb();
      if (db == nullptr) return Status::Internal(name + " generation failed");
    }
    return db.get();
  }

  /// The cell of `family` (NREF2J, NREF3J, SkTH3Js, SkTH3J or UnTH3J) at
  /// `workload_size` queries, sampled on first use.
  Result<Cell*> GetCell(const std::string& family, size_t workload_size) {
    std::unique_ptr<Cell>& cell = cells_[{family, workload_size}];
    if (cell == nullptr) {
      const bool nref = family.rfind("NREF", 0) == 0;
      Database* db = nullptr;
      TB_ASSIGN_OR_RETURN(db, Db(nref ? "NREF" : family.substr(0, 4)));
      const Catalog& cat = db->catalog();
      QueryFamily queries =
          family == "NREF2J"    ? GenerateNref2J(cat, db->stats())
          : family == "NREF3J"  ? GenerateNref3J(cat, db->stats())
          : family == "SkTH3Js" ? GenerateTpch3Js(cat, db->stats())
                                : GenerateTpch3J(cat, db->stats(), family);
      auto fresh = std::make_unique<Cell>(db, std::move(queries),
                                          workload_size);
      TB_RETURN_IF_ERROR(fresh->Prepare());
      cell = std::move(fresh);
    }
    return cell.get();
  }

 private:
  std::map<std::string, std::unique_ptr<Database>> dbs_;
  std::map<std::pair<std::string, size_t>, std::unique_ptr<Cell>> cells_;
};

// ------------------------------------------------------ CFC figures 1-9

struct FigureOptions {
  const char* figure;  // "Figure 3"
  char system;         // 'A' / 'B' / 'C'
  const char* family;  // "NREF2J"
  bool print_histograms = false;  // Figs 1-2 style per-config histograms
  bool print_goal = false;        // Example 2 goal check
};

/// The protocol of one CFC figure: sample the family, obtain the profile's
/// recommendation (System A legitimately declines NREF3J), run the
/// configuration ladder, and print histograms, CFC and goal sections.
Status RenderCfcFigure(Suite* suite, const FigureOptions& opts) {
  Cell* cell = nullptr;
  TB_ASSIGN_OR_RETURN(cell, suite->GetCell(opts.family, WorkloadSize()));
  std::printf("=== %s: system %c on %s (scale 1/%.0f, %zu queries) ===\n",
              opts.figure, opts.system, opts.family, ScaleInverse(),
              WorkloadSize());
  std::printf("family size before sampling: %zu queries\n",
              cell->exp().family_size());
  const Result<Recommendation>& rec = cell->Recommend(opts.system);
  if (rec.ok()) {
    std::printf(
        "recommendation: %zu indexes, %zu views "
        "(est. workload cost %.0fs -> %.0fs, %.0f pages of budget %.0f)\n",
        rec->config.indexes.size(), rec->config.views.size(),
        rec->est_cost_before, rec->est_cost_after, rec->est_pages,
        cell->exp().SpaceBudgetPages());
  } else {
    // The paper's System A produced no recommendation for NREF3J
    // (Section 4.1.2); surface that outcome rather than failing.
    std::printf("recommender declined: %s\n", rec.status().ToString().c_str());
  }

  std::vector<const ConfigRunRecord*> runs;
  TB_ASSIGN_OR_RETURN(runs, cell->Ladder(opts.system));
  std::vector<NamedCurve> curves;
  for (const ConfigRunRecord* r : runs) {
    std::printf(
        "%-3s built in %s (%llu secondary pages); workload: %zu timeouts, "
        "clamped total %s\n",
        r->config_name.c_str(), HumanSeconds(r->build.build_seconds).c_str(),
        static_cast<unsigned long long>(r->build.secondary_pages),
        r->result.timeouts,
        HumanSeconds(r->result.total_clamped_seconds).c_str());
    curves.push_back({r->config_name, r->result.Cfc()});
  }
  if (opts.print_histograms) {
    for (const ConfigRunRecord* r : runs) {
      auto h = LogHistogram::Build(r->result.timings, 1.0, 1800.0, 2);
      std::printf("%s\n",
                  RenderHistogram(
                      h, StrFormat("-- query elapsed times on %s --",
                                   r->config_name.c_str()))
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
      if (i != j && curves[i].cfc.Dominates(curves[j].cfc)) {
        std::printf("dominance: %s > %s\n", curves[i].name.c_str(),
                    curves[j].name.c_str());
      }
    }
  }
  return Status::OK();
}

// Figures 1 and 2: log-binned histograms (with t_out bin) of the NREF2J
// query times on System A, on P (Fig 1) and on the recommendation (Fig 2).
Status Fig1Fig2(Suite* s) {
  FigureOptions o{"Figures 1 and 2", 'A', "NREF2J"};
  o.print_histograms = true;
  return RenderCfcFigure(s, o);
}

// Figure 3: CFC of P, 1C and R for NREF2J on System A, plus the Example-2
// goal reading ("1C satisfies the goal G, the other two do not").
Status Fig3(Suite* s) {
  FigureOptions o{"Figure 3", 'A', "NREF2J"};
  o.print_goal = true;
  return RenderCfcFigure(s, o);
}

// Figure 4: System A declines NREF3J (Section 4.1.2), so only P and 1C —
// with a wide gap ("98 seconds to complete 60% of the queries on 1C, ...
// 4 hours and 45 minutes on P").
Status Fig4(Suite* s) {
  return RenderCfcFigure(s, {"Figure 4", 'A', "NREF3J"});
}

// Figure 5: System B on NREF2J; R is "almost indistinguishable" from P.
Status Fig5(Suite* s) {
  return RenderCfcFigure(s, {"Figure 5", 'B', "NREF2J"});
}

// Figure 6: System B on NREF3J; R lies between P and 1C.
Status Fig6(Suite* s) {
  return RenderCfcFigure(s, {"Figure 6", 'B', "NREF3J"});
}

// Figure 7: System C on SkTH3Js, the one R that beats 1C on the expensive
// tail.
Status Fig7(Suite* s) {
  return RenderCfcFigure(s, {"Figure 7", 'C', "SkTH3Js"});
}

// Figure 8: System C on SkTH3J; against Figure 7 it shows the recommender's
// dependence on the input workload.
Status Fig8(Suite* s) {
  return RenderCfcFigure(s, {"Figure 8", 'C', "SkTH3J"});
}

// Figure 9: System C on UnTH3J (uniform data): the recommender does better,
// and 1C is still best overall.
Status Fig9(Suite* s) {
  return RenderCfcFigure(s, {"Figure 9", 'C', "UnTH3J"});
}

// ------------------------------------------------- estimate figures 10-11

double Total(const std::vector<double>& v) {
  double t = 0;
  for (double x : v) t += x;
  return t;
}

// Figure 10: CFC of the optimizer's estimates for NREF3J on System B — EP,
// ER, E1C taken in each built configuration and HR, H1C taken from P with
// the recommender's what-if rules. The optimizer knows R and 1C improve on
// P, but the hypothetical curves are more conservative about 1C.
Status Fig10(Suite* s) {
  std::printf("=== Figure 10: estimate curves for NREF3J on system B ===\n");
  Cell* cell = nullptr;
  TB_ASSIGN_OR_RETURN(cell, s->GetCell("NREF3J", WorkloadSize()));
  const Hypothetical* h = nullptr;
  TB_ASSIGN_OR_RETURN(h, cell->WhatIf('B'));
  std::vector<const ConfigRunRecord*> runs;  // P, R, 1C
  TB_ASSIGN_OR_RETURN(runs, cell->Ladder('B'));
  const std::vector<double>& ep = runs[0]->result.estimates;
  const std::vector<double>& er = runs[1]->result.estimates;
  const std::vector<double>& e1c = runs[2]->result.estimates;

  std::vector<NamedCurve> curves = {
      {"EP", CumulativeFrequency::FromValues(ep)},
      {"ER", CumulativeFrequency::FromValues(er)},
      {"E1C", CumulativeFrequency::FromValues(e1c)},
      {"HR", CumulativeFrequency::FromValues(h->hr)},
      {"H1C", CumulativeFrequency::FromValues(h->h1c)},
  };
  std::vector<double> grid;
  for (double x = 0.1; x <= 1e6; x *= 10.0) grid.push_back(x);
  std::printf("%s", RenderCfcComparison(
                        curves, grid,
                        "-- cumulative curves of estimation units "
                        "(simulated seconds) --",
                        "est")
                        .c_str());
  std::printf("\ntotals: EP=%.0f ER=%.0f E1C=%.0f HR=%.0f H1C=%.0f\n",
              Total(ep), Total(er), Total(e1c), Total(h->hr), Total(h->h1c));
  std::printf(
      "paper-shape checks: E1C < EP (optimizer knows 1C helps): %s\n"
      "                    H1C > E1C (hypothetical more conservative "
      "than target estimate): %s\n"
      "                    HR ~ ER within a factor 2: %s\n",
      Total(e1c) < Total(ep) ? "yes" : "NO",
      Total(h->h1c) > Total(e1c) ? "yes" : "NO",
      (Total(h->hr) < 2 * Total(er) && Total(er) < 2 * Total(h->hr)) ? "yes"
                                                                     : "no");
  return Status::OK();
}

// Figure 11: histograms of the per-query improvement ratios of R vs 1C for
// NREF3J on System B — AIR from actual runs (timeout pairs skipped), EIR
// from estimates in each built target, HIR from what-if estimates from P.
// Actual ratios show many queries 10-100x faster on 1C; the hypothetical
// ones say the configurations are much closer.
Status Fig11(Suite* s) {
  std::printf(
      "=== Figure 11: improvement ratios R vs 1C, NREF3J, system B ===\n");
  Cell* cell = nullptr;
  TB_ASSIGN_OR_RETURN(cell, s->GetCell("NREF3J", WorkloadSize()));
  const Hypothetical* h = nullptr;
  TB_ASSIGN_OR_RETURN(h, cell->WhatIf('B'));
  const ConfigRunRecord* run_r = nullptr;
  const ConfigRunRecord* run_1c = nullptr;
  TB_ASSIGN_OR_RETURN(run_r, cell->RunR('B'));
  TB_ASSIGN_OR_RETURN(run_1c, cell->Run1C());

  const std::vector<double> air =
      ActualImprovementRatios(run_r->result.timings, run_1c->result.timings);
  const std::vector<double> eir = EstimatedImprovementRatios(
      run_r->result.estimates, run_1c->result.estimates);
  const std::vector<double> hir = EstimatedImprovementRatios(h->hr, h->h1c);
  const std::pair<const char*, const std::vector<double>*> series[] = {
      {"AIR (actual)", &air},
      {"EIR (estimates in targets)", &eir},
      {"HIR (hypothetical from P)", &hir}};
  for (const auto& [name, ratios] : series) {
    auto hist = LogHistogram::FromValues(*ratios, 0.01, 10000.0, 1);
    std::printf("%s\n",
                RenderHistogram(hist, std::string("-- ") + name +
                                          " (ratio>1: 1C faster) --",
                                "x")
                    .c_str());
    size_t ge10 = 0, ge100 = 0, eq1 = 0;
    for (double r : *ratios) {
      if (r >= 10.0) ++ge10;
      if (r >= 100.0) ++ge100;
      if (r > 0.5 && r < 2.0) ++eq1;
    }
    std::printf("  %zu queries 10x+ faster on 1C, %zu queries 100x+, "
                "%zu near ratio 1 (of %zu)\n\n",
                ge10, ge100, eq1, ratios->size());
  }
  return Status::OK();
}

// ---------------------------------------------------------------- tables

/// One configuration line of Table 1: its label, its scaled pages and its
/// build time in simulated seconds.
struct Table1Row {
  std::string label;
  uint64_t total_pages = 0;
  double build_seconds = 0.0;
};

/// The width of the widest label, for a left-aligned label column.
template <typename Row>
int LabelWidth(const std::vector<Row>& rows, const std::string& header) {
  size_t width = header.size();
  for (const Row& r : rows) width = std::max(width, r.label.size());
  return static_cast<int>(width);
}

// Table 1: size and build time of every configuration of the experiments —
// per (system, database) P, the per-family recommendations and 1C.
Status Table1(Suite* s) {
  std::printf("=== Table 1: sizes and build times of all configurations ===\n");
  struct Group {
    const char* db;
    char system;
    std::vector<const char*> families;
  };
  // System A appears with NREF2J only: its recommender fails on NREF3J.
  const Group groups[] = {{"NREF", 'A', {"NREF2J"}},
                          {"NREF", 'B', {"NREF2J", "NREF3J"}},
                          {"SkTH", 'C', {"SkTH3J", "SkTH3Js"}},
                          {"UnTH", 'C', {"UnTH3J"}}};
  std::vector<Table1Row> rows;
  for (const Group& g : groups) {
    Database* db = nullptr;
    TB_ASSIGN_OR_RETURN(db, s->Db(g.db));
    const uint64_t base = db->BasePages();
    const std::string db_label = g.db;
    rows.push_back({db_label + " P", base, 0.0});
    Cell* cell = nullptr;
    for (const char* family : g.families) {
      TB_ASSIGN_OR_RETURN(cell, s->GetCell(family, WorkloadSize()));
      const std::string label =
          std::string(1, g.system) + " " + db_label + " " + family + " R";
      const Result<Recommendation>& rec = cell->Recommend(g.system);
      if (!rec.ok()) {
        std::printf("  %-24s (no recommendation: %s)\n", label.c_str(),
                    rec.status().message().c_str());
        continue;
      }
      const ConfigRunRecord* r = nullptr;
      TB_ASSIGN_OR_RETURN(r, cell->RunR(g.system));
      rows.push_back(
          {label, base + r->build.secondary_pages, r->build.build_seconds});
    }
    const ConfigRunRecord* one_c = nullptr;
    TB_ASSIGN_OR_RETURN(one_c, cell->Run1C());
    rows.push_back({db_label + " 1C", base + one_c->build.secondary_pages,
                    one_c->build.build_seconds});
  }
  // Pages print as paper-equivalent bytes (each scaled page stands for
  // scale_inverse real pages), build time in simulated minutes. Each header
  // ends where the field under it ends; both numbers are kNum wide.
  constexpr int kNum = 8;
  const int width = LabelWidth(rows, "configuration");
  std::printf("\n  %-*s %*s   %*s\n", width, "configuration",
              kNum + 9, "size",            // "%*.1f GB-equiv"
              6 + kNum + 4, "build time");  // "build %*.0f min"
  for (const Table1Row& row : rows) {
    const double gib = static_cast<double>(row.total_pages) *
                       static_cast<double>(kPageSize) * ScaleInverse() /
                       (1024.0 * 1024.0 * 1024.0);
    std::printf("  %-*s %*.1f GB-equiv   build %*.0f min\n", width,
                row.label.c_str(), kNum, gib, kNum, row.build_seconds / 60.0);
  }
  std::printf(
      "\npaper shape: P smallest per database; every R uses less space than "
      "1C;\nbuild times range from minutes (P deltas) to many hours (1C on "
      "the big databases).\n");
  return Status::OK();
}

/// One object's row of Tables 2-3: its label in a column `width` wide,
/// then its 1- to 4-column index counts.
void PrintWidths(int width, const std::string& label,
                 const std::string& object, const Configuration& config) {
  std::printf("  %-*s", width, label.c_str());
  for (int w = 1; w <= 4; ++w) {
    std::printf(" %4d", config.CountIndexes(object, w));
  }
  std::printf("\n");
}

bool HasIndexes(const std::string& object, const Configuration& config) {
  for (int w = 1; w <= 4; ++w) {
    if (config.CountIndexes(object, w) > 0) return true;
  }
  return false;
}

// Table 2: the 1- to 4-column indexes per table of each NREF
// recommendation (A_NREF2J_R, B_NREF2J_R, B_NREF3J_R); the paper saw none
// wider than 4 columns.
Status Table2(Suite* s) {
  std::printf("=== Table 2: index breakdown of NREF recommendations ===\n");
  const std::tuple<const char*, char, const char*> cases[] = {
      {"A_NREF2J_R", 'A', "NREF2J"},
      {"B_NREF2J_R", 'B', "NREF2J"},
      {"B_NREF3J_R", 'B', "NREF3J"}};
  for (const auto& [label, system, family] : cases) {
    Cell* cell = nullptr;
    TB_ASSIGN_OR_RETURN(cell, s->GetCell(family, WorkloadSize()));
    const Result<Recommendation>& rec = cell->Recommend(system);
    if (!rec.ok()) {
      std::printf("\n%s: no recommendation (%s)\n", label,
                  rec.status().message().c_str());
      continue;
    }
    const Configuration& config = rec->config;
    std::printf("\n%s: %zu indexes, %zu views\n", label,
                config.indexes.size(), config.views.size());
    std::printf("  %-18s %4s %4s %4s %4s\n", "table", "1c", "2c", "3c", "4c");
    for (const auto& t : cell->db()->catalog().tables()) {
      if (HasIndexes(t.name, config)) PrintWidths(18, t.name, t.name, config);
    }
    int totals[5] = {0, 0, 0, 0, 0};
    int max_width = 0;
    for (const auto& idx : config.indexes) {
      if (idx.is_primary) continue;
      int w = static_cast<int>(idx.columns.size());
      max_width = std::max(max_width, w);
      if (w >= 1 && w <= 4) ++totals[w];
    }
    std::printf("  %-18s %4d %4d %4d %4d\n", "Totals", totals[1], totals[2],
                totals[3], totals[4]);
    std::printf("  widest recommended index: %d column(s)%s\n", max_width,
                max_width <= 4 ? " (paper: none wider than 4)"
                               : "  ** WIDER THAN PAPER **");
  }
  // And the A-on-NREF3J failure that keeps that column out of the table.
  Cell* cell = nullptr;
  TB_ASSIGN_OR_RETURN(cell, s->GetCell("NREF3J", WorkloadSize()));
  std::printf("\nA_NREF3J_R: %s\n",
              cell->Recommend('A').ok()
                  ? "unexpectedly produced a recommendation"
                  : "no recommendation produced (matches the paper)");
  return Status::OK();
}

// Table 3: the 1- to 4-column indexes per object of each TPC-H
// recommendation (C_SkTH3Js_R, C_SkTH3J_R, C_UnTH3J_R), including indexes
// on materialized views ("12 of the 16 indexes recommended were defined on
// 9 materialized views over the join of Lineitem and Partsupp").
Status Table3(Suite* s) {
  std::printf("=== Table 3: index breakdown of TPC-H recommendations ===\n");
  const std::pair<const char*, const char*> cases[] = {
      {"C_SkTH3Js_R", "SkTH3Js"},
      {"C_SkTH3J_R", "SkTH3J"},
      {"C_UnTH3J_R", "UnTH3J"}};
  for (const auto& [label, family] : cases) {
    Cell* cell = nullptr;
    TB_ASSIGN_OR_RETURN(cell, s->GetCell(family, WorkloadSize()));
    const Result<Recommendation>& rec = cell->Recommend('C');
    if (!rec.ok()) {
      std::printf("\n%s: no recommendation (%s)\n", label,
                  rec.status().message().c_str());
      continue;
    }
    const Configuration& config = rec->config;
    std::printf("\n%s: %zu indexes, %zu views\n", label,
                config.indexes.size(), config.views.size());
    struct ObjectRow {
      std::string label;
      std::string object;
    };
    std::vector<ObjectRow> rows;
    for (const auto& t : cell->db()->catalog().tables()) {
      if (HasIndexes(t.name, config)) rows.push_back({t.name, t.name});
    }
    size_t view_indexes = 0;
    for (const auto& v : config.views) {
      for (int w = 1; w <= 4; ++w) {
        view_indexes += static_cast<size_t>(config.CountIndexes(v.name, w));
      }
      rows.push_back({"view " + v.name +
                          (v.tables.size() > 1 ? " (join)" : " (projection)"),
                      v.name});
    }
    const int width = LabelWidth(rows, "object");
    std::printf("  %-*s %4s %4s %4s %4s\n", width, "object", "1c", "2c", "3c",
                "4c");
    for (const ObjectRow& row : rows) {
      PrintWidths(width, row.label, row.object, config);
    }
    std::printf(
        "  -> %zu of %zu secondary indexes sit on materialized views\n",
        view_indexes, config.indexes.size());
  }
  return Status::OK();
}

// ------------------------------------------------------ Section 4.3 totals

// The Section 4.3 overall-workload numbers for SkTH3J on System C:
// conservative lower bounds of total workload time, each timed-out query
// clamped at the 30-minute limit. The paper reports 174,861 s on P (78
// timeouts), 91,019 s on R (50) and 5,445 s on 1C (1) — "1C producing
// almost 17 times better results than R".
Status Totals(Suite* s) {
  std::printf("=== Section 4.3 totals: SkTH3J workload lower bounds ===\n");
  Cell* cell = nullptr;
  TB_ASSIGN_OR_RETURN(cell, s->GetCell("SkTH3J", WorkloadSize()));
  std::vector<const ConfigRunRecord*> runs;
  TB_ASSIGN_OR_RETURN(runs, cell->Ladder('C'));

  std::printf("\n%-4s %10s %10s %16s\n", "cfg", "timeouts", "completed",
              "lower bound (s)");
  double total_p = 0, total_r = 0, total_1c = 0;
  for (const ConfigRunRecord* r : runs) {
    double completed = 0;
    for (const auto& t : r->result.timings) {
      if (!t.timed_out) completed += t.seconds;
    }
    std::printf("%-4s %10zu %9.0fs %15.0fs\n", r->config_name.c_str(),
                r->result.timeouts, completed,
                r->result.total_clamped_seconds);
    if (r->config_name == "P") total_p = r->result.total_clamped_seconds;
    if (r->config_name == "R") total_r = r->result.total_clamped_seconds;
    if (r->config_name == "1C") total_1c = r->result.total_clamped_seconds;
  }
  if (total_1c > 0) {
    std::printf("\nimprovement ratios (lower bounds): P/1C = %.1fx",
                ImprovementRatio(total_p, total_1c));
    if (total_r > 0) {
      std::printf(", R/1C = %.1fx (paper: ~17x), P/R = %.1fx",
                  ImprovementRatio(total_r, total_1c),
                  ImprovementRatio(total_p, total_r));
    }
    std::printf("\n");
  }
  std::printf(
      "note: totals clamp timeout queries at 1800s, so they are lower "
      "bounds;\nthe bound is much tighter on 1C (few timeouts) than on P/R, "
      "exactly as the paper cautions.\n");
  return Status::OK();
}

// ----------------------------------------------- extension and ablations

// Extension (Sections 2.2 and 6): the recommender the paper proposes,
// which takes a quality-of-service goal on the CFC as its constraint,
// against the total-cost objective of the 2004 tools, on the same NREF3J
// workload, space budget and candidate machinery. Expected shape: the
// goal-driven advisor meets (or approaches) G with less space, because it
// stops once the estimated curve clears the goal.
Status GoalAdvisor(Suite* s) {
  std::printf("=== Extension: goal-driven vs total-cost recommendation ===\n");
  Cell* cell = nullptr;
  TB_ASSIGN_OR_RETURN(cell, s->GetCell("NREF3J", WorkloadSize()));
  Database* db = cell->db();
  const PerformanceGoal goal = PerformanceGoal::PaperExample2();
  std::printf("goal G: %s\nworkload: %zu NREF3J queries\n\n",
              goal.ToString().c_str(), cell->exp().workload().queries.size());

  // Total-cost advisor: System B's profile, indexes only, era-faithful.
  const Result<Recommendation>& rec_cost = cell->Recommend('B');
  if (!rec_cost.ok()) return rec_cost.status();
  std::vector<BoundQuery> bound;
  TB_ASSIGN_OR_RETURN(bound,
                      BindWorkload(cell->exp().workload(), db->catalog()));
  TB_RETURN_IF_ERROR(db->ResetToPrimary());
  AdvisorOptions gopts = SystemBProfile();
  gopts.space_budget_pages = cell->exp().SpaceBudgetPages();
  GoalDrivenAdvisor goal_advisor(db->CurrentView(), gopts, goal);
  GoalRecommendation rec_goal;
  TB_ASSIGN_OR_RETURN(rec_goal, goal_advisor.Recommend(bound));
  Configuration goal_config = rec_goal.config;
  goal_config.name = "R-goal";
  ConfigRunRecord goal_run;
  TB_ASSIGN_OR_RETURN(goal_run, cell->exp().RunOn(goal_config));
  const ConfigRunRecord* p = nullptr;
  const ConfigRunRecord* cost_run = nullptr;
  const ConfigRunRecord* one_c = nullptr;
  TB_ASSIGN_OR_RETURN(p, cell->RunP());
  TB_ASSIGN_OR_RETURN(cost_run, cell->RunR('B'));
  TB_ASSIGN_OR_RETURN(one_c, cell->Run1C());

  std::printf("%-8s %8s %8s %8s %10s %12s\n", "advisor", "indexes", "views",
              "pages", "goal(est)", "goal(actual)");
  std::vector<NamedCurve> curves = {{"P", p->result.Cfc()}};
  const struct {
    const char* label;
    const Configuration& config;
    double est_pages;
    const char* est_met;
    const ConfigRunRecord& run;
  } cases[] = {
      {"R-cost", rec_cost->config, rec_cost->est_pages, "n/a", *cost_run},
      {"R-goal", rec_goal.config, rec_goal.est_pages,
       rec_goal.goal_met_by_estimates ? "met" : "short", goal_run},
  };
  for (const auto& c : cases) {
    CumulativeFrequency cfc = c.run.result.Cfc();
    std::printf("%-8s %8zu %8zu %8.0f %10s %12s\n", c.label,
                c.config.indexes.size(), c.config.views.size(), c.est_pages,
                c.est_met, goal.SatisfiedBy(cfc) ? "MET" : "short");
    curves.push_back({c.label, std::move(cfc)});
  }
  curves.push_back({"1C", one_c->result.Cfc()});

  std::printf("\n%s", RenderGoalCheck(goal, curves).c_str());
  std::printf("%s", RenderCfcComparison(curves, {},
                                        "-- total-cost vs goal-driven --")
                        .c_str());
  std::printf(
      "\nshape check: R-goal targets the curve's weak spots directly; "
      "R-cost pours budget into the total.\n");
  return Status::OK();
}

/// The ablations' workload: at most 40 NREF3J queries.
size_t AblationWorkloadSize() { return std::min<size_t>(WorkloadSize(), 40); }

// Ablation (DESIGN.md §6): the P/1C ordering, the timeout gap and the
// dominance verdict hold across a 4x range of assumed disk throughput. The
// generator calibrates at 1.3 ms/page and simulated costs rescale linearly,
// so a disk of `ms` per page is emulated by one pair of runs judged against
// the timeout-equivalent budget 1800 * (1.3 / ms): a query that finishes
// within it at 1.3 ms/page would finish within 1800 s at `ms`/page.
Status Costmodel(Suite* s) {
  std::printf("=== Ablation: scan-cost sweep (NREF3J, P vs 1C) ===\n");
  Cell* cell = nullptr;
  TB_ASSIGN_OR_RETURN(cell, s->GetCell("NREF3J", AblationWorkloadSize()));
  const ConfigRunRecord* p_run = nullptr;
  const ConfigRunRecord* c_run = nullptr;
  TB_ASSIGN_OR_RETURN(p_run, cell->RunP());
  TB_ASSIGN_OR_RETURN(c_run, cell->Run1C());
  const CumulativeFrequency cfc_p = p_run->result.Cfc();
  const CumulativeFrequency cfc_c = c_run->result.Cfc();
  for (double ms : {0.65, 1.3, 2.6}) {
    const double budget = 1800.0 * (1.3 / ms);
    auto over_budget = [budget](const WorkloadResult& r) {
      size_t n = 0;
      for (const auto& t : r.timings) {
        if (t.timed_out || t.seconds > budget) ++n;
      }
      return n;
    };
    std::printf(
        "\nassumed scan cost %.2f ms/page (timeout-equivalent %.0fs):\n"
        "  P : %2zu over budget, median %8.4gs\n"
        "  1C: %2zu over budget, median %8.4gs\n"
        "  1C dominates P: %s\n",
        ms, budget, over_budget(p_run->result), cfc_p.Quantile(0.5),
        over_budget(c_run->result), cfc_c.Quantile(0.5),
        cfc_c.Dominates(cfc_p) ? "yes" : "no");
  }
  std::printf("\nshape check: across the sweep, 1C keeps fewer (or equal) "
              "over-budget queries and a lower median than P.\n");
  return Status::OK();
}

// Ablation (DESIGN.md §6): the paper keeps "the raw data size ... an order
// of magnitude larger than the main memory" (Section 3.2.1). Sweeping the
// buffer-pool-to-data ratio on the same workload: at the paper's ~0.1 the
// P-vs-1C gap is wide; as memory passes the data size, rescans get cheap
// and the configurations converge. The pool is restored afterwards.
Status Membudget(Suite* s) {
  std::printf(
      "=== Ablation: buffer-pool-to-data ratio (NREF3J, P vs 1C) ===\n");
  Cell* cell = nullptr;
  TB_ASSIGN_OR_RETURN(cell, s->GetCell("NREF3J", AblationWorkloadSize()));
  Database* db = cell->db();
  const double base_pages = static_cast<double>(db->BasePages());
  struct PoolRestorer {
    BufferPool* pool;
    size_t capacity;
    ~PoolRestorer() { pool->SetCapacity(capacity); }
  } restore{db->buffer_pool(), db->buffer_pool()->capacity()};

  double gap_at_paper_ratio = 0.0;
  double gap_at_big_memory = 0.0;
  for (double mem_ratio : {0.1, 0.5, 2.0}) {
    size_t pool =
        static_cast<size_t>(std::max(32.0, mem_ratio * base_pages));
    db->buffer_pool()->SetCapacity(pool);
    std::vector<ConfigRunRecord> runs;  // P then 1C
    TB_ASSIGN_OR_RETURN(runs, cell->exp().RunStandard(nullptr));
    const WorkloadResult& p = runs[0].result;
    const WorkloadResult& one_c = runs[1].result;
    double gap = p.total_clamped_seconds /
                 std::max(1.0, one_c.total_clamped_seconds);
    std::printf(
        "\nmem/data = %.1f (%zu pages):\n"
        "  P : timeouts=%2zu total=%7.0fs\n"
        "  1C: timeouts=%2zu total=%7.0fs   P/1C = %.2fx\n",
        mem_ratio, pool, p.timeouts, p.total_clamped_seconds,
        one_c.timeouts, one_c.total_clamped_seconds, gap);
    if (mem_ratio == 0.1) gap_at_paper_ratio = gap;
    if (mem_ratio == 2.0) gap_at_big_memory = gap;
  }
  std::printf("\nshape check: the indexing gap %s as memory grows "
              "(%.2fx at the paper's ratio vs %.2fx with memory > data).\n",
              gap_at_big_memory <= gap_at_paper_ratio ? "narrows" : "WIDENS",
              gap_at_paper_ratio, gap_at_big_memory);
  std::printf("Boral & DeWitt's 1983 point, rerun 40 years later: "
              "parallel/fast hardware is no substitute for indexing — "
              "until everything fits in memory.\n");
  return Status::OK();
}

// ------------------------------------------------------------------ main

struct Section {
  const char* name;
  Status (*render)(Suite*);
};

constexpr Section kSections[] = {
    {"fig1_fig2", Fig1Fig2}, {"fig3", Fig3},
    {"fig4", Fig4},          {"fig5", Fig5},
    {"fig6", Fig6},          {"fig7", Fig7},
    {"fig8", Fig8},          {"fig9", Fig9},
    {"fig10", Fig10},        {"fig11", Fig11},
    {"table1", Table1},      {"table2", Table2},
    {"table3", Table3},      {"totals", Totals},
    {"goal_advisor", GoalAdvisor},
    {"costmodel", Costmodel}, {"membudget", Membudget},
};

int Main(int argc, char** argv) {
  std::vector<const Section*> chosen;
  for (int i = 1; i < argc; ++i) {
    const Section* found = nullptr;
    for (const Section& s : kSections) {
      if (std::strcmp(argv[i], s.name) == 0) found = &s;
    }
    if (found == nullptr) {
      std::string names;
      for (const Section& s : kSections) names += std::string(" ") + s.name;
      std::fprintf(stderr, "unknown section '%s'; sections are:%s\n", argv[i],
                   names.c_str());
      return 2;
    }
    chosen.push_back(found);
  }
  if (chosen.empty()) {
    for (const Section& s : kSections) chosen.push_back(&s);
  }
  // A malformed TABBENCH_SCALE / TABBENCH_WORKLOAD exits 2 here, before any
  // database is generated.
  (void)ScaleInverse();
  (void)WorkloadSize();

  Suite suite;
  for (const Section* s : chosen) {
    Status st = s->render(&suite);
    if (!st.ok()) {
      std::fflush(stdout);
      std::fprintf(stderr, "%s failed: %s\n", s->name, st.ToString().c_str());
      return 1;
    }
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace tabbench

int main(int argc, char** argv) { return tabbench::bench::Main(argc, argv); }
