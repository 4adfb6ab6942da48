// Reproduces the Section 4.4 insertion experiment: single-row inserts into
// Neighboring_seq (the widest and largest NREF relation) under P, R and 1C.
// The paper observes (a) insertion time roughly linear in the number of
// tuples for every configuration, (b) inserts ordered P < R < 1C, and (c) a
// break-even point — about 400K tuples at paper scale, i.e. the workload's
// query savings on 1C pay for its slower inserts until the insert volume
// approaches 10% of the database (at 20 workload repetitions).

#include <cstdio>
#include <string>

#include "bench_support.h"
#include "util/rng.h"

int main() {
  using namespace tabbench;
  using namespace tabbench::bench;
  auto db = MakeNrefDb();
  if (db == nullptr) return 1;
  std::printf("=== Section 4.4: insertions into neighboring_seq ===\n");

  QueryFamily family = GenerateNref2J(db->catalog(), db->stats());
  ExperimentOptions eopts;
  eopts.workload_size = WorkloadSize();
  FamilyExperiment exp(db.get(), std::move(family), eopts);
  if (!exp.Prepare().ok()) return 1;
  auto rec = exp.Recommend(SystemAProfile());
  if (!rec.ok()) {
    std::fprintf(stderr, "advisor failed: %s\n",
                 rec.status().ToString().c_str());
    return 1;
  }

  // Per-insert cost under each configuration (averaged over a small batch;
  // rows mimic the generator's shape).
  Rng rng(99);
  size_t n_protein = db->TableRowCount("protein");
  auto insert_batch = [&](int64_t batch) {
    double total = 0;
    for (int64_t i = 0; i < batch; ++i) {
      std::vector<Value> row;
      row.emplace_back(static_cast<int64_t>(rng.Uniform(n_protein)));
      row.emplace_back(static_cast<int64_t>(1000000 + i));  // fresh ordinal
      row.emplace_back(static_cast<int64_t>(rng.Uniform(n_protein)));
      row.emplace_back(static_cast<int64_t>(rng.Uniform(600)));
      row.emplace_back(static_cast<int64_t>(40 + rng.Uniform(3000)));
      row.emplace_back(40.0 + rng.UniformDouble() * 960.0);
      row.emplace_back(static_cast<int64_t>(40 + rng.Uniform(3000)));
      int64_t s1 = rng.UniformInt(1, 400), s2 = rng.UniformInt(1, 400);
      row.emplace_back(s1);
      row.emplace_back(s2);
      row.emplace_back(s1 + 100);
      row.emplace_back(s2 + 100);
      auto c = db->TimedInsert("neighboring_seq", Tuple(std::move(row)));
      if (!c.ok()) return -1.0;
      total += *c;
    }
    return total / static_cast<double>(batch);
  };

  struct ConfigCase {
    const char* name;
    Configuration config;
  };
  std::vector<ConfigCase> cases;
  cases.push_back({"P", MakePConfig()});
  cases.push_back({"R", rec->config});
  cases.push_back({"1C", Make1CConfig(db->catalog())});

  const int64_t kBatch = 400;
  std::printf("\nper-insert simulated cost (avg over %lld inserts):\n",
              static_cast<long long>(kBatch));
  std::map<std::string, double> insert_cost;
  std::map<std::string, double> workload_time;
  for (auto& c : cases) {
    if (c.config.indexes.empty() && c.config.views.empty()) {
      if (!db->ResetToPrimary().ok()) return 1;
    } else {
      auto rep = db->ApplyConfiguration(c.config);
      if (!rep.ok()) {
        std::fprintf(stderr, "%s\n", rep.status().ToString().c_str());
        return 1;
      }
    }
    // Linearity check: two batches should cost about the same per insert.
    double cost1 = insert_batch(kBatch / 2);
    double cost2 = insert_batch(kBatch / 2);
    if (cost1 < 0 || cost2 < 0) return 1;
    insert_cost[c.name] = (cost1 + cost2) / 2.0;
    std::printf("  %-3s  %8.4fs/insert   (batch halves: %.4f / %.4f -> "
                "%s linear)\n",
                c.name, insert_cost[c.name], cost1, cost2,
                (cost2 < cost1 * 1.5 && cost1 < cost2 * 1.5) ? "roughly"
                                                             : "NOT");
    auto run = RunWorkload(db.get(), exp.workload().Sql());
    if (!run.ok()) return 1;
    workload_time[c.name] = run->total_clamped_seconds;
    std::printf("       workload lower bound: %.0fs (%zu timeouts)\n",
                run->total_clamped_seconds, run->timeouts);
  }
  (void)db->ResetToPrimary();

  std::printf("\ninsert ordering: P (%.4fs) < R (%.4fs) < 1C (%.4fs): %s\n",
              insert_cost["P"], insert_cost["R"], insert_cost["1C"],
              (insert_cost["P"] <= insert_cost["R"] &&
               insert_cost["R"] <= insert_cost["1C"])
                  ? "matches the paper"
                  : "ordering differs");

  // Break-even: number of inserts at which R's faster inserts make up for
  // its slower queries relative to 1C.
  double query_gain = workload_time["R"] - workload_time["1C"];
  double insert_penalty = insert_cost["1C"] - insert_cost["R"];
  if (insert_penalty > 0 && query_gain > 0) {
    double n = query_gain / insert_penalty;
    uint64_t table_rows = db->TableRowCount("neighboring_seq");
    std::printf(
        "\nbreak-even: %.0f inserts (x%.0f scale = %.0f paper-equivalent "
        "tuples; paper: ~400,000)\n",
        n, ScaleInverse(), n * ScaleInverse());
    std::printf(
        "that is %.1f%% of neighboring_seq per single workload execution; "
        "at 20 repetitions, %.1f%% of the table (paper: ~10%%)\n",
        100.0 * n / static_cast<double>(table_rows),
        100.0 * 20.0 * n / static_cast<double>(table_rows));
  } else {
    std::printf("\nbreak-even: not reached (R is not both query-slower and "
                "insert-faster than 1C on this sample)\n");
  }

  return 0;
}
