#include "test_util.h"

#include "advisor/advisor.h"
#include "advisor/profiles.h"
#include "core/benchmark_suite.h"
#include "core/configurations.h"
#include "datagen/nref_gen.h"
#include "datagen/tpch_gen.h"
#include "optimizer/whatif.h"
#include "util/rng.h"

namespace tabbench {
namespace testing {

TinyDb TinyDb::Make(size_t n_people, size_t n_depts, uint64_t seed) {
  TinyDb out;
  DatabaseOptions opts;
  opts.buffer_pool_pages = 64;
  opts.cost.page_io_seconds = 0.01;
  opts.cost.random_io_seconds = 0.001;
  opts.cost.cpu_tuple_seconds = 1e-6;
  opts.cost.cpu_hash_seconds = 5e-7;
  opts.cost.work_mem_pages = 16;
  out.db = std::make_unique<Database>(opts);

  TableDef people;
  people.name = "people";
  people.columns = {
      {"id", TypeId::kInt, "id_dom", true, 8},
      {"dept", TypeId::kInt, "dept_dom", true, 8},
      {"city", TypeId::kString, "city_dom", true, 12},
      {"score", TypeId::kInt, "score_dom", true, 8},
  };
  people.primary_key = {"id"};
  people.foreign_keys = {{{"dept"}, "depts", {"dept_id"}}};

  TableDef depts;
  depts.name = "depts";
  depts.columns = {
      {"dept_id", TypeId::kInt, "dept_dom", true, 8},
      {"region", TypeId::kInt, "region_dom", true, 8},
      {"city", TypeId::kString, "city_dom", true, 12},
  };
  depts.primary_key = {"dept_id"};

  Status st = out.db->CreateTable(depts);
  st = out.db->CreateTable(people);
  (void)st;

  Rng rng(seed);
  for (size_t i = 0; i < n_depts; ++i) {
    std::vector<Value> row;
    row.emplace_back(static_cast<int64_t>(i));
    row.emplace_back(static_cast<int64_t>(rng.Uniform(5)));
    row.emplace_back("city" + std::to_string(rng.Uniform(20)));
    st = out.db->Insert("depts", Tuple(std::move(row)));
  }
  for (size_t i = 0; i < n_people; ++i) {
    std::vector<Value> row;
    row.emplace_back(static_cast<int64_t>(i));
    row.emplace_back(static_cast<int64_t>(rng.Uniform(n_depts)));
    // Skewed city frequencies so constant-selection rules are testable.
    size_t city = rng.Uniform(rng.Uniform(200) + 1);
    row.emplace_back("city" + std::to_string(city));
    row.emplace_back(static_cast<int64_t>(rng.Uniform(1000)));
    st = out.db->Insert("people", Tuple(std::move(row)));
  }
  st = out.db->FinishLoad();
  return out;
}

std::unique_ptr<Database> MakeMiniNref(double scale_inverse, uint64_t seed) {
  NrefScaleOptions opts;
  opts.scale_inverse = scale_inverse;
  opts.seed = seed;
  // Tiny data, but cost parameters at the benchmark calibration so queries
  // finish instead of hitting the fixed 30-minute simulated timeout.
  opts.hardware_scale_inverse = 400.0;
  auto db = GenerateNref(opts);
  if (!db.ok()) return nullptr;
  return db.TakeValue();
}

std::unique_ptr<Database> MakeMiniTpch(double scale_inverse, double zipf_theta,
                                       uint64_t seed) {
  TpchScaleOptions opts;
  opts.scale_inverse = scale_inverse;
  opts.zipf_theta = zipf_theta;
  opts.seed = seed;
  opts.hardware_scale_inverse = 400.0;
  auto db = GenerateTpch(opts);
  if (!db.ok()) return nullptr;
  return db.TakeValue();
}

Result<PlannerFamily> MakePlannerFamily(Database* db,
                                        const QueryFamily& family) {
  PlannerFamily f;
  f.name = family.name;
  f.sql = family.Sql();
  TB_ASSIGN_OR_RETURN(f.bound, BindWorkload(family, db->catalog()));
  TB_RETURN_IF_ERROR(db->ResetToPrimary());
  f.p = db->CurrentView();

  const AdvisorOptions profile = SystemCProfile();
  Advisor advisor(f.p, profile);
  Recommendation rec;
  TB_ASSIGN_OR_RETURN(rec, advisor.Recommend(f.bound));
  TB_ASSIGN_OR_RETURN(f.system_c,
                      MakeHypotheticalView(rec.config, f.p, profile.whatif));

  TB_RETURN_IF_ERROR(
      db->ApplyConfiguration(Make1CConfig(db->catalog())).status());
  f.one_c = db->CurrentView();
  TB_RETURN_IF_ERROR(db->ResetToPrimary());
  return f;
}

}  // namespace testing
}  // namespace tabbench
