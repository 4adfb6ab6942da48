#ifndef TABBENCH_TESTS_TEST_UTIL_H_
#define TABBENCH_TESTS_TEST_UTIL_H_

#include <memory>
#include <string>
#include <vector>

#include "core/query_family.h"
#include "engine/database.h"
#include "optimizer/config_view.h"
#include "sql/binder.h"
#include "util/status.h"

namespace tabbench {
namespace testing {

/// gtest glue: ASSERT that a Status/Result is OK, with the message.
#define TB_ASSERT_OK(expr)                                      \
  do {                                                          \
    const ::tabbench::Status _st = (expr);                      \
    ASSERT_TRUE(_st.ok()) << _st.ToString();                    \
  } while (0)

#define TB_EXPECT_OK(expr)                                      \
  do {                                                          \
    const ::tabbench::Status _st = (expr);                      \
    EXPECT_TRUE(_st.ok()) << _st.ToString();                    \
  } while (0)

/// A small two-table schema ("people" / "depts") used across unit tests:
/// cheap to load, has a PK/FK edge, shared domains, and enough skew for the
/// constant-selection rules.
struct TinyDb {
  std::unique_ptr<Database> db;

  /// `people(id PK, dept, city, score)` x n_people,
  /// `depts(dept_id PK, region, city)` x n_depts.
  static TinyDb Make(size_t n_people = 5000, size_t n_depts = 50,
                     uint64_t seed = 42);
};

/// A miniature NREF database (very small scale) for integration tests.
std::unique_ptr<Database> MakeMiniNref(double scale_inverse = 4000.0,
                                       uint64_t seed = 2005);

/// A miniature TPC-H database for integration tests.
std::unique_ptr<Database> MakeMiniTpch(double scale_inverse = 4000.0,
                                       double zipf_theta = 0.0,
                                       uint64_t seed = 1999);

/// One query family bound to a database, with the three configuration
/// views the planner suites plan it on: P, 1C (built indexes, measured
/// statistics) and System C's recommendation (hypothetical indexes and
/// views).
struct PlannerFamily {
  std::string name;
  std::vector<std::string> sql;
  std::vector<BoundQuery> bound;
  ConfigView p, one_c, system_c;
};

/// Binds `family` on `db` and builds its three views; leaves `db` on P.
Result<PlannerFamily> MakePlannerFamily(Database* db,
                                        const QueryFamily& family);

}  // namespace testing
}  // namespace tabbench

#endif  // TABBENCH_TESTS_TEST_UTIL_H_
