#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "core/configurations.h"
#include "engine/database.h"
#include "storage/btree.h"
#include "test_util.h"
#include "util/rng.h"

namespace tabbench {
namespace {

using testing::TinyDb;

TEST(EngineTest, IntLiteralOnDoubleColumnPlansAndRuns) {
  // neighboring_seq.score is DOUBLE. An integer literal used to bind as an
  // int and abort the process in the first cross-type Value comparison.
  auto db = testing::MakeMiniNref();
  ASSERT_NE(db, nullptr);
  const std::string as_int =
      "SELECT s.nref_id_1 FROM neighboring_seq s WHERE s.score = 40";
  const std::string as_double =
      "SELECT s.nref_id_1 FROM neighboring_seq s WHERE s.score = 40.0";
  auto e_int = db->Estimate(as_int);
  auto e_double = db->Estimate(as_double);
  ASSERT_TRUE(e_int.ok() && e_double.ok());
  EXPECT_EQ(*e_int, *e_double);
  auto r_int = db->Run(as_int);
  auto r_double = db->Run(as_double);
  ASSERT_TRUE(r_int.ok() && r_double.ok());
  EXPECT_EQ(r_int->rows.size(), r_double->rows.size());
}

TEST(EngineTest, CreateTableValidations) {
  Database db;
  TableDef t;
  t.name = "t";
  t.columns = {{"a", TypeId::kInt, "d", true, 8}};
  t.primary_key = {"a"};
  ASSERT_TRUE(db.CreateTable(t).ok());
  EXPECT_EQ(db.CreateTable(t).code(), Status::Code::kAlreadyExists);
}

TEST(EngineTest, InsertArityChecked) {
  Database db;
  TableDef t;
  t.name = "t";
  t.columns = {{"a", TypeId::kInt, "d", true, 8},
               {"b", TypeId::kInt, "d", true, 8}};
  t.primary_key = {"a"};
  ASSERT_TRUE(db.CreateTable(t).ok());
  EXPECT_FALSE(db.Insert("t", Tuple(std::vector<Value>{Value(int64_t{1})})).ok());
  EXPECT_TRUE(db.Insert("t", Tuple(std::vector<Value>{Value(int64_t{1}),
                                                    Value(int64_t{2})}))
                  .ok());
  EXPECT_TRUE(db.Insert("missing", Tuple()).IsNotFound());
}

TEST(EngineTest, BufferStatsExposeSharedPoolAccounting) {
  TinyDb tiny = TinyDb::Make(500, 10);
  Database* db = tiny.db.get();
  db->buffer_pool()->Clear();
  BufferPoolStats cold = db->buffer_stats();
  EXPECT_EQ(cold.accesses(), 0u);
  EXPECT_EQ(cold.resident, 0u);
  EXPECT_EQ(cold.capacity, db->options().buffer_pool_pages);

  ASSERT_TRUE(db->Run("SELECT p.city, COUNT(*) FROM people p "
                      "GROUP BY p.city").ok());
  BufferPoolStats after_cold = db->buffer_stats();
  EXPECT_GT(after_cold.misses, 0u);

  // A second, warm run only adds hits.
  ASSERT_TRUE(db->Run("SELECT p.city, COUNT(*) FROM people p "
                      "GROUP BY p.city").ok());
  BufferPoolStats after_warm = db->buffer_stats();
  EXPECT_EQ(after_warm.misses, after_cold.misses);
  EXPECT_GT(after_warm.hits, after_cold.hits);
  EXPECT_GT(after_warm.HitRatio(), after_cold.HitRatio());

  // Clear() starts a new accounting epoch (cold-start runs are comparable).
  db->buffer_pool()->Clear();
  EXPECT_EQ(db->buffer_stats().accesses(), 0u);
}

TEST(EngineTest, RunBeforeFinishLoadFails) {
  Database db;
  TableDef t;
  t.name = "t";
  t.columns = {{"a", TypeId::kInt, "d", true, 8}};
  t.primary_key = {"a"};
  ASSERT_TRUE(db.CreateTable(t).ok());
  EXPECT_FALSE(db.Run("SELECT a FROM t").ok());
}

TEST(EngineTest, FinishLoadBuildsPkIndexes) {
  TinyDb tiny = TinyDb::Make(500, 10);
  ConfigView v = tiny.db->CurrentView();
  int pk_count = 0;
  for (const auto& idx : v.indexes) {
    if (idx.def.is_primary) ++pk_count;
  }
  EXPECT_EQ(pk_count, 2);  // people_pk + depts_pk
  EXPECT_NE(tiny.db->FindIndex("people_pk"), nullptr);
}

TEST(EngineTest, ApplyAndResetConfiguration) {
  TinyDb tiny = TinyDb::Make(2000, 20);
  Database* db = tiny.db.get();
  uint64_t base = db->BasePages();
  EXPECT_EQ(db->SecondaryPages(), 0u);

  Configuration one_c = Make1CConfig(db->catalog());
  auto rep = db->ApplyConfiguration(one_c);
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  EXPECT_EQ(rep->objects.size(), one_c.indexes.size());
  EXPECT_GT(rep->secondary_pages, 0u);
  EXPECT_GT(rep->build_seconds, 0.0);
  EXPECT_EQ(db->SecondaryPages(), rep->secondary_pages);
  EXPECT_EQ(db->BasePages(), base);
  EXPECT_EQ(db->current_config().name, "1C");

  ASSERT_TRUE(db->ResetToPrimary().ok());
  EXPECT_EQ(db->SecondaryPages(), 0u);
  EXPECT_EQ(db->current_config().name, "P");
}

TEST(EngineTest, ReapplyReplacesPreviousConfiguration) {
  TinyDb tiny = TinyDb::Make(1000, 10);
  Database* db = tiny.db.get();
  Configuration a;
  a.name = "A";
  a.indexes.push_back({"ix_a", "people", {"dept"}, false});
  Configuration b;
  b.name = "B";
  b.indexes.push_back({"ix_b", "people", {"city"}, false});
  ASSERT_TRUE(db->ApplyConfiguration(a).ok());
  uint64_t pages_a = db->SecondaryPages();
  ASSERT_TRUE(db->ApplyConfiguration(b).ok());
  EXPECT_EQ(db->FindIndex("ix_a"), nullptr);
  EXPECT_NE(db->FindIndex("ix_b"), nullptr);
  EXPECT_NEAR(static_cast<double>(db->SecondaryPages()),
              static_cast<double>(pages_a), pages_a * 0.9 + 4);
}

TEST(EngineTest, ApplyUnknownTargetFails) {
  TinyDb tiny = TinyDb::Make(100, 5);
  Configuration bad;
  bad.indexes.push_back({"ix", "nope", {"x"}, false});
  EXPECT_FALSE(tiny.db->ApplyConfiguration(bad).ok());
}

TEST(EngineTest, BuildReportTracksPerObjectCosts) {
  TinyDb tiny = TinyDb::Make(3000, 10);
  Configuration cfg;
  cfg.name = "two";
  cfg.indexes.push_back({"ix1", "people", {"dept"}, false});
  cfg.indexes.push_back({"ix2", "people", {"dept", "city", "score"}, false});
  auto rep = tiny.db->ApplyConfiguration(cfg);
  ASSERT_TRUE(rep.ok());
  ASSERT_EQ(rep->objects.size(), 2u);
  // The wider index occupies more pages.
  EXPECT_GT(rep->objects[1].pages, rep->objects[0].pages);
  for (const auto& o : rep->objects) {
    EXPECT_GT(o.build_seconds, 0.0);
    EXPECT_GT(o.pages, 0u);
  }
}

TEST(EngineTest, ViewBuildMaterializesJoin) {
  TinyDb tiny = TinyDb::Make(2000, 20);
  Database* db = tiny.db.get();
  Configuration cfg;
  cfg.name = "V";
  ViewDef v;
  v.name = "pd";
  v.tables = {"people", "depts"};
  v.joins = {{"people", "dept", "depts", "dept_id"}};
  v.projection = {{"people", "id", "people_id"},
                  {"depts", "region", "depts_region"}};
  cfg.views.push_back(v);
  // Plus an index over the view.
  cfg.indexes.push_back({"ix_pd_region", "pd", {"depts_region"}, false});
  auto rep = db->ApplyConfiguration(cfg);
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  const HeapTable* view_heap = db->FindHeap("pd");
  ASSERT_NE(view_heap, nullptr);
  // Every person has a dept (FK): one view row per person.
  EXPECT_EQ(view_heap->num_rows(), 2000u);
  EXPECT_NE(db->FindIndex("ix_pd_region"), nullptr);
  ASSERT_TRUE(db->ResetToPrimary().ok());
  EXPECT_EQ(db->FindHeap("pd"), nullptr);
}

TEST(EngineTest, TimedInsertCostGrowsWithIndexCount) {
  TinyDb tiny = TinyDb::Make(4000, 20);
  Database* db = tiny.db.get();

  auto insert_cost = [&](int64_t id) {
    std::vector<Value> row;
    row.emplace_back(id);
    row.emplace_back(int64_t{3});
    row.emplace_back(std::string("cityX"));
    row.emplace_back(int64_t{500});
    auto c = db->TimedInsert("people", Tuple(std::move(row)));
    EXPECT_TRUE(c.ok());
    return c.ok() ? *c : 0.0;
  };

  ASSERT_TRUE(db->ResetToPrimary().ok());
  double cost_p = insert_cost(1000001);
  ASSERT_TRUE(db->ApplyConfiguration(Make1CConfig(db->catalog())).ok());
  double cost_1c = insert_cost(1000002);
  EXPECT_GT(cost_1c, cost_p);
  ASSERT_TRUE(db->ResetToPrimary().ok());
}

TEST(EngineTest, TimedInsertVisibleToQueries) {
  TinyDb tiny = TinyDb::Make(500, 5);
  Database* db = tiny.db.get();
  auto before = db->Run("SELECT COUNT(*) FROM people p WHERE p.dept = 2");
  ASSERT_TRUE(before.ok());
  std::vector<Value> row{Value(int64_t{990001}), Value(int64_t{2}),
                         Value(std::string("cityZ")), Value(int64_t{1})};
  ASSERT_TRUE(db->TimedInsert("people", Tuple(std::move(row))).ok());
  auto after = db->Run("SELECT COUNT(*) FROM people p WHERE p.dept = 2");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->rows[0].at(0).as_int(),
            before->rows[0].at(0).as_int() + 1);
}

// A row too large for a heap page is InvalidArgument on every write path,
// before anything changes: an oversized update leaves the old row live and
// every index entry (PK and secondary) pointing at it.
TEST(EngineTest, OversizedRowsAreRejectedBeforeAnyChange) {
  TinyDb tiny = TinyDb::Make(500, 5);
  Database* db = tiny.db.get();
  Configuration cfg;
  cfg.name = "city";
  cfg.indexes.push_back({"ix_city", "people", {"city"}, false});
  ASSERT_TRUE(db->ApplyConfiguration(cfg).ok());
  const HeapTable* heap = db->FindHeap("people");
  ASSERT_NE(heap, nullptr);
  auto cur = heap->Scan(nullptr);
  Tuple row;
  Rid rid;
  ASSERT_TRUE(cur.Next(&row, &rid));
  const uint64_t rows = heap->num_rows();
  const uint64_t epoch = heap->content_epoch();
  auto oversized = [&row] {
    std::vector<Value> vals = row.values();
    vals[2] = Value(std::string(9000, 'x'));  // city
    return Tuple(std::move(vals));
  };
  auto index_has_row = [&](const std::string& index, size_t col) {
    const IndexInfo* info = db->FindIndex(index);
    EXPECT_NE(info, nullptr) << index;
    if (info == nullptr) return false;
    auto it = info->btree->SeekPrefix({row.at(col)}, nullptr);
    Rid r;
    while (it.Next(nullptr, &r)) {
      if (r == rid) return true;
    }
    return false;
  };
  ASSERT_TRUE(index_has_row("people_pk", 0));
  ASSERT_TRUE(index_has_row("ix_city", 2));

  EXPECT_EQ(db->TimedInsert("people", oversized()).status().code(),
            Status::Code::kInvalidArgument);
  EXPECT_EQ(db->TimedUpdate("people", rid, oversized()).status().code(),
            Status::Code::kInvalidArgument);
  EXPECT_EQ(db->Insert("people", oversized()).code(),
            Status::Code::kInvalidArgument);

  EXPECT_EQ(heap->num_rows(), rows);
  EXPECT_EQ(heap->num_deleted(), 0u);
  EXPECT_EQ(heap->content_epoch(), epoch);
  EXPECT_TRUE(heap->IsLive(rid));
  auto fetched = heap->Fetch(rid, nullptr);
  ASSERT_TRUE(fetched.ok());
  EXPECT_EQ(*fetched, row);
  EXPECT_TRUE(index_has_row("people_pk", 0));
  EXPECT_TRUE(index_has_row("ix_city", 2));
}

TEST(EngineTest, CollectStatisticsRefreshesCounts) {
  TinyDb tiny = TinyDb::Make(300, 5);
  Database* db = tiny.db.get();
  EXPECT_EQ(db->stats().FindTable("people")->row_count, 300u);
  for (int64_t i = 0; i < 50; ++i) {
    std::vector<Value> row{Value(int64_t{800000 + i}), Value(int64_t{1}),
                           Value(std::string("c")), Value(int64_t{1})};
    ASSERT_TRUE(db->Insert("people", Tuple(std::move(row))).ok());
  }
  ASSERT_TRUE(db->CollectStatistics().ok());
  EXPECT_EQ(db->stats().FindTable("people")->row_count, 350u);
}

TEST(EngineTest, CurrentViewReflectsBuiltState) {
  TinyDb tiny = TinyDb::Make(2000, 10);
  Database* db = tiny.db.get();
  Configuration cfg;
  cfg.name = "one";
  cfg.indexes.push_back({"ix_city", "people", {"city"}, false});
  ASSERT_TRUE(db->ApplyConfiguration(cfg).ok());
  ConfigView v = db->CurrentView();
  const PhysicalIndex* found = nullptr;
  for (const auto& idx : v.indexes) {
    if (idx.def.name == "ix_city") found = &idx;
  }
  ASSERT_NE(found, nullptr);
  EXPECT_FALSE(found->hypothetical);
  EXPECT_DOUBLE_EQ(found->entries, 2000.0);
  EXPECT_GT(found->distinct_keys, 1.0);
  EXPECT_GT(found->leaf_pages, 0.0);
}

/// The index-build sort orders (key, Rid) exactly as CompareKeys-then-Rid:
/// every built index fingerprints as a tree bulk-built from entries sorted
/// that way. The keys mix NULLs, extreme and negative ints, -0.0 and 0.0,
/// strings that share 8-byte prefixes, end in or embed NULs or hold bytes
/// >= 0x80, and multi-column keys whose leading columns tie.
TEST(EngineBTreeBuildSortTest, AbbreviatedSortMatchesCompareKeysOrder) {
  Database db;
  TableDef t;
  t.name = "t";
  t.columns = {{"i", TypeId::kInt, "i_dom", true, 8},
               {"d", TypeId::kDouble, "d_dom", true, 8},
               {"s", TypeId::kString, "s_dom", true, 6}};
  ASSERT_TRUE(db.CreateTable(t).ok());
  const int64_t kMin = std::numeric_limits<int64_t>::min();
  const int64_t kMax = std::numeric_limits<int64_t>::max();
  const double kInf = std::numeric_limits<double>::infinity();
  const std::vector<Value> ints = {Value(), Value(kMin), Value(kMin + 1),
                                   Value(int64_t{-5}), Value(int64_t{-1}),
                                   Value(int64_t{0}), Value(int64_t{1}),
                                   Value(kMax)};
  const std::vector<Value> doubles = {Value(),     Value(-kInf), Value(-2.5),
                                      Value(-0.0), Value(0.0),   Value(1e-300),
                                      Value(3.25), Value(kInf)};
  const std::vector<std::string> strings = {
      "",          "a",          std::string("a\0", 2),
      std::string("a\0b", 3),    "abcdefg",  std::string("abcdefg\0", 8),
      "abcdefgh",  std::string("abcdefgh\0", 9), "abcdefghi",
      "abcdefghj", "\x80zz",     "\xff",     "zz"};
  Rng rng(11);
  for (int r = 0; r < 800; ++r) {
    size_t si = rng.Uniform(strings.size() + 1);
    Value sv = si == strings.size() ? Value() : Value(strings[si]);
    ASSERT_TRUE(db.Insert("t", Tuple({ints[rng.Uniform(ints.size())],
                                      doubles[rng.Uniform(doubles.size())],
                                      std::move(sv)}))
                    .ok());
  }
  ASSERT_TRUE(db.FinishLoad().ok());
  const std::vector<std::vector<std::string>> keys = {
      {"i"}, {"d"}, {"s"}, {"s", "i"}, {"i", "d"}, {"d", "s", "i"}};
  Configuration config;
  config.name = "sort";
  for (size_t k = 0; k < keys.size(); ++k) {
    config.indexes.push_back({"t_" + std::to_string(k), "t", keys[k], false});
  }
  ASSERT_TRUE(db.ApplyConfiguration(config).ok());

  const HeapTable* heap = db.FindHeap("t");
  for (const IndexDef& def : config.indexes) {
    SCOPED_TRACE(def.name);
    std::vector<std::pair<IndexKey, Rid>> entries;
    auto cur = heap->Scan(nullptr);
    Tuple row;
    Rid rid;
    size_t width = 0;
    for (const auto& c : def.columns) {
      width += static_cast<size_t>(t.columns[t.ColumnIndex(c)].avg_width);
    }
    while (cur.Next(&row, &rid)) {
      IndexKey key;
      for (const auto& c : def.columns) {
        key.push_back(row.at(static_cast<size_t>(t.ColumnIndex(c))));
      }
      entries.emplace_back(std::move(key), rid);
    }
    std::sort(entries.begin(), entries.end(),
              [](const auto& a, const auto& b) {
                int c = CompareKeys(a.first, b.first);
                return c != 0 ? c < 0 : a.second < b.second;
              });
    PageStore store;
    BTree want(def.name, def.columns.size(), std::max<size_t>(4, width),
               &store);
    want.BulkBuild(std::move(entries));
    auto got = db.SecondaryIndexFingerprint(def.name);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, want.Fingerprint());
  }
}

}  // namespace
}  // namespace tabbench
