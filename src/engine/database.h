#ifndef TABBENCH_ENGINE_DATABASE_H_
#define TABBENCH_ENGINE_DATABASE_H_

#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "catalog/catalog.h"
#include "catalog/configuration.h"
#include "exec/exec_context.h"
#include "exec/in_set.h"
#include "exec/plan_executor.h"
#include "exec/vec/vec_executor.h"
#include "optimizer/config_view.h"
#include "optimizer/prepared_query.h"
#include "optimizer/whatif.h"
#include "sql/binder.h"
#include "storage/btree.h"
#include "storage/buffer_pool.h"
#include "storage/heap_table.h"
#include "storage/page_store.h"
#include "stats/table_stats.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace tabbench {

struct DatabaseOptions {
  /// Buffer-pool capacity. The default keeps the paper's regime: raw data an
  /// order of magnitude larger than memory (Section 3.2.1).
  size_t buffer_pool_pages = 1536;
  CostParams cost;
};

/// One built object of a configuration (Table 1 accounting).
struct ObjectBuild {
  std::string name;
  enum class Kind { kIndex, kView } kind = Kind::kIndex;
  uint64_t pages = 0;
  double build_seconds = 0.0;
};

/// Result of applying a configuration: per-object and total build cost.
struct BuildReport {
  std::vector<ObjectBuild> objects;
  double build_seconds = 0.0;
  /// Pages of secondary indexes + materialized views (excludes base data
  /// and PK indexes).
  uint64_t secondary_pages = 0;
};

/// The RDBMS facade: storage, statistics, optimizer, executor, and
/// physical-design state, behind one handle. This is the "system" that the
/// benchmark configures and measures.
class Database : public ObjectResolver {
 public:
  explicit Database(DatabaseOptions options = {});
  ~Database() override;

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  // ------------------------------------------------------------- schema/load
  Status CreateTable(const TableDef& def);
  /// Bulk append during initial load (not timed). InvalidArgument for a
  /// wrong arity or a row too large for a heap page.
  Status Insert(const std::string& table, Tuple row);
  /// Creates the automatic primary-key indexes (the P configuration's only
  /// indexes) and collects statistics. Call once after loading.
  Status FinishLoad();

  /// Timed single-row insert: appends to the heap and maintains every index
  /// on the table, charging I/O/CPU to a fresh context sharing the buffer
  /// pool. Returns simulated seconds (the Section 4.4 experiment). `rid`
  /// (optional) receives the new row's address. A row too large for a heap
  /// page is InvalidArgument, before anything is touched.
  Result<double> TimedInsert(const std::string& table, Tuple row,
                             Rid* rid = nullptr);

  /// Timed single-row delete: tombstones the heap row and removes its entry
  /// from every index on the table. NotFound if `rid` is dead or out of
  /// range. Same clock contract as TimedInsert.
  Result<double> TimedDelete(const std::string& table, const Rid& rid);

  /// Timed single-row update: tombstone + re-append (the heap is
  /// append-only), with every index entry moved from the old (key, rid) to
  /// the new. `new_rid` (optional) receives the row's new address — updates
  /// physically relocate rows, which is what decays index clustering under
  /// churn. Same clock contract as TimedInsert. A new row too large for a
  /// heap page is InvalidArgument, checked before the old row is
  /// tombstoned, so the row stays live with its index entries intact.
  Result<double> TimedUpdate(const std::string& table, const Rid& rid,
                             Tuple new_row, Rid* new_rid = nullptr);

  // ----------------------------------------------------------- configurations
  /// Builds `config` on top of the primary-key baseline, dropping any
  /// previously applied secondary configuration first. Views are
  /// materialized by executing their defining join; indexes are bulk-built
  /// from a scan + sort. All work is charged to simulated time.
  Result<BuildReport> ApplyConfiguration(const Configuration& config);

  /// Drops all secondary indexes and views (back to P).
  Status ResetToPrimary();

  /// Content+shape fingerprint (BTree::Fingerprint) of a built secondary
  /// index, which perfbench's churn digest folds in after its writes.
  /// NotFound if no such index is built.
  Result<uint64_t> SecondaryIndexFingerprint(const std::string& name) const;

  const Configuration& current_config() const { return current_config_; }

  // ------------------------------------------------------------------ queries
  /// Parses, binds, optimizes against the current configuration, and
  /// executes. The buffer pool stays warm across calls (queries run
  /// back-to-back as in the paper's workload runs).
  Result<QueryResult> Run(const std::string& sql);

  /// Builds an ExecContext whose page accounting goes to `session_pool` — a
  /// session's private buffer-pool view — instead of the shared pool. The
  /// storage it routes over is the database's (read-only under queries).
  ExecContext MakeSessionContext(BufferPool* session_pool,
                                 CostParams params) const;

  /// Like Run, but executes in the caller-provided context (private session
  /// pool, per-job deadline/cancellation, optional trace recording). Purely
  /// read-only with respect to the database: many threads may call this
  /// concurrently — each with its own context — as long as no DDL,
  /// configuration change, or insert runs at the same time. This is the
  /// execution path of the parallel workload runners (src/core/runner.h).
  Result<QueryResult> RunWithContext(const std::string& sql,
                                     ExecContext* ctx) const;

  /// Like RunWithContext, but runs the morsel-driven vectorized engine
  /// (src/exec/vec/) when the plan shape supports it, with `vec` carrying
  /// the thread pool and per-query parallelism budget. Unsupported plan
  /// shapes fall back to the Volcano executor transparently. Simulated
  /// costs, results, pool state, and timeout behavior are bit-identical to
  /// RunWithContext either way (the vec engine's determinism contract).
  Result<QueryResult> RunWithContextVectorized(
      const std::string& sql, ExecContext* ctx,
      const vec::VecExecOptions& vec) const;

  /// Optimizes only; returns the chosen plan with E(q, C_current).
  /// Read-only and safe to call concurrently (planning consults only the
  /// catalog, statistics, and built-structure metadata). Plans the text's
  /// memoized preparation against the memoized view of the built
  /// configuration, as do Estimate, HypotheticalEstimate and every Run*
  /// entry point.
  Result<PhysicalPlan> Plan(const std::string& sql) const;

  /// EXPLAIN ANALYZE: executes and returns both the result and the plan
  /// annotated with measured per-operator cardinalities (the paper's
  /// missing "observe" step, Section 6).
  struct AnalyzedRun {
    QueryResult result;
    PhysicalPlan plan;
  };
  Result<AnalyzedRun> RunAnalyze(const std::string& sql);

  /// E(q, C_current): the optimizer's estimate in the built configuration,
  /// bit-equal to Plan(sql)->est_cost but without building the plan tree.
  /// Concurrency-safe like Plan().
  Result<double> Estimate(const std::string& sql) const;

  /// H(q, C_h, C_current): what-if estimate of a configuration that is NOT
  /// built, derived per `rules` (Section 5 of the paper) from the collected
  /// statistics. Rules with uniform_value_assumption are InvalidArgument,
  /// before any memo is read or filled: only the advisors' trial costs
  /// degrade statistics. Concurrency-safe like Plan(). The derived view of
  /// the last (C_h, rules) pair asked for is memoized until it or the built
  /// configuration changes.
  Result<double> HypotheticalEstimate(const std::string& sql,
                                      const Configuration& hypothetical,
                                      const HypotheticalRules& rules) const;

  /// Planner view of the currently built configuration, with measured
  /// index/view statistics, built afresh on every call.
  ConfigView CurrentView() const;

  // ----------------------------------------------------------------- plumbing
  const Catalog& catalog() const { return catalog_; }
  const DatabaseStats& stats() const { return stats_; }
  BufferPool* buffer_pool() { return &pool_; }
  const BufferPool& buffer_pool() const { return pool_; }
  /// Hit/miss accounting of the shared pool since the last Clear().
  BufferPoolStats buffer_stats() const { return pool_.stats(); }
  const DatabaseOptions& options() const { return options_; }

  /// Pages of base heaps + primary-key indexes (the P footprint).
  uint64_t BasePages() const;
  /// Pages of currently built secondary indexes + views.
  uint64_t SecondaryPages() const;
  uint64_t TableRowCount(const std::string& table) const;

  /// Re-collects statistics (after inserts).
  Status CollectStatistics();

  // ObjectResolver:
  const HeapTable* FindHeap(const std::string& name) const override;
  const IndexInfo* FindIndex(const std::string& name) const override;
  /// Shared by every query on this database, sessions and parallel
  /// workers included; always on. ResetToPrimary clears it.
  InSetMemo* in_set_memo() const override { return &in_set_memo_; }

 private:
  /// Tests check which calls hit the planner memos.
  friend class DatabaseTestPeer;

  /// Most SQL texts the prepared-query memo holds; a fill at the cap
  /// empties it first. Above the 722 queries of the NREF3J family.
  static constexpr size_t kPreparedQueryCap = 1024;

  struct BuiltIndex {
    IndexDef def;
    std::unique_ptr<BTree> btree;
    IndexInfo info;
  };
  struct BuiltView {
    ViewDef def;
    std::unique_ptr<HeapTable> heap;
    std::vector<TypeId> types;
  };

  Status BuildIndex(const IndexDef& def, ExecContext* ctx,
                    std::vector<std::unique_ptr<BuiltIndex>>* out);
  Status BuildView(const ViewDef& def, ExecContext* ctx,
                   std::vector<std::unique_ptr<BuiltView>>* out);
  Result<const HeapTable*> GetHeap(const std::string& name) const;

  /// CurrentView(), kept for every planning call until something it
  /// reflects changes. Valid while stats_epoch_ and the content epoch of
  /// every built B-tree (PK, then secondary) and view heap, in order, equal
  /// the ones recorded when it was built. Epochs are renewed by every
  /// mutator and never reused (storage/page_store.h), so a write, a
  /// statistics pass, or any change to the set of built objects fails the
  /// check without any mutation path invalidating the memo. Immutable once
  /// stored.
  struct ViewMemo {
    ConfigView view;
    std::vector<uint64_t> epochs;
    uint64_t stats_epoch = 0;
  };
  /// MakeHypotheticalView(config, base->view, rules), for one (config,
  /// rules, base) at a time; holding `base` keeps its address from being
  /// reused by a later ViewMemo. The configuration is compared on its full
  /// content, names included (IndexDef::operator== ignores them, but the
  /// derived view carries them). Immutable once stored.
  struct HypotheticalMemo {
    Configuration config;
    HypotheticalRules rules;
    std::shared_ptr<const ViewMemo> base;
    ConfigView view;
  };
  /// One SQL text parsed, bound and prepared against catalog_ and stats_.
  /// `prepared` points into `query`, so an entry is never copied or moved.
  struct PreparedEntry {
    PreparedEntry() = default;
    PreparedEntry(const PreparedEntry&) = delete;
    PreparedEntry& operator=(const PreparedEntry&) = delete;

    BoundQuery query;
    PreparedQuery prepared;
  };
  /// The memoized preparation of `sql`, made first on a miss. The memo is
  /// valid while catalog_epoch_ and stats_epoch_ equal the ones recorded
  /// with it: a miss under other epochs empties it, so no mutator
  /// invalidates anything. A text that fails to parse, bind or prepare is
  /// returned as the error and not stored. Entries are immutable; like
  /// PlannerView, the lock guards only the map, and two threads that miss
  /// on one text at once store equal entries.
  Result<std::shared_ptr<const PreparedEntry>> Prepared(
      const std::string& sql) const TB_EXCLUDES(memo_mu_);

  /// The memoized view of the built configuration, rebuilt first if stale.
  /// Like InSetMemo, the lock guards only the memo slot: checks and builds
  /// run outside it, and two threads that miss at once store equal views.
  std::shared_ptr<const ViewMemo> PlannerView() const TB_EXCLUDES(memo_mu_);
  bool IsCurrent(const ViewMemo& memo) const;
  /// Calls `f` with the content epoch of each built B-tree (PK, then
  /// secondary) and view heap, in order.
  template <typename F>
  void ForEachBuiltEpoch(F f) const;
  /// The memoized view of `config` derived per `rules`; a derivation error
  /// is returned, not memoized.
  Result<std::shared_ptr<const HypotheticalMemo>> HypotheticalView(
      const Configuration& config, const HypotheticalRules& rules) const
      TB_EXCLUDES(memo_mu_);
  const BuiltIndex* FindBuiltIndex(const std::string& name) const;

  /// Extracts this index's key from a full heap row.
  static IndexKey ExtractKey(const std::vector<int>& key_cols,
                             const Tuple& row);

  DatabaseOptions options_;
  Catalog catalog_;
  PageStore store_;
  BufferPool pool_;
  std::map<std::string, std::unique_ptr<HeapTable>> tables_;
  DatabaseStats stats_;
  bool stats_ready_ = false;

  std::vector<std::unique_ptr<BuiltIndex>> pk_indexes_;
  std::vector<std::unique_ptr<BuiltIndex>> secondary_indexes_;
  std::vector<std::unique_ptr<BuiltView>> views_;
  Configuration current_config_;
  mutable InSetMemo in_set_memo_;
  /// Content epoch (NextContentEpoch) of stats_, renewed by every
  /// CollectStatistics.
  uint64_t stats_epoch_ = 0;
  /// Content epoch of catalog_, renewed by every CreateTable.
  uint64_t catalog_epoch_ = 0;

  mutable Mutex memo_mu_;
  mutable std::shared_ptr<const ViewMemo> view_memo_ TB_GUARDED_BY(memo_mu_);
  mutable std::shared_ptr<const HypotheticalMemo> hypothetical_memo_
      TB_GUARDED_BY(memo_mu_);
  /// Prepared(): entries by SQL text, and the epochs they were made under.
  mutable std::unordered_map<std::string, std::shared_ptr<const PreparedEntry>>
      prepared_ TB_GUARDED_BY(memo_mu_);
  mutable uint64_t prepared_catalog_epoch_ TB_GUARDED_BY(memo_mu_) = 0;
  mutable uint64_t prepared_stats_epoch_ TB_GUARDED_BY(memo_mu_) = 0;
};

}  // namespace tabbench

#endif  // TABBENCH_ENGINE_DATABASE_H_
