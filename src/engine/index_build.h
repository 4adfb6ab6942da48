#ifndef TABBENCH_ENGINE_INDEX_BUILD_H_
#define TABBENCH_ENGINE_INDEX_BUILD_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "engine/database.h"
#include "storage/btree.h"

namespace tabbench {

/// States of an online (non-blocking) secondary-index build, plus the two
/// teardown states of an online drop. The forward path is strictly
///
///   pending -> scanning -> backfilling -> catching-up -> live
///
/// with `aborted` reachable from any non-terminal state. Each transition is
/// journaled as an fsync'd JournalIndexBuildRecord by the mutation runner,
/// which is what makes a SIGKILL at any point resumable to a byte-identical
/// index: the work itself is deterministic, and the journal pins how far
/// the run's op/transition stream got.
enum class IndexBuildState : uint8_t {
  kPending = 0,
  kScanning = 1,
  kBackfilling = 2,
  kCatchingUp = 3,
  kLive = 4,
  kDropping = 5,
  kDropped = 6,
  kAborted = 7,
};

const char* IndexBuildStateName(IndexBuildState s);

struct IndexBuildOptions {
  /// Rows consumed per Step() quantum (scan rows, backfill is one quantum,
  /// catch-up side-log entries). Small quanta interleave more workload ops
  /// mid-build — exactly what the chaos schedules want to stress.
  uint64_t rows_per_step = 512;
};

/// An incremental, crash-safe CREATE INDEX that runs *while* the write
/// workload does. The classic three-phase online build:
///
///   1. scanning: bounded snapshot scan of the target heap (rows that
///      existed when the build started); concurrent writes land in a side
///      log via the Database's mutation-observer hook.
///   2. backfilling: sort + bulk-build the snapshot into a private B+-tree
///      (same cost model as the offline builder).
///   3. catching-up: drain the side log into the tree — inserts for rows
///      that arrived mid-build, deletes for scanned rows that died (a
///      delete for a row the scan never saw is a harmless no-op).
///
/// When the log drains, the tree installs atomically into the database's
/// secondary-index set (`live`). Every phase advances in bounded Step()
/// quanta charged to the caller's ExecContext, so maintenance cost flows
/// through the simulated clock and the runner fully controls interleaving —
/// the determinism the serial ≡ parallel and kill-resume contracts rest on.
class OnlineIndexBuild {
 public:
  /// Fires as each state is entered, before any work in that state; the
  /// runner's hook journals the transition (and may die there — that is the
  /// kill-resume harness's crash site). A failing hook aborts the build.
  using TransitionFn =
      std::function<Status(IndexBuildState entered, uint64_t side_log_size)>;

  OnlineIndexBuild(Database* db, IndexDef def, IndexBuildOptions options = {});
  ~OnlineIndexBuild();

  OnlineIndexBuild(const OnlineIndexBuild&) = delete;
  OnlineIndexBuild& operator=(const OnlineIndexBuild&) = delete;

  void set_transition_hook(TransitionFn fn) { hook_ = std::move(fn); }

  /// pending -> scanning: validates the target, snapshots the scan bound,
  /// and registers the side-log observer. Charges nothing yet.
  Status Start(ExecContext* ctx);

  /// Runs one bounded quantum of the current phase, charging its I/O and
  /// CPU to `ctx`; advances the state machine when the phase completes and
  /// returns the (possibly new) state. Fault points:
  /// `engine.index_build.scan` / `.backfill` / `.catchup` / `.install`.
  Result<IndexBuildState> Step(ExecContext* ctx);

  /// Drops the private tree and detaches the observer; fires the `aborted`
  /// transition. Used on unrecoverable step failure.
  Status Abort();

  IndexBuildState state() const { return state_; }
  bool done() const {
    return state_ == IndexBuildState::kLive ||
           state_ == IndexBuildState::kAborted;
  }
  uint64_t side_log_size() const { return side_log_.size(); }
  const IndexDef& def() const { return def_; }

 private:
  struct SideLogEntry {
    TableMutation::Kind kind = TableMutation::Kind::kInsert;
    IndexKey key;      // insert / update-new
    Rid rid;
    IndexKey old_key;  // delete / update-old
    Rid old_rid;
  };

  Status EnterState(IndexBuildState s);
  void OnMutation(const TableMutation& m);
  Status StepScan(ExecContext* ctx);
  Status StepBackfill(ExecContext* ctx);
  Status StepCatchUp(ExecContext* ctx);
  void DetachObserver();

  Database* db_;
  IndexDef def_;
  IndexBuildOptions options_;
  TransitionFn hook_;
  IndexBuildState state_ = IndexBuildState::kPending;

  std::vector<int> key_cols_;
  double key_width_ = 0.0;
  const HeapTable* heap_ = nullptr;
  uint64_t observer_token_ = 0;
  bool observing_ = false;

  /// Scan snapshot: rows at rid >= bound existed only after the build
  /// started (the heap is append-only) and belong to the side log.
  Rid scan_bound_;
  /// Live cursor carried across Step() quanta; its touch callback charges
  /// through ctx_, re-pointed at the caller's context on every Step.
  std::optional<HeapTable::Cursor> cursor_;
  ExecContext* ctx_ = nullptr;
  std::vector<std::pair<IndexKey, Rid>> snapshot_;
  std::vector<SideLogEntry> side_log_;
  size_t side_log_applied_ = 0;
  std::unique_ptr<BTree> tree_;
};

}  // namespace tabbench

#endif  // TABBENCH_ENGINE_INDEX_BUILD_H_
