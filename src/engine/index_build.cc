#include "engine/index_build.h"

#include <algorithm>
#include <cmath>

#include "util/fault_injection.h"

namespace tabbench {

const char* IndexBuildStateName(IndexBuildState s) {
  switch (s) {
    case IndexBuildState::kPending:
      return "pending";
    case IndexBuildState::kScanning:
      return "scanning";
    case IndexBuildState::kBackfilling:
      return "backfilling";
    case IndexBuildState::kCatchingUp:
      return "catching-up";
    case IndexBuildState::kLive:
      return "live";
    case IndexBuildState::kDropping:
      return "dropping";
    case IndexBuildState::kDropped:
      return "dropped";
    case IndexBuildState::kAborted:
      return "aborted";
  }
  return "?";
}

OnlineIndexBuild::OnlineIndexBuild(Database* db, IndexDef def,
                                   IndexBuildOptions options)
    : db_(db), def_(std::move(def)), options_(options) {}

OnlineIndexBuild::~OnlineIndexBuild() { DetachObserver(); }

Status OnlineIndexBuild::EnterState(IndexBuildState s) {
  state_ = s;
  if (hook_) {
    TB_RETURN_IF_ERROR(hook_(s, side_log_.size()));
  }
  return Status::OK();
}

void OnlineIndexBuild::DetachObserver() {
  if (observing_) {
    db_->RemoveMutationObserver(observer_token_);
    observing_ = false;
  }
}

void OnlineIndexBuild::OnMutation(const TableMutation& m) {
  SideLogEntry e;
  e.kind = m.kind;
  switch (m.kind) {
    case TableMutation::Kind::kInsert:
      e.key = Database::ExtractKey(key_cols_, m.row);
      e.rid = m.rid;
      break;
    case TableMutation::Kind::kDelete:
      e.old_key = Database::ExtractKey(key_cols_, m.old_row);
      e.old_rid = m.old_rid;
      break;
    case TableMutation::Kind::kUpdate:
      e.old_key = Database::ExtractKey(key_cols_, m.old_row);
      e.old_rid = m.old_rid;
      e.key = Database::ExtractKey(key_cols_, m.row);
      e.rid = m.rid;
      break;
  }
  side_log_.push_back(std::move(e));
}

Status OnlineIndexBuild::Start(ExecContext* /*ctx*/) {
  if (state_ != IndexBuildState::kPending) {
    return Status::InvalidArgument("index build already started");
  }
  TB_RETURN_IF_ERROR(EnterState(IndexBuildState::kPending));
  if (db_->FindIndex(def_.name) != nullptr) {
    return Status::AlreadyExists("index " + def_.name);
  }
  Database::IndexKeySpec spec;
  TB_ASSIGN_OR_RETURN(spec, db_->ResolveIndexKey(def_));
  key_cols_ = std::move(spec.key_cols);
  key_width_ = spec.key_width;
  heap_ = db_->FindHeap(def_.target);
  if (heap_ == nullptr) {
    return Status::NotFound("index target " + def_.target);
  }

  // Snapshot the scan bound: the heap is append-only, so any row at
  // rid >= bound was written after this instant and reaches the tree only
  // through the side log — each row has exactly one source.
  if (heap_->num_pages() == 0) {
    scan_bound_ = Rid{0, 0};
  } else {
    size_t last = heap_->num_pages() - 1;
    const Page* tail = db_->store_.GetPage(heap_->pages()[last]);
    scan_bound_ = Rid{static_cast<uint32_t>(last),
                      static_cast<uint32_t>(tail->num_slots)};
  }
  observer_token_ = db_->AddMutationObserver(
      def_.target, [this](const TableMutation& m) { OnMutation(m); });
  observing_ = true;

  cursor_.emplace(heap_->Scan([this](PageId id) { ctx_->TouchPage(id); }));
  snapshot_.reserve(heap_->num_rows());
  tree_ = std::make_unique<BTree>(
      def_.name, def_.columns.size(),
      static_cast<size_t>(std::max(4.0, key_width_)), &db_->store_);
  return EnterState(IndexBuildState::kScanning);
}

Result<IndexBuildState> OnlineIndexBuild::Step(ExecContext* ctx) {
  ctx_ = ctx;
  Status s = Status::OK();
  switch (state_) {
    case IndexBuildState::kScanning:
      s = StepScan(ctx);
      break;
    case IndexBuildState::kBackfilling:
      s = StepBackfill(ctx);
      break;
    case IndexBuildState::kCatchingUp:
      s = StepCatchUp(ctx);
      break;
    default:
      return Status::InvalidArgument(
          std::string("index build not steppable in state ") +
          IndexBuildStateName(state_));
  }
  ctx_ = nullptr;
  TB_RETURN_IF_ERROR(s);
  return state_;
}

Status OnlineIndexBuild::StepScan(ExecContext* ctx) {
  TB_FAULT_POINT("engine.index_build.scan");
  Tuple t;
  Rid rid;
  for (uint64_t i = 0; i < options_.rows_per_step; ++i) {
    if (!cursor_->Next(&t, &rid)) break;
    if (!(rid < scan_bound_)) break;  // past the snapshot: side-log territory
    ctx->ChargeTuples(1);
    snapshot_.emplace_back(Database::ExtractKey(key_cols_, t), rid);
    if (i + 1 == options_.rows_per_step) return Status::OK();  // quantum spent
  }
  cursor_.reset();
  return EnterState(IndexBuildState::kBackfilling);
}

Status OnlineIndexBuild::StepBackfill(ExecContext* ctx) {
  TB_FAULT_POINT("engine.index_build.backfill");
  // Same external-sort charge as the offline builder (config_builder.cc).
  double n = static_cast<double>(snapshot_.size());
  if (n > 1) {
    ctx->ChargeHashOps(static_cast<uint64_t>(n * std::log2(n)));
    double bytes = n * (key_width_ + 8.0);
    double pages = bytes / static_cast<double>(kPageSize);
    if (pages > static_cast<double>(ctx->params().work_mem_pages)) {
      ctx->ChargeIoPages(static_cast<uint64_t>(2.0 * pages));
    }
  }
  std::sort(snapshot_.begin(), snapshot_.end(),
            [](const auto& a, const auto& b) {
              int c = CompareKeys(a.first, b.first);
              if (c != 0) return c < 0;
              return a.second < b.second;
            });
  tree_->BulkBuild(std::move(snapshot_));
  snapshot_.clear();
  ctx->ChargeIoPages(tree_->num_pages());  // writing out the tree
  return EnterState(IndexBuildState::kCatchingUp);
}

Status OnlineIndexBuild::StepCatchUp(ExecContext* ctx) {
  TB_FAULT_POINT("engine.index_build.catchup");
  PageTouchFn touch = [ctx](PageId id) { ctx->TouchPageRandom(id); };
  for (uint64_t i = 0;
       i < options_.rows_per_step && side_log_applied_ < side_log_.size();
       ++i, ++side_log_applied_) {
    const SideLogEntry& e = side_log_[side_log_applied_];
    ctx->ChargeTuples(1);
    switch (e.kind) {
      case TableMutation::Kind::kInsert:
        TB_RETURN_IF_ERROR(tree_->Insert(e.key, e.rid, touch));
        ctx->ChargeIoPages(1);
        break;
      case TableMutation::Kind::kDelete: {
        // The scan may never have seen this row (tombstoned before the
        // cursor arrived, or born and killed inside the side log): a miss
        // is a no-op, not corruption.
        Status s = tree_->Delete(e.old_key, e.old_rid, touch);
        if (!s.ok() && !s.IsNotFound()) return s;
        ctx->ChargeIoPages(1);
        break;
      }
      case TableMutation::Kind::kUpdate: {
        Status s = tree_->Delete(e.old_key, e.old_rid, touch);
        if (!s.ok() && !s.IsNotFound()) return s;
        TB_RETURN_IF_ERROR(tree_->Insert(e.key, e.rid, touch));
        ctx->ChargeIoPages(1);
        break;
      }
    }
  }
  if (side_log_applied_ < side_log_.size()) return Status::OK();

  // Side log drained: install atomically. Workload ops only run between
  // Step() quanta (the runner is the only mutator), so nothing can slip
  // into the log between the check above and the install below.
  TB_FAULT_POINT("engine.index_build.install");
  TB_RETURN_IF_ERROR(db_->InstallSecondaryIndex(def_, std::move(tree_),
                                                std::vector<int>(key_cols_)));
  DetachObserver();
  return EnterState(IndexBuildState::kLive);
}

Status OnlineIndexBuild::Abort() {
  if (done() || state_ == IndexBuildState::kPending) {
    state_ = IndexBuildState::kAborted;
    return Status::OK();
  }
  DetachObserver();
  cursor_.reset();
  snapshot_.clear();
  side_log_.clear();
  side_log_applied_ = 0;
  if (tree_ != nullptr) {
    tree_->Drop();
    tree_.reset();
  }
  return EnterState(IndexBuildState::kAborted);
}

}  // namespace tabbench
