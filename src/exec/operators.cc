#include "exec/operators.h"

#include <cassert>
#include <unordered_map>
#include <unordered_set>

#include "util/strings.h"

namespace tabbench {

namespace {

/// CompiledPred semantics over any row layout: `at(pos)` yields the value
/// at output position `pos`.
template <typename AtFn>
bool EvalAt(const CompiledPred& p, const AtFn& at) {
  switch (p.kind) {
    case ResidualPred::Kind::kColEqLit:
      return at(p.pos_a) == p.literal;
    case ResidualPred::Kind::kColEqCol:
      return at(p.pos_a) == at(p.pos_b);
    case ResidualPred::Kind::kInSet:
      return p.in_set->Contains(at(p.pos_a));
  }
  return false;
}

}  // namespace

bool CompiledPred::Eval(const Tuple& t) const {
  return EvalAt(*this, [&t](int pos) -> const Value& {
    return t.at(static_cast<size_t>(pos));
  });
}

bool CompiledPred::EvalJoined(const Tuple& left, const Tuple& right) const {
  return EvalAt(*this, [&left, &right](int pos) -> const Value& {
    size_t p = static_cast<size_t>(pos);
    return p < left.size() ? left.at(p) : right.at(p - left.size());
  });
}

bool CompiledPred::EvalEncoded(const Tuple& outer, const TupleCodec& codec,
                               const uint8_t* row) const {
  auto at = [&outer, &codec, row](int pos) {
    size_t p = static_cast<size_t>(pos);
    return p < outer.size() ? ColumnView::Of(outer.at(p))
                            : codec.Column(row, p - outer.size());
  };
  switch (kind) {
    case ResidualPred::Kind::kColEqLit:
      return at(pos_a) == ColumnView::Of(literal);
    case ResidualPred::Kind::kColEqCol:
      return at(pos_a) == at(pos_b);
    case ResidualPred::Kind::kInSet:
      return in_set->Contains(at(pos_a));
  }
  return false;
}

namespace {

/// Charges spill I/O as hash state grows beyond work_mem: every page of
/// overflow data is written once and read back once (Grace-style).
class SpillTracker {
 public:
  explicit SpillTracker(ExecContext* ctx) : ctx_(ctx) {}

  void Add(size_t bytes) {
    bytes_ += bytes;
    size_t pages = bytes_ / kPageSize;
    size_t limit = ctx_->params().work_mem_pages;
    if (pages > limit) {
      uint64_t over = pages - limit;
      if (over > spilled_) {
        ctx_->ChargeIoPages(2 * (over - spilled_));
        spilled_ = over;
      }
    }
  }

  bool spilled() const { return spilled_ > 0; }

 private:
  ExecContext* ctx_;
  size_t bytes_ = 0;
  uint64_t spilled_ = 0;
};

}  // namespace

Result<std::vector<CompiledPred>> CompilePreds(const PlanNode& node,
                                               const InSets& in_sets) {
  std::vector<CompiledPred> out;
  for (const auto& p : node.residual) {
    CompiledPred cp;
    cp.kind = p.kind;
    cp.pos_a = node.FindSlot(p.a);
    if (cp.pos_a < 0) {
      return Status::Internal("residual predicate slot not in node output");
    }
    switch (p.kind) {
      case ResidualPred::Kind::kColEqLit:
        cp.literal = p.literal;
        break;
      case ResidualPred::Kind::kColEqCol:
        cp.pos_b = node.FindSlot(p.b);
        if (cp.pos_b < 0) {
          return Status::Internal("residual predicate slot not in node output");
        }
        break;
      case ResidualPred::Kind::kInSet:
        if (p.in_set < 0 || p.in_set >= static_cast<int>(in_sets.size())) {
          return Status::Internal("residual IN-set index out of range");
        }
        cp.in_set = in_sets[static_cast<size_t>(p.in_set)].get();
        break;
    }
    out.push_back(std::move(cp));
  }
  return out;
}

namespace {

/// True iff every residual holds on Concat(outer, row), with `row` read in
/// place (CompiledPred::EvalEncoded).
bool EvalEncodedPreds(const std::vector<CompiledPred>& preds,
                      const Tuple& outer, const TupleCodec& codec,
                      const uint8_t* row) {
  for (const auto& p : preds) {
    if (!p.EvalEncoded(outer, codec, row)) return false;
  }
  return true;
}

/// Decodes the encoded record `row` of `codec` into `*out`.
void DecodeRecord(const TupleCodec& codec, const uint8_t* row, Tuple* out) {
  size_t off = 0;
  codec.DecodeInto(row, &off, out);
}

/// True iff every residual holds on Concat(left, right), tested before the
/// row is built: only rows that pass are concatenated.
bool EvalJoinedPreds(const std::vector<CompiledPred>& preds, const Tuple& left,
                     const Tuple& right) {
  for (const auto& p : preds) {
    if (!p.EvalJoined(left, right)) return false;
  }
  return true;
}

// ---------------------------------------------------------------- SeqScan

class SeqScanOp : public Operator {
 public:
  SeqScanOp(const HeapTable* heap, std::vector<CompiledPred> preds,
            ExecContext* ctx)
      : heap_(heap),
        preds_(std::move(preds)),
        ctx_(ctx),
        cursor_(heap->Scan([ctx](PageId id) { ctx->TouchPage(id); })) {}

  Status Open() override { return Status::OK(); }

  // Each row is tested on its page bytes and decoded into *out only once it
  // passes, so a rejected row costs no decode, string copy or allocation.
  Result<bool> NextImpl(Tuple* out) override {
    while (const uint8_t* row = cursor_.NextRecord()) {
      ctx_->ChargeTuples(1);
      TB_RETURN_IF_ERROR(ctx_->CheckTimeout());
      if (EvalEncodedPreds(preds_, no_outer_, heap_->codec(), row)) {
        cursor_.DecodeRow(out);
        return true;
      }
    }
    TB_RETURN_IF_ERROR(ctx_->CheckTimeout());
    return false;
  }

 private:
  const HeapTable* heap_;
  std::vector<CompiledPred> preds_;
  ExecContext* ctx_;
  HeapTable::Cursor cursor_;
  const Tuple no_outer_;  // a scan's residuals read only its own row
};

// -------------------------------------------------------------- IndexScan

/// Like SeqScan, a visited entry is materialized only once its residuals
/// pass: an index-only scan reads the key in place in its leaf
/// (BTree::Iterator::NextKey), a heap scan tests the fetched row on its page
/// bytes (CompiledPred::EvalEncoded) and decodes a passing one. Charges
/// never depend on this: every visited entry pays its leaf touch,
/// ChargeTuples and CheckTimeout, and a heap scan's fetch (fault point and
/// random page touch) and second ChargeTuples.
class IndexScanOp : public Operator {
 public:
  IndexScanOp(const IndexInfo* index, IndexKey prefix, bool index_only,
              std::vector<CompiledPred> preds, ExecContext* ctx)
      : index_(index),
        prefix_(std::move(prefix)),
        index_only_(index_only),
        preds_(std::move(preds)),
        ctx_(ctx),
        touch_random_([ctx](PageId id) { ctx->TouchPageRandom(id); }) {}

  Status Open() override {
    if (prefix_.empty()) {
      // Full leaf-chain walk: leaves stream sequentially.
      iter_ = index_->btree->ScanAll(
          [this](PageId id) { ctx_->TouchPage(id); });
    } else {
      // Probe: descent and leaf reads are random I/O.
      iter_ = index_->btree->SeekPrefix(prefix_, touch_random_);
    }
    return Status::OK();
  }

  Result<bool> NextImpl(Tuple* out) override {
    Rid rid;
    while (const IndexKey* key = iter_.NextKey(&rid)) {
      ctx_->ChargeTuples(1);
      TB_RETURN_IF_ERROR(ctx_->CheckTimeout());
      if (index_only_) {
        if (!KeyPasses(*key)) continue;
        *out->mutable_values() = *key;
        return true;
      }
      const uint8_t* row;
      TB_ASSIGN_OR_RETURN(row, index_->heap->FetchRecord(rid, touch_random_));
      ctx_->ChargeTuples(1);
      const TupleCodec& codec = index_->heap->codec();
      if (!EvalEncodedPreds(preds_, no_outer_, codec, row)) continue;
      DecodeRecord(codec, row, out);
      return true;
    }
    TB_RETURN_IF_ERROR(ctx_->CheckTimeout());
    return false;
  }

 private:
  /// The residuals on an index-only entry, read in place.
  bool KeyPasses(const IndexKey& key) const {
    auto at = [&key](int pos) -> const Value& {
      return key[static_cast<size_t>(pos)];
    };
    for (const auto& p : preds_) {
      if (!EvalAt(p, at)) return false;
    }
    return true;
  }

  const IndexInfo* index_;
  IndexKey prefix_;
  bool index_only_;
  std::vector<CompiledPred> preds_;
  ExecContext* ctx_;
  PageTouchFn touch_random_;  // probes and heap fetches: random I/O
  BTree::Iterator iter_;
  const Tuple no_outer_;  // a scan's residuals read only its own row
};

// --------------------------------------------------------------- HashJoin

class HashJoinOp : public Operator {
 public:
  HashJoinOp(std::unique_ptr<Operator> build, std::unique_ptr<Operator> probe,
             const std::vector<std::pair<int, int>>& key_pos,
             std::vector<CompiledPred> preds, ExecContext* ctx)
      : build_(std::move(build)),
        probe_(std::move(probe)),
        preds_(std::move(preds)),
        ctx_(ctx),
        spill_(ctx) {
    for (const auto& [l, r] : key_pos) {
      build_pos_.push_back(l);
      probe_pos_.push_back(r);
    }
  }

  Status Open() override {
    TB_RETURN_IF_ERROR(build_->Open());
    Tuple t;
    for (;;) {
      auto more = build_->Next(&t);
      if (!more.ok()) return more.status();
      if (!*more) break;
      key_.AssignProject(t, build_pos_);
      ctx_->ChargeHashOps(1);
      spill_.Add(t.ByteSize() + 24);
      table_[key_].push_back(std::move(t));
      TB_RETURN_IF_ERROR(ctx_->CheckTimeout());
    }
    return probe_->Open();
  }

  Result<bool> NextImpl(Tuple* out) override {
    for (;;) {
      if (match_list_ != nullptr && match_idx_ < match_list_->size()) {
        const Tuple& build_row = (*match_list_)[match_idx_];
        ++match_idx_;
        ctx_->ChargeTuples(1);
        TB_RETURN_IF_ERROR(ctx_->CheckTimeout());
        if (EvalJoinedPreds(preds_, build_row, probe_row_)) {
          out->AssignConcat(build_row, probe_row_);
          return true;
        }
        continue;
      }
      auto more = probe_->Next(&probe_row_);
      if (!more.ok()) return more.status();
      if (!*more) return false;
      ctx_->ChargeHashOps(1);
      if (spill_.spilled()) {
        // Grace repartitioning: the probe stream is written and re-read too.
        probe_spill_bytes_ += probe_row_.ByteSize();
        while (probe_spill_bytes_ >= kPageSize) {
          ctx_->ChargeIoPages(2);
          probe_spill_bytes_ -= kPageSize;
        }
      }
      TB_RETURN_IF_ERROR(ctx_->CheckTimeout());
      key_.AssignProject(probe_row_, probe_pos_);
      auto it = table_.find(key_);
      if (it == table_.end()) {
        match_list_ = nullptr;
        continue;
      }
      match_list_ = &it->second;
      match_idx_ = 0;
    }
  }

 private:
  std::unique_ptr<Operator> build_;
  std::unique_ptr<Operator> probe_;
  /// Join-key positions in build and probe rows, pairwise.
  std::vector<int> build_pos_;
  std::vector<int> probe_pos_;
  std::vector<CompiledPred> preds_;
  ExecContext* ctx_;
  SpillTracker spill_;
  size_t probe_spill_bytes_ = 0;
  std::unordered_map<Tuple, std::vector<Tuple>, TupleHash> table_;
  Tuple key_;  // reused join-key buffer
  Tuple probe_row_;
  const std::vector<Tuple>* match_list_ = nullptr;
  size_t match_idx_ = 0;
};

// ------------------------------------------------------------ IndexNLJoin

/// A residual predicate is probe-invariant when it reads only outer slots
/// and inner columns the seek prefix binds: every entry a probe visits holds
/// the prefix's values there (KeyHasPrefix equality, the same Value::Compare
/// equality every predicate kind tests), so such a predicate is evaluated
/// once per probe on (outer row, prefix). The other, per-entry, residuals
/// read the inner entry: an index-only inner is read in place in its leaf
/// (BTree::Iterator::NextKey), a heap inner on its page bytes (CompiledPred::
/// EvalEncoded). An entry is materialized only once its pair passes. Charges
/// never depend on any of this: every visited entry pays its leaf touch,
/// ChargeTuples and CheckTimeout, and a heap inner's fetch (fault point and
/// random page touch) and second ChargeTuples, even after a failed probe.
class IndexNLJoinOp : public Operator {
 public:
  IndexNLJoinOp(std::unique_ptr<Operator> outer, size_t outer_arity,
                const IndexInfo* inner, std::vector<SeekKeyPart> seek,
                std::vector<int> seek_outer_pos, bool inner_index_only,
                std::vector<CompiledPred> preds, ExecContext* ctx)
      : outer_(std::move(outer)),
        outer_arity_(outer_arity),
        inner_(inner),
        seek_(std::move(seek)),
        seek_outer_pos_(std::move(seek_outer_pos)),
        inner_index_only_(inner_index_only),
        ctx_(ctx),
        touch_random_([ctx](PageId id) { ctx->TouchPageRandom(id); }) {
    prefix_.resize(seek_.size());
    for (size_t i = 0; i < seek_.size(); ++i) {
      if (!seek_[i].from_outer) prefix_[i] = seek_[i].literal;
    }
    const size_t inner_arity = inner_index_only_
                                   ? inner_->btree->num_key_columns()
                                   : inner_->heap->codec().types().size();
    bound_.assign(inner_arity, -1);
    for (size_t k = 0; k < seek_.size(); ++k) {
      size_t col = inner_index_only_
                       ? k
                       : static_cast<size_t>(inner_->key_cols[k]);
      bound_[col] = static_cast<int>(k);
    }
    auto invariant = [this](int pos) {
      size_t p = static_cast<size_t>(pos);
      return p < outer_arity_ || bound_[p - outer_arity_] >= 0;
    };
    for (auto& p : preds) {
      bool probe = invariant(p.pos_a) && (p.pos_b < 0 || invariant(p.pos_b));
      (probe ? probe_preds_ : entry_preds_).push_back(std::move(p));
    }
  }

  Status Open() override { return outer_->Open(); }

  Result<bool> NextImpl(Tuple* out) override {
    for (;;) {
      if (have_iter_) {
        Rid rid;
        while (const IndexKey* key = iter_.NextKey(&rid)) {
          ctx_->ChargeTuples(1);
          TB_RETURN_IF_ERROR(ctx_->CheckTimeout());
          const uint8_t* row = nullptr;
          if (!inner_index_only_) {
            TB_ASSIGN_OR_RETURN(row,
                                inner_->heap->FetchRecord(rid, touch_random_));
            ctx_->ChargeTuples(1);
          }
          if (!probe_passed_ || !EntryPasses(*key, row)) continue;
          if (inner_index_only_) {
            *inner_row_.mutable_values() = *key;
          } else {
            DecodeRecord(inner_->heap->codec(), row, &inner_row_);
          }
          out->AssignConcat(outer_row_, inner_row_);
          return true;
        }
        have_iter_ = false;
      }
      auto more = outer_->Next(&outer_row_);
      if (!more.ok()) return more.status();
      if (!*more) return false;
      TB_RETURN_IF_ERROR(ctx_->CheckTimeout());
      // The probe prefix: literals (set once) plus this outer row's values.
      size_t outer_i = 0;
      for (size_t i = 0; i < seek_.size(); ++i) {
        if (!seek_[i].from_outer) continue;
        prefix_[i] =
            outer_row_.at(static_cast<size_t>(seek_outer_pos_[outer_i++]));
      }
      probe_passed_ = ProbePasses();
      iter_ = inner_->btree->SeekPrefix(prefix_, touch_random_);
      have_iter_ = true;
    }
  }

 private:
  bool ProbePasses() const {
    auto at = [this](int pos) -> const Value& {
      size_t p = static_cast<size_t>(pos);
      if (p < outer_arity_) return outer_row_.at(p);
      return prefix_[static_cast<size_t>(bound_[p - outer_arity_])];
    };
    for (const auto& p : probe_preds_) {
      if (!EvalAt(p, at)) return false;
    }
    return true;
  }

  /// The per-entry residuals on (outer row, this entry): `key` in place for
  /// an index-only inner, else the fetched heap row `row` on its page.
  bool EntryPasses(const IndexKey& key, const uint8_t* row) const {
    if (!inner_index_only_) {
      return EvalEncodedPreds(entry_preds_, outer_row_, inner_->heap->codec(),
                              row);
    }
    auto at = [this, &key](int pos) -> const Value& {
      size_t p = static_cast<size_t>(pos);
      return p < outer_arity_ ? outer_row_.at(p) : key[p - outer_arity_];
    };
    for (const auto& p : entry_preds_) {
      if (!EvalAt(p, at)) return false;
    }
    return true;
  }

  std::unique_ptr<Operator> outer_;
  size_t outer_arity_;
  const IndexInfo* inner_;
  std::vector<SeekKeyPart> seek_;
  std::vector<int> seek_outer_pos_;  // outer tuple positions, in seek order
  bool inner_index_only_;
  /// Residuals split by what they read (class comment).
  std::vector<CompiledPred> probe_preds_;
  std::vector<CompiledPred> entry_preds_;
  /// Per inner column: the seek-prefix position binding it, or -1.
  std::vector<int> bound_;
  ExecContext* ctx_;
  PageTouchFn touch_random_;  // probes and heap fetches: random I/O
  IndexKey prefix_;
  Tuple outer_row_;
  BTree::Iterator iter_;
  bool have_iter_ = false;
  bool probe_passed_ = false;
  Tuple inner_row_;
};

// ---------------------------------------------------------- HashAggregate

class HashAggregateOp : public Operator {
 public:
  HashAggregateOp(std::unique_ptr<Operator> child,
                  std::vector<int> group_pos,
                  std::vector<BoundSelectItem> select,
                  std::vector<int> select_group_idx,
                  std::vector<int> select_distinct_pos, ExecContext* ctx)
      : child_(std::move(child)),
        group_pos_(std::move(group_pos)),
        select_(std::move(select)),
        select_group_idx_(std::move(select_group_idx)),
        select_distinct_pos_(std::move(select_distinct_pos)),
        ctx_(ctx),
        spill_(ctx) {}

  Status Open() override {
    TB_RETURN_IF_ERROR(child_->Open());
    size_t num_distinct_aggs = 0;
    for (const auto& s : select_) {
      if (s.kind == BoundSelectItem::Kind::kCountDistinct) ++num_distinct_aggs;
    }
    Tuple t;
    for (;;) {
      auto more = child_->Next(&t);
      if (!more.ok()) return more.status();
      if (!*more) break;
      ctx_->ChargeHashOps(1);
      TB_RETURN_IF_ERROR(ctx_->CheckTimeout());
      key_.AssignProject(t, group_pos_);
      auto [it, inserted] = groups_.try_emplace(key_);
      GroupState& g = it->second;
      if (inserted) {
        g.distinct.resize(num_distinct_aggs);
        spill_.Add(it->first.ByteSize() + 32);
      }
      ++g.count;
      size_t di = 0;
      for (size_t si = 0; si < select_.size(); ++si) {
        if (select_[si].kind != BoundSelectItem::Kind::kCountDistinct) continue;
        const Value& v = t.at(static_cast<size_t>(select_distinct_pos_[di]));
        auto [vit, vinserted] = g.distinct[di].insert(v);
        (void)vit;
        if (vinserted) spill_.Add(v.ByteSize() + 16);
        ctx_->ChargeHashOps(1);
        ++di;
      }
    }
    // Empty input with no GROUP BY still yields one all-zero row (SQL
    // scalar-aggregate semantics).
    if (groups_.empty() && group_pos_.empty()) {
      GroupState g;
      g.distinct.resize(num_distinct_aggs);
      g.count = 0;
      groups_.emplace(Tuple(), std::move(g));
    }
    iter_ = groups_.begin();
    return Status::OK();
  }

  Result<bool> NextImpl(Tuple* out) override {
    if (iter_ == groups_.end()) return false;
    ctx_->ChargeTuples(1);
    TB_RETURN_IF_ERROR(ctx_->CheckTimeout());
    const Tuple& key = iter_->first;
    const GroupState& g = iter_->second;
    std::vector<Value> vals;
    vals.reserve(select_.size());
    size_t di = 0;
    for (size_t si = 0; si < select_.size(); ++si) {
      switch (select_[si].kind) {
        case BoundSelectItem::Kind::kColumn:
          vals.push_back(key.at(static_cast<size_t>(select_group_idx_[si])));
          break;
        case BoundSelectItem::Kind::kCountStar:
          vals.push_back(Value(static_cast<int64_t>(g.count)));
          break;
        case BoundSelectItem::Kind::kCountDistinct:
          vals.push_back(Value(static_cast<int64_t>(g.distinct[di].size())));
          ++di;
          break;
      }
    }
    *out = Tuple(std::move(vals));
    ++iter_;
    return true;
  }

 private:
  struct GroupState {
    uint64_t count = 0;
    std::vector<std::unordered_set<Value, ValueHash>> distinct;
  };

  std::unique_ptr<Operator> child_;
  std::vector<int> group_pos_;
  std::vector<BoundSelectItem> select_;
  /// For kColumn items: index into the group key.
  std::vector<int> select_group_idx_;
  /// For kCountDistinct items (in select order): child tuple position.
  std::vector<int> select_distinct_pos_;
  ExecContext* ctx_;
  SpillTracker spill_;
  std::unordered_map<Tuple, GroupState, TupleHash> groups_;
  std::unordered_map<Tuple, GroupState, TupleHash>::iterator iter_;
  Tuple key_;  // reused group-key buffer; copied only for a new group
};

// ---------------------------------------------------------------- Project

class ProjectOp : public Operator {
 public:
  ProjectOp(std::unique_ptr<Operator> child, std::vector<size_t> positions,
            ExecContext* ctx)
      : child_(std::move(child)), positions_(std::move(positions)), ctx_(ctx) {}

  Status Open() override { return child_->Open(); }

  Result<bool> NextImpl(Tuple* out) override {
    auto more = child_->Next(&row_);
    if (!more.ok()) return more.status();
    if (!*more) return false;
    ctx_->ChargeTuples(1);
    out->AssignProject(row_, positions_);
    return true;
  }

 private:
  std::unique_ptr<Operator> child_;
  std::vector<size_t> positions_;
  ExecContext* ctx_;
  Tuple row_;  // reused child-row buffer
};

}  // namespace

Result<std::unique_ptr<Operator>> BuildOperator(const PlanNode& node,
                                                const ObjectResolver& resolver,
                                                const InSets& in_sets,
                                                ExecContext* ctx,
                                                OperatorRegistry* registry) {
  std::vector<CompiledPred> preds;
  TB_ASSIGN_OR_RETURN(preds, CompilePreds(node, in_sets));
  auto reg = [&](std::unique_ptr<Operator> op)
      -> Result<std::unique_ptr<Operator>> {
    if (registry != nullptr) registry->emplace_back(&node, op.get());
    return {std::move(op)};
  };

  switch (node.kind) {
    case PlanNode::Kind::kSeqScan: {
      const HeapTable* heap = resolver.FindHeap(node.object);
      if (heap == nullptr) return Status::NotFound("table " + node.object);
      return reg(std::make_unique<SeqScanOp>(heap, std::move(preds), ctx));
    }
    case PlanNode::Kind::kIndexScan: {
      const IndexInfo* idx = resolver.FindIndex(node.index_name);
      if (idx == nullptr) return Status::NotFound("index " + node.index_name);
      IndexKey prefix;
      for (const auto& part : node.seek) {
        if (part.from_outer) {
          return Status::Internal("leaf IndexScan cannot reference outer row");
        }
        prefix.push_back(part.literal);
      }
      return reg(std::make_unique<IndexScanOp>(
          idx, std::move(prefix), node.index_only, std::move(preds), ctx));
    }
    case PlanNode::Kind::kHashJoin: {
      if (node.children.size() != 2) {
        return Status::Internal("HashJoin needs 2 children");
      }
      std::unique_ptr<Operator> build, probe;
      TB_ASSIGN_OR_RETURN(
          build,
          BuildOperator(*node.children[0], resolver, in_sets, ctx, registry));
      TB_ASSIGN_OR_RETURN(
          probe,
          BuildOperator(*node.children[1], resolver, in_sets, ctx, registry));
      std::vector<std::pair<int, int>> key_pos;
      for (const auto& [l, r] : node.hash_keys) {
        int lp = node.children[0]->FindSlot(l);
        int rp = node.children[1]->FindSlot(r);
        if (lp < 0 || rp < 0) {
          return Status::Internal("hash key not found in child output");
        }
        key_pos.emplace_back(lp, rp);
      }
      return reg(std::make_unique<HashJoinOp>(std::move(build),
                                              std::move(probe), key_pos,
                                              std::move(preds), ctx));
    }
    case PlanNode::Kind::kIndexNLJoin: {
      if (node.children.size() != 1) {
        return Status::Internal("IndexNLJoin needs 1 child (outer)");
      }
      std::unique_ptr<Operator> outer;
      TB_ASSIGN_OR_RETURN(
          outer,
          BuildOperator(*node.children[0], resolver, in_sets, ctx, registry));
      const IndexInfo* idx = resolver.FindIndex(node.index_name);
      if (idx == nullptr) return Status::NotFound("index " + node.index_name);
      std::vector<int> outer_pos;
      for (const auto& part : node.seek) {
        if (!part.from_outer) continue;
        int p = node.children[0]->FindSlot(part.outer);
        if (p < 0) {
          return Status::Internal("seek outer slot not in outer output");
        }
        outer_pos.push_back(p);
      }
      return reg(std::make_unique<IndexNLJoinOp>(
          std::move(outer), node.children[0]->output_cols.size(), idx,
          node.seek, std::move(outer_pos), node.index_only, std::move(preds),
          ctx));
    }
    case PlanNode::Kind::kHashAggregate: {
      if (node.children.size() != 1) {
        return Status::Internal("HashAggregate needs 1 child");
      }
      std::unique_ptr<Operator> child;
      TB_ASSIGN_OR_RETURN(
          child,
          BuildOperator(*node.children[0], resolver, in_sets, ctx, registry));
      const PlanNode& c = *node.children[0];
      std::vector<int> group_pos;
      for (const auto& g : node.group_by) {
        int p = c.FindSlot(SlotRef{g.rel, g.col});
        if (p < 0) return Status::Internal("group-by slot not in child");
        group_pos.push_back(p);
      }
      std::vector<int> select_group_idx(node.select.size(), -1);
      std::vector<int> select_distinct_pos;
      for (size_t i = 0; i < node.select.size(); ++i) {
        const auto& s = node.select[i];
        if (s.kind == BoundSelectItem::Kind::kColumn) {
          for (size_t gi = 0; gi < node.group_by.size(); ++gi) {
            if (node.group_by[gi].SameAs(s.column)) {
              select_group_idx[i] = static_cast<int>(gi);
              break;
            }
          }
          if (select_group_idx[i] < 0) {
            return Status::Internal("select column not in group key");
          }
        } else if (s.kind == BoundSelectItem::Kind::kCountDistinct) {
          int p = c.FindSlot(SlotRef{s.column.rel, s.column.col});
          if (p < 0) return Status::Internal("distinct slot not in child");
          select_distinct_pos.push_back(p);
        }
      }
      return reg(std::make_unique<HashAggregateOp>(
          std::move(child), std::move(group_pos), node.select,
          std::move(select_group_idx), std::move(select_distinct_pos), ctx));
    }
    case PlanNode::Kind::kProject: {
      if (node.children.size() != 1) {
        return Status::Internal("Project needs 1 child");
      }
      std::unique_ptr<Operator> child;
      TB_ASSIGN_OR_RETURN(
          child,
          BuildOperator(*node.children[0], resolver, in_sets, ctx, registry));
      std::vector<size_t> positions;
      for (const auto& s : node.select) {
        if (s.kind != BoundSelectItem::Kind::kColumn) {
          return Status::Internal("Project only handles plain columns");
        }
        int p = node.children[0]->FindSlot(SlotRef{s.column.rel, s.column.col});
        if (p < 0) return Status::Internal("project slot not in child");
        positions.push_back(static_cast<size_t>(p));
      }
      return reg(std::make_unique<ProjectOp>(std::move(child),
                                             std::move(positions), ctx));
    }
  }
  return Status::Internal("unknown plan node kind");
}

}  // namespace tabbench
