#include "exec/vec/vec_executor.h"

#include <algorithm>
#include <cstring>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "exec/operators.h"
#include "exec/vec/kernels.h"
#include "exec/vec/morsel_scheduler.h"
#include "exec/vec/pipeline.h"
#include "exec/vec/trace_merge.h"
#include "util/fault_injection.h"

namespace tabbench {
namespace vec {

namespace {

uint64_t GetU64LE(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(p[i]) << (8 * i);
  return v;
}
uint32_t GetU32LE(const uint8_t* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(p[i]) << (8 * i);
  return v;
}

/// Column-wise decode of one heap page (record format: [u16 len][TupleCodec
/// bytes], see storage/heap_table.h) straight into typed column arrays —
/// no per-row Tuple or Value materialization on this path.
void DecodePageIntoBatch(const Page* page, ColumnBatch* batch) {
  batch->Clear();
  const uint8_t* data = page->data;
  size_t off = 0;
  const size_t ncols = batch->num_cols();
  for (uint32_t slot = 0; slot < page->num_slots; ++slot) {
    off += 2;  // record length header
    for (size_t c = 0; c < ncols; ++c) {
      Column& col = batch->col(c);
      uint8_t tag = data[off++];
      if (tag == 0) {
        col.AppendNull();
        continue;
      }
      switch (col.type) {
        case TypeId::kInt:
          col.AppendInt(static_cast<int64_t>(GetU64LE(data + off)));
          off += 8;
          break;
        case TypeId::kDouble: {
          uint64_t bits = GetU64LE(data + off);
          off += 8;
          double d;
          std::memcpy(&d, &bits, 8);
          col.AppendDouble(d);
          break;
        }
        case TypeId::kString: {
          uint32_t len = GetU32LE(data + off);
          off += 4;
          col.AppendString(reinterpret_cast<const char*>(data + off), len);
          off += len;
          break;
        }
      }
    }
    batch->FinishRow();
  }
}

bool EvalPreds(const std::vector<CompiledPred>& preds, const Tuple& t) {
  for (const auto& p : preds) {
    if (!p.Eval(t)) return false;
  }
  return true;
}

/// Meaning of one kSinkSentinel in a fragment, in fragment order. The
/// sentinel stands for a charge block that depends on cross-morsel
/// sequential state (spill byte counters, first-occurrence inserts) and is
/// reconstructed during the canonical assembly walk.
struct SentinelInfo {
  enum class Kind {
    kBuildRow,      // hash-join build insert: H(1), spill I/O?, check
    kProbeSpillRow, // spilled-join probe row: H(1), Grace I/O, check
    kAggRow,        // aggregate input row: H(1), check, spills, distinct H's
  };
  Kind kind = Kind::kBuildRow;
  int join_id = -1;    // kBuildRow / kProbeSpillRow
  uint64_t bytes = 0;  // kBuildRow: row bytes; kProbeSpillRow: probe row bytes
  uint32_t row = 0;    // kAggRow: index into the morsel's sink rows
};

/// Everything one morsel produces. Written by exactly one worker; read only
/// after the scheduler's join.
struct MorselOut {
  AccessTrace fragment;
  std::vector<SentinelInfo> sentinels;
  /// Rows that reached the sink, in canonical (source) order.
  std::vector<Tuple> sink_rows;
  /// Build/aggregate sinks: per sink row, the projected key and its
  /// partition (computed where Volcano computes its key projection).
  std::vector<Tuple> sink_keys;
  std::vector<uint8_t> sink_parts;
  /// Aggregate sinks, filled by the canonical partition merge: whether this
  /// row first created its group / first inserted each distinct value.
  std::vector<uint8_t> agg_new_group;
  std::vector<uint8_t> agg_value_new;  // rows * num_distinct_aggs
  /// Replay-cost bounds of `fragment` (pure charges; touches add at most
  /// max_io each). Only computed when the doomed-query gate is active.
  double charge_lower = 0.0;
  double charge_upper = 0.0;
};

/// A completed hash-join breaker: build rows in canonical order plus a
/// fixed-partition hash index over them. Immutable once its pipeline's
/// merge finishes; probe morsels read it concurrently.
struct JoinTable {
  std::vector<Tuple> rows;
  std::vector<std::unordered_map<Tuple, std::vector<uint32_t>, TupleHash>>
      parts{kVecPartitions};
  bool spilled = false;
};

struct AggGroupState {
  uint64_t count = 0;
  std::vector<std::unordered_set<Value, ValueHash>> distinct;
};

/// One aggregate partition: groups in first-occurrence order.
struct AggPartition {
  std::unordered_map<Tuple, size_t, TupleHash> index;
  std::vector<Tuple> keys;
  std::vector<AggGroupState> groups;
};

class VecExecutor {
 public:
  VecExecutor(const VecPlan& vplan, ExecContext* ctx,
              const VecExecOptions& options)
      : vplan_(vplan),
        ctx_(ctx),
        options_(options),
        gate_pool_(ctx->pool()->capacity()),
        gate_ctx_(ctx->store(), &gate_pool_, ctx->params()) {
    // Doomed-query gate (see ExecContext::set_record_budget): once the
    // canonical cold replay passes limit + capacity * max_io, the apply
    // step is guaranteed to abort inside the already-assembled prefix. The
    // cold replay starts where the query's clock stands (IN-set
    // materialization has already charged it) and never enforces.
    gate_ctx_.set_enforce_timeout(false);
    gate_ctx_.AdvanceClock(ctx->sim_time());
    double limit = 0.0;
    if (ctx->enforce_timeout()) limit = ctx->params().timeout_seconds;
    if (ctx->record_budget() > 0.0 &&
        (limit == 0.0 || ctx->record_budget() < limit)) {
      limit = ctx->record_budget();
    }
    if (limit > 0.0) {
      double max_io = std::max(ctx->params().page_io_seconds,
                               ctx->params().random_io_seconds);
      gate_ = limit + static_cast<double>(ctx->pool()->capacity()) * max_io;
    }
    joins_.resize(vplan.num_joins);
    for (auto& j : joins_) j = std::make_unique<JoinTable>();
    probe_spill_bytes_.assign(vplan.num_joins, 0);
  }

  Result<QueryResult> Run() {
    for (const Pipeline& p : vplan_.pipelines) {
      TB_RETURN_IF_ERROR(RunPipeline(p));
      if (doomed_) break;
    }
    if (doomed_) {
      // The gate proves an abort inside the assembled prefix; a trailing
      // check is a deterministic backstop in case the crossing fell after
      // the prefix's last recorded check.
      AppendCheck(&trace_);
    }
    Status applied = ctx_->Apply(trace_);
    if (!applied.ok()) {
      if (!applied.IsTimeout()) return applied;
      return FinishQuery(*ctx_, /*timed_out=*/true, {});
    }
    return FinishQuery(*ctx_, /*timed_out=*/false, std::move(result_rows_));
  }

 private:
  // ------------------------------------------------------------- pipeline

  Status RunPipeline(const Pipeline& p) {
    size_t n_morsels;
    size_t pages_per_morsel = std::max<size_t>(1, options_.morsel_pages);
    if (p.source == Pipeline::SourceKind::kHeapScan) {
      size_t pages = p.heap->num_pages();
      n_morsels = (pages + pages_per_morsel - 1) / pages_per_morsel;
    } else {
      // Index sources use the real B+-tree iterators (worker-context touch
      // callbacks), which are sequential by nature: one morsel.
      n_morsels = 1;
    }

    std::vector<MorselOut> outs(n_morsels);
    MorselScheduler::Options sopt;
    sopt.pool = options_.pool;
    sopt.max_helpers = options_.max_parallelism;
    if (gate_ > 0.0) sopt.abort_seconds = gate_ - gate_ctx_.sim_time() + 1.0;
    Status error;
    size_t completed = MorselScheduler::Run(
        n_morsels,
        [&](size_t i, MorselReport* report) {
          return RunMorsel(p, i, pages_per_morsel, &outs[i], report);
        },
        sopt, &error);
    TB_RETURN_IF_ERROR(error);

    // Canonical partition merge: aggregate sinks need their first-occurrence
    // flags before assembly can reconstruct the sentinel blocks.
    if (p.sink.kind == Sink::Kind::kAggregate) {
      MergeAggregate(p, outs, completed);
    }

    // Sequential assembly in morsel order, with the deterministic doomed cut.
    SpillMirror spill(ctx_->params().work_mem_pages);
    for (size_t i = 0; i < completed && !doomed_; ++i) {
      AssembleFragment(p, outs[i], &spill);
      if (gate_ > 0.0) {
        pending_upper_ += outs[i].charge_upper;
        AdvanceGate();
      }
    }
    if (doomed_) return Status::OK();
    if (completed < n_morsels) {
      // Runtime doomed-abort stopped dispatch but the sequential gate did
      // not confirm within the completed prefix (its +1.0 s slack): the
      // remaining morsels must still run for exactness.
      Status err2;
      MorselScheduler::Options resume = sopt;
      resume.abort_seconds = 0.0;
      size_t more = MorselScheduler::Run(
          n_morsels - completed,
          [&](size_t i, MorselReport* report) {
            return RunMorsel(p, completed + i, pages_per_morsel,
                             &outs[completed + i], report);
          },
          resume, &err2);
      TB_RETURN_IF_ERROR(err2);
      if (p.sink.kind == Sink::Kind::kAggregate) {
        MergeAggregate(p, outs, n_morsels);
      }
      for (size_t i = completed; i < completed + more; ++i) {
        AssembleFragment(p, outs[i], &spill);
      }
      completed = n_morsels;
    }

    // End of source: Volcano's scan operators issue one final check when
    // the cursor/iterator is exhausted.
    AppendCheck(&trace_);

    switch (p.sink.kind) {
      case Sink::Kind::kBuild: {
        JoinTable* jt = joins_[static_cast<size_t>(p.sink.join_id)].get();
        jt->spilled = spill.spilled();
        MergeBuild(outs, jt);
        break;
      }
      case Sink::Kind::kCollectProject:
        for (auto& out : outs) {
          for (auto& t : out.sink_rows) result_rows_.push_back(std::move(t));
        }
        break;
      case Sink::Kind::kAggregate:
        EmitAggregateOutput(p);
        break;
    }
    if (gate_ > 0.0) AdvanceGate();
    return Status::OK();
  }

  /// Once the assembled-but-unreplayed upper bound could carry the cold
  /// clock past the gate, replays the trace assembled since the last call
  /// on the gate's cold context and marks the query doomed if its clock did
  /// pass. Coalescing may still grow the last replayed event; the gate then
  /// undercounts, which only delays the cut. A fault latched by this
  /// query's morsels must surface in the real apply, not here, hence
  /// ApplyIsolated.
  void AdvanceGate() {
    if (gate_ctx_.sim_time() + pending_upper_ <= gate_) return;
    // Enforcement off, no token, no fault in scope: no check can fail.
    (void)ApplyIsolated(&gate_ctx_, trace_, gate_pos_);
    gate_pos_ = trace_.size();
    pending_upper_ = 0.0;
    if (gate_ctx_.sim_time() > gate_) doomed_ = true;
  }

  // --------------------------------------------------------- morsel (worker)

  /// Per-morsel state threaded through the row loop.
  struct MorselCtx {
    const Pipeline* pipeline = nullptr;
    ExecContext* wctx = nullptr;
    MorselOut* out = nullptr;
  };

  Status RunMorsel(const Pipeline& p, size_t index, size_t pages_per_morsel,
                   MorselOut* out, MorselReport* report) {
    TB_FAULT_POINT("exec.vec.morsel");
    BufferPool scratch(ctx_->pool()->capacity());
    ExecContext wctx(ctx_->store(), &scratch, ctx_->params());
    wctx.set_enforce_timeout(false);
    wctx.set_trace(&out->fragment);
    MorselCtx m;
    m.pipeline = &p;
    m.wctx = &wctx;
    m.out = out;
    Status s = p.source == Pipeline::SourceKind::kHeapScan
                   ? RunHeapMorsel(p, index * pages_per_morsel,
                                   std::min(p.heap->num_pages(),
                                            (index + 1) * pages_per_morsel),
                                   &m)
                   : RunIndexMorsel(p, &m);
    if (!s.ok()) return s;
    if (p.sink.kind == Sink::Kind::kAggregate) {
      out->agg_new_group.assign(out->sink_rows.size(), 0);
      out->agg_value_new.assign(
          out->sink_rows.size() * p.sink.num_distinct_aggs, 0);
    }
    if (gate_ > 0.0) {
      ComputeChargeBounds(out);
      report->charge_seconds_lower_bound = out->charge_lower;
    }
    return Status::OK();
  }

  Status RunHeapMorsel(const Pipeline& p, size_t begin_page, size_t end_page,
                       MorselCtx* m) {
    ColumnBatch batch(p.source_types);
    std::vector<uint8_t> pass;
    for (size_t pg = begin_page; pg < end_page; ++pg) {
      PageId pid = p.heap->pages()[pg];
      m->wctx->TouchPage(pid);
      DecodePageIntoBatch(ctx_->store()->GetPage(pid), &batch);
      FilterBatch(batch, p.source_preds, &pass);
      for (size_t r = 0; r < batch.num_rows(); ++r) {
        m->wctx->ChargeTuples(1);
        TB_RETURN_IF_ERROR(m->wctx->CheckTimeout());
        if (!pass[r]) continue;
        TB_RETURN_IF_ERROR(ProcessRow(batch.RowAsTuple(r), 0, m));
      }
    }
    return Status::OK();
  }

  Status RunIndexMorsel(const Pipeline& p, MorselCtx* m) {
    ExecContext* wctx = m->wctx;
    BTree::Iterator iter =
        p.prefix.empty()
            ? p.index->btree->ScanAll(
                  [wctx](PageId id) { wctx->TouchPage(id); })
            : p.index->btree->SeekPrefix(
                  p.prefix, [wctx](PageId id) { wctx->TouchPageRandom(id); });
    IndexKey key;
    Rid rid;
    while (iter.Next(&key, &rid)) {
      wctx->ChargeTuples(1);
      TB_RETURN_IF_ERROR(wctx->CheckTimeout());
      Tuple t;
      if (p.index_only) {
        t = Tuple(std::move(key));
      } else {
        auto fetched = p.index->heap->Fetch(
            rid, [wctx](PageId id) { wctx->TouchPageRandom(id); });
        if (!fetched.ok()) return fetched.status();
        wctx->ChargeTuples(1);
        t = fetched.TakeValue();
      }
      if (!EvalPreds(p.source_preds, t)) continue;
      TB_RETURN_IF_ERROR(ProcessRow(std::move(t), 0, m));
    }
    return Status::OK();
  }

  /// Runs one row through the probe stages from `si` on, charging the
  /// worker context in exactly the order the Volcano operators interleave
  /// their charges per row.
  Status ProcessRow(Tuple t, size_t si, MorselCtx* m) {
    const Pipeline& p = *m->pipeline;
    if (si == p.stages.size()) {
      return SinkRow(std::move(t), m);
    }
    const ProbeStage& st = p.stages[si];
    if (st.kind == ProbeStage::Kind::kHashProbe) {
      const JoinTable& jt = *joins_[static_cast<size_t>(st.join_id)];
      if (jt.spilled) {
        // H(1) + Grace probe-stream I/O + check depend on the sequential
        // spill byte counter: leave a sentinel for the assembly walk.
        m->out->fragment.push_back(kSinkSentinel);
        SentinelInfo info;
        info.kind = SentinelInfo::Kind::kProbeSpillRow;
        info.join_id = st.join_id;
        info.bytes = t.ByteSize();
        m->out->sentinels.push_back(info);
      } else {
        m->wctx->ChargeHashOps(1);
        TB_RETURN_IF_ERROR(m->wctx->CheckTimeout());
      }
      Tuple key = ProjectKey(t, st.probe_key_pos);
      size_t part = key.Hash() % kVecPartitions;
      auto it = jt.parts[part].find(key);
      if (it == jt.parts[part].end()) return Status::OK();
      for (uint32_t ord : it->second) {
        Tuple joined = Tuple::Concat(jt.rows[ord], t);
        m->wctx->ChargeTuples(1);
        TB_RETURN_IF_ERROR(m->wctx->CheckTimeout());
        if (!EvalPreds(st.preds, joined)) continue;
        TB_RETURN_IF_ERROR(ProcessRow(std::move(joined), si + 1, m));
      }
      return Status::OK();
    }
    // Index nested-loop probe.
    TB_RETURN_IF_ERROR(m->wctx->CheckTimeout());
    IndexKey prefix;
    prefix.reserve(st.seek.size());
    size_t outer_i = 0;
    for (const auto& part : st.seek) {
      if (part.from_outer) {
        prefix.push_back(
            t.at(static_cast<size_t>(st.seek_outer_pos[outer_i++])));
      } else {
        prefix.push_back(part.literal);
      }
    }
    ExecContext* wctx = m->wctx;
    BTree::Iterator iter = st.index->btree->SeekPrefix(
        prefix, [wctx](PageId id) { wctx->TouchPageRandom(id); });
    IndexKey key;
    Rid rid;
    while (iter.Next(&key, &rid)) {
      wctx->ChargeTuples(1);
      TB_RETURN_IF_ERROR(wctx->CheckTimeout());
      Tuple inner_row;
      if (st.index_only) {
        inner_row = Tuple(std::move(key));
      } else {
        auto fetched = st.index->heap->Fetch(
            rid, [wctx](PageId id) { wctx->TouchPageRandom(id); });
        if (!fetched.ok()) return fetched.status();
        wctx->ChargeTuples(1);
        inner_row = fetched.TakeValue();
      }
      Tuple joined = Tuple::Concat(t, inner_row);
      if (!EvalPreds(st.preds, joined)) continue;
      TB_RETURN_IF_ERROR(ProcessRow(std::move(joined), si + 1, m));
    }
    return Status::OK();
  }

  Status SinkRow(Tuple t, MorselCtx* m) {
    const Sink& sink = m->pipeline->sink;
    MorselOut* out = m->out;
    switch (sink.kind) {
      case Sink::Kind::kCollectProject:
        m->wctx->ChargeTuples(1);  // ProjectOp charges without a check
        out->sink_rows.push_back(t.Project(sink.positions));
        break;
      case Sink::Kind::kBuild: {
        out->fragment.push_back(kSinkSentinel);
        SentinelInfo info;
        info.kind = SentinelInfo::Kind::kBuildRow;
        info.join_id = sink.join_id;
        info.bytes = t.ByteSize();
        out->sentinels.push_back(info);
        Tuple key = ProjectKey(t, sink.build_key_pos);
        out->sink_parts.push_back(
            static_cast<uint8_t>(key.Hash() % kVecPartitions));
        out->sink_keys.push_back(std::move(key));
        out->sink_rows.push_back(std::move(t));
        break;
      }
      case Sink::Kind::kAggregate: {
        out->fragment.push_back(kSinkSentinel);
        SentinelInfo info;
        info.kind = SentinelInfo::Kind::kAggRow;
        info.row = static_cast<uint32_t>(out->sink_rows.size());
        out->sentinels.push_back(info);
        Tuple key = ProjectKey(t, sink.group_pos);
        out->sink_parts.push_back(
            static_cast<uint8_t>(key.Hash() % kVecPartitions));
        out->sink_keys.push_back(std::move(key));
        out->sink_rows.push_back(std::move(t));
        break;
      }
    }
    return Status::OK();
  }

  static Tuple ProjectKey(const Tuple& t, const std::vector<int>& pos) {
    std::vector<Value> vals;
    vals.reserve(pos.size());
    for (int p : pos) vals.push_back(t.at(static_cast<size_t>(p)));
    return Tuple(std::move(vals));
  }

  /// Pure-charge replay bounds of a fragment: lower excludes touches (they
  /// may all hit), upper prices every touch as the dearest miss. Sentinels
  /// (arg 0) contribute nothing — a lower bound stays a lower bound.
  void ComputeChargeBounds(MorselOut* out) const {
    const CostParams& par = ctx_->params();
    double max_io = std::max(par.page_io_seconds, par.random_io_seconds);
    double lower = 0.0;
    double upper = 0.0;
    for (const TraceEvent& ev : out->fragment) {
      switch (ev.kind) {
        case TraceEvent::Kind::kTouchSeq:
        case TraceEvent::Kind::kTouchRandom:
          upper += max_io;
          break;
        case TraceEvent::Kind::kIoPages:
          lower += static_cast<double>(ev.arg) * par.page_io_seconds;
          break;
        case TraceEvent::Kind::kTuples:
        case TraceEvent::Kind::kUnitTuplesChecked:
          lower += static_cast<double>(ev.arg) * par.cpu_tuple_seconds;
          break;
        case TraceEvent::Kind::kHashOps:
        case TraceEvent::Kind::kUnitHashChecked:
          lower += static_cast<double>(ev.arg) * par.cpu_hash_seconds;
          break;
        case TraceEvent::Kind::kTimeoutCheck:
          break;
      }
    }
    out->charge_lower = lower;
    out->charge_upper = lower + upper;
  }

  // ---------------------------------------------------------------- merge

  void MergeBuild(std::vector<MorselOut>& outs, JoinTable* jt) {
    std::vector<size_t> offsets(outs.size(), 0);
    size_t total = 0;
    for (size_t i = 0; i < outs.size(); ++i) {
      offsets[i] = total;
      total += outs[i].sink_rows.size();
    }
    jt->rows.resize(total);
    ParallelFor(
        options_.pool, outs.size(),
        [&](size_t i) {
          for (size_t r = 0; r < outs[i].sink_rows.size(); ++r) {
            jt->rows[offsets[i] + r] = std::move(outs[i].sink_rows[r]);
          }
        },
        [](size_t, Status) {});
    ParallelFor(
        options_.pool, kVecPartitions,
        [&](size_t part) {
          for (size_t i = 0; i < outs.size(); ++i) {
            MorselOut& out = outs[i];
            for (size_t r = 0; r < out.sink_keys.size(); ++r) {
              if (out.sink_parts[r] != part) continue;
              jt->parts[part][std::move(out.sink_keys[r])].push_back(
                  static_cast<uint32_t>(offsets[i] + r));
            }
          }
        },
        [](size_t, Status) {});
  }

  /// Walks sink rows in canonical order per partition, building the final
  /// group states and stamping each row's first-occurrence flags (disjoint
  /// row slots per partition — no synchronization needed).
  void MergeAggregate(const Pipeline& p, std::vector<MorselOut>& outs,
                      size_t completed) {
    size_t num_distinct = p.sink.num_distinct_aggs;
    agg_parts_.assign(kVecPartitions, AggPartition{});
    ParallelFor(
        options_.pool, kVecPartitions,
        [&](size_t part) {
          AggPartition& ap = agg_parts_[part];
          for (size_t i = 0; i < completed; ++i) {
            MorselOut& out = outs[i];
            for (size_t r = 0; r < out.sink_keys.size(); ++r) {
              if (out.sink_parts[r] != part) continue;
              auto [it, inserted] =
                  ap.index.try_emplace(out.sink_keys[r], ap.keys.size());
              if (inserted) {
                ap.keys.push_back(out.sink_keys[r]);
                ap.groups.emplace_back();
                ap.groups.back().distinct.resize(num_distinct);
                out.agg_new_group[r] = 1;
              }
              AggGroupState& g = ap.groups[it->second];
              ++g.count;
              for (size_t d = 0; d < num_distinct; ++d) {
                const Value& v = out.sink_rows[r].at(
                    static_cast<size_t>(p.sink.select_distinct_pos[d]));
                auto [vit, vinserted] = g.distinct[d].insert(v);
                (void)vit;
                if (vinserted) out.agg_value_new[r * num_distinct + d] = 1;
              }
            }
          }
        },
        [](size_t, Status) {});
  }

  // ------------------------------------------------------------- assembly

  void AssembleFragment(const Pipeline& p, const MorselOut& out,
                        SpillMirror* spill) {
    size_t sent_i = 0;
    for (const TraceEvent& ev : out.fragment) {
      if (!IsSinkSentinel(ev)) {
        AppendRecordedEvent(&trace_, ev);
        continue;
      }
      const SentinelInfo& info = out.sentinels[sent_i++];
      switch (info.kind) {
        case SentinelInfo::Kind::kBuildRow:
          AppendCharge(&trace_, TraceEvent::Kind::kHashOps, 1);
          spill->Add(info.bytes + 24, &trace_);
          AppendCheck(&trace_);
          break;
        case SentinelInfo::Kind::kProbeSpillRow: {
          AppendCharge(&trace_, TraceEvent::Kind::kHashOps, 1);
          size_t& acc = probe_spill_bytes_[static_cast<size_t>(info.join_id)];
          acc += info.bytes;
          while (acc >= kPageSize) {
            AppendCharge(&trace_, TraceEvent::Kind::kIoPages, 2);
            acc -= kPageSize;
          }
          AppendCheck(&trace_);
          break;
        }
        case SentinelInfo::Kind::kAggRow: {
          AppendCharge(&trace_, TraceEvent::Kind::kHashOps, 1);
          AppendCheck(&trace_);
          size_t r = info.row;
          size_t num_distinct = p.sink.num_distinct_aggs;
          if (out.agg_new_group[r]) {
            spill->Add(out.sink_keys[r].ByteSize() + 32, &trace_);
          }
          for (size_t d = 0; d < num_distinct; ++d) {
            if (out.agg_value_new[r * num_distinct + d]) {
              const Value& v = out.sink_rows[r].at(
                  static_cast<size_t>(p.sink.select_distinct_pos[d]));
              spill->Add(v.ByteSize() + 16, &trace_);
            }
            AppendCharge(&trace_, TraceEvent::Kind::kHashOps, 1);
          }
          break;
        }
      }
    }
  }

  /// Aggregate output phase: one checked unit-tuple charge per group, rows
  /// emitted in partition-major first-occurrence order (deterministic and
  /// thread-count independent; Volcano's hash-iteration order differs, so
  /// result comparisons treat aggregate outputs as a multiset).
  void EmitAggregateOutput(const Pipeline& p) {
    const Sink& sink = p.sink;
    size_t num_groups = 0;
    for (const auto& ap : agg_parts_) num_groups += ap.keys.size();
    bool scalar_empty = num_groups == 0 && sink.group_pos.empty();
    uint64_t out_rows = scalar_empty ? 1 : num_groups;
    AppendCheckedUnitTuples(&trace_, out_rows);
    auto emit = [&](const Tuple& key, const AggGroupState& g) {
      std::vector<Value> vals;
      vals.reserve(sink.select.size());
      size_t di = 0;
      for (size_t si = 0; si < sink.select.size(); ++si) {
        switch (sink.select[si].kind) {
          case BoundSelectItem::Kind::kColumn:
            vals.push_back(
                key.at(static_cast<size_t>(sink.select_group_idx[si])));
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
      result_rows_.push_back(Tuple(std::move(vals)));
    };
    if (scalar_empty) {
      AggGroupState g;
      g.distinct.resize(sink.num_distinct_aggs);
      emit(Tuple(), g);
      return;
    }
    for (const auto& ap : agg_parts_) {
      for (size_t s = 0; s < ap.keys.size(); ++s) emit(ap.keys[s], ap.groups[s]);
    }
  }

  const VecPlan& vplan_;
  ExecContext* ctx_;
  VecExecOptions options_;
  BufferPool gate_pool_;
  ExecContext gate_ctx_;       // the gate's cold replay of trace_[0, gate_pos_)
  size_t gate_pos_ = 0;
  double gate_ = 0.0;          // 0 = no timeout/budget to race against
  double pending_upper_ = 0.0;  // assembled-but-not-replayed upper bound
  bool doomed_ = false;
  AccessTrace trace_;
  std::vector<std::unique_ptr<JoinTable>> joins_;
  std::vector<size_t> probe_spill_bytes_;  // per join, Grace probe counter
  std::vector<AggPartition> agg_parts_;
  std::vector<Tuple> result_rows_;
};

}  // namespace

Result<QueryResult> ExecutePlanVectorized(const PhysicalPlan& plan,
                                          const ObjectResolver& resolver,
                                          ExecContext* ctx,
                                          const VecExecOptions& options) {
  // Dry-run compile against empty IN-sets first: an Unsupported plan must
  // be rejected before any charge lands on ctx, so the Volcano fallback
  // replays the query from scratch without double counting.
  {
    InSets probe_sets(plan.in_sets.size());
    auto probe = CompileVecPlan(plan, resolver, probe_sets);
    if (!probe.ok()) return probe.status();
  }

  // IN-subquery sets are real query work, charged live to ctx by the same
  // helper the Volcano driver uses (exec/in_set.h).
  auto in_sets = MaterializeInSets(plan, resolver, ctx);
  if (!in_sets.ok()) {
    if (!in_sets.status().IsTimeout()) return in_sets.status();
    return FinishQuery(*ctx, /*timed_out=*/true, {});
  }

  VecPlan vplan;
  TB_ASSIGN_OR_RETURN(vplan, CompileVecPlan(plan, resolver, *in_sets));
  VecExecutor exec(vplan, ctx, options);
  return exec.Run();
}

}  // namespace vec
}  // namespace tabbench
