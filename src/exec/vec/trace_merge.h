#ifndef TABBENCH_EXEC_VEC_TRACE_MERGE_H_
#define TABBENCH_EXEC_VEC_TRACE_MERGE_H_

#include <cstdint>
#include <vector>

#include "exec/exec_context.h"
#include "storage/page_store.h"
#include "util/trace_event.h"

namespace tabbench {
namespace vec {

/// The vectorized executor's determinism contract (DESIGN.md §6e):
///
/// Morsel workers execute through private *recording* ExecContexts (scratch
/// pool, timeout enforcement off), calling the same charge methods in the
/// same per-row order the Volcano operators would — so each worker's trace
/// fragment is coalesced by AppendCheck (exec/exec_context.h) as it is
/// recorded. Fragments are then concatenated in canonical morsel order;
/// AppendRecordedEvent below re-applies exactly the merges AppendCheck would
/// have performed across the fragment boundary, so the concatenation equals
/// the trace a single continuous recording would have produced. Finally
/// ExecContext::Apply replays the canonical trace through the caller's real
/// context, reproducing the serial executor's floating-point operation
/// shapes, pool state, counters, and timeout/fault semantics bit for
/// bit. The doomed-query gate is the same Apply, run on a context over its
/// own cold pool with timeout enforcement off.
///
/// Charges that depend on cross-morsel state (hash spill byte counters,
/// first-occurrence group inserts) cannot be recorded locally. Workers
/// leave a sentinel event in the fragment instead — kTuples with arg 0, a
/// shape no live charge produces — which (a) terminates AppendCheck
/// coalescing runs at the right spot and (b) is replaced during assembly by
/// the real charge block, computed sequentially in canonical order.
inline constexpr TraceEvent kSinkSentinel{TraceEvent::Kind::kTuples, 0};

inline bool IsSinkSentinel(const TraceEvent& ev) {
  return ev.kind == TraceEvent::Kind::kTuples && ev.arg == 0;
}

/// Appends one worker-recorded event onto `dst`, merging across the
/// boundary exactly as AppendCheck would have if recording had been
/// continuous. Only the first events of a fragment can interact with
/// `dst`'s tail; every later event was already coalesced by the worker.
void AppendRecordedEvent(AccessTrace* dst, const TraceEvent& ev);

/// Trace-building primitives for the sequential assembly walk. These mirror
/// ExecContext's recording (AppendCheck for checks, plain pushes for
/// charges) without touching a pool or a clock.
inline void AppendCharge(AccessTrace* dst, TraceEvent::Kind kind,
                         uint64_t arg) {
  dst->push_back({kind, arg});
}
/// `n` repetitions of {ChargeTuples(1); CheckTimeout()} — the aggregate
/// output loop's shape.
void AppendCheckedUnitTuples(AccessTrace* dst, uint64_t n);

/// Mirror of the executor's SpillTracker (exec/operators.cc): same byte
/// counter, same page arithmetic, emitting the same ChargeIoPages events —
/// but into a trace under assembly instead of a live context.
class SpillMirror {
 public:
  explicit SpillMirror(size_t work_mem_pages)
      : work_mem_pages_(work_mem_pages) {}

  void Add(size_t bytes, AccessTrace* dst) {
    bytes_ += bytes;
    size_t pages = bytes_ / kPageSize;
    if (pages > work_mem_pages_) {
      uint64_t over = pages - work_mem_pages_;
      if (over > spilled_) {
        AppendCharge(dst, TraceEvent::Kind::kIoPages, 2 * (over - spilled_));
        spilled_ = over;
      }
    }
  }

  bool spilled() const { return spilled_ > 0; }

 private:
  size_t work_mem_pages_;
  size_t bytes_ = 0;
  uint64_t spilled_ = 0;
};

}  // namespace vec
}  // namespace tabbench

#endif  // TABBENCH_EXEC_VEC_TRACE_MERGE_H_
