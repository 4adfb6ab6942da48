#include "exec/vec/trace_merge.h"

namespace tabbench {
namespace vec {

void AppendRecordedEvent(AccessTrace* dst, const TraceEvent& ev) {
  switch (ev.kind) {
    case TraceEvent::Kind::kTimeoutCheck:
      // A fragment-leading bare check meets the tail of the previous
      // fragment for the first time here; AppendCheck's rules apply.
      AppendCheck(dst);
      return;
    case TraceEvent::Kind::kUnitTuplesChecked:
    case TraceEvent::Kind::kUnitHashChecked:
      // A fragment-leading unit run would have merged into a same-kind run
      // under continuous recording; any other tail takes a plain push
      // (AppendCheck never pops through a completed unit run).
      if (!dst->empty() && dst->back().kind == ev.kind) {
        dst->back().arg += ev.arg;
        return;
      }
      dst->push_back(ev);
      return;
    default:
      dst->push_back(ev);
      return;
  }
}

void AppendCheckedUnitTuples(AccessTrace* dst, uint64_t n) {
  for (uint64_t i = 0; i < n; ++i) {
    AppendCharge(dst, TraceEvent::Kind::kTuples, 1);
    AppendCheck(dst);
  }
}

}  // namespace vec
}  // namespace tabbench
