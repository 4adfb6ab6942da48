#include "exec/exec_context.h"

namespace tabbench {

Status ExecContext::Apply(const AccessTrace& trace, size_t from) {
  for (size_t i = from; i < trace.size(); ++i) {
    const TraceEvent& ev = trace[i];
    switch (ev.kind) {
      case TraceEvent::Kind::kTouchSeq:
        TouchPage(ev.arg);
        break;
      case TraceEvent::Kind::kTouchRandom:
        TouchPageRandom(ev.arg);
        break;
      case TraceEvent::Kind::kIoPages:
        ChargeIoPages(ev.arg);
        break;
      case TraceEvent::Kind::kTuples:
        ChargeTuples(ev.arg);
        break;
      case TraceEvent::Kind::kHashOps:
        ChargeHashOps(ev.arg);
        break;
      case TraceEvent::Kind::kTimeoutCheck:
        TB_RETURN_IF_ERROR(CheckTimeout());
        break;
      case TraceEvent::Kind::kUnitTuplesChecked:
        // The executor's per-tuple loop, repetition by repetition, so the
        // replay trips (or doesn't) at exactly the same tuple.
        for (uint64_t k = 0; k < ev.arg; ++k) {
          ChargeTuples(1);
          TB_RETURN_IF_ERROR(CheckTimeout());
        }
        break;
      case TraceEvent::Kind::kUnitHashChecked:
        for (uint64_t k = 0; k < ev.arg; ++k) {
          ChargeHashOps(1);
          TB_RETURN_IF_ERROR(CheckTimeout());
        }
        break;
    }
  }
  return Status::OK();
}

Status ExecContext::Interruption() const {
  if (TimedOut()) return Status::Timeout("query exceeded timeout");
  if (OverBudget()) return Status::Timeout("record budget exceeded");
  return FaultRegistry::TakePending();
}

}  // namespace tabbench
