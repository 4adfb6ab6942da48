#ifndef TABBENCH_UTIL_TRACE_EVENT_H_
#define TABBENCH_UTIL_TRACE_EVENT_H_

#include <cstdint>
#include <vector>

namespace tabbench {

/// One recorded cost-model charge of a query execution. A query's sequence
/// of charges is a pure function of the plan and the data — the buffer-pool
/// state only decides which *touches* are hits vs. misses, never which
/// pages are touched or in what order. That invariant is what lets the
/// parallel workload runner execute queries concurrently against private
/// session pools and later *replay* the recorded traces through the shared
/// pool, reproducing the sequential timings bit for bit (src/core/runner.h,
/// RunWorkloadParallel) — and what lets the run journal
/// (util/run_journal.h) restore a crashed run's clock and pool state by
/// replaying the journaled traces instead of re-executing queries.
///
/// Lives in util (below exec, where ExecContext records these and
/// ExecContext::Apply replays them) so the journal can serialize traces
/// without inverting the layering.
struct TraceEvent {
  enum class Kind : uint8_t {
    kTouchSeq,      // TouchPage(arg)
    kTouchRandom,   // TouchPageRandom(arg)
    kIoPages,       // ChargeIoPages(arg)
    kTuples,        // ChargeTuples(arg)
    kHashOps,       // ChargeHashOps(arg)
    kTimeoutCheck,  // CheckTimeout() — a potential abort point
    /// arg repetitions of {ChargeTuples(1); CheckTimeout()} — the executor's
    /// per-tuple inner loop, coalesced so traces stay ~2 events per *page*
    /// instead of ~2 per tuple. Replay applies the identical per-repetition
    /// FP add and compare, so coalescing changes neither timings nor the
    /// abort tuple.
    kUnitTuplesChecked,
    /// arg repetitions of {ChargeHashOps(1); CheckTimeout()}.
    kUnitHashChecked,
  };
  Kind kind;
  uint64_t arg = 0;  // PageId for touches, count for charges, 0 for checks
};

using AccessTrace = std::vector<TraceEvent>;

}  // namespace tabbench

#endif  // TABBENCH_UTIL_TRACE_EVENT_H_
