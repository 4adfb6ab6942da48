#ifndef TABBENCH_UTIL_FAULT_INJECTION_H_
#define TABBENCH_UTIL_FAULT_INJECTION_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace tabbench {

/// Deterministic fault injection — the chaos layer the benchmark methodology
/// implies: the paper's runs survive misbehaving queries (30-minute timeouts
/// charged conservatively, one commercial advisor that "fails outright" on
/// NREF3J, Section 4.1/5), so the harness must keep producing valid results
/// when storage or the engine throws errors. This registry lets tests and
/// operators *schedule* such errors deterministically.
///
/// A *fault point* is a named site in the code (`TB_FAULT_POINT` /
/// `TB_FAULT_TRIGGER` below). Arming a point attaches a FaultSpec deciding
/// when the site fires and which Status it injects. Decisions are pure
/// functions of (spec, hit index, scope seed) — no hidden RNG state — so a
/// fixed fault schedule reproduces bit-identically across serial and
/// parallel execution, and across a crash and resume.
///
/// Wired points (see DESIGN.md "Fault injection & resilience"):
///   storage.page_read      PageStore::GetPage (read path; latched)
///   storage.page_alloc     PageStore::Allocate (latched)
///   storage.heap_fetch     HeapTable::Fetch (direct)
///   storage.heap_scan      HeapTable::Cursor page advance (latched)
///   storage.btree_descend  BTree::FindLeaf (latched)
///   engine.finish_load     Database::FinishLoad (direct)
///   engine.apply_config    Database::ApplyConfiguration (direct)
///   engine.query           Database::Run / RunWithContext entry (direct)
///   exec.vec.morsel        VecExecutor morsel body entry (direct; fires
///                          only on the thread that owns the FaultScope —
///                          helper threads carry no scope, so schedules
///                          stay attempt-granular under parallelism)
///   util.task_spawn        ThreadPool::Submit (direct)
///
/// *Direct* points return the injected Status from a Status/Result-returning
/// function. *Latched* points sit in functions that cannot propagate a
/// Status (page accessors, cursors); a firing latched fault is parked in the
/// executing thread's FaultScope and surfaces at the next
/// ExecContext::CheckTimeout() safe point — the same cooperative unwind a
/// timeout uses, so no state is corrupted mid-operation.
struct FaultSpec {
  enum class Trigger {
    /// Fires on the first hit (per scope; globally when unscoped).
    kOnce,
    /// Fires on exactly the nth hit (1-based).
    kNth,
    /// Fires on each hit independently with probability `probability`,
    /// decided by a deterministic hash of (seed, scope seed, hit index).
    kProbability,
  };

  std::string point;
  Status::Code code = Status::Code::kUnavailable;
  Trigger trigger = Trigger::kOnce;
  uint64_t nth = 1;
  double probability = 0.0;
  uint64_t seed = 0;
};

/// Per-point counters (monotone since arming).
struct FaultPointStats {
  uint64_t hits = 0;   // times the site was evaluated
  uint64_t fires = 0;  // times a fault was injected
};

/// Number of armed fault points; the macros below gate on this so an
/// unarmed build pays one relaxed atomic load per site.
extern std::atomic<int> g_fault_points_armed;
inline bool FaultInjectionArmed() {
  return g_fault_points_armed.load(std::memory_order_relaxed) != 0;
}

/// Scopes fault decisions to one logical unit of work (one workload query)
/// on the current thread, RAII-nested. While a scope is active, every
/// point's hit index counts *within the scope*, and probability decisions
/// mix in the scope seed. Because a query's sequence
/// of storage touches is a pure function of plan and data (the trace
/// invariant, util/trace_event.h), giving query k the scope seed k makes
/// its fault schedule identical whether the workload runs serially or on a
/// parallel worker — the bit-identity contract of RunWorkloadParallel.
///
/// A scope also carries the *latched* fault parked by trigger-style points.
class FaultScope {
 public:
  explicit FaultScope(uint64_t scope_seed);
  ~FaultScope();

  FaultScope(const FaultScope&) = delete;
  FaultScope& operator=(const FaultScope&) = delete;

  /// Innermost active scope on this thread, or nullptr.
  static FaultScope* Current();

  uint64_t seed() const { return seed_; }

 private:
  friend class FaultRegistry;

  uint64_t seed_;
  FaultScope* prev_;
  std::map<std::string, uint64_t> hits_;  // per-point local hit counts
  Status pending_;                        // latched fault, if any
};

/// Process-wide registry of armed fault points. Thread-safe; hot-path cost
/// when nothing is armed is one relaxed atomic load (see the macros).
class FaultRegistry {
 public:
  /// The process registry. First access arms every spec in the
  /// TABBENCH_FAULTS environment variable (see ParseSpec for the grammar);
  /// malformed specs are reported on stderr and skipped.
  static FaultRegistry& Global();

  /// Arms (or re-arms, resetting counters) one point.
  Status Arm(FaultSpec spec) TB_EXCLUDES(mu_);

  /// Arms every spec in a `;`-separated schedule string.
  Status ArmFromString(const std::string& schedule) TB_EXCLUDES(mu_);

  /// Parses one spec: `point=code@trigger[:arg[:seed]]`, e.g.
  ///   storage.heap_fetch=unavailable@nth:3
  ///   storage.page_read=internal@prob:0.01:7
  ///   engine.apply_config=resource_exhausted@once
  /// Codes: unavailable, resource_exhausted, internal, timeout, cancelled,
  /// not_found, invalid_argument, unsupported, already_exists. Each number
  /// must be the whole of its field in std::from_chars form: no '+', no
  /// space, no overflow. nth and seed are unsigned decimal integers
  /// (nth >= 1); prob is a decimal number in [0,1], NaN excluded.
  static Result<FaultSpec> ParseSpec(const std::string& spec);

  void Disarm(const std::string& point) TB_EXCLUDES(mu_);
  void DisarmAll() TB_EXCLUDES(mu_);

  /// Evaluates `point` at a Status-returning site: OK when the point is
  /// unarmed or does not fire, otherwise the injected Status.
  Status Check(const char* point) TB_EXCLUDES(mu_);

  /// Evaluates `point` at a site that cannot return Status. A firing fault
  /// is latched into the current FaultScope and surfaced at the next
  /// ExecContext::CheckTimeout(); without an active scope the fire is
  /// counted in dropped_fires() and otherwise ignored.
  void Trigger(const char* point) TB_EXCLUDES(mu_);

  /// Consumes the latched fault of this thread's scope, if any.
  static Status TakePending();

  FaultPointStats stats(const std::string& point) const TB_EXCLUDES(mu_);
  uint64_t dropped_fires() const TB_EXCLUDES(mu_);
  std::vector<std::string> armed_points() const TB_EXCLUDES(mu_);

 private:
  struct Point {
    FaultSpec spec;
    FaultPointStats stats;  // global counters (scoped hits count here too)
  };

  /// Decides and accounts one evaluation; returns the injected Status or OK.
  Status Evaluate(const char* point) TB_EXCLUDES(mu_);

  mutable Mutex mu_;
  std::map<std::string, Point> points_ TB_GUARDED_BY(mu_);
  uint64_t dropped_fires_ TB_GUARDED_BY(mu_) = 0;
};

/// Declares a fault point in a Status/Result-returning function: returns
/// the injected Status when armed and firing, else falls through.
#define TB_FAULT_POINT(point)                                         \
  do {                                                                \
    if (::tabbench::FaultInjectionArmed()) {                          \
      ::tabbench::Status _fault =                                     \
          ::tabbench::FaultRegistry::Global().Check(point);           \
      if (!_fault.ok()) return _fault;                                \
    }                                                                 \
  } while (0)

/// Declares a fault point in a function that cannot propagate Status; a
/// firing fault is latched and surfaces at the next executor safe point.
#define TB_FAULT_TRIGGER(point)                                       \
  do {                                                                \
    if (::tabbench::FaultInjectionArmed()) {                          \
      ::tabbench::FaultRegistry::Global().Trigger(point);             \
    }                                                                 \
  } while (0)

}  // namespace tabbench

#endif  // TABBENCH_UTIL_FAULT_INJECTION_H_
