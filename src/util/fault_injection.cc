#include "util/fault_injection.h"

#include <charconv>
#include <cstdio>
#include <cstdlib>

namespace tabbench {
namespace {

thread_local FaultScope* tls_scope = nullptr;

/// SplitMix64 finalizer: a full-avalanche mix so that consecutive hit
/// indices produce statistically independent decision draws.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t HashName(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Deterministic uniform draw in [0, 1) for one (spec, scope, hit) triple.
/// Pure function of its inputs — evaluation order across threads cannot
/// change any decision, which is what makes a fixed fault schedule
/// reproduce bit-identically in serial and parallel runs.
double DecisionDraw(uint64_t spec_seed, uint64_t scope_seed,
                    uint64_t name_hash, uint64_t hit_index) {
  uint64_t h = Mix64(name_hash + 0x9e3779b97f4a7c15ULL * hit_index);
  h = Mix64(spec_seed ^ Mix64(scope_seed ^ h));
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

Status MakeInjected(Status::Code code, const std::string& point) {
  std::string msg = "injected fault at " + point;
  switch (code) {
    case Status::Code::kOk:
      return Status::OK();
    case Status::Code::kInvalidArgument:
      return Status::InvalidArgument(std::move(msg));
    case Status::Code::kNotFound:
      return Status::NotFound(std::move(msg));
    case Status::Code::kAlreadyExists:
      return Status::AlreadyExists(std::move(msg));
    case Status::Code::kUnsupported:
      return Status::Unsupported(std::move(msg));
    case Status::Code::kTimeout:
      return Status::Timeout(std::move(msg));
    case Status::Code::kResourceExhausted:
      return Status::ResourceExhausted(std::move(msg));
    case Status::Code::kInternal:
      return Status::Internal(std::move(msg));
    case Status::Code::kCancelled:
      return Status::Cancelled(std::move(msg));
    case Status::Code::kUnavailable:
      return Status::Unavailable(std::move(msg));
    case Status::Code::kDataLoss:
      return Status::DataLoss(std::move(msg));
  }
  return Status::Internal("unknown fault code at " + point);
}

bool ParseCode(const std::string& name, Status::Code* out) {
  static const struct {
    const char* name;
    Status::Code code;
  } kCodes[] = {
      {"invalid_argument", Status::Code::kInvalidArgument},
      {"not_found", Status::Code::kNotFound},
      {"already_exists", Status::Code::kAlreadyExists},
      {"unsupported", Status::Code::kUnsupported},
      {"timeout", Status::Code::kTimeout},
      {"resource_exhausted", Status::Code::kResourceExhausted},
      {"internal", Status::Code::kInternal},
      {"cancelled", Status::Code::kCancelled},
      {"unavailable", Status::Code::kUnavailable},
  };
  for (const auto& entry : kCodes) {
    if (name == entry.name) {
      *out = entry.code;
      return true;
    }
  }
  return false;
}

/// Parses all of `text` as one number with std::from_chars: a leading '+'
/// or space, trailing bytes or an out-of-range value all fail, and so does
/// a '-' for an unsigned T.
template <typename T>
bool ParseWhole(const std::string& text, T* out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

/// NaN fails both comparisons, so this also rejects it.
bool InUnitInterval(double p) { return p >= 0.0 && p <= 1.0; }

}  // namespace

std::atomic<int> g_fault_points_armed{0};

namespace {
// Construct the registry (and thus parse TABBENCH_FAULTS) before main:
// the hot-path gate reads only g_fault_points_armed, so without this an
// env-armed schedule would stay dormant until some code happened to call
// Global() explicitly.
const bool g_env_schedule_loaded = [] {
  FaultRegistry::Global();
  return true;
}();
}  // namespace

FaultScope::FaultScope(uint64_t scope_seed)
    : seed_(scope_seed), prev_(tls_scope) {
  tls_scope = this;
}

FaultScope::~FaultScope() { tls_scope = prev_; }

FaultScope* FaultScope::Current() { return tls_scope; }

FaultRegistry& FaultRegistry::Global() {
  static FaultRegistry* registry = [] {
    // Intentionally leaked: fault points can be evaluated from worker
    // threads during static destruction, so the registry must outlive
    // every other object.
    auto* r = new FaultRegistry();  // NOLINT(tabbench-naked-new)
    if (const char* env = std::getenv("TABBENCH_FAULTS")) {
      Status st = r->ArmFromString(env);
      if (!st.ok()) {
        std::fprintf(stderr, "tabbench: TABBENCH_FAULTS: %s\n",
                     st.ToString().c_str());
      }
    }
    return r;
  }();
  return *registry;
}

Status FaultRegistry::Arm(FaultSpec spec) {
  if (spec.point.empty()) {
    return Status::InvalidArgument("fault spec has empty point name");
  }
  if (spec.code == Status::Code::kOk) {
    return Status::InvalidArgument("fault spec for '" + spec.point +
                                   "' injects kOk");
  }
  if (spec.trigger == FaultSpec::Trigger::kNth && spec.nth == 0) {
    return Status::InvalidArgument("fault spec for '" + spec.point +
                                   "' has nth=0 (hits are 1-based)");
  }
  if (spec.trigger == FaultSpec::Trigger::kProbability &&
      !InUnitInterval(spec.probability)) {
    return Status::InvalidArgument("fault spec for '" + spec.point +
                                   "' has probability outside [0,1]");
  }
  MutexLock lock(&mu_);
  std::string point = spec.point;
  points_[point] = Point{std::move(spec), FaultPointStats{}};
  g_fault_points_armed.store(static_cast<int>(points_.size()),
                             std::memory_order_relaxed);
  return Status::OK();
}

Status FaultRegistry::ArmFromString(const std::string& schedule) {
  std::string errors;
  size_t begin = 0;
  while (begin <= schedule.size()) {
    size_t end = schedule.find(';', begin);
    if (end == std::string::npos) end = schedule.size();
    std::string one = schedule.substr(begin, end - begin);
    begin = end + 1;
    // Trim surrounding whitespace so "a; b" schedules read naturally.
    size_t lo = one.find_first_not_of(" \t");
    if (lo == std::string::npos) continue;
    size_t hi = one.find_last_not_of(" \t");
    one = one.substr(lo, hi - lo + 1);
    Result<FaultSpec> spec = ParseSpec(one);
    Status st = spec.ok() ? Arm(spec.TakeValue()) : spec.status();
    if (!st.ok()) {
      if (!errors.empty()) errors += "; ";
      errors += st.message();
    }
  }
  if (!errors.empty()) return Status::InvalidArgument(errors);
  return Status::OK();
}

Result<FaultSpec> FaultRegistry::ParseSpec(const std::string& text) {
  size_t eq = text.find('=');
  if (eq == std::string::npos || eq == 0) {
    return Status::InvalidArgument("bad fault spec '" + text +
                                   "': want point=code@trigger");
  }
  FaultSpec spec;
  spec.point = text.substr(0, eq);
  std::string rest = text.substr(eq + 1);
  size_t at = rest.find('@');
  if (at == std::string::npos || at == 0) {
    return Status::InvalidArgument("bad fault spec '" + text +
                                   "': want point=code@trigger");
  }
  std::string code_name = rest.substr(0, at);
  if (!ParseCode(code_name, &spec.code)) {
    return Status::InvalidArgument("bad fault spec '" + text +
                                   "': unknown status code '" + code_name +
                                   "'");
  }
  std::string trigger = rest.substr(at + 1);
  if (trigger == "once") {
    spec.trigger = FaultSpec::Trigger::kOnce;
    return spec;
  }
  if (trigger.rfind("nth:", 0) == 0) {
    spec.trigger = FaultSpec::Trigger::kNth;
    if (!ParseWhole(trigger.substr(4), &spec.nth) || spec.nth == 0) {
      return Status::InvalidArgument("bad fault spec '" + text +
                                     "': nth wants a positive integer");
    }
    return spec;
  }
  if (trigger.rfind("prob:", 0) == 0) {
    spec.trigger = FaultSpec::Trigger::kProbability;
    std::string arg = trigger.substr(5);
    size_t colon = arg.find(':');
    std::string prob = colon == std::string::npos ? arg : arg.substr(0, colon);
    if (!ParseWhole(prob, &spec.probability) ||
        !InUnitInterval(spec.probability)) {
      return Status::InvalidArgument(
          "bad fault spec '" + text + "': prob wants a number in [0,1]");
    }
    if (colon != std::string::npos) {
      if (!ParseWhole(arg.substr(colon + 1), &spec.seed)) {
        return Status::InvalidArgument("bad fault spec '" + text +
                                       "': seed wants an integer");
      }
    }
    return spec;
  }
  return Status::InvalidArgument("bad fault spec '" + text +
                                 "': unknown trigger '" + trigger + "'");
}

void FaultRegistry::Disarm(const std::string& point) {
  MutexLock lock(&mu_);
  points_.erase(point);
  g_fault_points_armed.store(static_cast<int>(points_.size()),
                             std::memory_order_relaxed);
}

void FaultRegistry::DisarmAll() {
  MutexLock lock(&mu_);
  points_.clear();
  dropped_fires_ = 0;
  g_fault_points_armed.store(0, std::memory_order_relaxed);
}

Status FaultRegistry::Evaluate(const char* point) {
  FaultScope* scope = FaultScope::Current();
  MutexLock lock(&mu_);
  auto it = points_.find(point);
  if (it == points_.end()) return Status::OK();
  Point& p = it->second;
  p.stats.hits++;

  // The hit index driving the decision is scope-local when a scope is
  // active: query k always sees hit 1, 2, 3... of each point regardless of
  // what other queries did, which is what keeps serial and parallel
  // schedules identical.
  uint64_t index;
  uint64_t scope_seed = 0;
  if (scope != nullptr) {
    index = ++scope->hits_[it->first];
    scope_seed = scope->seed();
  } else {
    index = p.stats.hits;
  }

  bool fire = false;
  switch (p.spec.trigger) {
    case FaultSpec::Trigger::kOnce:
      fire = index == 1;
      break;
    case FaultSpec::Trigger::kNth:
      fire = index == p.spec.nth;
      break;
    case FaultSpec::Trigger::kProbability:
      fire = DecisionDraw(p.spec.seed, scope_seed, HashName(it->first),
                          index) < p.spec.probability;
      break;
  }
  if (!fire) return Status::OK();
  p.stats.fires++;
  return MakeInjected(p.spec.code, it->first);
}

Status FaultRegistry::Check(const char* point) { return Evaluate(point); }

void FaultRegistry::Trigger(const char* point) {
  Status st = Evaluate(point);
  if (st.ok()) return;
  FaultScope* scope = FaultScope::Current();
  if (scope == nullptr) {
    MutexLock lock(&mu_);
    dropped_fires_++;
    return;
  }
  // First latched fault wins; later fires before the next safe point would
  // be masked by the unwind anyway.
  if (scope->pending_.ok()) scope->pending_ = std::move(st);
}

Status FaultRegistry::TakePending() {
  FaultScope* scope = FaultScope::Current();
  if (scope == nullptr || scope->pending_.ok()) return Status::OK();
  Status st = std::move(scope->pending_);
  scope->pending_ = Status::OK();
  return st;
}

FaultPointStats FaultRegistry::stats(const std::string& point) const {
  MutexLock lock(&mu_);
  auto it = points_.find(point);
  if (it == points_.end()) return FaultPointStats{};
  return it->second.stats;
}

uint64_t FaultRegistry::dropped_fires() const {
  MutexLock lock(&mu_);
  return dropped_fires_;
}

std::vector<std::string> FaultRegistry::armed_points() const {
  MutexLock lock(&mu_);
  std::vector<std::string> names;
  names.reserve(points_.size());
  for (const auto& [name, point] : points_) {
    (void)point;
    names.push_back(name);
  }
  return names;
}

}  // namespace tabbench
