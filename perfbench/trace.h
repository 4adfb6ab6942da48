#ifndef TABBENCH_PERFBENCH_TRACE_H_
#define TABBENCH_PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// One timed call into a layer, recorded by the benchmark around the call.
/// Names are "<layer>.<call>", with layers named after src/ modules.
struct SpanRecord {
  std::string name;
  int64_t start_ns = 0;  // since the tracer was created
  int64_t end_ns = 0;
  int64_t parent = -1;   // index of the enclosing span; -1 for a root
  std::string workload;
  int64_t query = -1;    // query index within the sample; -1 if none

  double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

/// In-memory span store. Disabled, it records nothing, so untraced runs pay
/// only the clock reads the end-to-end metrics need anyway.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }
  void set_workload(std::string w) { workload_ = std::move(w); }

  /// Opens a span at `start` under the innermost open span; -1 if disabled.
  int64_t Open(const char* name, int64_t query, Clock::time_point start);
  void Close(int64_t id, Clock::time_point end);

  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Writes every span as one JSON object per line; false on I/O error.
  bool WriteJsonLines(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point epoch_;
  std::string workload_;
  std::vector<SpanRecord> spans_;
  std::vector<int64_t> open_;
};

/// Times one call and, when tracing, records it as a span. Stop() returns
/// the wall seconds; the destructor stops a span left open.
class Span {
 public:
  Span(Tracer* tracer, const char* name, int64_t query = -1)
      : tracer_(tracer),
        start_(Clock::now()),
        id_(tracer->Open(name, query, start_)) {}
  ~Span() {
    if (!stopped_) Stop();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  double Stop();

 private:
  Tracer* tracer_;
  Clock::time_point start_;
  int64_t id_;
  bool stopped_ = false;
  double seconds_ = 0.0;
};

/// FNV-1a over the simulated outputs of a run: two runs agree on every
/// simulated number exactly when their digests match.
class Digest {
 public:
  void Add(uint64_t v);
  void Add(double v);
  void Add(const std::string& s);
  uint64_t value() const { return h_; }

 private:
  void Bytes(const void* p, size_t n);
  uint64_t h_ = 1469598103934665603ULL;
};

/// Linear-interpolated quantile q in [0, 1] of `v`; 0 for an empty sample.
double Quantile(std::vector<double> v, double q);
inline double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

}  // namespace perfbench

#endif  // TABBENCH_PERFBENCH_TRACE_H_
