#include "trace.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>

namespace perfbench {

int64_t Tracer::Open(const char* name, int64_t query, Clock::time_point start) {
  if (!enabled_) return -1;
  SpanRecord s;
  s.name = name;
  s.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(start - epoch_).count();
  s.parent = open_.empty() ? -1 : open_.back();
  s.workload = workload_;
  s.query = query;
  spans_.push_back(std::move(s));
  const int64_t id = static_cast<int64_t>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Tracer::Close(int64_t id, Clock::time_point end) {
  if (id < 0) return;
  spans_[static_cast<size_t>(id)].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - epoch_).count();
  // Spans close innermost first; erase rather than pop so a span closed out
  // of order cannot leave a stale parent behind.
  auto it = std::find(open_.begin(), open_.end(), id);
  if (it != open_.end()) open_.erase(it);
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  for (const SpanRecord& s : spans_) {
    out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
        << ",\"workload\":\"" << s.workload << "\",\"query\":" << s.query
        << "}\n";
  }
  return static_cast<bool>(out.flush());
}

double Span::Stop() {
  if (stopped_) return seconds_;
  const Clock::time_point end = Clock::now();
  tracer_->Close(id_, end);
  stopped_ = true;
  seconds_ = std::chrono::duration<double>(end - start_).count();
  return seconds_;
}

void Digest::Bytes(const void* p, size_t n) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (size_t i = 0; i < n; ++i) {
    h_ ^= b[i];
    h_ *= 1099511628211ULL;
  }
}

void Digest::Add(uint64_t v) { Bytes(&v, sizeof v); }

void Digest::Add(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  Add(bits);
}

void Digest::Add(const std::string& s) {
  Add(static_cast<uint64_t>(s.size()));
  Bytes(s.data(), s.size());
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

}  // namespace perfbench
