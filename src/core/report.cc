#include "core/report.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/strings.h"

namespace tabbench {

std::string RenderHistogram(const LogHistogram& h, const std::string& title,
                            const std::string& unit) {
  std::string out = title + "\n";
  uint64_t max_count = h.timeouts;
  for (uint64_t c : h.counts) max_count = std::max(max_count, c);
  max_count = std::max<uint64_t>(max_count, 1);
  const int width = 40;

  uint64_t running = h.below_range;
  uint64_t total = h.below_range + h.timeouts;
  for (uint64_t c : h.counts) total += c;
  total = std::max<uint64_t>(total, 1);

  auto bar = [&](uint64_t c) {
    int n = static_cast<int>(static_cast<double>(c) * width / max_count);
    return std::string(static_cast<size_t>(n), '#');
  };
  if (h.below_range > 0) {
    out += StrFormat("  %10s<%-6s %4llu |%s\n", "",
                     (StrFormat("%g", h.edges.front()) + unit).c_str(),
                     static_cast<unsigned long long>(h.below_range),
                     bar(h.below_range).c_str());
  }
  for (size_t i = 0; i < h.counts.size(); ++i) {
    running += h.counts[i];
    out += StrFormat("  [%7g, %7g) %4llu |%-40s cum %3.0f%%\n", h.edges[i],
                     h.edges[i + 1],
                     static_cast<unsigned long long>(h.counts[i]),
                     bar(h.counts[i]).c_str(),
                     100.0 * static_cast<double>(running) /
                         static_cast<double>(total));
  }
  out += StrFormat("  %17s %4llu |%-40s\n", "t_out",
                   static_cast<unsigned long long>(h.timeouts),
                   bar(h.timeouts).c_str());
  return out;
}

std::string RenderCfcComparison(const std::vector<NamedCurve>& curves,
                                std::vector<double> xs,
                                const std::string& title,
                                const std::string& unit) {
  if (xs.empty()) {
    for (double x = 1.0; x <= 1800.0 * 1.01; x *= std::sqrt(10.0)) {
      xs.push_back(x);
    }
    xs.push_back(1800.0);
  }
  std::string out = title + "\n";
  out += StrFormat("  %12s", ("x (" + unit + ")").c_str());
  for (const auto& c : curves) out += StrFormat(" %8s", c.name.c_str());
  out += "\n";
  for (double x : xs) {
    out += StrFormat("  %12.4g", x);
    for (const auto& c : curves) {
      out += StrFormat("  %6.1f%%", 100.0 * c.cfc.At(x));
    }
    out += "\n";
  }
  out += StrFormat("  %12s", "timeouts");
  for (const auto& c : curves) {
    out += StrFormat(" %8zu", c.cfc.timeouts());
  }
  out += "\n";
  return out;
}

std::string RenderGoalCheck(const PerformanceGoal& goal,
                            const std::vector<NamedCurve>& curves) {
  std::string out = "Goal G: " + goal.ToString() + "\n";
  for (const auto& c : curves) {
    double shortfall = goal.Shortfall(c.cfc);
    out += StrFormat("  %-6s %s", c.name.c_str(),
                     goal.SatisfiedBy(c.cfc) ? "SATISFIES" : "fails");
    if (shortfall > 0.0) {
      out += StrFormat(" (worst shortfall %.0f%%)", shortfall * 100.0);
    }
    out += "\n";
  }
  return out;
}

std::string RenderQuantiles(const std::vector<NamedCurve>& curves,
                            const std::vector<double>& fractions) {
  std::string out;
  for (const auto& c : curves) {
    out += StrFormat("  %-6s", c.name.c_str());
    for (double f : fractions) {
      double q = c.cfc.Quantile(f);
      if (std::isinf(q)) {
        out += StrFormat("  p%02.0f=>t_out", f * 100.0);
      } else {
        out += StrFormat("  p%02.0f=%s", f * 100.0, HumanSeconds(q).c_str());
      }
    }
    out += "\n";
  }
  return out;
}

}  // namespace tabbench
