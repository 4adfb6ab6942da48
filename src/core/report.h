#ifndef TABBENCH_CORE_REPORT_H_
#define TABBENCH_CORE_REPORT_H_

#include <string>
#include <vector>

#include "core/cfc.h"
#include "core/goal.h"

namespace tabbench {

/// A named CFC curve for side-by-side comparison (P / 1C / R, or the
/// estimate curves EP / ER / E1C / HR / H1C of Fig. 10).
struct NamedCurve {
  std::string name;
  CumulativeFrequency cfc;
};

/// ASCII histogram with the trailing `t_out` bin — the shape of Figures 1,
/// 2 and 11.
std::string RenderHistogram(const LogHistogram& h, const std::string& title,
                            const std::string& unit = "s");

/// Cumulative-frequency comparison table: one row per grid point, one
/// column per configuration; the textual equivalent of Figures 3-10.
/// `xs` empty = a default half-decade grid from 1 to the timeout.
std::string RenderCfcComparison(const std::vector<NamedCurve>& curves,
                                std::vector<double> xs,
                                const std::string& title,
                                const std::string& unit = "s");

/// Goal satisfaction summary: which configurations meet G (Example 2).
std::string RenderGoalCheck(const PerformanceGoal& goal,
                            const std::vector<NamedCurve>& curves);

/// Quantile read-offs ("55% of the queries execute in less than 100
/// seconds" style), for the running commentary the paper attaches to its
/// figures.
std::string RenderQuantiles(const std::vector<NamedCurve>& curves,
                            const std::vector<double>& fractions);

}  // namespace tabbench

#endif  // TABBENCH_CORE_REPORT_H_
