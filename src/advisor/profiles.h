#ifndef TABBENCH_ADVISOR_PROFILES_H_
#define TABBENCH_ADVISOR_PROFILES_H_

#include "advisor/advisor.h"

namespace tabbench {

/// Advisor profiles modeling the behavior classes of the paper's three
/// anonymized commercial recommenders. The modeling targets the *observed
/// behaviors* (Sections 4-5), not vendor internals:
///
///   System A — index-only advisor; credits covering/index-only plans for
///   hypothetical indexes, so it finds real wins (R clearly beats P on
///   NREF2J, Fig. 3) — but it cannot analyze COUNT(DISTINCT) over
///   self-joins, so it produces NO recommendation for family NREF3J
///   (Section 4.1.2, Fig. 4).
///
///   System B — index-only advisor with a conservative what-if mode that
///   does not credit index-only access on unbuilt indexes; with NREF2J's
///   benefits living almost entirely in covering scans, it recommends
///   near-useless indexes (R ~= P, Fig. 5), while NREF3J's literal filters
///   still let it find seekable indexes (R between P and 1C, Fig. 6).
///
///   System C — indexes plus materialized views (the paper ran it on the
///   TPC-H databases; its recommendations include indexes on views over
///   Lineitem and Lineitem x Partsupp, Table 3).
///
/// What the three share is fixed in code rather than set here: the greedy
/// search's rules (GreedySearch), covering composites of up to 4 columns
/// (candidates.h), and the what-if's worst-case clustering and leaf fill
/// (whatif.h). Each profile costs its trials under uniform value densities
/// (uniform_value_assumption, applied by TrialCosts only); the figure
/// suite's H columns reuse the profile's rules with that flag off, since
/// Database::HypotheticalEstimate refuses it.
AdvisorOptions SystemAProfile();
AdvisorOptions SystemBProfile();
AdvisorOptions SystemCProfile();

/// Name -> profile ("A", "B", "C").
AdvisorOptions ProfileByName(const std::string& name);

}  // namespace tabbench

#endif  // TABBENCH_ADVISOR_PROFILES_H_
