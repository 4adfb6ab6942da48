// Unit tests for the analyzer's per-file rules (tools/analyze/
// passes_file.cc): every rule must fire on a known-bad snippet, stay quiet
// on the matching known-good one, and honor the suppression syntax. The
// snippets are in-memory SourceFiles run through Analyze(), the same entry
// point as the tabbench_analyze CLI minus the filesystem walk.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analyzer.h"

namespace {

using tabbench_analyze::ApplyFixes;
using tabbench_analyze::CanonicalGuard;
using tabbench_analyze::Finding;
using tabbench_analyze::SourceFile;

std::vector<Finding> RunAnalyze(const std::vector<SourceFile>& files) {
  return tabbench_analyze::Analyze(files, {});
}

size_t CountRule(const std::vector<Finding>& findings,
                 const std::string& rule) {
  size_t n = 0;
  for (const auto& f : findings) {
    if (f.rule == rule) ++n;
  }
  return n;
}

// ------------------------------------------------------------- determinism

TEST(LintDeterminism, FiresOnAmbientEntropyInResultPaths) {
  auto findings = RunAnalyze({{"src/core/runner.cc",
                        "int f() { return rand(); }\n"
                        "std::random_device rd;\n"
                        "auto t = time(nullptr);\n"
                        "auto n = std::chrono::system_clock::now();\n"}});
  EXPECT_EQ(CountRule(findings, "tabbench-determinism"), 4u);
}

TEST(LintDeterminism, ScopedToCoreAndEngineOnly) {
  // The same ugliness outside the result paths (e.g. a bench harness
  // measuring wall time) is not this rule's business.
  auto findings = RunAnalyze({{"bench/bench_totals.cc",
                        "auto n = std::chrono::system_clock::now();\n"}});
  EXPECT_EQ(CountRule(findings, "tabbench-determinism"), 0u);
}

TEST(LintDeterminism, IgnoresCommentsAndStrings) {
  auto findings = RunAnalyze({{"src/core/runner.cc",
                        "// rand() is banned here\n"
                        "const char* kMsg = \"rand() via util/rng.h\";\n"}});
  EXPECT_EQ(CountRule(findings, "tabbench-determinism"), 0u);
}

// ------------------------------------------------------------- naked-new

TEST(LintNakedNew, FiresOnNewAndDelete) {
  auto findings = RunAnalyze({{"src/engine/x.cc",
                        "auto* p = new Foo();\n"
                        "delete p;\n"}});
  EXPECT_EQ(CountRule(findings, "tabbench-naked-new"), 2u);
}

TEST(LintNakedNew, DeletedSpecialMembersAreFine) {
  auto findings = RunAnalyze({{"src/engine/x.h",
                        "#ifndef TABBENCH_ENGINE_X_H_\n"
                        "#define TABBENCH_ENGINE_X_H_\n"
                        "struct X { X(const X&) = delete; };\n"
                        "#endif  // TABBENCH_ENGINE_X_H_\n"}});
  EXPECT_EQ(CountRule(findings, "tabbench-naked-new"), 0u);
}

TEST(LintNakedNew, IdentifiersContainingNewAreFine) {
  auto findings = RunAnalyze({{"src/engine/x.cc",
                        "auto new_root = MakeNode();\n"
                        "int renewal = 2;\n"}});
  EXPECT_EQ(CountRule(findings, "tabbench-naked-new"), 0u);
}

// -------------------------------------------------------------- raw-sleep

TEST(LintRawSleep, FiresOnThisThreadSleepsInSrc) {
  // No file under src/ is exempt: delays are charged to the simulated
  // clock, never slept.
  auto findings = RunAnalyze({{"src/util/thread_pool.cc",
                        "std::this_thread::sleep_for(10ms);\n"
                        "std::this_thread::sleep_until(deadline);\n"},
                       {"src/util/rng.cc",
                        "std::this_thread::sleep_for(slice);\n"}});
  EXPECT_EQ(CountRule(findings, "tabbench-raw-sleep"), 3u);
}

TEST(LintRawSleep, TestsAreExempt) {
  // Tests may sleep deliberately.
  auto findings = RunAnalyze({{"tests/concurrency_test.cc",
                        "std::this_thread::sleep_for(50ms);\n"}});
  EXPECT_EQ(CountRule(findings, "tabbench-raw-sleep"), 0u);
}

TEST(LintRawSleep, NolintEscapeHatch) {
  auto findings = RunAnalyze({{"src/core/runner.cc",
                        "std::this_thread::sleep_for(10ms);"
                        "  // NOLINT(tabbench-raw-sleep)\n"}});
  EXPECT_EQ(CountRule(findings, "tabbench-raw-sleep"), 0u);
}

// --------------------------------------------------------- unsynced-write

TEST(LintUnsyncedWrite, FiresOnDirectWritesInCore) {
  auto findings = RunAnalyze(
      {{"src/core/report.cc",
        "std::ofstream out(path);\n"
        "std::fstream rw(path, std::ios::out);\n"},
       {"src/core/runner.cc",
        "FILE* f = fopen(path.c_str(), \"wb\");\n"
        "FILE* g = fopen(path.c_str(), \"a\");\n"}});
  EXPECT_EQ(CountRule(findings, "tabbench-unsynced-write"), 4u);
}

TEST(LintUnsyncedWrite, ReadsAndOtherLayersAreExempt) {
  // ifstream and read-mode fopen are not durability hazards, and the rule
  // is scoped to the layers that produce benchmark artifacts: util (the
  // sanctioned implementation site), tools, and tests stay free to write
  // however they like.
  auto findings = RunAnalyze(
      {{"src/core/workload_io.cc",
        "std::ifstream in(path, std::ios::binary);\n"
        "FILE* f = fopen(path.c_str(), \"rb\");\n"},
       {"src/util/file_util.cc", "std::ofstream out(tmp);\n"},
       {"tools/analyze/tabbench_analyze.cc", "std::ofstream out(path);\n"},
       {"tests/journal_test.cc", "std::ofstream out(path);\n"}});
  EXPECT_EQ(CountRule(findings, "tabbench-unsynced-write"), 0u);
}

TEST(LintUnsyncedWrite, NolintEscapeHatch) {
  auto findings = RunAnalyze(
      {{"src/core/report.cc",
        "std::ofstream out(path);  // NOLINT(tabbench-unsynced-write)\n"}});
  EXPECT_EQ(CountRule(findings, "tabbench-unsynced-write"), 0u);
}

// ------------------------------------------------------------ float-equal

TEST(LintFloatEqual, FiresInCostCode) {
  auto findings = RunAnalyze({{"src/optimizer/cost_model.cc",
                        "if (cost == 0.0) return;\n"
                        "bool b = 1.5e3 != x;\n"}});
  EXPECT_EQ(CountRule(findings, "tabbench-float-equal"), 2u);
}

TEST(LintFloatEqual, OrderedComparisonsAndIntegersAreFine) {
  auto findings = RunAnalyze({{"src/core/cfc.cc",
                        "if (cost <= 0.5) return;\n"
                        "if (total == 0) return;\n"}});
  EXPECT_EQ(CountRule(findings, "tabbench-float-equal"), 0u);
}

TEST(LintFloatEqual, ScopedToCostAndCfcFiles) {
  auto findings = RunAnalyze({{"src/sql/parser.cc", "bool b = (x == 0.5);\n"}});
  EXPECT_EQ(CountRule(findings, "tabbench-float-equal"), 0u);
}

// ------------------------------------------------------- unchecked-status

TEST(LintUncheckedStatus, FiresOnDiscardedCall) {
  auto findings = RunAnalyze({{"src/util/api.h",
                        "#ifndef TABBENCH_UTIL_API_H_\n"
                        "#define TABBENCH_UTIL_API_H_\n"
                        "Status DoThing(int x);\n"
                        "#endif  // TABBENCH_UTIL_API_H_\n"},
                       {"src/util/use.cc", "void f() {\n  DoThing(1);\n}\n"}});
  EXPECT_EQ(CountRule(findings, "tabbench-unchecked-status"), 1u);
}

TEST(LintUncheckedStatus, ConsumedCallsAreFine) {
  auto findings = RunAnalyze(
      {{"src/util/api.h",
        "#ifndef TABBENCH_UTIL_API_H_\n"
        "#define TABBENCH_UTIL_API_H_\n"
        "Status DoThing(int x);\n"
        "#endif  // TABBENCH_UTIL_API_H_\n"},
       {"src/util/use.cc",
        "Status g() {\n"
        "  Status s = DoThing(1);\n"
        "  (void)DoThing(2);\n"
        "  TB_RETURN_IF_ERROR(DoThing(3));\n"
        "  return DoThing(4);\n"
        "}\n"}});
  EXPECT_EQ(CountRule(findings, "tabbench-unchecked-status"), 0u);
}

TEST(LintUncheckedStatus, AmbiguousOverloadsAreSkipped) {
  // `Insert` is declared both void (BTree-style) and Status
  // (Database-style); a name-level analysis cannot tell the call sites
  // apart, so it must stay quiet ([[nodiscard]] catches the real ones).
  auto findings = RunAnalyze({{"src/util/api.h",
                        "#ifndef TABBENCH_UTIL_API_H_\n"
                        "#define TABBENCH_UTIL_API_H_\n"
                        "Status Insert(int x);\n"
                        "void Insert(int x, int y);\n"
                        "#endif  // TABBENCH_UTIL_API_H_\n"},
                       {"src/util/use.cc", "void f() {\n  Insert(1);\n}\n"}});
  EXPECT_EQ(CountRule(findings, "tabbench-unchecked-status"), 0u);
}

TEST(LintUncheckedStatus, ContinuationLinesAreNotBareCalls) {
  auto findings = RunAnalyze({{"src/util/api.h",
                        "#ifndef TABBENCH_UTIL_API_H_\n"
                        "#define TABBENCH_UTIL_API_H_\n"
                        "Status DoThing(int x);\n"
                        "#endif  // TABBENCH_UTIL_API_H_\n"},
                       {"src/util/use.cc",
                        "void f() {\n"
                        "  TB_ASSERT_OK(\n"
                        "      DoThing(1));\n"
                        "}\n"}});
  EXPECT_EQ(CountRule(findings, "tabbench-unchecked-status"), 0u);
}

// -------------------------------------------------------- unordered-iter

TEST(LintUnorderedIter, FiresOnRangeForOverUnorderedMember) {
  auto findings = RunAnalyze({{"src/core/x.cc",
                        "std::unordered_map<int, int> counts;\n"
                        "void f() {\n"
                        "  for (const auto& [k, v] : counts) use(k, v);\n"
                        "}\n"}});
  EXPECT_EQ(CountRule(findings, "tabbench-unordered-iter"), 1u);
}

TEST(LintUnorderedIter, VectorOfUnorderedSetsIsFine) {
  // The outer container is a vector; its iteration order is deterministic.
  auto findings = RunAnalyze({{"src/core/x.cc",
                        "std::vector<std::unordered_set<int>> sets;\n"
                        "void f() {\n"
                        "  for (const auto& s : sets) use(s);\n"
                        "}\n"}});
  EXPECT_EQ(CountRule(findings, "tabbench-unordered-iter"), 0u);
}

// --------------------------------------------------------- include-guard

TEST(LintIncludeGuard, CanonicalGuardDropsLeadingSrc) {
  EXPECT_EQ(CanonicalGuard("src/util/mutex.h"), "TABBENCH_UTIL_MUTEX_H_");
  EXPECT_EQ(CanonicalGuard("tests/test_util.h"),
            "TABBENCH_TESTS_TEST_UTIL_H_");
  EXPECT_EQ(CanonicalGuard("tools/analyze/analyzer.h"),
            "TABBENCH_TOOLS_ANALYZE_ANALYZER_H_");
}

TEST(LintIncludeGuard, FiresOnMissingAndMismatched) {
  auto missing = RunAnalyze({{"src/util/a.h", "int f();\n"}});
  EXPECT_EQ(CountRule(missing, "tabbench-include-guard"), 1u);

  auto wrong = RunAnalyze({{"src/util/b.h",
                     "#ifndef WRONG_GUARD_H\n"
                     "#define WRONG_GUARD_H\n"
                     "int f();\n"
                     "#endif\n"}});
  EXPECT_EQ(CountRule(wrong, "tabbench-include-guard"), 1u);
}

TEST(LintIncludeGuard, FixRewritesTheGuardInPlace) {
  std::vector<SourceFile> files = {{"src/util/b.h",
                                    "#ifndef WRONG_GUARD_H\n"
                                    "#define WRONG_GUARD_H\n"
                                    "int f();\n"
                                    "#endif\n"}};
  auto findings = RunAnalyze(files);
  ASSERT_EQ(CountRule(findings, "tabbench-include-guard"), 1u);
  EXPECT_EQ(findings[0].line, 1u);
  EXPECT_EQ(ApplyFixes(findings, &files), 1u);
  EXPECT_NE(files[0].content.find("#ifndef TABBENCH_UTIL_B_H_"),
            std::string::npos);
  EXPECT_NE(files[0].content.find("#define TABBENCH_UTIL_B_H_"),
            std::string::npos);
  EXPECT_NE(files[0].content.find("#endif  // TABBENCH_UTIL_B_H_"),
            std::string::npos);

  // The fixed file must analyze clean on a second pass.
  auto again = RunAnalyze(files);
  EXPECT_EQ(CountRule(again, "tabbench-include-guard"), 0u);
}

TEST(LintIncludeGuard, FixWrapsGuardlessHeader) {
  std::vector<SourceFile> files = {{"src/util/c.h", "int g();\n"}};
  auto findings = RunAnalyze(files);
  ASSERT_EQ(CountRule(findings, "tabbench-include-guard"), 1u);
  EXPECT_EQ(ApplyFixes(findings, &files), 1u);
  auto again = RunAnalyze(files);
  EXPECT_EQ(CountRule(again, "tabbench-include-guard"), 0u);
  EXPECT_NE(files[0].content.find("int g();"), std::string::npos);
}

// ------------------------------------------------------- include-hygiene

TEST(LintIncludeHygiene, FiresOnParentRelativeInclude) {
  auto findings = RunAnalyze({{"src/core/x.cc", "#include \"../util/rng.h\"\n"}});
  EXPECT_EQ(CountRule(findings, "tabbench-include-hygiene"), 1u);
  auto clean = RunAnalyze({{"src/core/y.cc", "#include \"util/rng.h\"\n"}});
  EXPECT_EQ(CountRule(clean, "tabbench-include-hygiene"), 0u);
}

// ---------------------------------------------------------- suppressions

TEST(LintSuppressions, NolintOnTheLine) {
  auto findings =
      RunAnalyze({{"src/engine/x.cc",
            "auto* p = new Foo();  // NOLINT(tabbench-naked-new) reason\n"}});
  EXPECT_EQ(CountRule(findings, "tabbench-naked-new"), 0u);
}

TEST(LintSuppressions, BareNolintSuppressesEveryRule) {
  auto findings = RunAnalyze({{"src/core/x.cc",
                        "int r = rand();  // NOLINT intentional\n"}});
  EXPECT_TRUE(findings.empty());
}

TEST(LintSuppressions, NolintNextline) {
  auto findings = RunAnalyze({{"src/engine/x.cc",
                        "// NOLINTNEXTLINE(tabbench-naked-new)\n"
                        "auto* p = new Foo();\n"}});
  EXPECT_EQ(CountRule(findings, "tabbench-naked-new"), 0u);
}

TEST(LintSuppressions, NolintFileCoversTheWholeFile) {
  auto findings = RunAnalyze({{"src/engine/x.cc",
                        "// NOLINTFILE(tabbench-naked-new): arena code\n"
                        "auto* a = new Foo();\n"
                        "auto* b = new Bar();\n"}});
  EXPECT_EQ(CountRule(findings, "tabbench-naked-new"), 0u);
}

TEST(LintSuppressions, NolintInsideAStringLiteralDoesNotSuppress) {
  // Only comment markers count: a NOLINT spelled inside a string literal
  // (e.g. the analyzer's own test fixture or log text) must not silence the
  // line it sits on.
  auto findings = RunAnalyze(
      {{"src/engine/x.cc",
        "auto* p = new Foo(\"// NOLINT(tabbench-naked-new)\");\n"}});
  EXPECT_EQ(CountRule(findings, "tabbench-naked-new"), 1u);
}

TEST(LintSuppressions, WrongRuleNameDoesNotSuppress) {
  auto findings = RunAnalyze({{"src/engine/x.cc",
                        "auto* p = new Foo();  // NOLINT(tabbench-float-equal)\n"}});
  EXPECT_EQ(CountRule(findings, "tabbench-naked-new"), 1u);
}

// ----------------------------------------------------------------- output

TEST(LintOutput, RuleTableNamesAreUniqueAndPrefixed) {
  // The nine per-file rules keep their names in the merged rule table:
  // each appears exactly once, under the shared "tabbench-" prefix, so
  // existing NOLINT(...) suppressions and SARIF rule ids stay valid.
  const std::vector<std::string> per_file = {
      "tabbench-determinism",      "tabbench-naked-new",
      "tabbench-raw-sleep",        "tabbench-float-equal",
      "tabbench-unsynced-write",   "tabbench-unchecked-status",
      "tabbench-unordered-iter",   "tabbench-include-guard",
      "tabbench-include-hygiene"};
  const auto& rules = tabbench_analyze::Rules();
  for (const auto& name : per_file) {
    EXPECT_EQ(name.rfind("tabbench-", 0), 0u);
    size_t n = 0;
    for (const auto& r : rules) {
      if (name == r.name) ++n;
    }
    EXPECT_EQ(n, 1u) << name;
  }
}

}  // namespace
