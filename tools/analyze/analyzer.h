#ifndef TABBENCH_TOOLS_ANALYZE_ANALYZER_H_
#define TABBENCH_TOOLS_ANALYZE_ANALYZER_H_

#include <cstddef>
#include <map>
#include <string>
#include <utility>
#include <vector>

/// tabbench_analyze — the project's static analyzer.
///
/// It parses the whole tree once (cpptok.h tokens) into a project model —
/// includes, classes and their members, function bodies, call sites,
/// mutex acquisitions, and each file's raw and comment/string-stripped
/// lines — and runs every pass below over it. Every Analyze() call runs
/// every pass; there is no switch to turn one off.
///
/// The per-file pass (passes_file.cc) applies nine token/regex rules to
/// each file on its own:
///
///   determinism       — no rand()/random_device/time(nullptr)/
///                       system_clock::now() in src/core, src/engine,
///                       src/exec/vec (randomness flows through util/rng.h);
///   naked-new         — no naked new/delete;
///   raw-sleep         — no this_thread sleeps anywhere in src/;
///   float-equal       — no float-literal ==/!= in cost/CFC files;
///   unsynced-write    — no ofstream/fopen writes in src/core;
///   unchecked-status  — no discarded call to a function declared (anywhere
///                       in the file set) as returning Status/Result;
///   unordered-iter    — no range-for over an unordered container declared
///                       in the same file;
///   include-guard     — canonical TABBENCH_<PATH>_H_ guards (--fix
///                       rewrites them);
///   include-hygiene   — no parent-relative ("../") includes.
///
/// Passes 1–6 are whole-program:
///
///   1. layering          — the architecture DAG declared in layers.txt:
///                          a file may include only its own or lower
///                          layers; `forbid` edges are refused outright;
///                          include cycles are reported separately.
///   2. lock-order        — a global mutex-acquisition graph built from
///                          nested MutexLock scopes, calls made while a
///                          lock is held (resolved cross-file through
///                          member types), and TB_ACQUIRED_BEFORE/AFTER
///                          annotations; any cycle is a potential deadlock
///                          and is reported with every acquisition site.
///   3. status-flow       — intraprocedural dataflow the [[nodiscard]] +
///                          regex approach misses: Status locals that are
///                          never consumed, and std::move-then-use.
///   4. nondeterminism    — "touches wall clock / system RNG" propagated
///                          transitively through the call graph; any
///                          tainted function defined in src/core or
///                          src/engine (the simulation's result paths) is
///                          flagged with its taint chain.
///   5. lockset           — Eraser-style inference: the set of mutexes
///                          held at every member-field access site
///                          (MutexLock scopes, TB_REQUIRES contracts, and
///                          lambda frames tracked separately). Fields
///                          accessed both under a lock and bare are
///                          inconsistent; fields with a consistent
///                          inferred guard but no TB_GUARDED_BY get a
///                          suggested annotation (insertable via
///                          --fix); declared annotations the
///                          locksets contradict are reported against the
///                          offending site.
///   6. blocking-under-lock — fsync/sleeps/non-condvar Waits executed, or
///                          reachable through resolved calls, while a
///                          mutex is held.
///
/// Passes 7–9 are *path-sensitive*: they run on per-function control-flow
/// graphs recovered from the token stream (cfg.h) with a forward dataflow
/// solver (dataflow.h), so they reason about orderings and per-path facts
/// the scope-based passes cannot:
///
///   7. durability-ordering — per-journal protocols declared in
///                          tools/analyze/protocols.txt: a commit /
///                          externalization op must be preceded by the
///                          protocol's append+fsync on *every* CFG path
///                          ("syncing" is propagated through callees, so
///                          deleting the fsync inside a helper trips the
///                          callers).
///   8. release-on-path   — a manual Lock() must be matched by Unlock()
///                          on every path, including TB_RETURN_IF_ERROR
///                          early returns; the escaping exit edges are
///                          reported.
///   9. error-path        — on paths where !v.ok() must hold, the
///                          would-be value (*v, v->, v.value()) is used.
///
/// Findings are emitted as text or SARIF 2.1.0; the CLI fails on any
/// finding.
///
/// The library is dependency-free and analyzes in-memory SourceFiles, so
/// tests/analyze_tool_test.cc and tests/analyze_file_test.cc drive every
/// pass on fixture snippets without touching the real tree.
namespace tabbench_analyze {

/// One file to analyze. `path` is repo-relative with forward slashes; pass
/// the whole program in one call — the passes are only as cross-TU as the
/// file set they see.
struct SourceFile {
  std::string path;
  std::string content;
};

/// A secondary location attached to a finding (the other acquisition site
/// of a lock-order edge, the members of an include cycle, the taint
/// source).
struct RelatedSite {
  std::string file;
  size_t line = 0;
  std::string note;
};

struct Finding {
  std::string file;
  size_t line = 0;  // 1-based anchor
  std::string rule;  // "tabbench-<rule>"
  std::string message;  // line-free; the anchor is `line`
  std::vector<RelatedSite> related;
  /// Machine-applicable fix (lockset-unannotated suggestions). When
  /// `text` is non-empty, inserting it immediately after the first
  /// whole-word occurrence of `after_word` on `line` of `file` (skipping
  /// any array brackets) resolves the finding. Applied by ApplyFixes /
  /// --fix, which also repairs tabbench-include-guard findings.
  struct FixHint {
    std::string after_word;
    std::string text;
  };
  FixHint fix;
};

struct RuleInfo {
  const char* name;
  const char* summary;
};

/// The rule table (for --list-rules and the SARIF rules array).
const std::vector<RuleInfo>& Rules();

/// Canonical include guard for a header path:
/// "src/util/mutex.h" -> "TABBENCH_UTIL_MUTEX_H_" (leading "src/" drops,
/// every other component is kept).
std::string CanonicalGuard(const std::string& path);

/// Architecture layers, lowest first. A file belongs to the layer with the
/// longest matching directory prefix; files outside every layer (tests,
/// tools, bench, examples) are exempt from the layering pass.
struct LayerSpec {
  struct Layer {
    std::string name;
    std::vector<std::string> dirs;  // e.g. {"src/core", "src/advisor"}
  };
  std::vector<Layer> layers;
  /// Extra forbidden edges by layer name (checked on top of the order, so
  /// the architectural intent survives even a layer reordering).
  std::vector<std::pair<std::string, std::string>> forbid;
};

/// Parses the layers.txt format:
///
///   # comment
///   layer util: src/util
///   layer tuning: src/core src/advisor
///   forbid exec_vec -> tuning
///
/// Returns false and sets *error on malformed input (unknown directive,
/// forbid naming an undeclared layer, duplicate layer name).
bool ParseLayerSpec(const std::string& text, LayerSpec* spec,
                    std::string* error);

/// Durability protocols for the durability-ordering pass, declared per
/// journal type in tools/analyze/protocols.txt. Within each protocol's
/// `files`, every `commit` op must be dominated (in the must-dataflow
/// sense: on every path) by a `sync` op — directly or through a callee
/// whose every success return performs one.
struct ProtocolSpec {
  /// An operation referenced by call name; when `arg` is non-empty the
  /// call only matches if `arg` appears as a token between its parens
  /// (e.g. EnterState:kLive matches EnterState(State::kLive)).
  struct Op {
    std::string name;
    std::string arg;
  };
  struct Protocol {
    std::string name;
    std::vector<std::string> files;  // repo-relative paths in scope
    std::vector<std::string> sync;   // root durable-write call names
    std::vector<Op> commit;          // externalizations needing sync first
  };
  std::vector<Protocol> protocols;
};

/// Parses the protocols.txt format:
///
///   # comment
///   protocol run_journal
///   file src/util/run_journal.cc
///   sync fsync
///   commit raise
///
/// Returns false and sets *error on malformed input (directive before the
/// first `protocol`, unknown directive, duplicate protocol name).
bool ParseProtocolSpec(const std::string& text, ProtocolSpec* spec,
                       std::string* error);

struct Options {
  LayerSpec layers;
  ProtocolSpec protocols;
};

/// Runs every pass over `files`. Findings are sorted by (file, line,
/// rule, message). Comment markers suppress findings: NOLINT(rule) on the
/// anchor line, NOLINTNEXTLINE(rule) on the line above it,
/// NOLINTFILE(rule) anywhere in the file; a bare NOLINT covers every rule.
std::vector<Finding> Analyze(const std::vector<SourceFile>& files,
                             const Options& opts);

/// Applies the machine-applicable fixes in `findings` to the matching
/// in-memory files, in place: the FixHint annotation insertions first (they
/// are line-anchored), then the include-guard rewrites. Lines that already
/// carry a GUARDED_BY and guards that are already canonical are left
/// alone, so applying the same fixes twice changes nothing (idempotent).
/// Returns the number of edits made.
size_t ApplyFixes(const std::vector<Finding>& findings,
                  std::vector<SourceFile>* files);

/// Plain-text TB_FAULT_POINT coverage report: sites per declared layer
/// (file:line and fault-point name) plus the layers with zero sites —
/// the chaos suite's blind spots (--fault-coverage).
std::string FaultCoverageReport(const std::vector<SourceFile>& files,
                                const LayerSpec& layers);

/// TB_FAULT_POINT sites per declared layer name (layers with zero sites
/// are present with count 0). Files outside every layer are ignored.
std::map<std::string, size_t> FaultSitesPerLayer(
    const std::vector<SourceFile>& files, const LayerSpec& layers);

/// The fault-coverage CI ratchet (--check-fault-coverage): `required_text`
/// lists, one per line, layers that must keep TB_FAULT_POINT coverage —
/// `<layer> [min_sites]`, '#' comments, default minimum 1. Returns one
/// message per violated requirement (unknown layer, or site count below
/// the recorded floor); empty means the ratchet holds. The floor file is
/// committed, so a layer that once had fault points can never silently
/// drop back to zero.
std::vector<std::string> CheckFaultCoverage(
    const std::vector<SourceFile>& files, const LayerSpec& layers,
    const std::string& required_text);

// ---------------------------------------------------------------- output

std::string ToText(const std::vector<Finding>& findings);

/// SARIF 2.1.0: one run, driver "tabbench_analyze", every rule in the
/// rules array, one result per finding with physical + related locations.
std::string ToSarif(const std::vector<Finding>& findings);

}  // namespace tabbench_analyze

#endif  // TABBENCH_TOOLS_ANALYZE_ANALYZER_H_
