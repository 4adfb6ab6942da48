#include <cctype>
#include <regex>
#include <set>
#include <string>

#include "model.h"

/// The per-file rules: token/regex checks over one file's comment- and
/// string-stripped lines (ParsedFile::code_lines) or, where the rule reads
/// quoted text, its raw lines. Only tabbench-unchecked-status looks beyond
/// the file, for the set of Status/Result-returning names. Suppression and
/// sorting happen in Analyze() (analyzer.cc), as for every other pass.
///
/// std::regex is slow, so each regex search runs only on lines holding a
/// substring the pattern cannot match without (Contains below); that
/// halves the full-tree run and leaves every finding unchanged.
namespace tabbench_analyze {

namespace {

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool Contains(const std::string& s, const char* needle) {
  return s.find(needle) != std::string::npos;
}

/// Repo-relative path without a leading "./".
std::string NormalizedPath(const ParsedFile& pf) {
  const std::string& p = pf.src->path;
  return StartsWith(p, "./") ? p.substr(2) : p;
}

void Report(const ParsedFile& pf, size_t line, const char* rule,
            std::string message, std::vector<Finding>* findings) {
  Finding f;
  f.file = pf.src->path;
  f.line = line;
  f.rule = rule;
  f.message = std::move(message);
  findings->push_back(std::move(f));
}

// ---------------------------------------------------------------------------
// Rule: tabbench-determinism
//
// The paper's measurements are only meaningful if A(W,C) is a function —
// same workload, same configuration, same number — so the benchmark result
// paths (src/core, src/engine, src/exec/vec) must not read ambient entropy
// or wall clocks. All randomness flows through util/rng.h (explicit seed).
// ---------------------------------------------------------------------------

void CheckDeterminism(const ParsedFile& pf, std::vector<Finding>* findings) {
  const std::string& p = pf.src->path;
  // src/exec/vec is in scope too: the vectorized engine promises simulated
  // costs bit-identical to the Volcano executor, which an ambient-entropy
  // or wall-clock read (e.g. in morsel scheduling) would silently break.
  if (!StartsWith(p, "src/core/") && !StartsWith(p, "src/engine/") &&
      !StartsWith(p, "src/exec/vec/")) {
    return;
  }
  struct Pattern {
    std::regex re;
    const char* what;
  };
  static const Pattern kPatterns[] = {
      {std::regex(R"(\b(?:std\s*::\s*)?s?rand\s*\()"),
       "rand()/srand() is ambient entropy"},
      {std::regex(R"(\brandom_device\b)"),
       "std::random_device is ambient entropy"},
      {std::regex(R"(\btime\s*\(\s*(?:nullptr|NULL|0)\s*\))"),
       "time(nullptr) reads the wall clock"},
      {std::regex(R"(\bsystem_clock\s*::\s*now\s*\(\s*\))"),
       "system_clock::now() reads the wall clock"},
  };
  for (size_t ln = 0; ln < pf.code_lines.size(); ++ln) {
    const std::string& line = pf.code_lines[ln];
    if (!Contains(line, "rand") && !Contains(line, "time") &&
        !Contains(line, "system_clock")) {
      continue;
    }
    for (const auto& pat : kPatterns) {
      if (std::regex_search(line, pat.re)) {
        Report(pf, ln + 1, "tabbench-determinism",
               std::string(pat.what) +
                   "; benchmark result paths must draw randomness from an "
                   "explicitly seeded util/rng.h Rng",
               findings);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: tabbench-naked-new
// ---------------------------------------------------------------------------

void CheckNakedNew(const ParsedFile& pf, std::vector<Finding>* findings) {
  static const std::regex kNew(R"(\bnew\b(?!\s*;))");
  static const std::regex kDeletedFn(R"(=\s*delete\b)");
  static const std::regex kDelete(R"(\bdelete\b)");
  for (size_t ln = 0; ln < pf.code_lines.size(); ++ln) {
    const std::string& line = pf.code_lines[ln];
    if (Contains(line, "new") && std::regex_search(line, kNew)) {
      Report(pf, ln + 1, "tabbench-naked-new",
             "naked `new`; use std::make_unique/std::make_shared so "
             "ownership is explicit and exception-safe",
             findings);
    }
    if (!Contains(line, "delete")) continue;
    // `= delete` (deleted special members) is not a deallocation.
    const std::string scrubbed = std::regex_replace(line, kDeletedFn, "");
    if (std::regex_search(scrubbed, kDelete)) {
      Report(pf, ln + 1, "tabbench-naked-new",
             "naked `delete`; owning pointers should be std::unique_ptr "
             "so destruction is automatic",
             findings);
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: tabbench-raw-sleep
//
// Waiting in product code must stay deadline-aware: a raw
// std::this_thread sleep cannot be interrupted, so a job would hang for the
// whole delay. Product code has no sanctioned sleep: simulated delays are
// charged to the simulated clock (ExecContext::AdvanceClock), and threads
// that wait block on a condition variable.
// ---------------------------------------------------------------------------

void CheckRawSleep(const ParsedFile& pf, std::vector<Finding>* findings) {
  const std::string p = NormalizedPath(pf);
  if (!StartsWith(p, "src/")) return;  // tests/bench may sleep deliberately
  static const std::regex kSleep(
      R"(\bthis_thread\s*::\s*sleep_(for|until)\s*\()");
  for (size_t ln = 0; ln < pf.code_lines.size(); ++ln) {
    if (Contains(pf.code_lines[ln], "sleep_") &&
        std::regex_search(pf.code_lines[ln], kSleep)) {
      Report(pf, ln + 1, "tabbench-raw-sleep",
             "raw this_thread sleep cannot be interrupted; charge simulated "
             "time (ExecContext::AdvanceClock) or wait on a condition "
             "variable",
             findings);
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: tabbench-float-equal
//
// Cost and CFC arithmetic is floating point end to end; == against a float
// literal is almost always a latent bug (and a replay hazard: two
// platforms' FP rounding can diverge). Applies to the cost/CFC files.
// ---------------------------------------------------------------------------

void CheckFloatEqual(const ParsedFile& pf, std::vector<Finding>* findings) {
  static const std::regex kScope(
      R"((cost_model|cfc|improvement|goal)[^/]*\.(h|cc)$)");
  if (!std::regex_search(pf.src->path, kScope)) return;
  // A float literal adjacent to == or != on either side.
  static const std::regex kFloatEq(
      R"((?:[=!]=\s*[-+]?(?:\d+\.\d*|\.\d+)(?:[eE][-+]?\d+)?f?\b)|(?:\b(?:\d+\.\d*|\.\d+)(?:[eE][-+]?\d+)?f?\s*[=!]=))");
  for (size_t ln = 0; ln < pf.code_lines.size(); ++ln) {
    if (Contains(pf.code_lines[ln], "=") &&
        std::regex_search(pf.code_lines[ln], kFloatEq)) {
      Report(pf, ln + 1, "tabbench-float-equal",
             "floating-point equality comparison in cost/CFC code; compare "
             "with an explicit tolerance (std::abs(a - b) < eps) or "
             "restructure to avoid the comparison",
             findings);
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: tabbench-unsynced-write
//
// Benchmark artifacts must survive a crash: src/core writes results
// through util/file_util.h (AtomicWriteFile: temp file + rename,
// crc32c trailer) or the fsync'd run journal (util/run_journal.h). A direct
// std::ofstream — or C stdio opened for writing — bypasses both: a SIGKILL
// mid-write leaves a torn, checksum-less file that the resume machinery
// cannot trust. Reads (ifstream) are fine.
// ---------------------------------------------------------------------------

void CheckUnsyncedWrite(const ParsedFile& pf,
                        std::vector<Finding>* findings) {
  const std::string p = NormalizedPath(pf);
  if (!StartsWith(p, "src/core/")) return;
  static const std::regex kOfstream(
      R"(\b(?:std\s*::\s*)?(?:ofstream|fstream)\b)");
  static const std::regex kPreprocessor(R"(^\s*#)");
  for (size_t ln = 0; ln < pf.code_lines.size(); ++ln) {
    // `#include <fstream>` names the header, not a write.
    if (std::regex_search(pf.code_lines[ln], kPreprocessor)) continue;
    if (std::regex_search(pf.code_lines[ln], kOfstream)) {
      Report(pf, ln + 1, "tabbench-unsynced-write",
             "direct ofstream/fstream in src/core bypasses the "
             "durable write paths; save artifacts via AtomicWriteFile "
             "(util/file_util.h, crc32c trailer) or append to the fsync'd "
             "run journal (util/run_journal.h)",
             findings);
    }
  }
  // fopen with a write/append mode string ("w", "a", "r+", "wb", ...). The
  // mode is a string literal, which the stripper blanks, so scan raw lines.
  static const std::regex kFopenWrite(
      R"(\bfopen\s*\([^;]*,\s*"[^"]*[wa+][^"]*")");
  for (size_t ln = 0; ln < pf.raw_lines.size(); ++ln) {
    if (std::regex_search(pf.raw_lines[ln], kFopenWrite)) {
      Report(pf, ln + 1, "tabbench-unsynced-write",
             "fopen for writing in src/core bypasses the "
             "durable write paths; use AtomicWriteFile or the run journal",
             findings);
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: tabbench-unchecked-status
//
// Regex-level twin of [[nodiscard]] on Status/Result: a whole-statement
// call to a function declared (anywhere in the analyzed set) as returning
// Status or Result<T>, with the value discarded.
// ---------------------------------------------------------------------------

std::set<std::string> CollectStatusFunctions(const Model& model) {
  // Matches declarations/definitions like:
  //   Status Submit(...)        Result<double> SessionClock(...)
  //   static Status OK()        Status ThreadPool::Submit(...)
  static const std::regex kDecl(
      R"(\b(?:Status|Result\s*<[^;{}=]*>)\s+(?:\w+\s*::\s*)?(\w+)\s*\()");
  // Name-level analysis cannot resolve overloads, so a name that is *also*
  // declared with a non-Status return type anywhere (e.g. void
  // BTree::Insert vs Status Database::Insert) is ambiguous and skipped —
  // [[nodiscard]] catches the real Status overloads at compile time anyway.
  static const std::regex kOtherDecl(
      R"(\b(?:void|bool|int|size_t|uint64_t|int64_t|double)\s+(?:\w+\s*::\s*)?(\w+)\s*\()");
  std::set<std::string> names;
  std::set<std::string> ambiguous;
  for (const ParsedFile& pf : model.files) {
    for (const std::string& line : pf.code_lines) {
      if (!Contains(line, "(")) continue;  // both patterns need a paren
      for (auto it = std::sregex_iterator(line.begin(), line.end(), kDecl);
           it != std::sregex_iterator(); ++it) {
        names.insert((*it)[1].str());
      }
      for (auto it =
               std::sregex_iterator(line.begin(), line.end(), kOtherDecl);
           it != std::sregex_iterator(); ++it) {
        ambiguous.insert((*it)[1].str());
      }
    }
  }
  for (const std::string& name : ambiguous) names.erase(name);
  return names;
}

void CheckUncheckedStatus(const ParsedFile& pf,
                          const std::set<std::string>& status_fns,
                          std::vector<Finding>* findings) {
  // A full-statement call on one line: `Foo(...)`, `obj.Foo(...)`,
  // `ptr->Foo(...)`, `Ns::Foo(...)` ... ending in `;` with nothing
  // consuming the value.
  static const std::regex kBareCall(
      R"(^\s*(?:[A-Za-z_]\w*(?:\s*(?:\.|->|::)\s*))*([A-Za-z_]\w*)\s*\(.*\)\s*;\s*$)");
  auto is_continuation = [&pf](size_t ln) {
    // A line is a continuation when the previous non-blank code line does
    // not end a statement/block — e.g. the trailing argument of a
    // multi-line TB_ASSIGN_OR_RETURN(...) would otherwise look like a
    // bare call.
    for (size_t p = ln; p-- > 0;) {
      const std::string& prev = pf.code_lines[p];
      const size_t last = prev.find_last_not_of(" \t\r");
      if (last == std::string::npos) continue;  // blank: keep looking
      const char c = prev[last];
      return c != ';' && c != '{' && c != '}' && c != ':';
    }
    return false;
  };
  for (size_t ln = 0; ln < pf.code_lines.size(); ++ln) {
    const std::string& line = pf.code_lines[ln];
    if (!Contains(line, "(") || !Contains(line, ";")) continue;
    std::smatch m;
    if (!std::regex_match(line, m, kBareCall)) continue;
    if (is_continuation(ln)) continue;
    const std::string callee = m[1].str();
    if (status_fns.count(callee) == 0) continue;
    Report(pf, ln + 1, "tabbench-unchecked-status",
           "result of `" + callee +
               "` (returns Status/Result) is discarded; check it, "
               "propagate with TB_RETURN_IF_ERROR, or cast to (void) with "
               "a comment saying why the outcome does not matter",
           findings);
  }
}

// ---------------------------------------------------------------------------
// Rule: tabbench-unordered-iter
//
// Range-for over a std::unordered_{map,set} declared in the same file.
// Hash-table iteration order is an implementation detail; if it feeds
// ordered output (reports, replay logs, workload files) the run is not
// reproducible across standard libraries. Order-insensitive uses are
// expected to carry a NOLINT with a reason.
// ---------------------------------------------------------------------------

void CheckUnorderedIter(const ParsedFile& pf,
                        std::vector<Finding>* findings) {
  // A declaration whose *outermost* type is unordered (the `(^|[^<:\w])`
  // prefix rejects `std::vector<std::unordered_set<...>> v`, where
  // iteration order is actually the vector's and deterministic; `:` is
  // excluded so the engine cannot skip the optional `std::` and match the
  // nested type via the `::` qualifier).
  static const std::regex kDecl(
      R"((?:^|[^<:\w])(?:std\s*::\s*)?unordered_(?:map|set)\s*<[^;]*>\s+(\w+)\s*[;{=(,)])");
  // Range-for colon is space-separated in project style, which keeps `::`
  // qualifiers in the declaration part from matching.
  static const std::regex kRangeFor(R"(\bfor\s*\([^;]*\s:\s*(\w+)\s*\))");
  std::set<std::string> unordered_vars;
  for (const std::string& line : pf.code_lines) {
    if (!Contains(line, "unordered_")) continue;
    auto begin = std::sregex_iterator(line.begin(), line.end(), kDecl);
    for (auto it = begin; it != std::sregex_iterator(); ++it) {
      unordered_vars.insert((*it)[1].str());
    }
  }
  if (unordered_vars.empty()) return;
  for (size_t ln = 0; ln < pf.code_lines.size(); ++ln) {
    std::smatch m;
    if (Contains(pf.code_lines[ln], "for") &&
        std::regex_search(pf.code_lines[ln], m, kRangeFor) &&
        unordered_vars.count(m[1].str()) != 0) {
      Report(pf, ln + 1, "tabbench-unordered-iter",
             "range-for over unordered container `" + m[1].str() +
                 "`; hash-iteration order is unspecified — sort before "
                 "emitting ordered output, or NOLINT with a reason if the "
                 "consumer is order-insensitive",
             findings);
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: tabbench-include-guard (fixable: ApplyFixes rewrites the guard)
// ---------------------------------------------------------------------------

bool IsHeader(const std::string& path) {
  return path.size() > 2 && path.compare(path.size() - 2, 2, ".h") == 0;
}

struct GuardInfo {
  bool has_ifndef = false;
  size_t ifndef_line = 0;  // 0-based index into lines
  std::string name;
  bool has_define = false;
  size_t define_line = 0;
};

GuardInfo FindGuard(const std::vector<std::string>& code_lines) {
  static const std::regex kIfndef(R"(^\s*#\s*ifndef\s+(\w+))");
  static const std::regex kDefine(R"(^\s*#\s*define\s+(\w+))");
  static const std::regex kDirective(R"(^\s*#)");
  GuardInfo g;
  for (size_t ln = 0; ln < code_lines.size(); ++ln) {
    std::smatch m;
    if (!g.has_ifndef) {
      if (std::regex_search(code_lines[ln], m, kIfndef)) {
        g.has_ifndef = true;
        g.ifndef_line = ln;
        g.name = m[1].str();
      } else if (std::regex_search(code_lines[ln], kDirective)) {
        break;  // some other directive before any guard: treat as missing
      }
    } else {
      // Skip blank lines between the #ifndef and its #define.
      if (code_lines[ln].find_first_not_of(" \t\r") == std::string::npos) {
        continue;
      }
      if (std::regex_search(code_lines[ln], m, kDefine) &&
          m[1].str() == g.name) {
        g.has_define = true;
        g.define_line = ln;
      }
      break;
    }
  }
  return g;
}

void CheckIncludeGuard(const ParsedFile& pf, std::vector<Finding>* findings) {
  if (!IsHeader(pf.src->path)) return;
  const std::string want = CanonicalGuard(pf.src->path);
  const GuardInfo g = FindGuard(pf.code_lines);
  std::string problem;
  if (!g.has_ifndef || !g.has_define) {
    problem = "missing include guard";
  } else if (g.name != want) {
    problem = "include guard `" + g.name + "` does not match canonical `" +
              want + "`";
  } else {
    return;
  }
  Report(pf, g.has_ifndef ? g.ifndef_line + 1 : 1, "tabbench-include-guard",
         problem, findings);
}

// ---------------------------------------------------------------------------
// Rule: tabbench-include-hygiene
// ---------------------------------------------------------------------------

void CheckIncludeHygiene(const ParsedFile& pf,
                         std::vector<Finding>* findings) {
  for (const IncludeEdge& inc : pf.includes) {
    if (Contains(inc.raw, "../")) {
      Report(pf, inc.line, "tabbench-include-hygiene",
             "parent-relative #include; include project headers by their "
             "src/-relative path (the build adds src/ to the include path)",
             findings);
    }
  }
}

}  // namespace

std::string CanonicalGuard(const std::string& path) {
  std::string p = path;
  if (StartsWith(p, "./")) p = p.substr(2);
  if (StartsWith(p, "src/")) p = p.substr(4);
  std::string guard = "TABBENCH_";
  for (char c : p) {
    guard += std::isalnum(static_cast<unsigned char>(c))
                 ? static_cast<char>(
                       std::toupper(static_cast<unsigned char>(c)))
                 : '_';
  }
  guard += '_';
  return guard;
}

bool RewriteIncludeGuard(SourceFile* file) {
  const std::string want = CanonicalGuard(file->path);
  std::vector<std::string> lines = tabbench_tok::SplitLines(file->content);
  const GuardInfo g = FindGuard(tabbench_tok::SplitLines(
      tabbench_tok::StripCommentsAndStrings(file->content)));
  if (g.has_ifndef && g.has_define) {
    if (g.name == want) return false;
    // Rewrite the existing guard triple in place.
    lines[g.ifndef_line] = "#ifndef " + want;
    lines[g.define_line] = "#define " + want;
    static const std::regex kEndif(R"(^\s*#\s*endif\b.*$)");
    for (size_t ln = lines.size(); ln-- > 0;) {
      if (std::regex_match(lines[ln], kEndif)) {
        lines[ln] = "#endif  // " + want;
        break;
      }
    }
  } else {
    // No guard at all: wrap the whole file.
    lines.insert(lines.begin(), {"#ifndef " + want, "#define " + want, ""});
    while (!lines.empty() && lines.back().empty()) lines.pop_back();
    lines.push_back("");
    lines.push_back("#endif  // " + want);
    lines.push_back("");
  }
  std::string out;
  for (size_t i = 0; i < lines.size(); ++i) {
    out += lines[i];
    if (i + 1 < lines.size()) out += '\n';
  }
  file->content = out;
  return true;
}

void RunFilePass(const Model& model, std::vector<Finding>* findings) {
  const std::set<std::string> status_fns = CollectStatusFunctions(model);
  for (const ParsedFile& pf : model.files) {
    CheckDeterminism(pf, findings);
    CheckNakedNew(pf, findings);
    CheckRawSleep(pf, findings);
    CheckFloatEqual(pf, findings);
    CheckUnsyncedWrite(pf, findings);
    CheckUncheckedStatus(pf, status_fns, findings);
    CheckUnorderedIter(pf, findings);
    CheckIncludeGuard(pf, findings);
    CheckIncludeHygiene(pf, findings);
  }
}

}  // namespace tabbench_analyze
