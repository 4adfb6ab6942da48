#ifndef TABBENCH_TOOLS_ANALYZE_CPPTOK_H_
#define TABBENCH_TOOLS_ANALYZE_CPPTOK_H_

#include <cstddef>
#include <string>
#include <vector>

/// cpptok — the lightweight C++ source scanner under tabbench_analyze.
///
/// It is not a compiler front end: no preprocessing, no templates, no
/// overload resolution. What it does do — exactly and deterministically —
/// is separate code from comments/strings while preserving line structure,
/// and split code into identifier/number/punctuation tokens tagged with
/// line numbers. That is enough for every project rule: the rules reason
/// about project idioms (MutexLock, Status locals, #include lines), not
/// about arbitrary C++.
///
/// Dependency-free (standard library only) so the analyzer builds before —
/// and independently of — everything it checks.
namespace tabbench_tok {

/// Replaces the *contents* of comments, string literals, and char literals
/// with spaces while preserving length and line structure, so token- and
/// regex-level rules never fire on prose or quoted text. Handles //,
/// /* */, "..." (with escapes), '...', and raw strings R"delim(...)delim".
std::string StripCommentsAndStrings(const std::string& src);

/// The complement used for suppression markers: blanks code, string, and
/// char-literal contents but *keeps* comment text. Parsing NOLINT markers
/// from this (rather than from raw source) means a marker quoted inside a
/// string literal — e.g. an analyzer-test fixture — does not suppress
/// anything in the file that quotes it.
std::string KeepCommentsOnly(const std::string& src);

/// Splits on '\n'; a trailing newline yields a final empty line, matching
/// how editors count lines.
std::vector<std::string> SplitLines(const std::string& s);

enum class TokKind {
  kIdent,   // identifiers and keywords: [A-Za-z_]\w*
  kNumber,  // numeric literals (pp-number approximation)
  kPunct,   // everything else; multi-char operators kept together
};

struct Token {
  TokKind kind;
  std::string text;
  size_t line = 0;  // 1-based
};

/// Tokenizes comment/string-stripped code (run StripCommentsAndStrings
/// first; quoted text would otherwise tokenize as code). Multi-char
/// operators that matter for scanning C++ declarations — `::`, `->`,
/// `<<`, `>>`, `==`, `!=`, `<=`, `>=`, `&&`, `||`, `+=`, `-=` — stay
/// single tokens; all other punctuation is emitted one char at a time.
std::vector<Token> Tokenize(const std::string& stripped_src);

}  // namespace tabbench_tok

#endif  // TABBENCH_TOOLS_ANALYZE_CPPTOK_H_
