#include "model.h"

#include <algorithm>
#include <cctype>
#include <regex>
#include <set>

namespace tabbench_analyze {

namespace {

using tabbench_tok::KeepCommentsOnly;
using tabbench_tok::SplitLines;
using tabbench_tok::StripCommentsAndStrings;
using tabbench_tok::TokKind;
using tabbench_tok::Tokenize;

bool IsIdent(const Token& t) { return t.kind == TokKind::kIdent; }
bool IsPunct(const Token& t, const char* text) {
  return t.kind == TokKind::kPunct && t.text == text;
}

const std::set<std::string>& TypeQualifiers() {
  static const std::set<std::string> kQuals = {
      "mutable", "static",   "const",    "constexpr", "inline",
      "volatile", "explicit", "virtual",  "extern",    "thread_local"};
  return kQuals;
}

bool IsAnnotationMacro(const std::string& name) {
  return name.rfind("TB_", 0) == 0 || name == "GUARDED_BY" ||
         name == "ACQUIRED_BEFORE" || name == "ACQUIRED_AFTER" ||
         name == "PT_GUARDED_BY";
}

// ---------------------------------------------------------------------------
// Suppressions: NOLINT(rule) / NOLINT on the anchor line,
// NOLINTNEXTLINE(rule) on the line above, NOLINTFILE(rule) anywhere.
// Parsed from comment text only (KeepCommentsOnly), so a marker quoted
// inside a string literal — e.g. a test fixture — suppresses nothing.
// ---------------------------------------------------------------------------

void AddRuleList(const std::string& args, std::set<std::string>* out) {
  if (args.empty()) {
    out->insert("*");
    return;
  }
  std::string rule;
  std::stringstream ss(args);
  while (std::getline(ss, rule, ',')) {
    rule.erase(std::remove_if(rule.begin(), rule.end(), ::isspace),
               rule.end());
    if (!rule.empty()) out->insert(rule);
  }
}

Suppressions ParseSuppressions(const std::vector<std::string>& comments) {
  static const std::regex kMarker(
      R"(NOLINT(NEXTLINE|FILE)?\s*(?:\(([^)]*)\))?)");
  Suppressions sup;
  for (size_t ln = 0; ln < comments.size(); ++ln) {
    auto begin = std::sregex_iterator(comments[ln].begin(),
                                      comments[ln].end(), kMarker);
    for (auto it = begin; it != std::sregex_iterator(); ++it) {
      const std::string kind = (*it)[1].str();
      const std::string args = (*it)[2].str();
      if (kind == "FILE") {
        AddRuleList(args, &sup.whole_file);
      } else if (kind == "NEXTLINE") {
        AddRuleList(args, &sup.by_line[ln + 2]);
      } else {
        AddRuleList(args, &sup.by_line[ln + 1]);
      }
    }
  }
  return sup;
}

// ---------------------------------------------------------------------------
// Scope scanner
// ---------------------------------------------------------------------------

struct Scope {
  enum Kind { kNamespace, kClass, kFunction, kBlock } kind;
  std::string name;        // class scopes: possibly "Outer::Inner"
  size_t function_index;   // into pf->functions when kind == kFunction
};

/// Joins the text of tokens [b, e), space-free for simple expressions
/// ("mu_", "session->mu_").
std::string JoinTokens(const std::vector<Token>& toks, size_t b, size_t e) {
  std::string out;
  for (size_t i = b; i < e; ++i) out += toks[i].text;
  return out;
}

/// First '(' in [b, e) at angle-bracket depth 0 (so the parens of a
/// `std::function<void()>` return type do not win). Returns e when none.
size_t FirstTopLevelParen(const std::vector<Token>& toks, size_t b,
                          size_t e) {
  int angle = 0;
  for (size_t i = b; i < e; ++i) {
    if (IsPunct(toks[i], "<")) ++angle;
    if (IsPunct(toks[i], ">") && angle > 0) --angle;
    // The tokenizer keeps ">>" whole; in a declaration prefix it is two
    // template closers (std::future<Result<T>>), never a shift.
    if (IsPunct(toks[i], ">>")) angle = angle > 1 ? angle - 2 : 0;
    if (angle == 0 && IsPunct(toks[i], "(")) return i;
  }
  return e;
}

struct ScanState {
  ParsedFile* pf = nullptr;
  ClassInfo* cls = nullptr;  // innermost class scope, or nullptr
  std::string cls_name;
};

/// Splits annotation-argument tokens [b, e) on top-level commas.
std::vector<std::string> SplitAnnotationArgs(const std::vector<Token>& toks,
                                             size_t b, size_t e) {
  std::vector<std::string> args;
  std::string cur;
  int depth = 0;
  for (size_t i = b; i < e; ++i) {
    if (IsPunct(toks[i], "(")) ++depth;
    if (IsPunct(toks[i], ")")) --depth;
    if (depth == 0 && IsPunct(toks[i], ",")) {
      if (!cur.empty()) args.push_back(cur);
      cur.clear();
      continue;
    }
    cur += toks[i].text;
  }
  if (!cur.empty()) args.push_back(cur);
  return args;
}

/// Parses a class-scope declaration segment [b, e): a data member
/// (recorded, with annotations) or a method declaration (only its
/// TB_REQUIRES set is kept — definitions are what the passes walk).
void ParseMember(ParsedFile* pf, ClassInfo* cls, const std::string& cls_name,
                 size_t b, size_t e, size_t file_index) {
  const std::vector<Token>& toks = pf->toks;
  // An access label opens the segment of the member that follows it
  // (`private: Mutex mu_;` is one `;`-delimited segment): step past it.
  while (b + 1 < e && toks[b].kind == TokKind::kIdent &&
         (toks[b].text == "public" || toks[b].text == "private" ||
          toks[b].text == "protected") &&
         IsPunct(toks[b + 1], ":")) {
    b += 2;
  }
  if (b >= e) return;
  if (toks[b].kind == TokKind::kIdent &&
      (toks[b].text == "friend" || toks[b].text == "using" ||
       toks[b].text == "typedef" || toks[b].text == "public" ||
       toks[b].text == "private" || toks[b].text == "protected" ||
       toks[b].text == "enum" || toks[b].text == "class" ||
       toks[b].text == "struct" || toks[b].text == "template")) {
    return;
  }

  // Cut at the first top-level `=` (default member initializer / deleted
  // function); annotations always precede it in project style.
  size_t cut = e;
  {
    int angle = 0, paren = 0;
    for (size_t i = b; i < e; ++i) {
      if (IsPunct(toks[i], "<")) ++angle;
      if (IsPunct(toks[i], ">") && angle > 0) --angle;
      if (IsPunct(toks[i], ">>")) angle = angle > 1 ? angle - 2 : 0;
      if (IsPunct(toks[i], "(")) ++paren;
      if (IsPunct(toks[i], ")") && paren > 0) --paren;
      if (angle == 0 && paren == 0 && IsPunct(toks[i], "=")) {
        cut = i;
        break;
      }
    }
  }

  // Separate trailing annotation macro groups from the declarator, and
  // remember each annotation's argument tokens.
  struct Annotation {
    std::string macro;
    size_t arg_begin, arg_end;  // tokens inside the parens
    size_t line;
  };
  std::vector<Annotation> annotations;
  size_t decl_end = cut;
  // Scan forward; the first annotation macro ends the declarator.
  for (size_t i = b; i < cut; ++i) {
    if (IsIdent(toks[i]) && IsAnnotationMacro(toks[i].text) && i + 1 < cut &&
        IsPunct(toks[i + 1], "(")) {
      if (decl_end == cut) decl_end = i;
      int depth = 1;
      size_t j = i + 2;
      while (j < cut && depth > 0) {
        if (IsPunct(toks[j], "(")) ++depth;
        if (IsPunct(toks[j], ")")) --depth;
        ++j;
      }
      annotations.push_back({toks[i].text, i + 2, j - 1, toks[i].line});
      i = j - 1;
    }
  }

  if (decl_end <= b) return;

  auto qualify = [&cls_name](std::string arg) -> std::string {
    // Strip whitespace and any quotes left by the raw-line annotation scan.
    arg.erase(std::remove_if(arg.begin(), arg.end(),
                             [](char c) { return std::isspace(
                                   static_cast<unsigned char>(c)) ||
                                   c == '"'; }),
              arg.end());
    if (arg.empty()) return arg;
    if (arg.find("::") != std::string::npos) return arg;
    return cls_name + "::" + arg;
  };

  // A declarator ending in ')' — possibly after const/noexcept/override —
  // is a method declaration: keep its TB_REQUIRES set (definitions rarely
  // repeat the annotation) and stop.
  {
    size_t d = decl_end;
    while (d > b && IsIdent(toks[d - 1]) &&
           (toks[d - 1].text == "const" || toks[d - 1].text == "noexcept" ||
            toks[d - 1].text == "override" || toks[d - 1].text == "final")) {
      --d;
    }
    if (d > b && IsPunct(toks[d - 1], ")")) {
      const size_t p = FirstTopLevelParen(toks, b, d);
      if (p < d && p > b && IsIdent(toks[p - 1])) {
        for (const Annotation& a : annotations) {
          if (a.macro != "TB_REQUIRES" && a.macro != "REQUIRES") continue;
          for (const std::string& arg :
               SplitAnnotationArgs(toks, a.arg_begin, a.arg_end)) {
            cls->method_requires[toks[p - 1].text].insert(qualify(arg));
          }
        }
      }
      return;
    }
  }

  const Token& name_tok = toks[decl_end - 1];
  if (!IsIdent(name_tok)) return;
  if (TypeQualifiers().count(name_tok.text) != 0) return;
  // `Mutex& operator=(const Mutex&) = delete;` cuts at the operator's `=`,
  // leaving "operator" as the declarator tail: a function, not a member.
  if (name_tok.text == "operator") return;

  // Type: first identifier that is not a qualifier keyword.
  std::string type;
  for (size_t i = b; i + 1 < decl_end; ++i) {
    if (IsIdent(toks[i]) && TypeQualifiers().count(toks[i].text) == 0) {
      type = toks[i].text;
      break;
    }
  }
  if (type.empty()) return;  // e.g. a lone identifier: not a declaration

  MemberInfo info;
  info.type = type;
  info.line = name_tok.line;
  info.file_index = file_index;
  // const/atomic only count at angle-bracket depth 0: a `const` buried in
  // a template argument does not make the member itself immutable.
  {
    int angle = 0;
    for (size_t i = b; i + 1 < decl_end; ++i) {
      if (IsPunct(toks[i], "<")) ++angle;
      if (IsPunct(toks[i], ">") && angle > 0) --angle;
      if (IsPunct(toks[i], ">>")) angle = angle > 1 ? angle - 2 : 0;
      if (angle != 0 || !IsIdent(toks[i])) continue;
      if (toks[i].text == "const" || toks[i].text == "constexpr") {
        info.is_const = true;
      }
      if (toks[i].text == "atomic" || toks[i].text == "atomic_flag") {
        info.is_atomic = true;
      }
    }
  }
  const std::string qualified_self = cls_name + "::" + name_tok.text;

  for (const Annotation& a : annotations) {
    const std::string arg =
        JoinTokens(toks, a.arg_begin, a.arg_end);
    if (a.macro == "TB_GUARDED_BY" || a.macro == "GUARDED_BY" ||
        a.macro == "TB_PT_GUARDED_BY" || a.macro == "PT_GUARDED_BY") {
      info.guarded_by = qualify(arg);
      // The guard expression names a mutex even if its own declaration
      // was not parsed (e.g. declared via a macro).
      if (arg.find("::") == std::string::npos && !arg.empty()) {
        cls->mutexes.insert(arg);
      }
    }
  }

  // TB_ACQUIRED_BEFORE/AFTER arguments are typically string literals
  // ("ThreadPool::mu_"), which the stripper blanks — recover them from the
  // raw source lines of this declaration.
  {
    static const std::regex kOrder(
        R"(TB_ACQUIRED_(BEFORE|AFTER)\s*\(([^)]*)\))");
    // Scan through the end of the whole declaration (annotations may wrap
    // onto their own line after the member name).
    const size_t first = toks[b].line, last = toks[e - 1].line;
    for (size_t ln = first; ln <= last && ln <= pf->raw_lines.size();
         ++ln) {
      const std::string& raw = pf->raw_lines[ln - 1];
      auto begin = std::sregex_iterator(raw.begin(), raw.end(), kOrder);
      for (auto it = begin; it != std::sregex_iterator(); ++it) {
        const bool before = (*it)[1].str() == "BEFORE";
        std::stringstream ss((*it)[2].str());
        std::string arg;
        while (std::getline(ss, arg, ',')) {
          const std::string other = qualify(arg);
          if (other.empty()) continue;
          ClassInfo::DeclaredEdge edge;
          edge.from = before ? qualified_self : other;
          edge.to = before ? other : qualified_self;
          edge.line = ln;
          cls->declared_edges.push_back(edge);
        }
        cls->mutexes.insert(name_tok.text);
      }
    }
  }

  if (type == "Mutex") cls->mutexes.insert(name_tok.text);
  cls->members[name_tok.text] = info;
}

void ScanFile(ParsedFile* pf, Model* model, size_t file_index) {
  const std::vector<Token>& toks = pf->toks;
  std::vector<Scope> stack;
  size_t stmt_start = 0;
  int paren = 0;

  auto innermost_class = [&]() -> Scope* {
    for (size_t s = stack.size(); s-- > 0;) {
      if (stack[s].kind == Scope::kFunction) return nullptr;
      if (stack[s].kind == Scope::kClass) return &stack[s];
    }
    return nullptr;
  };
  auto inside_function = [&]() {
    for (const Scope& s : stack) {
      if (s.kind == Scope::kFunction) return true;
    }
    return false;
  };

  for (size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kPunct) continue;
    if (t.text == "(") {
      ++paren;
      continue;
    }
    if (t.text == ")") {
      if (paren > 0) --paren;
      continue;
    }
    if (paren > 0) continue;  // braces/semicolons inside arguments

    if (t.text == ";") {
      Scope* cls_scope = innermost_class();
      if (cls_scope != nullptr && !inside_function()) {
        ParseMember(pf, &model->classes[cls_scope->name], cls_scope->name,
                    stmt_start, i, file_index);
      }
      stmt_start = i + 1;
      continue;
    }

    if (t.text == "{") {
      size_t b = stmt_start;
      const size_t e = i;
      // An access label may open the segment (`public: struct Options {`);
      // step past it so the class/struct detection below still fires.
      while (b + 1 < e && IsIdent(toks[b]) &&
             (toks[b].text == "public" || toks[b].text == "private" ||
              toks[b].text == "protected") &&
             IsPunct(toks[b + 1], ":")) {
        b += 2;
      }
      Scope scope{Scope::kBlock, "", 0};
      if (b < e && IsIdent(toks[b]) && toks[b].text == "namespace") {
        scope.kind = Scope::kNamespace;
        scope.name = (b + 1 < e && IsIdent(toks[b + 1]))
                         ? toks[b + 1].text
                         : "<anon>";
      } else if (b < e && IsIdent(toks[b]) &&
                 (toks[b].text == "class" || toks[b].text == "struct") &&
                 b + 1 < e && IsIdent(toks[b + 1])) {
        scope.kind = Scope::kClass;
        std::string name = toks[b + 1].text;
        // `class TB_CAPABILITY("mutex") Mutex` — the attribute macro is
        // followed by its (stripped) argument parens, then the real name.
        if (IsAnnotationMacro(name) || name == "alignas") {
          for (size_t j = b + 2; j < e; ++j) {
            if (IsIdent(toks[j]) && !IsAnnotationMacro(toks[j].text)) {
              name = toks[j].text;
              break;
            }
          }
        }
        Scope* outer = innermost_class();
        scope.name = outer != nullptr ? outer->name + "::" + name : name;
        model->classes[scope.name].name = scope.name;
      } else if (!inside_function()) {
        const size_t p = FirstTopLevelParen(toks, b, e);
        if (p < e && p > b && IsIdent(toks[p - 1])) {
          std::string name = toks[p - 1].text;
          size_t q = p - 1;
          if (q > b && IsPunct(toks[q - 1], "~")) {
            name = "~" + name;
            --q;
          }
          std::string cls;
          // Walk back `Class ::` qualifiers; the innermost one is the
          // class the method belongs to.
          while (q >= b + 2 && IsPunct(toks[q - 1], "::") &&
                 IsIdent(toks[q - 2])) {
            cls = toks[q - 2].text;
            q -= 2;
            break;  // innermost qualifier only
          }
          if (cls.empty()) {
            Scope* outer = innermost_class();
            if (outer != nullptr) cls = outer->name;
          }
          FunctionInfo fn;
          fn.name = name;
          fn.cls = cls;
          fn.qualified = cls.empty() ? name : cls + "::" + name;
          fn.file_index = file_index;
          fn.line = toks[p - 1].line;
          fn.body_begin = i + 1;
          fn.body_end = i + 1;  // patched when the scope pops
          // Parameter token range: inside the declarator parens.
          {
            int depth = 0;
            for (size_t j = p; j < e; ++j) {
              if (IsPunct(toks[j], "(")) ++depth;
              if (IsPunct(toks[j], ")") && --depth == 0) {
                fn.params_begin = p + 1;
                fn.params_end = j;
                // TB_REQUIRES on the definition sits between the
                // parameter close and the body brace.
                for (size_t k = j + 1; k + 1 < e; ++k) {
                  if (!IsIdent(toks[k]) ||
                      (toks[k].text != "TB_REQUIRES" &&
                       toks[k].text != "REQUIRES") ||
                      !IsPunct(toks[k + 1], "(")) {
                    continue;
                  }
                  int d2 = 1;
                  size_t m = k + 2;
                  while (m < e && d2 > 0) {
                    if (IsPunct(toks[m], "(")) ++d2;
                    if (IsPunct(toks[m], ")")) --d2;
                    ++m;
                  }
                  for (std::string arg :
                       SplitAnnotationArgs(toks, k + 2, m - 1)) {
                    if (arg.find("::") == std::string::npos &&
                        !cls.empty()) {
                      arg = cls + "::" + arg;
                    }
                    fn.requires_held.insert(arg);
                  }
                }
                break;
              }
            }
          }
          scope.kind = Scope::kFunction;
          scope.function_index = pf->functions.size();
          pf->functions.push_back(fn);
        } else {
          // Possibly a brace-initialized member: `std::atomic<int> n_{0}`.
          Scope* cls_scope = innermost_class();
          if (cls_scope != nullptr) {
            ParseMember(pf, &model->classes[cls_scope->name],
                        cls_scope->name, b, e, file_index);
          }
        }
      }
      stack.push_back(scope);
      stmt_start = i + 1;
      continue;
    }

    if (t.text == "}") {
      if (!stack.empty()) {
        if (stack.back().kind == Scope::kFunction) {
          pf->functions[stack.back().function_index].body_end = i;
        }
        stack.pop_back();
      }
      stmt_start = i + 1;
      continue;
    }
  }
}

}  // namespace

bool Suppressions::Suppressed(size_t line, const std::string& rule) const {
  if (whole_file.count("*") != 0 || whole_file.count(rule) != 0) {
    return true;
  }
  auto it = by_line.find(line);
  if (it == by_line.end()) return false;
  return it->second.count("*") != 0 || it->second.count(rule) != 0;
}

Model BuildModel(const std::vector<SourceFile>& files) {
  Model model;
  model.files.reserve(files.size());

  std::set<std::string> paths;
  for (const SourceFile& f : files) paths.insert(f.path);

  static const std::regex kInclude(R"re(^\s*#\s*include\s+"([^"]+)")re");
  for (const SourceFile& f : files) {
    ParsedFile pf;
    pf.src = &f;
    pf.raw_lines = SplitLines(f.content);
    const std::string stripped = StripCommentsAndStrings(f.content);
    pf.code_lines = SplitLines(stripped);
    pf.toks = Tokenize(stripped);
    pf.sup = ParseSuppressions(SplitLines(KeepCommentsOnly(f.content)));

    const std::string dir =
        f.path.find('/') != std::string::npos
            ? f.path.substr(0, f.path.rfind('/') + 1)
            : "";
    for (size_t ln = 0; ln < pf.raw_lines.size(); ++ln) {
      std::smatch m;
      if (!std::regex_search(pf.raw_lines[ln], m, kInclude)) continue;
      IncludeEdge edge;
      edge.raw = m[1].str();
      edge.line = ln + 1;
      for (const std::string& cand :
           {edge.raw, "src/" + edge.raw, dir + edge.raw}) {
        if (paths.count(cand) != 0) {
          edge.resolved = cand;
          break;
        }
      }
      pf.includes.push_back(edge);
    }
    model.files.push_back(std::move(pf));
  }

  for (size_t fi = 0; fi < model.files.size(); ++fi) {
    ScanFile(&model.files[fi], &model, fi);
  }
  for (ParsedFile& pf : model.files) {
    for (const FunctionInfo& fn : pf.functions) {
      model.by_name[fn.name].push_back(model.functions.size());
      model.by_qualified[fn.qualified].push_back(model.functions.size());
      model.functions.push_back(fn);
    }
  }
  return model;
}

std::vector<size_t> ResolveCall(const Model& model,
                                const std::string& receiver_type,
                                const std::string& caller_cls,
                                const std::string& name) {
  if (!receiver_type.empty()) {
    auto it = model.by_qualified.find(receiver_type + "::" + name);
    if (it != model.by_qualified.end()) return it->second;
    return {};
  }
  if (!caller_cls.empty()) {
    auto it = model.by_qualified.find(caller_cls + "::" + name);
    if (it != model.by_qualified.end()) return it->second;
  }
  auto it = model.by_name.find(name);
  if (it == model.by_name.end()) return {};
  // Unqualified cross-file resolution only when the name is unambiguous:
  // every definition must share one qualified name.
  std::set<std::string> distinct;
  for (size_t idx : it->second) {
    distinct.insert(model.functions[idx].qualified);
  }
  if (distinct.size() != 1) return {};
  return it->second;
}

}  // namespace tabbench_analyze
