#ifndef TABBENCH_TOOLS_ANALYZE_MODEL_H_
#define TABBENCH_TOOLS_ANALYZE_MODEL_H_

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "analyzer.h"
#include "cpptok.h"

/// Internal project model shared by the passes. Built once per
/// Analyze() call by BuildModel(); not part of the public API.
namespace tabbench_analyze {

using tabbench_tok::Token;

struct IncludeEdge {
  std::string raw;       // the quoted path as written
  std::string resolved;  // path of the included SourceFile; "" if external
  size_t line = 0;
};

/// A function definition (something with a body) found by the scope
/// scanner. Token indices are into ParsedFile::toks and cover the body
/// between, and excluding, the braces.
struct FunctionInfo {
  std::string name;       // unqualified ("Submit")
  std::string cls;        // enclosing/qualifying class ("" for free)
  std::string qualified;  // "ThreadPool::Submit" or "Submit"
  size_t file_index = 0;  // into Model::files
  size_t line = 0;        // definition line
  size_t body_begin = 0;  // first token inside the body
  size_t body_end = 0;    // one past the last body token
  size_t params_begin = 0;  // first token inside the parameter parens
  size_t params_end = 0;    // one past the last parameter token
  /// Mutexes a TB_REQUIRES on the *definition* declares held on entry,
  /// qualified ("BTree::cache_mu_"). Requires on the in-class declaration
  /// land in ClassInfo::method_requires instead; passes merge both.
  std::set<std::string> requires_held;
};

struct MemberInfo {
  std::string type;  // first type identifier ("Mutex", "CircuitBreaker",
                     // "std" for std:: anything, "" when unparsed)
  size_t line = 0;
  size_t file_index = 0;  // file holding this declaration
  /// Mutex this member is guarded by (TB_GUARDED_BY/GUARDED_BY arg), "".
  std::string guarded_by;
  /// `const` / std::atomic at the top level of the declared type: such
  /// members need no lock, so the lockset pass skips them.
  bool is_const = false;
  bool is_atomic = false;
};

struct ClassInfo {
  std::string name;
  std::map<std::string, MemberInfo> members;
  /// Mutex-typed member names (type Mutex, or named by a GUARDED_BY).
  std::set<std::string> mutexes;
  /// TB_REQUIRES sets from in-class *method declarations*, keyed by method
  /// name, args qualified ("BTree::cache_mu_"). Out-of-line definitions
  /// rarely repeat the annotation, so the passes consult this map.
  std::map<std::string, std::set<std::string>> method_requires;
  /// Declared lock-order edges from TB_ACQUIRED_BEFORE/AFTER annotations:
  /// (qualified-this-mutex -> qualified-other-mutex, line). BEFORE(x) on
  /// member m yields Class::m -> x; AFTER(x) yields x -> Class::m.
  struct DeclaredEdge {
    std::string from;
    std::string to;
    size_t line = 0;
  };
  std::vector<DeclaredEdge> declared_edges;
};

/// Line-keyed NOLINT suppressions (parsed from comment text only).
struct Suppressions {
  std::map<size_t, std::set<std::string>> by_line;  // "*" = all rules
  std::set<std::string> whole_file;

  bool Suppressed(size_t line, const std::string& rule) const;
};

struct ParsedFile {
  const SourceFile* src = nullptr;
  std::vector<std::string> raw_lines;
  std::vector<std::string> code_lines;  // comments/strings blanked
  std::vector<Token> toks;
  std::vector<IncludeEdge> includes;
  std::vector<FunctionInfo> functions;
  Suppressions sup;
};

struct Model {
  std::vector<ParsedFile> files;
  /// Class name -> merged info (headers declare members, .cc files add
  /// method bodies; both may contribute).
  std::map<std::string, ClassInfo> classes;
  /// Unqualified function name -> indices of every definition, as
  /// (file_index, function index) pairs flattened into Model::functions.
  std::vector<FunctionInfo> functions;  // all, in file order
  std::map<std::string, std::vector<size_t>> by_name;       // unqualified
  std::map<std::string, std::vector<size_t>> by_qualified;  // "C::m"
};

Model BuildModel(const std::vector<SourceFile>& files);

/// Best-effort callee resolution used by the lock-order and taint passes.
/// `receiver_type` is the class of the object expression ("" for a bare
/// call, in which case `caller_cls` methods win, then a unique global
/// name). Returns indices into model.functions; empty when unresolved or
/// ambiguous (ambiguity is skipped, not guessed).
std::vector<size_t> ResolveCall(const Model& model,
                                const std::string& receiver_type,
                                const std::string& caller_cls,
                                const std::string& name);

// The passes (each appends to *findings; suppression is applied by the
// caller in Analyze()).
void RunLayeringPass(const Model& model, const LayerSpec& layers,
                     std::vector<Finding>* findings);
void RunStatusFlowPass(const Model& model, std::vector<Finding>* findings);
/// The lock-order, taint, lockset and blocking passes, in that order, over
/// one extraction of every function body's facts.
void RunBodyFactPasses(const Model& model, std::vector<Finding>* findings);

// The path-sensitive passes (passes_cfg.cc): per-function CFGs (cfg.h)
// plus forward dataflow (dataflow.h).
void RunDurabilityPass(const Model& model, const ProtocolSpec& protocols,
                       std::vector<Finding>* findings);
void RunReleasePass(const Model& model, std::vector<Finding>* findings);
void RunErrorPathPass(const Model& model, std::vector<Finding>* findings);

// The per-file rules (passes_file.cc): determinism, naked-new, raw-sleep,
// float-equal, unsynced-write, unchecked-status, unordered-iter,
// include-guard, include-hygiene.
void RunFilePass(const Model& model, std::vector<Finding>* findings);

/// Rewrites (or, when absent, inserts) `file`'s include guard to
/// CanonicalGuard(file->path). Returns false when the guard is already
/// canonical, so a second application changes nothing.
bool RewriteIncludeGuard(SourceFile* file);

}  // namespace tabbench_analyze

#endif  // TABBENCH_TOOLS_ANALYZE_MODEL_H_
