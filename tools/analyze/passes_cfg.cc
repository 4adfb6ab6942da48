/// The path-sensitive passes (analyzer.h passes 7–9): durability-protocol
/// ordering, release-on-all-paths, and error-path soundness. All three run
/// on per-function CFGs (cfg.h) with the forward dataflow solver
/// (dataflow.h); lambda bodies are carved out of their enclosing function
/// and analyzed as independent units, since they run on their own schedule.

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cfg.h"
#include "dataflow.h"
#include "model.h"

namespace tabbench_analyze {

namespace {

using tabbench_tok::TokKind;

bool IsIdent(const Token& t) { return t.kind == TokKind::kIdent; }

bool IsPunct(const Token& t, const char* s) {
  return t.kind == TokKind::kPunct && t.text == s;
}

size_t MatchParen(const std::vector<Token>& toks, size_t open, size_t end) {
  int depth = 0;
  for (size_t j = open; j < end; ++j) {
    if (IsPunct(toks[j], "(") || IsPunct(toks[j], "[") ||
        IsPunct(toks[j], "{")) {
      ++depth;
    } else if (IsPunct(toks[j], ")") || IsPunct(toks[j], "]") ||
               IsPunct(toks[j], "}")) {
      --depth;
      if (depth == 0) return j;
    }
  }
  return end;
}

/// Identifiers that look like calls but are not (control flow, casts, the
/// analyzer-relevant macros that get their own CFG treatment).
bool IsCallKeyword(const std::string& s) {
  static const std::set<std::string> kSet = {
      "if",          "while",       "for",
      "switch",      "return",      "sizeof",
      "alignof",     "decltype",    "static_cast",
      "reinterpret_cast", "const_cast", "dynamic_cast",
      "new",         "delete",      "defined",
      "TB_RETURN_IF_ERROR", "TB_ASSIGN_OR_RETURN"};
  return kSet.count(s) != 0;
}

struct Call {
  std::string name;
  std::string receiver;  // `recv.name(...)` / `recv->name(...)`, else ""
  size_t line = 0;
  size_t args_begin = 0, args_end = 0;  // tokens between the parens
};

std::vector<Call> CallsInRange(const std::vector<Token>& toks, size_t b,
                               size_t e) {
  std::vector<Call> out;
  for (size_t j = b; j + 1 < e; ++j) {
    if (!IsIdent(toks[j]) || !IsPunct(toks[j + 1], "(")) continue;
    if (IsCallKeyword(toks[j].text)) continue;
    Call c;
    c.name = toks[j].text;
    c.line = toks[j].line;
    if (j >= b + 2 &&
        (IsPunct(toks[j - 1], ".") || IsPunct(toks[j - 1], "->")) &&
        IsIdent(toks[j - 2])) {
      c.receiver = toks[j - 2].text;
    }
    size_t close = MatchParen(toks, j + 1, e);
    c.args_begin = j + 2;
    c.args_end = close;
    out.push_back(std::move(c));
  }
  return out;
}

bool ArgsContainIdent(const std::vector<Token>& toks, const Call& c,
                      const std::string& ident) {
  for (size_t j = c.args_begin; j < c.args_end && j < toks.size(); ++j) {
    if (IsIdent(toks[j]) && toks[j].text == ident) return true;
  }
  return false;
}

bool OpMatches(const std::vector<Token>& toks, const Call& c,
               const ProtocolSpec::Op& op) {
  if (c.name != op.name) return false;
  return op.arg.empty() || ArgsContainIdent(toks, c, op.arg);
}

// ------------------------------------------------------------- CFG units

/// One analyzable body: a function, or a lambda carved out of one.
struct CfgUnit {
  size_t file_index = 0;
  const FunctionInfo* fn = nullptr;  // the owning top-level function
  std::string name;
  bool is_lambda = false;
  Cfg cfg;
};

void AppendUnits(const Model& model, const FunctionInfo& fn,
                 std::vector<CfgUnit>* out) {
  const ParsedFile& pf = model.files[fn.file_index];
  CfgUnit top;
  top.file_index = fn.file_index;
  top.fn = &fn;
  top.name = fn.qualified;
  top.cfg = BuildCfg(pf.toks, fn.body_begin, fn.body_end);
  std::vector<std::pair<size_t, size_t>> queue = top.cfg.lambda_bodies;
  out->push_back(std::move(top));
  size_t k = 0;
  for (size_t qi = 0; qi < queue.size(); ++qi) {
    CfgUnit u;
    u.file_index = fn.file_index;
    u.fn = &fn;
    u.is_lambda = true;
    u.name = fn.qualified + "::lambda#" + std::to_string(++k);
    u.cfg = BuildCfg(pf.toks, queue[qi].first, queue[qi].second);
    for (const auto& lb : u.cfg.lambda_bodies) queue.push_back(lb);
    out->push_back(std::move(u));
  }
}

std::vector<CfgUnit> UnitsForFile(const Model& model, size_t file_index) {
  std::vector<CfgUnit> units;
  for (const FunctionInfo& fn : model.functions) {
    if (fn.file_index == file_index) AppendUnits(model, fn, &units);
  }
  return units;
}

/// Edges into the exit block that represent a *success* return: not the
/// TB_RETURN_IF_ERROR error edge, not `return Status::<ErrorFactory>(...)`.
bool IsSuccessExitEdge(const Cfg& cfg, size_t from, const CfgEdge& e) {
  if (e.to != cfg.exit) return false;
  if (e.kind == CfgEdgeKind::kErrorReturn) return false;
  const CfgBlock& src = cfg.blocks[from];
  if (src.kind == CfgBlockKind::kReturn && src.error_return) return false;
  return true;
}

// --------------------------------------------------- durability ordering

const char kSynced[] = "synced";

/// Fixpoint set of functions whose every success return is preceded — on
/// every path — by one of the protocol's sync ops (directly or through a
/// callee already in the set). This is what lets `sync fsync` catch a
/// deleted fsync *inside WriteAndSync* from WriteAndSync's callers.
struct SyncingSet {
  std::set<const FunctionInfo*> fns;
  std::set<std::string> names;  // unqualified, for the cheap pre-filter
};

bool IsSyncCall(const Model& model, const ProtocolSpec::Protocol& proto,
                const SyncingSet& syncing, const std::string& caller_cls,
                const Call& c) {
  if (std::find(proto.sync.begin(), proto.sync.end(), c.name) !=
      proto.sync.end()) {
    return true;
  }
  if (syncing.names.count(c.name) == 0) return false;
  const std::vector<size_t> cands =
      ResolveCall(model, "", caller_cls, c.name);
  if (cands.empty()) return false;
  for (size_t idx : cands) {
    if (syncing.fns.count(&model.functions[idx]) == 0) return false;
  }
  return true;
}

/// Must-dataflow for the "synced" fact over one unit.
DataflowResult SolveSynced(const Model& model,
                           const ProtocolSpec::Protocol& proto,
                           const SyncingSet& syncing, const CfgUnit& unit) {
  const ParsedFile& pf = model.files[unit.file_index];
  DataflowSpec spec;
  spec.meet = MeetKind::kIntersect;
  spec.transfer = [&](size_t block, Facts* facts) {
    const CfgBlock& blk = unit.cfg.blocks[block];
    for (const Call& c : CallsInRange(pf.toks, blk.tok_begin, blk.tok_end)) {
      if (IsSyncCall(model, proto, syncing, unit.fn->cls, c)) {
        facts->insert(kSynced);
      }
    }
  };
  return SolveForward(unit.cfg, spec);
}

bool UnitSyncsOnSuccess(const Model& model,
                        const ProtocolSpec::Protocol& proto,
                        const SyncingSet& syncing, const CfgUnit& unit) {
  const ParsedFile& pf = model.files[unit.file_index];
  // Cheap syntactic gate: no sync-capable callee name, no need to solve.
  bool candidate = false;
  for (const CfgBlock& blk : unit.cfg.blocks) {
    for (const Call& c : CallsInRange(pf.toks, blk.tok_begin, blk.tok_end)) {
      if (std::find(proto.sync.begin(), proto.sync.end(), c.name) !=
              proto.sync.end() ||
          syncing.names.count(c.name) != 0) {
        candidate = true;
      }
    }
  }
  if (!candidate) return false;
  const DataflowResult res = SolveSynced(model, proto, syncing, unit);
  bool any_success_exit = false;
  for (size_t b = 0; b < unit.cfg.blocks.size(); ++b) {
    if (!res.reached[b]) continue;
    for (const CfgEdge& e : unit.cfg.blocks[b].succ) {
      if (!IsSuccessExitEdge(unit.cfg, b, e)) continue;
      any_success_exit = true;
      if (res.out[b].count(kSynced) == 0) return false;
    }
  }
  return any_success_exit;
}

}  // namespace

void RunDurabilityPass(const Model& model, const ProtocolSpec& protocols,
                       std::vector<Finding>* findings) {
  for (const ProtocolSpec::Protocol& proto : protocols.protocols) {
    if (proto.files.empty() || proto.commit.empty()) continue;

    // 1. Propagate "syncing" through callees to a fixpoint. Only
    // top-level functions participate (a lambda is not callable by name).
    SyncingSet syncing;
    std::vector<CfgUnit> all_units;
    std::map<const FunctionInfo*, const CfgUnit*> top_unit;
    for (const FunctionInfo& fn : model.functions) {
      CfgUnit u;
      u.file_index = fn.file_index;
      u.fn = &fn;
      u.name = fn.qualified;
      u.cfg = BuildCfg(model.files[fn.file_index].toks, fn.body_begin,
                       fn.body_end);
      all_units.push_back(std::move(u));
    }
    for (const CfgUnit& u : all_units) top_unit[u.fn] = &u;
    bool changed = true;
    while (changed) {
      changed = false;
      for (const CfgUnit& u : all_units) {
        if (syncing.fns.count(u.fn) != 0) continue;
        if (UnitSyncsOnSuccess(model, proto, syncing, u)) {
          syncing.fns.insert(u.fn);
          syncing.names.insert(u.fn->name);
          changed = true;
        }
      }
    }

    // 2. In the protocol's files: every commit op must see the synced
    // fact on all incoming paths, in statement order within the block.
    std::string sync_list;
    for (const std::string& s : proto.sync) {
      if (!sync_list.empty()) sync_list += ", ";
      sync_list += s;
    }
    for (size_t fi = 0; fi < model.files.size(); ++fi) {
      const ParsedFile& pf = model.files[fi];
      if (std::find(proto.files.begin(), proto.files.end(),
                    pf.src->path) == proto.files.end()) {
        continue;
      }
      for (const CfgUnit& unit : UnitsForFile(model, fi)) {
        const DataflowResult res =
            SolveSynced(model, proto, syncing, unit);
        for (size_t b = 0; b < unit.cfg.blocks.size(); ++b) {
          if (!res.reached[b]) continue;
          Facts facts = res.in[b];
          const CfgBlock& blk = unit.cfg.blocks[b];
          for (const Call& c :
               CallsInRange(pf.toks, blk.tok_begin, blk.tok_end)) {
            bool is_commit = false;
            for (const ProtocolSpec::Op& op : proto.commit) {
              if (OpMatches(pf.toks, c, op)) is_commit = true;
            }
            if (is_commit && facts.count(kSynced) == 0) {
              Finding f;
              f.file = pf.src->path;
              f.line = c.line;
              f.rule = "tabbench-durability-ordering";
              f.message = "'" + c.name + "' is reachable before the " +
                          proto.name +
                          " protocol's append+fsync (declared sync: " +
                          sync_list + ") in " + unit.name;
              f.related.push_back(
                  {pf.src->path, unit.fn->line,
                   "enclosing function: a path from here reaches the "
                   "commit with no sync op on it"});
              findings->push_back(std::move(f));
            }
            if (IsSyncCall(model, proto, syncing, unit.fn->cls, c)) {
              facts.insert(kSynced);
            }
          }
        }
      }
    }
  }
}

// --------------------------------------------------- release on all paths

namespace {

struct AcquireSite {
  size_t line = 0;
  std::string receiver;
};

/// The function's declaration lines carry a thread-safety annotation that
/// declares intentional lock-state change (MutexLock's constructor, the
/// Mutex wrappers themselves): exempt.
bool DeclaresLockTransfer(const ParsedFile& pf, const FunctionInfo& fn) {
  size_t first_body_line =
      fn.body_begin < pf.toks.size() ? pf.toks[fn.body_begin].line : fn.line;
  for (size_t ln = fn.line; ln <= first_body_line && ln <= pf.raw_lines.size();
       ++ln) {
    const std::string& raw = pf.raw_lines[ln - 1];
    if (raw.find("TB_ACQUIRE") != std::string::npos ||
        raw.find("TB_RELEASE") != std::string::npos ||
        raw.find("TB_TRY_ACQUIRE") != std::string::npos) {
      return true;
    }
  }
  return false;
}

}  // namespace

void RunReleasePass(const Model& model, std::vector<Finding>* findings) {
  for (size_t fi = 0; fi < model.files.size(); ++fi) {
    const ParsedFile& pf = model.files[fi];
    for (const CfgUnit& unit : UnitsForFile(model, fi)) {
      if (!unit.is_lambda && DeclaresLockTransfer(pf, *unit.fn)) continue;

      // Lock/Unlock events per block, in token order, keyed by receiver.
      struct Event {
        bool acquire = false;
        size_t site = 0;  // index into sites (acquires only)
        std::string receiver;
      };
      std::vector<AcquireSite> sites;
      std::map<size_t, std::vector<Event>> events;  // block -> ordered
      for (size_t b = 0; b < unit.cfg.blocks.size(); ++b) {
        const CfgBlock& blk = unit.cfg.blocks[b];
        for (const Call& c :
             CallsInRange(pf.toks, blk.tok_begin, blk.tok_end)) {
          if (c.name == "Lock") {
            events[b].push_back(Event{true, sites.size(), c.receiver});
            sites.push_back(AcquireSite{c.line, c.receiver});
          } else if (c.name == "Unlock") {
            events[b].push_back(Event{false, 0, c.receiver});
          }
        }
      }
      if (sites.empty()) continue;

      DataflowSpec spec;
      spec.meet = MeetKind::kUnion;
      spec.transfer = [&](size_t block, Facts* facts) {
        auto it = events.find(block);
        if (it == events.end()) return;
        for (const Event& ev : it->second) {
          if (ev.acquire) {
            facts->insert("h:" + std::to_string(ev.site));
          } else {
            for (size_t s = 0; s < sites.size(); ++s) {
              if (sites[s].receiver == ev.receiver) {
                facts->erase("h:" + std::to_string(s));
              }
            }
          }
        }
      };
      const DataflowResult res = SolveForward(unit.cfg, spec);
      if (!res.reached[unit.cfg.exit]) continue;
      for (size_t s = 0; s < sites.size(); ++s) {
        const AcquireSite& site = sites[s];
        const std::string fact = "h:" + std::to_string(s);
        if (res.in[unit.cfg.exit].count(fact) == 0) continue;
        Finding f;
        f.file = pf.src->path;
        f.line = site.line;
        f.rule = "tabbench-release-on-path";
        const std::string recv =
            site.receiver.empty() ? "this" : site.receiver;
        f.message = "'" + recv + ".Lock()' in " + unit.name +
                    " is not matched by Unlock() on every path to the "
                    "function exit";
        for (size_t b = 0;
             b < unit.cfg.blocks.size() && f.related.size() < 4; ++b) {
          if (!res.reached[b] || res.out[b].count(fact) == 0) continue;
          for (const CfgEdge& e : unit.cfg.blocks[b].succ) {
            if (e.to != unit.cfg.exit) continue;
            f.related.push_back(
                {pf.src->path, unit.cfg.blocks[b].line,
                 e.kind == CfgEdgeKind::kErrorReturn
                     ? "escaping edge: TB_RETURN_IF_ERROR error path "
                       "leaves with the resource still held"
                     : "escaping edge: this exit is reached with the "
                       "resource still held"});
            break;
          }
        }
        findings->push_back(std::move(f));
      }
    }
  }
}

// ------------------------------------------------------ error-path pass

namespace {

/// `cond` is exactly `[!] v . ok ( )` (outer parens stripped): returns
/// the variable and polarity. Compound conditions yield no fact — half a
/// fact is worse than none for a must-analysis.
bool ParseOkCond(const std::vector<Token>& toks, size_t b, size_t e,
                 std::string* var, bool* negated) {
  while (e > b + 1 && IsPunct(toks[b], "(") &&
         MatchParen(toks, b, e) == e - 1) {
    ++b;
    --e;
  }
  size_t i = b;
  *negated = false;
  if (i < e && IsPunct(toks[i], "!")) {
    *negated = true;
    ++i;
  }
  if (i + 5 != e) return false;
  if (!IsIdent(toks[i]) || !IsPunct(toks[i + 1], ".") ||
      !IsIdent(toks[i + 2]) || toks[i + 2].text != "ok" ||
      !IsPunct(toks[i + 3], "(") || !IsPunct(toks[i + 4], ")")) {
    return false;
  }
  *var = toks[i].text;
  return true;
}

std::string ErrFact(const std::string& var) { return "err:" + var; }

/// Members that are safe to touch on an error value.
bool IsAllowedErrorAccess(const std::string& member) {
  return member == "ok" || member == "status" || member == "message" ||
         member == "code" || member == "ToString" ||
         (member.size() > 2 && member[0] == 'I' && member[1] == 's');
}

}  // namespace

void RunErrorPathPass(const Model& model, std::vector<Finding>* findings) {
  for (size_t fi = 0; fi < model.files.size(); ++fi) {
    const ParsedFile& pf = model.files[fi];
    const std::vector<Token>& toks = pf.toks;
    for (const CfgUnit& unit : UnitsForFile(model, fi)) {
      const Cfg& cfg = unit.cfg;

      // ---- must-err facts: on every path to here, !v.ok() holds.
      DataflowSpec err_spec;
      err_spec.meet = MeetKind::kIntersect;
      err_spec.transfer = [&](size_t block, Facts* facts) {
        const CfgBlock& blk = cfg.blocks[block];
        for (size_t j = blk.tok_begin; j + 1 < blk.tok_end; ++j) {
          if (IsIdent(toks[j]) && IsPunct(toks[j + 1], "=")) {
            facts->erase(ErrFact(toks[j].text));  // reassigned
          }
          if (IsIdent(toks[j]) && toks[j].text == "TB_ASSIGN_OR_RETURN" &&
              j + 2 < blk.tok_end && IsIdent(toks[j + 2])) {
            facts->erase(ErrFact(toks[j + 2].text));
          }
        }
      };
      err_spec.edge_transfer = [&](size_t from, const CfgEdge& e,
                                   Facts* facts) {
        const CfgBlock& blk = cfg.blocks[from];
        if (blk.kind != CfgBlockKind::kBranch &&
            blk.kind != CfgBlockKind::kLoop) {
          return;
        }
        std::string var;
        bool negated = false;
        if (!ParseOkCond(toks, blk.tok_begin, blk.tok_end, &var, &negated)) {
          return;
        }
        const bool err_edge = (e.kind == CfgEdgeKind::kTrue) == negated;
        if (e.kind != CfgEdgeKind::kTrue && e.kind != CfgEdgeKind::kFalse) {
          return;
        }
        if (err_edge) {
          facts->insert(ErrFact(var));
        } else {
          facts->erase(ErrFact(var));
        }
      };
      const DataflowResult err = SolveForward(cfg, err_spec);

      // ---- uses of the would-be value where !v.ok() must hold.
      std::set<std::pair<std::string, size_t>> reported;  // (var, line)
      for (size_t b = 0; b < cfg.blocks.size(); ++b) {
        if (!err.reached[b]) continue;
        Facts facts = err.in[b];
        const CfgBlock& blk = cfg.blocks[b];
        for (size_t j = blk.tok_begin; j < blk.tok_end; ++j) {
          if (!IsIdent(toks[j])) continue;
          const std::string& v = toks[j].text;
          if (j + 1 < blk.tok_end && IsPunct(toks[j + 1], "=")) {
            facts.erase(ErrFact(v));
            continue;
          }
          if (facts.count(ErrFact(v)) == 0) continue;
          bool bad = false;
          if (j + 1 < blk.tok_end && IsPunct(toks[j + 1], "->")) bad = true;
          if (j + 3 < blk.tok_end && IsPunct(toks[j + 1], ".") &&
              IsIdent(toks[j + 2]) &&
              !IsAllowedErrorAccess(toks[j + 2].text) &&
              IsPunct(toks[j + 3], "(")) {
            bad = true;
          }
          if (j > blk.tok_begin && IsPunct(toks[j - 1], "*")) {
            const bool unary =
                j < blk.tok_begin + 2 ||
                !(IsIdent(toks[j - 2]) ||
                  toks[j - 2].kind == TokKind::kNumber ||
                  IsPunct(toks[j - 2], ")") || IsPunct(toks[j - 2], "]"));
            if (unary) bad = true;
          }
          if (bad && reported.emplace(v, toks[j].line).second) {
            Finding f;
            f.file = pf.src->path;
            f.line = toks[j].line;
            f.rule = "tabbench-error-path";
            f.message = "value of '" + v +
                        "' is used on a path where !" + v +
                        ".ok() must hold in " + unit.name;
            findings->push_back(std::move(f));
          }
        }
      }
    }
  }
}

}  // namespace tabbench_analyze
