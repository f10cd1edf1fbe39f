#ifndef FVAE_TOOLS_LINT_GRAPH_H_
#define FVAE_TOOLS_LINT_GRAPH_H_

#include <algorithm>
#include <chrono>
#include <deque>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "tools/cfg.h"
#include "tools/cpp_lexer.h"
#include "tools/dataflow.h"
#include "tools/tu_facts.h"

/// Cross-TU linking and whole-program analyses for fvae_lint v2.
///
/// LinkProgram() merges per-file TuFacts into one ProgramFacts: a
/// name-indexed function table (header-declared FVAE_HOT/FVAE_NOALLOC
/// attributes merged onto out-of-line definitions) plus the table of
/// class-member lock declarations. Calls are resolved by qualified-name
/// suffix matching with a preference cascade (same class, then same
/// namespace, then every candidate) — deliberately overload-blind and
/// therefore over-approximate: the analyses only ever see *more* paths
/// than the program has, never fewer. Function-pointer dispatch tables
/// (the SIMD kernel layer's `t->softmax_inplace = SoftmaxAvx2;`) are
/// linked through the recorded DispatchBind facts: a member call that
/// resolves to no method falls back to *every* function ever bound to
/// that member name, so `Kernels().softmax_inplace(..)` walks into each
/// per-ISA kernel body instead of vanishing behind the indirection.
///
/// Five analyses run on the linked facts:
///
///   lock-cycle   The lock acquisition-order graph has an edge A -> B when
///                A is declared FVAE_ACQUIRED_BEFORE(B) (or B is declared
///                FVAE_ACQUIRED_AFTER(A)), when B is observed taken while
///                A is held inside one function, or when a function called
///                with A held transitively acquires B. Any cycle is a
///                potential deadlock and is reported with the full path,
///                each edge carrying its provenance (file:line, declared
///                vs observed).
///
///   hot-path     Functions marked FVAE_HOT must not log, do IO, or
///                acquire locks other than ones whose declaration carries
///                FVAE_HOT_LOCK_EXEMPT — transitively through every
///                resolvable callee. FVAE_NOALLOC additionally forbids
///                heap allocation tokens. Violations print the call chain
///                from the annotated root to the offender.
///
///   event-loop   Functions marked FVAE_EVENT_LOOP (EpollLoop callbacks
///                and the methods they run) must not block: no blocking
///                syscalls, sleeps, condvar waits, joins, file IO,
///                non-exempt lock acquisition, or FVAE_MAY_BLOCK callees —
///                transitively, like the hot walk (AnalyzeEventLoops).
///
///   guarded-by   Every access to an FVAE_GUARDED_BY(m) member must occur
///                where `m` is held — portable re-implementation of the
///                core of Clang's -Wthread-safety (AnalyzeGuardedBy).
///
///   verb-switch  A switch over a known enum class (the wire Verb) must be
///                exhaustive or justify its default (AnalyzeEnumSwitches).
///
/// Line-level suppressions: a `fvae-lint: allow(<rule>)` comment on the
/// offending line silences that fact; `allow(hot-path)` on a *call* line
/// cuts that edge out of the hot walk (used where the callee is known to
/// reuse capacity — the runtime operator-new witness in serving_test backs
/// the claim).

namespace fvae::lint {

/// One linter finding. `file` is the path label the content was registered
/// under; `rule` is a stable kebab-case identifier.
struct Finding {
  std::string file;
  size_t line = 0;
  std::string rule;
  std::string message;
};

struct SourceFile {
  std::string path;
  std::string content;
};

struct ProgramFacts {
  std::vector<FunctionFacts> functions;
  std::vector<LockDecl> locks;
  std::vector<GuardedDecl> guarded;
  std::vector<SwitchFacts> switches;
  std::vector<EnumDecl> enums;
  std::map<std::string, std::vector<size_t>> functions_by_name;
  std::map<std::string, std::vector<size_t>> locks_by_member;
  // Dispatch-table member name -> function indices ever assigned to it
  // (`t->softmax_inplace = SoftmaxAvx2;` in any registration function).
  // ResolveCall falls back to these for member calls that match no method,
  // keeping runtime-dispatched kernels inside the purity walks.
  std::map<std::string, std::vector<size_t>> dispatch_targets;
  // Member name -> declared class type, kept only when every declaration
  // of that member name across the program agrees on the type. Used to
  // narrow member-call resolution by receiver (`worker->loop.Post(..)`
  // resolves Post against EpollLoop, not against same-class methods).
  std::map<std::string, std::string> member_types;
  // Raw source lines per file, for `fvae-lint: allow(...)` suppressions.
  std::map<std::string, std::vector<std::string>> file_lines;
  // Token stream per file (the one ExtractTuFacts consumed), kept so the
  // CFG/dataflow layer can re-walk function bodies by token range.
  std::map<std::string, std::vector<Tok>> file_tokens;
};

namespace graph_detail {

inline std::vector<std::string> SplitLines(const std::string& content) {
  std::vector<std::string> lines;
  std::string current;
  for (char c : content) {
    if (c == '\n') {
      lines.push_back(current);
      current.clear();
    } else {
      current += c;
    }
  }
  lines.push_back(current);
  return lines;
}

inline bool EndsWithSegment(const std::string& qualified,
                            const std::string& suffix) {
  if (qualified == suffix) return true;
  if (qualified.size() <= suffix.size() + 2) return false;
  return qualified.compare(qualified.size() - suffix.size() - 2, 2, "::") ==
             0 &&
         qualified.compare(qualified.size() - suffix.size(), suffix.size(),
                           suffix) == 0;
}

inline std::string LastSegment(const std::string& qualified) {
  const size_t pos = qualified.rfind("::");
  return pos == std::string::npos ? qualified : qualified.substr(pos + 2);
}

inline std::string FileStem(const std::string& path) {
  const size_t dot = path.rfind('.');
  const size_t slash = path.rfind('/');
  if (dot == std::string::npos ||
      (slash != std::string::npos && dot < slash)) {
    return path;
  }
  return path.substr(0, dot);
}

}  // namespace graph_detail

/// True when `file:line` carries a `fvae-lint: allow(<rule>)` suppression
/// (single rule or a comma-separated list; see SuppressionAllows).
inline bool LineAllows(const ProgramFacts& pf, const std::string& file,
                       size_t line, const std::string& rule) {
  auto it = pf.file_lines.find(file);
  if (it == pf.file_lines.end() || line == 0 || line > it->second.size()) {
    return false;
  }
  return SuppressionAllows(it->second[line - 1], rule);
}

inline ProgramFacts LinkProgram(const std::vector<SourceFile>& files) {
  ProgramFacts pf;
  std::vector<AttrDecl> attr_decls;
  std::map<std::string, std::set<std::string>> member_type_cands;
  for (const SourceFile& f : files) {
    std::vector<Tok> tokens = LexCpp(f.content);
    TuFacts tu = ExtractTuFacts(f.path, tokens);
    pf.file_tokens[f.path] = std::move(tokens);
    for (FunctionFacts& fn : tu.functions) {
      pf.functions.push_back(std::move(fn));
    }
    for (LockDecl& lock : tu.locks) pf.locks.push_back(std::move(lock));
    for (AttrDecl& a : tu.attr_decls) attr_decls.push_back(std::move(a));
    for (GuardedDecl& g : tu.guarded) pf.guarded.push_back(std::move(g));
    for (SwitchFacts& s : tu.switches) pf.switches.push_back(std::move(s));
    for (EnumDecl& e : tu.enums) pf.enums.push_back(std::move(e));
    for (const MemberTypeDecl& m : tu.member_types) {
      member_type_cands[m.member].insert(m.type);
    }
    pf.file_lines[f.path] = graph_detail::SplitLines(f.content);
  }
  for (const auto& [member, types] : member_type_cands) {
    if (types.size() == 1) pf.member_types[member] = *types.begin();
  }
  // Merge prototype attributes onto the matching definitions.
  for (const AttrDecl& a : attr_decls) {
    for (FunctionFacts& fn : pf.functions) {
      if (fn.name == a.name && fn.cls == a.cls && fn.ns == a.ns) {
        fn.hot = fn.hot || a.hot;
        fn.noalloc = fn.noalloc || a.noalloc;
        fn.event_loop = fn.event_loop || a.event_loop;
        fn.may_block = fn.may_block || a.may_block;
        for (const std::string& r : a.requires_locks) {
          fn.requires_locks.push_back(r);
        }
      }
    }
  }
  for (size_t i = 0; i < pf.functions.size(); ++i) {
    pf.functions_by_name[pf.functions[i].name].push_back(i);
  }
  for (size_t i = 0; i < pf.locks.size(); ++i) {
    pf.locks_by_member[pf.locks[i].member].push_back(i);
  }
  // Link dispatch-table registrations: each recorded `t->member = Target;`
  // binds every program function whose qualified name ends with Target.
  // Non-function targets (plain data-member assignments) match nothing and
  // drop out here.
  for (const FunctionFacts& fn : pf.functions) {
    for (const DispatchBind& bind : fn.dispatch_binds) {
      auto it = pf.functions_by_name.find(
          graph_detail::LastSegment(bind.target));
      if (it == pf.functions_by_name.end()) continue;
      std::vector<size_t>& targets = pf.dispatch_targets[bind.member];
      for (size_t i : it->second) {
        if (!graph_detail::EndsWithSegment(pf.functions[i].qualified,
                                           bind.target)) {
          continue;
        }
        if (std::find(targets.begin(), targets.end(), i) == targets.end()) {
          targets.push_back(i);
        }
      }
    }
  }
  return pf;
}

/// Resolves a lock name used inside `fn` to its declaration: same class
/// first, then same namespace, then a unique global match, then the
/// lexicographically first candidate (deterministic). nullptr when no
/// member declaration exists (function-local or foreign locks).
inline const LockDecl* ResolveLock(const ProgramFacts& pf,
                                   const FunctionFacts& fn,
                                   const std::string& name) {
  auto it = pf.locks_by_member.find(name);
  if (it == pf.locks_by_member.end()) return nullptr;
  for (size_t i : it->second) {
    const LockDecl& lock = pf.locks[i];
    if (lock.ns == fn.ns && !fn.cls.empty() &&
        (lock.cls == fn.cls ||
         graph_detail::EndsWithSegment(fn.cls, lock.cls))) {
      return &lock;
    }
  }
  const LockDecl* best = nullptr;
  for (size_t i : it->second) {
    const LockDecl& lock = pf.locks[i];
    if (lock.ns != fn.ns) continue;
    if (best == nullptr || lock.id < best->id) best = &lock;
  }
  if (best != nullptr) return best;
  for (size_t i : it->second) {
    const LockDecl& lock = pf.locks[i];
    if (best == nullptr || lock.id < best->id) best = &lock;
  }
  return best;
}

/// Resolves an annotation argument (possibly qualified) from the context of
/// the declaring lock's class.
inline const LockDecl* ResolveLockArg(const ProgramFacts& pf,
                                      const LockDecl& from,
                                      const std::string& arg) {
  if (arg.find("::") != std::string::npos) {
    for (const LockDecl& lock : pf.locks) {
      if (graph_detail::EndsWithSegment(lock.id, arg)) return &lock;
    }
    return nullptr;
  }
  FunctionFacts ctx;
  ctx.ns = from.ns;
  ctx.cls = from.cls;
  return ResolveLock(pf, ctx, arg);
}

/// Resolves a call site to candidate definitions: qualifier suffix match,
/// member calls restricted to class methods, then the preference cascade
/// same-class > same-namespace > all. A member call that matches no method
/// falls back to the dispatch-table targets bound to that member name
/// (`Kernels().softmax_inplace(..)` -> every per-ISA kernel registered as
/// `t->softmax_inplace = ..`), over-approximating runtime dispatch.
inline std::vector<size_t> ResolveCall(const ProgramFacts& pf,
                                       const FunctionFacts& caller,
                                       const CallSite& call) {
  auto dispatch_fallback = [&pf, &call]() -> std::vector<size_t> {
    if (!call.member_access) return {};
    auto dit = pf.dispatch_targets.find(call.name);
    return dit == pf.dispatch_targets.end() ? std::vector<size_t>{}
                                            : dit->second;
  };
  auto it = pf.functions_by_name.find(call.name);
  if (it == pf.functions_by_name.end()) return dispatch_fallback();
  std::vector<size_t> cands;
  std::string suffix;
  for (const std::string& q : call.quals) suffix += q + "::";
  suffix += call.name;
  for (size_t i : it->second) {
    const FunctionFacts& f = pf.functions[i];
    if (!call.quals.empty() &&
        !graph_detail::EndsWithSegment(f.qualified, suffix)) {
      continue;
    }
    if (call.member_access && f.cls.empty()) continue;
    cands.push_back(i);
  }
  auto narrow = [&pf, &cands](auto pred) {
    std::vector<size_t> kept;
    for (size_t i : cands) {
      if (pred(pf.functions[i])) kept.push_back(i);
    }
    if (!kept.empty()) cands = std::move(kept);
  };
  // Receiver narrowing first: `service_->Lookup(..)` must prefer the class
  // that `service_` is declared as over a same-class method that happens to
  // share the name. Only applies when the receiver's type is known and
  // unambiguous program-wide; narrow() keeps the over-approximation when
  // the type has no method of that name.
  if (call.member_access && !call.receiver.empty()) {
    auto tit = pf.member_types.find(call.receiver);
    if (tit != pf.member_types.end()) {
      const std::string& type = tit->second;
      narrow([&type](const FunctionFacts& f) {
        return f.cls == type || graph_detail::EndsWithSegment(f.cls, type);
      });
    }
  }
  narrow([&caller](const FunctionFacts& f) {
    return !caller.cls.empty() && f.cls == caller.cls && f.ns == caller.ns;
  });
  if (cands.size() > 1) {
    narrow([&caller](const FunctionFacts& f) { return f.ns == caller.ns; });
  }
  if (cands.empty()) return dispatch_fallback();
  return cands;
}

namespace graph_detail {

/// Memoized transitive set of resolved lock ids a function may acquire
/// (its own acquisitions plus every resolvable callee's).
class AcquiredLocks {
 public:
  explicit AcquiredLocks(const ProgramFacts& pf) : pf_(pf) {}

  const std::set<std::string>& Of(size_t fi) {
    auto it = memo_.find(fi);
    if (it != memo_.end()) return it->second;
    // Insert an empty set first: recursion terminates on the partial set.
    auto [slot, inserted] = memo_.emplace(fi, std::set<std::string>());
    (void)inserted;
    const FunctionFacts& fn = pf_.functions[fi];
    std::set<std::string> acc;
    for (const LockAcq& a : fn.acquisitions) {
      const LockDecl* lock = ResolveLock(pf_, fn, a.lock);
      if (lock != nullptr) acc.insert(lock->id);
    }
    for (const CallSite& call : fn.calls) {
      for (size_t ci : ResolveCall(pf_, fn, call)) {
        const std::set<std::string>& sub = Of(ci);
        acc.insert(sub.begin(), sub.end());
      }
    }
    memo_[fi] = std::move(acc);
    return memo_[fi];
  }

 private:
  const ProgramFacts& pf_;
  std::map<size_t, std::set<std::string>> memo_;
};

struct LockEdge {
  std::string to;
  std::string file;
  size_t line = 0;
  std::string why;
};

}  // namespace graph_detail

/// Lock-order verification: builds the acquisition-order graph and reports
/// every distinct cycle with its full path.
inline std::vector<Finding> AnalyzeLockOrder(const ProgramFacts& pf) {
  using graph_detail::LockEdge;
  std::map<std::string, std::vector<LockEdge>> adj;
  std::set<std::pair<std::string, std::string>> have;
  auto add_edge = [&adj, &have, &pf](const std::string& from,
                                     const std::string& to,
                                     const std::string& file, size_t line,
                                     const std::string& why) {
    if (from == to) return;  // same-member self edges: distinct instances
    if (LineAllows(pf, file, line, "lock-cycle")) return;
    if (!have.emplace(from, to).second) return;
    adj[from].push_back({to, file, line, why});
    adj.emplace(to, std::vector<LockEdge>());
  };

  for (const LockDecl& lock : pf.locks) {
    for (const std::string& arg : lock.acquired_before) {
      const LockDecl* other = ResolveLockArg(pf, lock, arg);
      if (other == nullptr) continue;
      add_edge(lock.id, other->id, lock.file, lock.line,
               "declared FVAE_ACQUIRED_BEFORE on " + lock.id);
    }
    for (const std::string& arg : lock.acquired_after) {
      const LockDecl* other = ResolveLockArg(pf, lock, arg);
      if (other == nullptr) continue;
      add_edge(other->id, lock.id, lock.file, lock.line,
               "declared FVAE_ACQUIRED_AFTER on " + lock.id);
    }
  }

  graph_detail::AcquiredLocks acquired(pf);
  for (size_t fi = 0; fi < pf.functions.size(); ++fi) {
    const FunctionFacts& fn = pf.functions[fi];
    for (const LockNest& nest : fn.nests) {
      const LockDecl* held = ResolveLock(pf, fn, nest.held);
      const LockDecl* taken = ResolveLock(pf, fn, nest.acquired);
      if (held == nullptr || taken == nullptr) continue;
      add_edge(held->id, taken->id, fn.file, nest.line,
               "observed in " + fn.qualified);
    }
    for (const CallSite& call : fn.calls) {
      if (call.held.empty()) continue;
      for (size_t ci : ResolveCall(pf, fn, call)) {
        for (const std::string& acquired_id : acquired.Of(ci)) {
          for (const std::string& held_name : call.held) {
            const LockDecl* held = ResolveLock(pf, fn, held_name);
            if (held == nullptr) continue;
            add_edge(held->id, acquired_id, fn.file, call.line,
                     "observed: " + fn.qualified + " calls " +
                         pf.functions[ci].qualified + " holding " + held->id);
          }
        }
      }
    }
  }

  // DFS cycle detection; one finding per distinct cycle node-set.
  std::vector<Finding> findings;
  std::set<std::string> reported;
  std::map<std::string, int> color;  // 0 white, 1 on stack, 2 done
  std::vector<std::pair<std::string, const LockEdge*>> stack;

  std::function<void(const std::string&)> dfs = [&](const std::string& node) {
    color[node] = 1;
    stack.push_back({node, nullptr});
    for (const LockEdge& e : adj[node]) {
      stack.back().second = &e;
      if (color[e.to] == 1) {
        // Extract the cycle from the stack.
        size_t start = 0;
        for (size_t s = 0; s < stack.size(); ++s) {
          if (stack[s].first == e.to) start = s;
        }
        std::vector<std::string> nodes;
        std::ostringstream path;
        for (size_t s = start; s < stack.size(); ++s) {
          nodes.push_back(stack[s].first);
          path << stack[s].first << " -> ";
          const LockEdge* used = stack[s].second;
          path << "[" << used->why << " at " << used->file << ":"
               << used->line << "] ";
        }
        path << e.to;
        std::sort(nodes.begin(), nodes.end());
        std::string key;
        for (const std::string& id : nodes) key += id + "|";
        if (reported.insert(key).second) {
          findings.push_back({e.file, e.line, "lock-cycle",
                              "lock acquisition order cycle: " + path.str()});
        }
      } else if (color[e.to] == 0) {
        dfs(e.to);
      }
    }
    stack.pop_back();
    color[node] = 2;
  };
  for (const auto& [node, edges] : adj) {
    (void)edges;
    if (color[node] == 0) dfs(node);
  }
  return findings;
}

/// Hot-path purity: walks callees from every FVAE_HOT / FVAE_NOALLOC root
/// and reports logging, IO, non-exempt lock acquisition, TraceSpan /
/// FVAE_TRACE_SCOPE construction — plus heap allocation for FVAE_NOALLOC
/// roots — with the root-to-offender chain.
inline std::vector<Finding> AnalyzeHotPaths(const ProgramFacts& pf) {
  std::vector<Finding> findings;
  std::set<std::string> seen;  // rule|file|line dedup across roots
  auto report = [&findings, &seen](const std::string& rule,
                                   const FunctionFacts& fn, size_t line,
                                   const std::string& message) {
    std::ostringstream key;
    key << rule << "|" << fn.file << "|" << line;
    if (seen.insert(key.str()).second) {
      findings.push_back({fn.file, line, rule, message});
    }
  };

  for (size_t root = 0; root < pf.functions.size(); ++root) {
    if (!pf.functions[root].hot) continue;
    const bool noalloc = pf.functions[root].noalloc;
    const std::string root_attr = noalloc ? "FVAE_NOALLOC" : "FVAE_HOT";
    // BFS with parent pointers for chain reconstruction.
    std::map<size_t, size_t> parent;
    std::deque<size_t> queue;
    std::set<size_t> visited;
    queue.push_back(root);
    visited.insert(root);
    auto chain_of = [&parent, &pf, root](size_t fi) {
      std::vector<std::string> parts;
      for (size_t cur = fi;; cur = parent[cur]) {
        parts.push_back(pf.functions[cur].qualified);
        if (cur == root) break;
      }
      std::string chain;
      for (size_t p = parts.size(); p-- > 0;) {
        chain += parts[p];
        if (p != 0) chain += " -> ";
      }
      return chain;
    };
    while (!queue.empty()) {
      const size_t fi = queue.front();
      queue.pop_front();
      const FunctionFacts& fn = pf.functions[fi];
      for (const PurityFact& log : fn.logs) {
        if (LineAllows(pf, fn.file, log.line, "hot-log")) continue;
        report("hot-log", fn, log.line,
               "logging call '" + log.token + "' reachable from " +
                   root_attr + " " + pf.functions[root].qualified + " via " +
                   chain_of(fi));
      }
      for (const PurityFact& io : fn.ios) {
        if (LineAllows(pf, fn.file, io.line, "hot-io")) continue;
        report("hot-io", fn, io.line,
               "IO touch '" + io.token + "' reachable from " + root_attr +
                   " " + pf.functions[root].qualified + " via " +
                   chain_of(fi));
      }
      for (const PurityFact& trace : fn.traces) {
        if (LineAllows(pf, fn.file, trace.line, "hot-trace")) continue;
        report("hot-trace", fn, trace.line,
               "'" + trace.token + "' construction reachable from " +
                   root_attr + " " + pf.functions[root].qualified + " via " +
                   chain_of(fi) + " — TraceSpan locks and may allocate");
      }
      for (const LockAcq& acq : fn.acquisitions) {
        const LockDecl* lock = ResolveLock(pf, fn, acq.lock);
        if (lock != nullptr && lock->hot_exempt) continue;
        if (LineAllows(pf, fn.file, acq.line, "hot-lock")) continue;
        report("hot-lock", fn, acq.line,
               "lock '" + (lock != nullptr ? lock->id : acq.lock) +
                   "' (not FVAE_HOT_LOCK_EXEMPT) acquired on path from " +
                   root_attr + " " + pf.functions[root].qualified + " via " +
                   chain_of(fi));
      }
      if (noalloc) {
        for (const PurityFact& alloc : fn.allocs) {
          if (LineAllows(pf, fn.file, alloc.line, "hot-alloc")) continue;
          report("hot-alloc", fn, alloc.line,
                 "heap allocation '" + alloc.token + "' reachable from " +
                     root_attr + " " + pf.functions[root].qualified +
                     " via " + chain_of(fi));
        }
      }
      for (const CallSite& call : fn.calls) {
        if (LineAllows(pf, fn.file, call.line, "hot-path")) continue;
        for (size_t ci : ResolveCall(pf, fn, call)) {
          if (visited.insert(ci).second) {
            parent[ci] = fi;
            queue.push_back(ci);
          }
        }
      }
    }
  }
  return findings;
}

/// Event-loop blocking discipline: walks callees from every FVAE_EVENT_LOOP
/// root and reports anything that can stall the loop thread —
///
///   loop-block      blocking syscalls, sleeps, condvar waits, thread
///                   joins, RetryWithBackoff, recv/send without
///                   MSG_DONTWAIT, anywhere on the reachable chain
///   loop-io         file IO on the chain (sleeps report as loop-block)
///   loop-lock       acquisition of a lock that is neither
///                   FVAE_LOOP_LOCK_EXEMPT nor FVAE_HOT_LOCK_EXEMPT
///   loop-may-block  a call that reaches an FVAE_MAY_BLOCK function; the
///                   walk reports at the call line and does not descend
///
/// `fvae-lint: allow(loop-path)` on a call line cuts that edge out of the
/// walk, mirroring allow(hot-path).
inline std::vector<Finding> AnalyzeEventLoops(const ProgramFacts& pf) {
  std::vector<Finding> findings;
  std::set<std::string> seen;  // rule|file|line dedup across roots
  auto report = [&findings, &seen](const std::string& rule,
                                   const FunctionFacts& fn, size_t line,
                                   const std::string& message) {
    std::ostringstream key;
    key << rule << "|" << fn.file << "|" << line;
    if (seen.insert(key.str()).second) {
      findings.push_back({fn.file, line, rule, message});
    }
  };

  for (size_t root = 0; root < pf.functions.size(); ++root) {
    if (!pf.functions[root].event_loop || pf.functions[root].may_block) {
      continue;
    }
    const std::string& root_name = pf.functions[root].qualified;
    std::map<size_t, size_t> parent;
    std::deque<size_t> queue;
    std::set<size_t> visited;
    queue.push_back(root);
    visited.insert(root);
    auto chain_of = [&parent, &pf, root](size_t fi) {
      std::vector<std::string> parts;
      for (size_t cur = fi;; cur = parent[cur]) {
        parts.push_back(pf.functions[cur].qualified);
        if (cur == root) break;
      }
      std::string chain;
      for (size_t p = parts.size(); p-- > 0;) {
        chain += parts[p];
        if (p != 0) chain += " -> ";
      }
      return chain;
    };
    while (!queue.empty()) {
      const size_t fi = queue.front();
      queue.pop_front();
      const FunctionFacts& fn = pf.functions[fi];
      for (const PurityFact& b : fn.blocking) {
        if (LineAllows(pf, fn.file, b.line, "loop-block")) continue;
        report("loop-block", fn, b.line,
               "blocking call '" + b.token +
                   "' reachable from FVAE_EVENT_LOOP " + root_name + " via " +
                   chain_of(fi));
      }
      for (const PurityFact& io : fn.ios) {
        // Sleeps sit in both token sets; they report as loop-block above.
        if (facts_detail::IsBlockingCall(io.token)) continue;
        if (LineAllows(pf, fn.file, io.line, "loop-io")) continue;
        report("loop-io", fn, io.line,
               "IO touch '" + io.token + "' reachable from FVAE_EVENT_LOOP " +
                   root_name + " via " + chain_of(fi));
      }
      for (const LockAcq& acq : fn.acquisitions) {
        const LockDecl* lock = ResolveLock(pf, fn, acq.lock);
        if (lock != nullptr && (lock->hot_exempt || lock->loop_exempt)) {
          continue;
        }
        if (LineAllows(pf, fn.file, acq.line, "loop-lock")) continue;
        report("loop-lock", fn, acq.line,
               "lock '" + (lock != nullptr ? lock->id : acq.lock) +
                   "' (neither FVAE_LOOP_LOCK_EXEMPT nor "
                   "FVAE_HOT_LOCK_EXEMPT) acquired on loop path from " +
                   root_name + " via " + chain_of(fi));
      }
      for (const CallSite& call : fn.calls) {
        if (LineAllows(pf, fn.file, call.line, "loop-path")) continue;
        for (size_t ci : ResolveCall(pf, fn, call)) {
          const FunctionFacts& callee = pf.functions[ci];
          if (callee.may_block) {
            if (!LineAllows(pf, fn.file, call.line, "loop-may-block")) {
              report("loop-may-block", fn, call.line,
                     "call to FVAE_MAY_BLOCK " + callee.qualified +
                         " from FVAE_EVENT_LOOP " + root_name + " via " +
                         chain_of(fi));
            }
            continue;  // the annotation concedes the body; do not descend
          }
          if (visited.insert(ci).second) {
            parent[ci] = fi;
            queue.push_back(ci);
          }
        }
      }
    }
  }
  return findings;
}

/// Portable guarded-by enforcement: every recorded read/write of an
/// FVAE_GUARDED_BY(m) member must occur where `m` is held — via an RAII
/// guard in scope or an FVAE_REQUIRES(m) on the enclosing function
/// (prototype annotations are merged onto definitions by LinkProgram).
///
/// Model (docs/ARCHITECTURE.md §7 spells out the deltas vs Clang):
///  - bare accesses (`member_`) bind to guarded members of the enclosing
///    class (suffix match on nested classes);
///  - receiver-form accesses (`obj.member` / `obj->member`) are enforced
///    only within the declaring component — the access's file must share
///    the declaring header's stem (`src/obs/trace.h` covers
///    `src/obs/trace.cc`) — because binding foreign receivers by member
///    name alone would misfire on unrelated fields (e.g. epoll_event's
///    `events` vs a guarded `events` buffer);
///  - constructors and destructors are exempt (the object is not shared);
///  - a lock name satisfies a guard when it matches the guard expression's
///    last segment, so `MutexLock l(buffer.mutex)` satisfies
///    FVAE_GUARDED_BY(mutex) on the buffer's fields.
/// Escape hatch: `fvae-lint: allow(guarded-by)` on the access line.
inline std::vector<Finding> AnalyzeGuardedBy(const ProgramFacts& pf) {
  std::map<std::string, std::vector<const GuardedDecl*>> by_member;
  for (const GuardedDecl& g : pf.guarded) by_member[g.member].push_back(&g);
  std::vector<Finding> findings;
  std::set<std::string> seen;
  for (const FunctionFacts& fn : pf.functions) {
    if (fn.accesses.empty()) continue;
    if (!fn.cls.empty() &&
        (fn.name == graph_detail::LastSegment(fn.cls) || fn.name[0] == '~')) {
      continue;  // ctor/dtor: the object is not yet / no longer shared
    }
    for (const MemberAccess& access : fn.accesses) {
      auto it = by_member.find(access.member);
      if (it == by_member.end()) continue;
      std::vector<const GuardedDecl*> cands;
      for (const GuardedDecl* g : it->second) {
        if (access.receiver.empty()) {
          if (g->ns == fn.ns && !fn.cls.empty() &&
              (g->cls == fn.cls ||
               graph_detail::EndsWithSegment(fn.cls, g->cls))) {
            cands.push_back(g);
          }
        } else if (graph_detail::FileStem(g->file) ==
                   graph_detail::FileStem(fn.file)) {
          cands.push_back(g);
        }
      }
      if (cands.empty()) continue;
      bool satisfied = false;
      for (const GuardedDecl* g : cands) {
        const std::string want = graph_detail::LastSegment(g->guard);
        for (const std::string& h : access.held) {
          if (h == want || h == g->guard) {
            satisfied = true;
            break;
          }
        }
        for (const std::string& r : fn.requires_locks) {
          if (satisfied) break;
          if (graph_detail::LastSegment(r) == want) satisfied = true;
        }
        if (satisfied) break;
      }
      if (satisfied) continue;
      if (LineAllows(pf, fn.file, access.line, "guarded-by")) continue;
      std::ostringstream key;
      key << fn.file << "|" << access.line << "|" << access.member;
      if (!seen.insert(key.str()).second) continue;
      const GuardedDecl* g = cands.front();
      std::ostringstream msg;
      msg << "'" << access.member << "' is FVAE_GUARDED_BY(" << g->guard
          << ") (declared at " << g->file << ":" << g->line
          << ") but is accessed in " << fn.qualified << " without holding '"
          << g->guard << "'";
      findings.push_back({fn.file, access.line, "guarded-by", msg.str()});
    }
  }
  return findings;
}

namespace graph_detail {

/// A `default:` is a justified escape from exhaustiveness only when it
/// carries a comment (on its line or the one above) saying why.
inline bool DefaultJustified(const ProgramFacts& pf, const SwitchFacts& sw) {
  auto it = pf.file_lines.find(sw.file);
  if (it == pf.file_lines.end()) return false;
  const size_t lines[] = {sw.default_line, sw.default_line - 1};
  for (size_t l : lines) {
    if (l == 0 || l > it->second.size()) continue;
    const std::string& text = it->second[l - 1];
    const size_t pos = text.find("//");
    if (pos != std::string::npos &&
        text.find_first_not_of(" /", pos) != std::string::npos) {
      return true;
    }
  }
  return false;
}

}  // namespace graph_detail

/// Exhaustive-switch enforcement for wire enums: a `switch` whose case
/// labels name a known `enum class` (e.g. `case Verb::kLookup:`) must
/// either cover every enumerator or carry a `default:` with a justifying
/// comment — so adding a protocol verb cannot silently skip a handler.
/// Suppression: `fvae-lint: allow(verb-switch)` on the switch line.
inline std::vector<Finding> AnalyzeEnumSwitches(const ProgramFacts& pf) {
  std::vector<Finding> findings;
  for (const SwitchFacts& sw : pf.switches) {
    const EnumDecl* en = nullptr;
    std::set<std::string> covered;
    for (const std::string& chain : sw.cases) {
      const size_t pos = chain.rfind("::");
      if (pos == std::string::npos) continue;
      const std::string prefix = chain.substr(0, pos);
      const std::string label = chain.substr(pos + 2);
      for (const EnumDecl& cand : pf.enums) {
        std::string qual = cand.ns;
        if (!cand.cls.empty()) {
          qual += qual.empty() ? cand.cls : "::" + cand.cls;
        }
        qual += qual.empty() ? cand.name : "::" + cand.name;
        if (qual == prefix || graph_detail::EndsWithSegment(qual, prefix)) {
          en = &cand;
          covered.insert(label);
          break;
        }
      }
    }
    if (en == nullptr) continue;
    std::vector<std::string> missing;
    for (const std::string& e : en->enumerators) {
      if (covered.count(e) == 0) missing.push_back(e);
    }
    if (missing.empty()) continue;
    if (sw.has_default && graph_detail::DefaultJustified(pf, sw)) continue;
    if (LineAllows(pf, sw.file, sw.line, "verb-switch")) continue;
    std::ostringstream msg;
    msg << "switch on " << en->name << " in " << sw.function
        << " does not handle ";
    for (size_t m = 0; m < missing.size(); ++m) {
      if (m != 0) msg << ", ";
      msg << en->name << "::" << missing[m];
    }
    msg << (sw.has_default
                ? " and its default: has no justifying comment"
                : " and has no default:");
    findings.push_back({sw.file, sw.line, "verb-switch", msg.str()});
  }
  return findings;
}

// ---------------------------------------------------------------------------
// Path-sensitive analyses (tools/cfg.h + tools/dataflow.h)
//
// Two analyses run on per-function CFGs with the worklist solver:
//
//   status-path      a local Status/Result value whose initializer calls a
//                    function must be consumed — checked (`.ok()`, any
//                    member access), returned, `(void)`-cast, address-
//                    taken, or passed to a consuming callee — on every
//                    path to function exit; overwriting an unconsumed
//                    value is reported at the assignment.
//   resource-escape  table-driven acquire/release: TimerWheel handles
//                    (`TimerId id = w.Schedule(..)` ... `w.Cancel(id)`),
//                    EpollLoop registrations of function-local fds
//                    (`loop.Add(fd, ..)` ... `loop.Del(fd)`), raw
//                    descriptors (`int fd = ::socket(..)` ... `close(fd)`,
//                    `owner.Reset(fd)`), and AtomicFileWriter lifetimes
//                    (declaration ... Commit()/Abort()). Every path to
//                    exit must release the obligation or escape the
//                    resource (return it, store it, move it, pass it to an
//                    owning callee).
//
// Before the fact walks run, PruneUnreachableFacts drops facts recorded in
// CFG-unreachable statements, which makes the event-loop and hot-path
// walks path-sensitive at the intra-function level.
//
// Interprocedural precision comes from FnSummary (tools/dataflow.h):
// consumes-status, takes-ownership and releases-argument summaries are
// computed from every function's parameter facts and body tokens, so
// passing a tracked value into a project wrapper does not spuriously keep
// (or discharge) an obligation. A callee the program cannot resolve is
// assumed to consume/own — over-approximation in the silent direction.
// ---------------------------------------------------------------------------

/// Computes the per-function interprocedural summaries, merged by bare
/// name (overloads OR together, the usual over-approximation).
inline SummaryMap ComputeSummaries(const ProgramFacts& pf) {
  static const std::set<std::string> kReleaseMethods = {
      "Cancel", "Del", "Commit", "Abort", "close", "Reset"};
  SummaryMap map;
  for (const FunctionFacts& fn : pf.functions) {
    FnSummary& s = map[fn.name];
    std::set<std::string> param_names;
    for (const ParamFacts& p : fn.params) {
      if (p.fallible) s.consumes_status = true;
      if (p.rvalue_ref) s.takes_ownership = true;
      if (!p.name.empty()) param_names.insert(p.name);
    }
    if (s.releases_argument || param_names.empty() ||
        fn.body_end <= fn.body_begin) {
      continue;
    }
    auto tit = pf.file_tokens.find(fn.file);
    if (tit == pf.file_tokens.end()) continue;
    const std::vector<Tok>& toks = tit->second;
    const size_t end = std::min(fn.body_end, toks.size());
    for (size_t i = fn.body_begin; i < end; ++i) {
      const Tok& t = toks[i];
      if (t.kind != TokKind::kIdent || kReleaseMethods.count(t.text) == 0) {
        continue;
      }
      if (i + 1 >= end || toks[i + 1].kind != TokKind::kPunct ||
          toks[i + 1].text != "(") {
        continue;
      }
      // Receiver form: `param.Commit()` / `param->Reset()`.
      if (i >= 2 && toks[i - 1].kind == TokKind::kPunct &&
          (toks[i - 1].text == "." || toks[i - 1].text == "->") &&
          toks[i - 2].kind == TokKind::kIdent &&
          param_names.count(toks[i - 2].text) > 0) {
        s.releases_argument = true;
        break;
      }
      // Argument form: `wheel_.Cancel(param)` — a param inside the group.
      int depth = 0;
      for (size_t j = i + 1; j < end; ++j) {
        if (toks[j].kind == TokKind::kPunct) {
          if (toks[j].text == "(") ++depth;
          if (toks[j].text == ")" && --depth == 0) break;
        } else if (toks[j].kind == TokKind::kIdent &&
                   param_names.count(toks[j].text) > 0) {
          s.releases_argument = true;
          break;
        }
      }
      if (s.releases_argument) break;
    }
  }
  return map;
}

namespace path_detail {

/// Everything the per-function passes need in one place.
struct FnPath {
  const ProgramFacts* pf = nullptr;
  const FunctionFacts* fn = nullptr;
  const Cfg* cfg = nullptr;
  // Innermost enclosing call's bare callee name per body token (indexed
  // by token_index - fn->body_begin; "" outside any call's argument
  // list). Paren groups are balanced within statements, so one linear
  // body scan serves every statement.
  std::vector<std::string> callees;
};

inline bool TokPunct(const std::vector<Tok>& toks, size_t i,
                     const char* text) {
  return i < toks.size() && toks[i].kind == TokKind::kPunct &&
         toks[i].text == text;
}
inline bool TokIdent(const std::vector<Tok>& toks, size_t i) {
  return i < toks.size() && toks[i].kind == TokKind::kIdent;
}

inline std::vector<std::string> EnclosingCallees(const std::vector<Tok>& toks,
                                                 size_t begin, size_t end) {
  std::vector<std::string> out(end > begin ? end - begin : 0);
  std::vector<std::string> stack;
  for (size_t i = begin; i < end; ++i) {
    out[i - begin] = stack.empty() ? "" : stack.back();
    const Tok& t = toks[i];
    if (t.kind != TokKind::kPunct) continue;
    if (t.text == "(") {
      std::string callee;
      if (i > begin && toks[i - 1].kind == TokKind::kIdent &&
          facts_detail::ControlKeywords().count(toks[i - 1].text) == 0) {
        callee = toks[i - 1].text;
      }
      stack.push_back(std::move(callee));
    } else if (t.text == ")") {
      if (!stack.empty()) stack.pop_back();
    }
  }
  return out;
}

/// Skips a balanced `<...>` group starting at `i` (which must be '<');
/// returns the index just past the matching '>' (`>>` closes two).
inline size_t SkipAngles(const std::vector<Tok>& toks, size_t i,
                         size_t end) {
  int depth = 0;
  while (i < end) {
    if (toks[i].kind == TokKind::kPunct) {
      if (toks[i].text == "<") ++depth;
      if (toks[i].text == ">") --depth;
      if (toks[i].text == ">>") depth -= 2;
    }
    ++i;
    if (depth <= 0) break;
  }
  return i;
}

inline bool StmtIsReturn(const std::vector<Tok>& toks, const CfgStmt& s) {
  return TokIdent(toks, s.begin) &&
         (toks[s.begin].text == "return" || toks[s.begin].text == "co_return");
}
inline bool StmtIsVoidCast(const std::vector<Tok>& toks, const CfgStmt& s) {
  return TokPunct(toks, s.begin, "(") && TokIdent(toks, s.begin + 1) &&
         toks[s.begin + 1].text == "void" && TokPunct(toks, s.begin + 2, ")");
}

/// Shared reporting helper: LineAllows + per-function dedup.
struct Reporter {
  const FnPath* ctx;
  std::vector<Finding>* findings;
  std::set<std::string> seen;
  void operator()(size_t line, const std::string& rule,
                  const std::string& message) {
    if (LineAllows(*ctx->pf, ctx->fn->file, line, rule)) return;
    std::ostringstream key;
    key << line << "|" << rule << "|" << message;
    if (!seen.insert(key.str()).second) return;
    findings->push_back({ctx->fn->file, line, rule, message});
  }
};

/// Runs `transfer` to fixpoint and then replays every reachable node once
/// with reporting enabled. `transfer(stmt, state, report)` mutates the
/// state across one statement.
template <typename StmtTransfer>
DataflowResult<FlowState> SolveAndReport(const FnPath& ctx, Flow missing,
                                         StmtTransfer transfer) {
  auto node_transfer = [&](size_t node, const FlowState& in) {
    FlowState state = in;
    for (const CfgStmt& s : ctx.cfg->nodes[node].stmts) {
      transfer(s, &state, /*report=*/false);
    }
    return state;
  };
  auto join = [missing](FlowState* acc, const FlowState& other) {
    JoinFlowStates(acc, other, missing);
  };
  DataflowResult<FlowState> result =
      SolveDataflow(*ctx.cfg, DataflowDir::kForward, FlowState{}, FlowState{},
                    node_transfer, join);
  if (!result.converged) return result;
  for (size_t n = 0; n < ctx.cfg->nodes.size(); ++n) {
    if (!ctx.cfg->reachable[n]) continue;
    FlowState state = result.in[n];
    for (const CfgStmt& s : ctx.cfg->nodes[n].stmts) {
      transfer(s, &state, /*report=*/true);
    }
  }
  return result;
}

}  // namespace path_detail

/// status-path: every locally declared Status/Result value produced by a
/// call must be consumed on every path to exit. Consumption is any member
/// access, being returned, (void)-cast, address-taken, compared, or
/// passed to an unresolvable callee / a callee whose summary says it
/// consumes Status. Passing to a resolvable *non*-consuming callee keeps
/// the obligation — the precision the summaries buy.
inline void AnalyzeStatusPaths(const ProgramFacts& pf,
                               const SummaryMap& summaries,
                               const std::map<size_t, Cfg>& cfgs,
                               std::vector<Finding>* findings) {
  using path_detail::FnPath;
  using path_detail::Reporter;
  using path_detail::SkipAngles;
  using path_detail::TokIdent;
  using path_detail::TokPunct;
  for (const auto& [fi, cfg] : cfgs) {
    const FunctionFacts& fn = pf.functions[fi];
    const std::vector<Tok>& toks = pf.file_tokens.at(fn.file);
    FnPath ctx{&pf, &fn, &cfg,
               path_detail::EnclosingCallees(toks, fn.body_begin,
                                             fn.body_end)};
    Reporter report{&ctx, findings, {}};
    std::map<std::string, size_t> decl_line;  // monotone across passes

    auto rhs_has_call = [&](size_t from, size_t end) {
      for (size_t i = from; i < end; ++i) {
        if (TokPunct(toks, i, "(")) return true;
      }
      return false;
    };

    auto transfer = [&](const CfgStmt& s, FlowState* state, bool emit) {
      const bool is_return = path_detail::StmtIsReturn(toks, s);
      const bool is_void = path_detail::StmtIsVoidCast(toks, s);
      // Declaration: [const|static]* Status|Result<..> NAME [= init];
      size_t skip_name = SIZE_MAX;
      {
        size_t p = s.begin;
        while (TokIdent(toks, p) && (toks[p].text == "const" ||
                                     toks[p].text == "static" ||
                                     toks[p].text == "constexpr")) {
          ++p;
        }
        size_t type_end = 0;
        if (TokIdent(toks, p) && toks[p].text == "Status" &&
            !TokPunct(toks, p + 1, "::")) {
          type_end = p + 1;
        } else if (TokIdent(toks, p) && toks[p].text == "Result" &&
                   TokPunct(toks, p + 1, "<")) {
          type_end = SkipAngles(toks, p + 1, s.end);
        }
        if (type_end != 0 && type_end < s.end && TokIdent(toks, type_end)) {
          const std::string& name = toks[type_end].text;
          const size_t after = type_end + 1;
          const bool decl_like =
              TokPunct(toks, after, "=") || TokPunct(toks, after, ";") ||
              TokPunct(toks, after, "(") || TokPunct(toks, after, "{");
          if (decl_like) {
            skip_name = type_end;
            decl_line.emplace(name, toks[type_end].line);
            // Only an initializer that calls something creates the
            // obligation; `Status st = kOk;` accumulators start consumed.
            if (rhs_has_call(after, s.end)) {
              state->vals[name] = Flow::kB;
            } else {
              state->vals.erase(name);
            }
          }
        }
      }
      for (size_t i = s.begin; i < s.end && i < toks.size(); ++i) {
        if (i == skip_name || toks[i].kind != TokKind::kIdent) continue;
        auto dit = decl_line.find(toks[i].text);
        if (dit == decl_line.end()) continue;
        const bool prev_member =
            i > 0 && toks[i - 1].kind == TokKind::kPunct &&
            (toks[i - 1].text == "." || toks[i - 1].text == "->" ||
             toks[i - 1].text == "::");
        if (prev_member) continue;
        const std::string& name = toks[i].text;
        if (TokPunct(toks, i + 1, "=")) {  // plain reassignment
          auto sit = state->vals.find(name);
          if (emit && sit != state->vals.end() && sit->second == Flow::kB) {
            report(toks[i].line, "status-path",
                   "'" + name + "' still holds an unconsumed Status/Result "
                   "(from line " + std::to_string(dit->second) +
                   ") when it is overwritten here");
          }
          if (rhs_has_call(i + 2, s.end)) {
            state->vals[name] = Flow::kB;
            dit->second = toks[i].line;  // the obligation now starts here
          } else {
            state->vals.erase(name);
          }
          continue;
        }
        bool consumed = is_return || is_void;
        if (!consumed && i > 0 && toks[i - 1].kind == TokKind::kPunct &&
            (toks[i - 1].text == "&" || toks[i - 1].text == "!" ||
             toks[i - 1].text == "=")) {
          consumed = true;  // address taken / negated / stored elsewhere
        }
        if (!consumed &&
            (TokPunct(toks, i + 1, ".") || TokPunct(toks, i + 1, "->") ||
             TokPunct(toks, i + 1, "==") || TokPunct(toks, i + 1, "!="))) {
          consumed = true;  // member access or comparison
        }
        if (!consumed) {
          const std::string& callee =
              i >= fn.body_begin && i - fn.body_begin < ctx.callees.size()
                  ? ctx.callees[i - fn.body_begin]
                  : std::string();
          if (callee.empty()) {
            consumed = true;  // bare mention outside any call
          } else if (pf.functions_by_name.count(callee) == 0) {
            consumed = true;  // unresolvable callee: assume it consumes
          } else {
            auto sit = summaries.find(callee);
            consumed = sit != summaries.end() && sit->second.consumes_status;
          }
        }
        if (consumed) state->vals.erase(name);
      }
    };

    const DataflowResult<FlowState> result =
        path_detail::SolveAndReport(ctx, Flow::kA, transfer);
    if (!result.converged) continue;
    for (const auto& [name, val] : result.in[Cfg::kExit].vals) {
      auto dit = decl_line.find(name);
      const size_t line = dit != decl_line.end() ? dit->second : fn.line;
      report(line, "status-path",
             val == Flow::kB
                 ? "Status/Result value '" + name +
                       "' is never consumed on any path to function exit "
                       "(check it, return it, or (void)-cast it)"
                 : "Status/Result value '" + name +
                       "' is dropped on some path to function exit "
                       "(consumed on others)");
    }
  }
}

/// resource-escape: table-driven acquire/release over the CFG. See the
/// section comment for the four resource kinds.
inline void AnalyzeResourceEscapes(const ProgramFacts& pf,
                                   const SummaryMap& summaries,
                                   const std::map<size_t, Cfg>& cfgs,
                                   std::vector<Finding>* findings) {
  using path_detail::FnPath;
  using path_detail::Reporter;
  using path_detail::TokIdent;
  using path_detail::TokPunct;
  // Callees that release the resource passed as an argument, and member
  // calls on the resource that settle its lifetime.
  static const std::set<std::string> kReleaseArgCallees = {"Cancel", "Del",
                                                           "close", "Reset"};
  static const std::set<std::string> kReleaseMembers = {"Commit", "Abort"};
  static const std::set<std::string> kFdProducers = {
      "socket", "accept", "accept4", "eventfd", "epoll_create1", "open"};
  for (const auto& [fi, cfg] : cfgs) {
    const FunctionFacts& fn = pf.functions[fi];
    const std::vector<Tok>& toks = pf.file_tokens.at(fn.file);
    FnPath ctx{&pf, &fn, &cfg,
               path_detail::EnclosingCallees(toks, fn.body_begin,
                                             fn.body_end)};
    Reporter report{&ctx, findings, {}};
    std::map<std::string, size_t> acquire_line;
    std::map<std::string, std::string> kind;
    // Function-local ints/Fds, for the EpollLoop registration rule: only
    // a *local* descriptor registered and then dropped is a sure leak
    // (member fds legitimately stay registered past the return). A local
    // initialized via `.get()` merely *borrows* a descriptor someone else
    // owns — registering it creates no obligation here.
    std::set<std::string> local_ints;
    {
      const size_t end = std::min(fn.body_end, toks.size());
      for (size_t i = fn.body_begin; i + 1 < end; ++i) {
        if (toks[i].kind != TokKind::kIdent ||
            (toks[i].text != "int" && toks[i].text != "Fd") ||
            !TokIdent(toks, i + 1) ||
            (i > 0 && TokPunct(toks, i - 1, "::"))) {
          continue;
        }
        bool borrowed = false;
        if (TokPunct(toks, i + 2, "=")) {
          for (size_t j = i + 3; j < end && !TokPunct(toks, j, ";"); ++j) {
            if (toks[j].kind == TokKind::kIdent && toks[j].text == "get") {
              borrowed = true;
              break;
            }
          }
        }
        if (!borrowed) local_ints.insert(toks[i + 1].text);
      }
    }

    auto transfer = [&](const CfgStmt& s, FlowState* state, bool emit) {
      (void)emit;
      const bool is_return = path_detail::StmtIsReturn(toks, s);
      auto acquire = [&](size_t at, const char* what) {
        state->vals[toks[at].text] = Flow::kB;
        acquire_line.emplace(toks[at].text, toks[at].line);
        kind.emplace(toks[at].text, what);
      };
      size_t p = s.begin;
      while (TokIdent(toks, p) && toks[p].text == "const") ++p;
      if (TokIdent(toks, p) && TokIdent(toks, p + 1) &&
          TokPunct(toks, p + 2, "=")) {
        // Acquire: TimerId NAME = <recv>.Schedule(...);
        if (toks[p].text == "TimerId") {
          for (size_t i = p + 3; i + 1 < s.end; ++i) {
            if (toks[i].kind == TokKind::kIdent &&
                toks[i].text == "Schedule" &&
                (TokPunct(toks, i - 1, ".") || TokPunct(toks, i - 1, "->")) &&
                TokPunct(toks, i + 1, "(")) {
              acquire(p + 1, "TimerWheel handle");
              break;
            }
          }
        }
        // Acquire: int NAME = [::]socket(..) and the other producers — a
        // descriptor not handed straight to an owner (`Fd fd(::socket(..))`
        // or `owner.Reset(::eventfd(..))` create no obligation).
        const size_t q = TokPunct(toks, p + 3, "::") ? p + 4 : p + 3;
        if (toks[p].text == "int" && TokIdent(toks, q) &&
            kFdProducers.count(toks[q].text) > 0 &&
            TokPunct(toks, q + 1, "(")) {
          acquire(p + 1, "raw descriptor");
        }
      }
      // Acquire: AtomicFileWriter NAME ...;
      if (TokIdent(toks, p) && toks[p].text == "AtomicFileWriter" &&
          TokIdent(toks, p + 1) &&
          (TokPunct(toks, p + 2, ";") || TokPunct(toks, p + 2, "(") ||
           TokPunct(toks, p + 2, "{") || TokPunct(toks, p + 2, "="))) {
        acquire(p + 1, "AtomicFileWriter");
      }
      // Acquire: <recv>.Add(fd, ...) with recv an EpollLoop member and fd
      // a bare local. Release: <recv>.Del(fd) and friends, below.
      for (size_t i = s.begin; i < s.end && i < toks.size(); ++i) {
        if (toks[i].kind != TokKind::kIdent || toks[i].text != "Add") {
          continue;
        }
        if (!(i >= 2 &&
              (TokPunct(toks, i - 1, ".") || TokPunct(toks, i - 1, "->")) &&
              toks[i - 2].kind == TokKind::kIdent)) {
          continue;
        }
        auto rit = pf.member_types.find(toks[i - 2].text);
        if (rit == pf.member_types.end() || rit->second != "EpollLoop") {
          continue;
        }
        if (TokPunct(toks, i + 1, "(") && TokIdent(toks, i + 2) &&
            (TokPunct(toks, i + 3, ",") || TokPunct(toks, i + 3, ")")) &&
            local_ints.count(toks[i + 2].text) > 0) {
          acquire(i + 2, "EpollLoop registration");
        }
      }
      // Releases and escapes of tracked names.
      for (size_t i = s.begin; i < s.end && i < toks.size(); ++i) {
        if (toks[i].kind != TokKind::kIdent) continue;
        const std::string& name = toks[i].text;
        if (state->vals.count(name) == 0) continue;
        const bool prev_member =
            i > 0 && toks[i - 1].kind == TokKind::kPunct &&
            (toks[i - 1].text == "." || toks[i - 1].text == "->" ||
             toks[i - 1].text == "::");
        if (prev_member) continue;
        bool done = is_return;  // returning the resource escapes it
        if (!done &&
            (TokPunct(toks, i + 1, ".") || TokPunct(toks, i + 1, "->")) &&
            TokIdent(toks, i + 2) &&
            kReleaseMembers.count(toks[i + 2].text) > 0 &&
            TokPunct(toks, i + 3, "(")) {
          done = true;  // writer.Commit() / writer.Abort()
        }
        if (!done && i > 0 && toks[i - 1].kind == TokKind::kPunct &&
            (toks[i - 1].text == "&" || toks[i - 1].text == "=") &&
            !(TokPunct(toks, i + 1, ".") || TokPunct(toks, i + 1, "->"))) {
          // Address taken / stored whole into another lvalue. Followed by
          // '.' it is only `x = res.Method()` — the *result* is stored,
          // not the resource.
          done = true;
        }
        if (!done &&
            (TokPunct(toks, i + 1, ",") || TokPunct(toks, i + 1, ")"))) {
          // Passed whole as an argument. The acquire verbs themselves are
          // not escapes — `loop_.Add(fd, ...)` must not discharge the
          // obligation it just created.
          static const std::set<std::string> kAcquireCallees = {"Add",
                                                                "Schedule"};
          const std::string& callee =
              i >= fn.body_begin && i - fn.body_begin < ctx.callees.size()
                  ? ctx.callees[i - fn.body_begin]
                  : std::string();
          if (!callee.empty() && kAcquireCallees.count(callee) == 0) {
            if (kReleaseArgCallees.count(callee) > 0 ||
                pf.functions_by_name.count(callee) == 0) {
              done = true;  // releasing callee, or unresolvable: assume owns
            } else {
              auto sit = summaries.find(callee);
              done = sit != summaries.end() &&
                     (sit->second.takes_ownership ||
                      sit->second.releases_argument);
            }
          }
        }
        if (done) state->vals.erase(name);
      }
    };

    const DataflowResult<FlowState> result =
        path_detail::SolveAndReport(ctx, Flow::kA, transfer);
    if (!result.converged) continue;
    for (const auto& [name, val] : result.in[Cfg::kExit].vals) {
      auto ait = acquire_line.find(name);
      const size_t line = ait != acquire_line.end() ? ait->second : fn.line;
      auto kit = kind.find(name);
      const std::string what =
          (kit != kind.end() ? kit->second : std::string("resource")) +
          " '" + name + "'";
      report(line, "resource-escape",
             val == Flow::kB
                 ? what + " is neither released nor escaped on any path to "
                          "function exit"
                 : what + " is neither released nor escaped on some path "
                          "to function exit");
    }
  }
}

/// Builds a CFG for every function with a recorded body range, keyed by
/// index into pf.functions. Functions whose definitions never closed (or
/// whose file tokens are missing) simply have no CFG and are skipped by
/// the path-sensitive analyses.
inline std::map<size_t, Cfg> BuildFunctionCfgs(const ProgramFacts& pf) {
  std::map<size_t, Cfg> cfgs;
  for (size_t fi = 0; fi < pf.functions.size(); ++fi) {
    const FunctionFacts& fn = pf.functions[fi];
    if (fn.body_end <= fn.body_begin) continue;
    auto tit = pf.file_tokens.find(fn.file);
    if (tit == pf.file_tokens.end() || fn.body_end > tit->second.size()) {
      continue;
    }
    cfgs.emplace(fi, BuildCfg(tit->second, fn.body_begin, fn.body_end));
  }
  return cfgs;
}

/// Drops blocking/io/log/alloc/trace facts on lines covered only by
/// CFG-unreachable statements (dead code after a terminator), so the
/// event-loop and hot-path walks never flag code no path executes. Must
/// run before those walks read the facts.
inline void PruneUnreachableFacts(ProgramFacts* pf,
                                  const std::map<size_t, Cfg>& cfgs) {
  for (const auto& [fi, cfg] : cfgs) {
    if (cfg.truncated) continue;
    FunctionFacts& fn = pf->functions[fi];
    const std::vector<Tok>& toks = pf->file_tokens.at(fn.file);
    std::set<size_t> reach_lines, unreach_lines;
    for (size_t n = 0; n < cfg.nodes.size(); ++n) {
      for (const CfgStmt& s : cfg.nodes[n].stmts) {
        for (size_t i = s.begin; i < s.end && i < toks.size(); ++i) {
          (cfg.reachable[n] ? reach_lines : unreach_lines)
              .insert(toks[i].line);
        }
      }
    }
    if (unreach_lines.empty()) continue;
    auto prune = [&](std::vector<PurityFact>* facts) {
      facts->erase(std::remove_if(facts->begin(), facts->end(),
                                  [&](const PurityFact& f) {
                                    return unreach_lines.count(f.line) > 0 &&
                                           reach_lines.count(f.line) == 0;
                                  }),
                   facts->end());
    };
    prune(&fn.blocking);
    prune(&fn.ios);
    prune(&fn.logs);
    prune(&fn.allocs);
    prune(&fn.traces);
  }
}

/// Wall-clock cost of each pass in run order, as (phase, ms) rows; the
/// phase names are the JSON report's keys. fvae_lint sums, prints and
/// reports the rows as they come, so adding or dropping a pass touches
/// only the code that times it.
using PhaseTimings = std::vector<std::pair<std::string, double>>;

/// Appends one (phase, ms since the previous lap) row per Lap(); with a
/// null table it only keeps time.
class PhaseClock {
 public:
  explicit PhaseClock(PhaseTimings* out) : out_(out) {}
  void Lap(const char* phase) {
    const Clock::time_point now = Clock::now();
    if (out_ != nullptr) {
      out_->emplace_back(
          phase, std::chrono::duration<double, std::milli>(now - last_).count());
    }
    last_ = now;
  }

 private:
  using Clock = std::chrono::steady_clock;
  PhaseTimings* out_;
  Clock::time_point last_ = Clock::now();
};

/// Runs the whole-program analyses over a file set: link, then the CFG
/// build, interprocedural summaries and dead-fact pruning (which the fact
/// walks depend on), then the five fact walks (lock-cycle, hot-path,
/// event-loop, guarded-by, verb-switch), then the path-sensitive
/// analyses (status-path, resource-escape).
inline std::vector<Finding> AnalyzeProgram(const std::vector<SourceFile>& files,
                                           PhaseTimings* timing = nullptr) {
  PhaseClock clock(timing);
  ProgramFacts pf = LinkProgram(files);
  clock.Lap("link");
  const std::map<size_t, Cfg> cfgs = BuildFunctionCfgs(pf);
  const SummaryMap summaries = ComputeSummaries(pf);
  PruneUnreachableFacts(&pf, cfgs);
  clock.Lap("cfg");
  std::vector<Finding> findings;
  auto append = [&findings](std::vector<Finding> more) {
    findings.insert(findings.end(), more.begin(), more.end());
  };
  append(AnalyzeLockOrder(pf));
  clock.Lap("lock_cycle");
  append(AnalyzeHotPaths(pf));
  clock.Lap("hot_path");
  append(AnalyzeEventLoops(pf));
  clock.Lap("event_loop");
  append(AnalyzeGuardedBy(pf));
  clock.Lap("guarded_by");
  append(AnalyzeEnumSwitches(pf));
  clock.Lap("verb_switch");
  AnalyzeStatusPaths(pf, summaries, cfgs, &findings);
  clock.Lap("status_path");
  AnalyzeResourceEscapes(pf, summaries, cfgs, &findings);
  clock.Lap("resource_escape");
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  return findings;
}

}  // namespace fvae::lint

#endif  // FVAE_TOOLS_LINT_GRAPH_H_
