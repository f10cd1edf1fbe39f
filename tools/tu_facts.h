#ifndef FVAE_TOOLS_TU_FACTS_H_
#define FVAE_TOOLS_TU_FACTS_H_

#include <set>
#include <string>
#include <vector>

#include "tools/cpp_lexer.h"

/// Per-translation-unit fact extraction for fvae_lint v2.
///
/// Walks one file's token stream (tools/cpp_lexer.h) tracking namespace /
/// class / function / block scopes by brace matching, and records:
///
///   - function definitions with their namespace-qualified names and any
///     FVAE_HOT / FVAE_NOALLOC attributes (from the definition itself or a
///     matching in-class declaration);
///   - call sites inside each function (qualifier chain + last name), with
///     the set of locks held at the call;
///   - lock acquisitions: RAII guards (MutexLock / WriterMutexLock /
///     ReaderMutexLock, released when their brace scope closes), plus the
///     observed nesting pairs "Y acquired while X held". Production code
///     takes no lock by hand (raw-mutex bans manual .Lock() in src/);
///   - heap allocations (`new`, malloc family, make_unique/make_shared,
///     growing container calls, sized vector/Matrix declarations), logging
///     calls and IO touches, each with
///     its line — the raw material of the hot-path purity analysis;
///   - class-member lock declarations (`Mutex mu_;`) with their
///     FVAE_ACQUIRED_BEFORE / FVAE_ACQUIRED_AFTER rank annotations and the
///     FVAE_HOT_LOCK_EXEMPT marker.
///
/// The extractor is name-based by design (no overload resolution, no
/// template instantiation): tools/lint_graph.h links these facts across
/// files by qualified-name matching. Sized `std::vector` and `Matrix`
/// declarations (`std::vector<float> v(n)`, `Matrix m(r, c)`) count as
/// allocations. Known blind spots, by construction: other constructor-call
/// allocations (a temporary `Matrix(r, c)`, a copy `Matrix m = other`),
/// copy-assignment allocations (`a = b`), and `operator=` bodies. The runtime
/// operator-new witness in serving_test covers what the token level
/// cannot see (docs/ARCHITECTURE.md §7).

namespace fvae::lint {

struct CallSite {
  std::vector<std::string> quals;  // "::"-joined qualifier chain, outermost first
  std::string name;                // last component
  bool member_access = false;      // reached via '.' or '->'
  std::string receiver;            // ident before the '.'/'->' ("" if none)
  size_t line = 0;
  std::vector<std::string> held;   // lock member-names held at the call
};

/// One allocation / logging / IO touch inside a function body.
struct PurityFact {
  std::string token;  // the offending identifier, e.g. "push_back"
  size_t line = 0;
};

/// A function-pointer member assignment (`t->softmax_inplace = SoftmaxAvx2;`)
/// — the registration half of a dispatch table. The linker resolves `target`
/// against the program's function names and lets call resolution follow
/// member calls of `member` (e.g. `Kernels().softmax_inplace(..)`) into every
/// bound target, so runtime-dispatched kernels stay inside the hot-path
/// purity walk instead of vanishing behind the indirection.
struct DispatchBind {
  std::string member;  // the assigned member, e.g. "softmax_inplace"
  std::string target;  // "::"-joined assigned chain, e.g. "SoftmaxAvx2"
  size_t line = 0;
};

struct LockAcq {
  std::string lock;  // last identifier of the lock expression, e.g. "mutex_"
  size_t line = 0;
};

/// Observed nesting: `acquired` taken while `held` was held.
struct LockNest {
  std::string held;
  std::string acquired;
  size_t line = 0;
};

/// One read/write of a (possibly guarded) data member inside a function
/// body: a bare `queue_` in a method, or `buffer->events` with an explicit
/// receiver. The guarded-by analysis matches these against FVAE_GUARDED_BY
/// declarations; unguarded members simply never match.
struct MemberAccess {
  std::string member;
  std::string receiver;  // "" for this-relative access
  size_t line = 0;
  std::vector<std::string> held;  // lock member-names held at the access
};

/// One function parameter, parsed from the declarator's parameter list.
/// Name-based like everything else here: `fallible` records whether the
/// spelled type names Status or Result (feeding the consumes-status
/// summary), `rvalue_ref` whether the parameter is `T&&` (takes-ownership
/// summary). Parameters whose pieces the comma split cannot parse (deep
/// template types with defaulted arguments) are simply dropped —
/// summaries only ever under-claim.
struct ParamFacts {
  std::string name;       // "" when unnamed
  bool rvalue_ref = false;
  bool fallible = false;  // type mentions Status / Result
};

struct FunctionFacts {
  std::string file;
  size_t line = 0;
  std::string ns;         // enclosing namespaces, "a::b" ("" at file scope)
  std::string cls;        // enclosing/explicit class qualifier ("" for free)
  std::string name;       // unqualified name
  std::string qualified;  // ns::cls::name with empty parts skipped
  bool hot = false;
  bool noalloc = false;
  bool event_loop = false;  // FVAE_EVENT_LOOP root
  bool may_block = false;   // FVAE_MAY_BLOCK: blocks by design
  std::vector<std::string> requires_locks;  // FVAE_REQUIRES(...) args
  std::vector<CallSite> calls;
  std::vector<LockAcq> acquisitions;
  std::vector<LockNest> nests;
  std::vector<PurityFact> allocs;
  std::vector<PurityFact> logs;
  std::vector<PurityFact> ios;
  std::vector<PurityFact> blocking;  // loop-stalling tokens (poll, waits, …)
  std::vector<PurityFact> traces;    // TraceSpan / FVAE_TRACE_SCOPE sites
  std::vector<MemberAccess> accesses;
  std::vector<DispatchBind> dispatch_binds;  // fn-pointer member assignments
  std::vector<ParamFacts> params;
  // Token range strictly inside the body's braces, as indices into the
  // file's token vector — the input to tools/cfg.h. Both zero when the
  // definition never closed (malformed input).
  size_t body_begin = 0;
  size_t body_end = 0;
};

/// A class-member lock declaration (fvae::Mutex / fvae::SharedMutex).
struct LockDecl {
  std::string file;
  size_t line = 0;
  std::string ns;
  std::string cls;
  std::string member;
  std::string id;  // ns::cls::member
  bool hot_exempt = false;
  bool loop_exempt = false;  // FVAE_LOOP_LOCK_EXEMPT
  std::vector<std::string> acquired_before;  // raw annotation args
  std::vector<std::string> acquired_after;
};

/// Purity/loop/requires annotations on a prototype (header declaration)
/// whose body lives elsewhere; merged onto the definition during linking.
struct AttrDecl {
  std::string ns;
  std::string cls;
  std::string name;
  bool hot = false;
  bool noalloc = false;
  bool event_loop = false;
  bool may_block = false;
  std::vector<std::string> requires_locks;
};

/// An FVAE_GUARDED_BY(m) data-member declaration.
struct GuardedDecl {
  std::string file;
  size_t line = 0;
  std::string ns;
  std::string cls;
  std::string member;
  std::string guard;  // annotation argument ("mutex_", "Lock", …)
};

/// A class-scope data member with a plainly spelled type (`EpollLoop loop;`,
/// `serving::EmbeddingService* service_;`). Feeds receiver-aware call
/// resolution: `service_->Lookup(...)` narrows to EmbeddingService methods.
struct MemberTypeDecl {
  std::string cls;     // owning class
  std::string member;
  std::string type;    // last segment of the type name
};

/// A switch statement's case labels; only qualified labels (`Verb::kStats`)
/// are recorded — they key the exhaustive-switch analysis to enum classes.
struct SwitchFacts {
  std::string file;
  size_t line = 0;  // the `switch` line
  std::string function;  // qualified enclosing function
  std::vector<std::string> cases;  // "::"-joined label chains
  bool has_default = false;
  size_t default_line = 0;
};

/// An enum (class) declaration with its enumerators.
struct EnumDecl {
  std::string file;
  size_t line = 0;
  std::string ns;
  std::string cls;
  std::string name;
  std::vector<std::string> enumerators;
};

struct TuFacts {
  std::vector<FunctionFacts> functions;
  std::vector<LockDecl> locks;
  std::vector<AttrDecl> attr_decls;
  std::vector<GuardedDecl> guarded;
  std::vector<MemberTypeDecl> member_types;
  std::vector<SwitchFacts> switches;
  std::vector<EnumDecl> enums;
};

namespace facts_detail {

inline const std::set<std::string>& ControlKeywords() {
  static const std::set<std::string> kSet = {
      "if",      "for",         "while",    "switch",   "return",
      "sizeof",  "alignof",     "decltype", "catch",    "noexcept",
      "throw",   "delete",      "new",      "case",     "goto",
      "using",   "template",    "typename", "operator", "alignas",
      "requires","static_assert","defined", "assert",   "co_await",
      "co_return","co_yield",   "typeid"};
  return kSet;
}

inline bool IsGuardType(const std::string& ident) {
  return ident == "MutexLock" || ident == "WriterMutexLock" ||
         ident == "ReaderMutexLock";
}

/// Heap-allocating member calls (obj.x(...) / obj->x(...)).
inline bool IsAllocMember(const std::string& ident) {
  static const std::set<std::string> kSet = {
      "push_back", "emplace_back", "emplace", "emplace_front", "push_front",
      "resize",    "reserve",      "insert",  "append",        "assign",
      "substr",    "str"};
  return kSet.count(ident) > 0;
}

/// Heap-allocating free/qualified calls.
inline bool IsAllocFree(const std::string& ident) {
  static const std::set<std::string> kSet = {
      "malloc",      "calloc",      "realloc", "strdup", "aligned_alloc",
      "make_unique", "make_shared", "to_string"};
  return kSet.count(ident) > 0;
}

/// True when tokens[i] opens a sized container or matrix declaration —
/// `vector<...> name(args)` or `Matrix name(args)`, with `(` or `{` and a
/// non-empty argument list (`std::vector<float> v(n)`, `v(n, x)`,
/// `Matrix m(r, c)`) — which allocates its storage. An empty list is a
/// default construction and allocates nothing.
inline bool IsSizedConstruction(const std::vector<Tok>& tokens, size_t i) {
  size_t j = i + 1;
  if (tokens[i].text == "vector") {
    if (j >= tokens.size() || tokens[j].text != "<") return false;
    // Skip the template argument list; `>>` closes two levels.
    int depth = 0;
    for (; j < tokens.size(); ++j) {
      const std::string& t = tokens[j].text;
      if (tokens[j].kind != TokKind::kPunct) continue;
      if (t == "<") ++depth;
      if (t == ">") --depth;
      if (t == ">>") depth -= 2;
      if (t == ";" || t == "{" || t == "}" || depth <= 0) break;
    }
    if (depth > 0) return false;
    ++j;
  } else if (tokens[i].text != "Matrix") {
    return false;
  }
  if (j + 2 >= tokens.size() || tokens[j].kind != TokKind::kIdent ||
      tokens[j + 1].kind != TokKind::kPunct) {
    return false;
  }
  const std::string& open = tokens[j + 1].text;
  const std::string& first = tokens[j + 2].text;
  return (open == "(" && first != ")") || (open == "{" && first != "}");
}

inline bool IsLogToken(const std::string& ident) {
  static const std::set<std::string> kSet = {
      "FVAE_LOG", "printf", "fprintf", "puts", "fputs", "putchar",
      "cout",     "cerr",   "clog"};
  return kSet.count(ident) > 0;
}

inline bool IsIoToken(const std::string& ident) {
  static const std::set<std::string> kSet = {
      "ifstream", "ofstream",         "fstream",   "fopen",    "fread",
      "fwrite",   "fclose",           "fseek",     "fflush",   "fsync",
      "filesystem", "ReadFileToString", "AtomicFileWriter",
      "sleep_for", "sleep_until",     "usleep",    "nanosleep"};
  return kSet.count(ident) > 0;
}

///// Bare / ::-qualified calls that park the calling thread: the core of the
/// event-loop blocking discipline. RetryWithBackoff sleeps between
/// attempts, so a call to it is blocking regardless of what it wraps.
inline bool IsBlockingCall(const std::string& ident) {
  static const std::set<std::string> kSet = {
      "poll",     "ppoll",     "select", "pselect",    "epoll_wait",
      "sleep",    "usleep",    "nanosleep", "sleep_for", "sleep_until",
      "RetryWithBackoff"};
  return kSet.count(ident) > 0;
}

/// Member calls that park the calling thread: condition-variable waits and
/// thread joins.
inline bool IsBlockingMember(const std::string& ident) {
  return ident == "Wait" || ident == "WaitUntil" || ident == "WaitFor" ||
         ident == "join";
}

/// Socket transfer syscalls that must carry MSG_DONTWAIT when issued from
/// an event-loop thread (an explicit, per-call non-blocking guarantee that
/// holds even if the fd's O_NONBLOCK flag is ever mis-set).
inline bool IsSocketTransfer(const std::string& ident) {
  static const std::set<std::string> kSet = {"recv", "recvfrom", "recvmsg",
                                             "send", "sendto",   "sendmsg"};
  return kSet.count(ident) > 0;
}

struct Scope {
  enum Kind { kNamespace, kClass, kFunction, kBlock };
  Kind kind = kBlock;
  std::string name;       // namespace / class name
  int func_index = -1;    // kFunction: index into TuFacts::functions
  int switch_index = -1;  // kBlock opened by `switch`: TuFacts::switches
  int enum_index = -1;    // kBlock that is an enum body: TuFacts::enums
};

/// A held RAII guard and the scope depth whose closing brace releases it.
struct HeldLock {
  std::string name;
  size_t depth = 0;
};

inline std::string JoinQualified(const std::string& ns, const std::string& cls,
                                 const std::string& name) {
  std::string out;
  auto add = [&out](const std::string& part) {
    if (part.empty()) return;
    if (!out.empty()) out += "::";
    out += part;
  };
  add(ns);
  add(cls);
  add(name);
  return out;
}

/// Finds the identifier chain immediately preceding the first paren group
/// at paren-depth 0 in `decl`. Returns the chain (e.g. {"FieldVae",
/// "EncodeFoldIn"}), empty when the buffer does not look like a function
/// declarator (control keyword, unbalanced parens, leading '=', ...).
inline std::vector<std::string> DeclaratorName(const std::vector<Tok>& decl) {
  int paren = 0;
  size_t open = decl.size();
  for (size_t i = 0; i < decl.size(); ++i) {
    const Tok& t = decl[i];
    if (t.kind == TokKind::kPunct) {
      if (t.text == "(") {
        if (paren == 0 && open == decl.size()) open = i;
        ++paren;
      } else if (t.text == ")") {
        --paren;
      } else if (t.text == "=" && paren == 0 && open == decl.size()) {
        return {};  // initializer before any call-ish group: not a function
      }
    }
  }
  if (open == decl.size() || open == 0) return {};
  // Walk the identifier chain backwards over "::" separators.
  std::vector<std::string> chain;
  size_t i = open;
  for (;;) {
    if (i == 0) break;
    const Tok& prev = decl[i - 1];
    if (prev.kind != TokKind::kIdent) break;
    chain.insert(chain.begin(), prev.text);
    if (i >= 2 && decl[i - 2].kind == TokKind::kPunct &&
        decl[i - 2].text == "::") {
      i -= 2;
      continue;
    }
    break;
  }
  if (chain.empty()) return {};
  if (ControlKeywords().count(chain.back()) > 0) return {};
  return chain;
}

inline bool HasIdent(const std::vector<Tok>& decl, const std::string& ident) {
  for (const Tok& t : decl) {
    if (t.kind == TokKind::kIdent && t.text == ident) return true;
  }
  return false;
}

/// Parses the declarator's first top-level paren group (the same group
/// DeclaratorName keyed on) into per-parameter facts. Commas are split at
/// paren- and angle-depth zero; a defaulted argument's expression can
/// unbalance the angle count, in which case later parameters merge into
/// one unparseable piece and drop out — acceptable, summaries only
/// under-claim.
inline std::vector<ParamFacts> ExtractParams(const std::vector<Tok>& decl) {
  std::vector<ParamFacts> params;
  size_t open = decl.size();
  {
    int paren = 0;
    for (size_t i = 0; i < decl.size(); ++i) {
      if (decl[i].kind != TokKind::kPunct) continue;
      if (decl[i].text == "(") {
        if (paren == 0) {
          open = i;
          break;
        }
        ++paren;
      } else if (decl[i].text == ")") {
        --paren;
      }
    }
  }
  if (open == decl.size()) return params;
  // Collect the group and the comma cut points.
  std::vector<std::pair<size_t, size_t>> pieces;
  int paren = 0, angle = 0;
  size_t start = open + 1, close = decl.size();
  for (size_t i = open; i < decl.size(); ++i) {
    const Tok& t = decl[i];
    if (t.kind != TokKind::kPunct) continue;
    if (t.text == "(") {
      ++paren;
    } else if (t.text == ")") {
      if (--paren == 0) {
        close = i;
        break;
      }
    } else if (t.text == "<") {
      ++angle;
    } else if (t.text == ">") {
      --angle;
    } else if (t.text == ">>") {
      angle -= 2;
    } else if (t.text == "," && paren == 1 && angle <= 0) {
      pieces.emplace_back(start, i);
      start = i + 1;
    }
  }
  if (close == decl.size()) return params;
  pieces.emplace_back(start, close);
  static const std::set<std::string> kCvWords = {
      "const", "volatile", "struct", "class", "typename", "register"};
  for (const auto& [b, e] : pieces) {
    if (b >= e) continue;
    ParamFacts p;
    size_t stop = e;  // cut the default argument off
    for (size_t i = b; i < e; ++i) {
      if (decl[i].kind == TokKind::kPunct && decl[i].text == "=") {
        stop = i;
        break;
      }
    }
    size_t idents = 0;
    std::string last;
    bool last_qualified = false;
    for (size_t i = b; i < stop; ++i) {
      const Tok& t = decl[i];
      if (t.kind == TokKind::kPunct && t.text == "&&") p.rvalue_ref = true;
      if (t.kind != TokKind::kIdent || kCvWords.count(t.text) > 0) continue;
      if (t.text == "Status" || t.text == "Result") p.fallible = true;
      ++idents;
      last = t.text;
      last_qualified = i > b && decl[i - 1].kind == TokKind::kPunct &&
                       decl[i - 1].text == "::";
    }
    // The name is the trailing identifier — present only when at least
    // two type-ish identifiers remain and the last is not a qualified
    // type segment (`const std::string&` is an unnamed string parameter).
    if (idents >= 2 && !last_qualified) p.name = last;
    if (idents > 0) params.push_back(std::move(p));
  }
  return params;
}

/// Parses the parenthesized argument list following `decl[i]` (which names
/// an annotation macro) into "::"-joined qualified names.
inline std::vector<std::string> AnnotationArgs(const std::vector<Tok>& decl,
                                               size_t i) {
  std::vector<std::string> args;
  size_t j = i + 1;
  if (j >= decl.size() || decl[j].text != "(") return args;
  ++j;
  std::string current;
  int depth = 1;
  while (j < decl.size() && depth > 0) {
    const Tok& t = decl[j];
    if (t.kind == TokKind::kPunct && t.text == "(") ++depth;
    if (t.kind == TokKind::kPunct && t.text == ")") {
      if (--depth == 0) break;
    }
    if (t.kind == TokKind::kPunct && t.text == "," && depth == 1) {
      if (!current.empty()) args.push_back(current);
      current.clear();
    } else if (t.kind == TokKind::kIdent) {
      if (!current.empty()) current += "::";
      current += t.text;
    }
    ++j;
  }
  if (!current.empty()) args.push_back(current);
  return args;
}

}  // namespace facts_detail

/// Extracts the facts of one file. `path_label` is recorded verbatim.
inline TuFacts ExtractTuFacts(const std::string& path_label,
                              const std::vector<Tok>& tokens) {
  using facts_detail::AnnotationArgs;
  using facts_detail::ControlKeywords;
  using facts_detail::DeclaratorName;
  using facts_detail::ExtractParams;
  using facts_detail::HasIdent;
  using facts_detail::HeldLock;
  using facts_detail::IsAllocFree;
  using facts_detail::IsAllocMember;
  using facts_detail::IsBlockingCall;
  using facts_detail::IsBlockingMember;
  using facts_detail::IsGuardType;
  using facts_detail::IsIoToken;
  using facts_detail::IsLogToken;
  using facts_detail::IsSizedConstruction;
  using facts_detail::IsSocketTransfer;
  using facts_detail::JoinQualified;
  using facts_detail::Scope;
  TuFacts facts;
  std::vector<Scope> stack;
  std::vector<Tok> decl;          // declaration buffer at the current level
  std::vector<HeldLock> held;     // active lock acquisitions (in functions)
  int paren_depth = 0;            // live paren depth (for '{' inside args)

  auto current_ns = [&stack] {
    std::string ns;
    for (const Scope& s : stack) {
      if (s.kind == Scope::kNamespace && !s.name.empty()) {
        if (!ns.empty()) ns += "::";
        ns += s.name;
      }
    }
    return ns;
  };
  auto current_cls = [&stack] {
    std::string cls;
    for (const Scope& s : stack) {
      if (s.kind == Scope::kClass && !s.name.empty()) {
        if (!cls.empty()) cls += "::";
        cls += s.name;
      }
    }
    return cls;
  };
  auto current_function = [&stack, &facts]() -> FunctionFacts* {
    for (size_t i = stack.size(); i-- > 0;) {
      if (stack[i].kind == Scope::kFunction) {
        return &facts.functions[stack[i].func_index];
      }
      if (stack[i].kind != Scope::kBlock) break;
    }
    return nullptr;
  };
  auto held_names = [&held] {
    std::vector<std::string> names;
    names.reserve(held.size());
    for (const HeldLock& h : held) names.push_back(h.name);
    return names;
  };

  /// Registers an acquisition of `lock` in the current function: records
  /// the fact, the nesting pairs against everything currently held, and
  /// pushes the new hold.
  auto acquire = [&](FunctionFacts* fn, const std::string& lock,
                     size_t line) {
    fn->acquisitions.push_back({lock, line});
    for (const HeldLock& h : held) fn->nests.push_back({h.name, lock, line});
    held.push_back({lock, stack.size()});
  };

  /// Classifies the declaration buffer when a '{' opens a new scope.
  auto classify_open = [&]() -> Scope {
    Scope scope;
    if (paren_depth > 0) return scope;  // '{' inside an argument list
    if (!decl.empty() && decl.front().kind == TokKind::kIdent &&
        decl.front().text == "namespace") {
      scope.kind = Scope::kNamespace;
      std::string name;
      for (size_t i = 1; i < decl.size(); ++i) {
        if (decl[i].kind == TokKind::kIdent) {
          if (!name.empty()) name += "::";
          name += decl[i].text;
        }
      }
      scope.name = name;
      return scope;
    }
    if (HasIdent(decl, "enum")) {
      // Enum body: a plain block whose comma-separated identifiers are
      // collected as enumerators (for the exhaustive-switch analysis).
      EnumDecl en;
      en.file = path_label;
      en.line = decl.empty() ? 0 : decl.front().line;
      en.ns = current_ns();
      en.cls = current_cls();
      for (size_t i = 0; i < decl.size(); ++i) {
        if (decl[i].kind != TokKind::kIdent) continue;
        if (decl[i].text == "enum" || decl[i].text == "class" ||
            decl[i].text == "struct") {
          continue;
        }
        en.name = decl[i].text;  // first ident after the keywords
        break;
      }
      if (!en.name.empty()) {
        scope.enum_index = static_cast<int>(facts.enums.size());
        facts.enums.push_back(std::move(en));
      }
      return scope;
    }
    if (!decl.empty() && decl.front().kind == TokKind::kIdent &&
        decl.front().text == "switch" && current_function() != nullptr) {
      // Switch body: a plain block; case labels are recorded as they are
      // seen so the exhaustive-switch analysis can compare them against
      // the enum's declared enumerators.
      SwitchFacts sw;
      sw.file = path_label;
      sw.line = decl.front().line;
      sw.function = current_function()->qualified;
      scope.switch_index = static_cast<int>(facts.switches.size());
      facts.switches.push_back(std::move(sw));
      return scope;
    }
    const bool classish = !decl.empty() &&
                          (HasIdent(decl, "class") || HasIdent(decl, "struct") ||
                           HasIdent(decl, "union"));
    // A class head has no top-level parens except attribute macros; a
    // function returning a struct is not definable inline, so "has class
    // keyword and no declarator name" is a sufficient split.
    if (classish) {
      // Name: first identifier after the class keyword that is not a macro
      // call (macro calls are skipped with their argument group).
      scope.kind = Scope::kClass;
      size_t i = 0;
      while (i < decl.size() &&
             !(decl[i].kind == TokKind::kIdent &&
               (decl[i].text == "class" || decl[i].text == "struct" ||
                decl[i].text == "union"))) {
        ++i;
      }
      ++i;
      while (i < decl.size()) {
        if (decl[i].kind == TokKind::kPunct && decl[i].text == ":") break;
        if (decl[i].kind == TokKind::kIdent) {
          if (i + 1 < decl.size() && decl[i + 1].kind == TokKind::kPunct &&
              decl[i + 1].text == "(") {
            // Attribute macro: skip its argument group.
            int depth = 0;
            ++i;
            do {
              if (decl[i].text == "(") ++depth;
              if (decl[i].text == ")") --depth;
              ++i;
            } while (i < decl.size() && depth > 0);
            continue;
          }
          if (decl[i].text != "final" && decl[i].text != "alignas") {
            scope.name = decl[i].text;
            break;
          }
        }
        ++i;
      }
      return scope;
    }
    const std::vector<std::string> chain = DeclaratorName(decl);
    if (chain.empty()) return scope;  // plain block / lambda / init list
    FunctionFacts fn;
    fn.file = path_label;
    fn.line = decl.empty() ? 0 : decl.front().line;
    fn.ns = current_ns();
    fn.name = chain.back();
    std::string explicit_cls;
    for (size_t i = 0; i + 1 < chain.size(); ++i) {
      if (!explicit_cls.empty()) explicit_cls += "::";
      explicit_cls += chain[i];
    }
    const std::string scope_cls = current_cls();
    fn.cls = scope_cls.empty()
                 ? explicit_cls
                 : (explicit_cls.empty() ? scope_cls
                                         : scope_cls + "::" + explicit_cls);
    fn.qualified = JoinQualified(fn.ns, fn.cls, fn.name);
    fn.hot = HasIdent(decl, "FVAE_HOT") || HasIdent(decl, "FVAE_NOALLOC");
    fn.noalloc = HasIdent(decl, "FVAE_NOALLOC");
    fn.event_loop = HasIdent(decl, "FVAE_EVENT_LOOP");
    fn.may_block = HasIdent(decl, "FVAE_MAY_BLOCK");
    for (size_t i = 0; i < decl.size(); ++i) {
      if (decl[i].kind == TokKind::kIdent &&
          (decl[i].text == "FVAE_REQUIRES" ||
           decl[i].text == "FVAE_REQUIRES_SHARED")) {
        for (auto& a : AnnotationArgs(decl, i)) {
          fn.requires_locks.push_back(std::move(a));
        }
      }
    }
    fn.params = ExtractParams(decl);
    scope.kind = Scope::kFunction;
    scope.func_index = static_cast<int>(facts.functions.size());
    facts.functions.push_back(std::move(fn));
    return scope;
  };

  /// Handles a ';'-terminated declaration outside function bodies: lock
  /// members and annotated prototypes.
  auto classify_decl = [&]() {
    if (current_function() != nullptr) return;
    const std::string cls = current_cls();
    // Lock member: [mutable] [fvae::] Mutex|SharedMutex name [annotations];
    // The type token must sit at paren-depth 0 with no paren group before
    // it (rejects `void f(Mutex& mu);` parameters).
    if (!cls.empty()) {
      int paren = 0;
      bool saw_paren = false;
      for (size_t i = 0; i < decl.size(); ++i) {
        const Tok& t = decl[i];
        if (t.kind == TokKind::kPunct) {
          if (t.text == "(") {
            ++paren;
            saw_paren = true;
          } else if (t.text == ")") {
            --paren;
          }
          continue;
        }
        if (t.kind != TokKind::kIdent || paren != 0 || saw_paren) continue;
        if (t.text != "Mutex" && t.text != "SharedMutex") continue;
        if (i + 1 >= decl.size() || decl[i + 1].kind != TokKind::kIdent) {
          continue;
        }
        LockDecl lock;
        lock.file = path_label;
        lock.line = t.line;
        lock.ns = current_ns();
        lock.cls = cls;
        lock.member = decl[i + 1].text;
        lock.id = JoinQualified(lock.ns, lock.cls, lock.member);
        for (size_t j = i + 2; j < decl.size(); ++j) {
          if (decl[j].kind != TokKind::kIdent) continue;
          if (decl[j].text == "FVAE_HOT_LOCK_EXEMPT") lock.hot_exempt = true;
          if (decl[j].text == "FVAE_LOOP_LOCK_EXEMPT") {
            lock.loop_exempt = true;
          }
          if (decl[j].text == "FVAE_ACQUIRED_BEFORE") {
            for (auto& a : AnnotationArgs(decl, j)) {
              lock.acquired_before.push_back(a);
            }
          }
          if (decl[j].text == "FVAE_ACQUIRED_AFTER") {
            for (auto& a : AnnotationArgs(decl, j)) {
              lock.acquired_after.push_back(a);
            }
          }
        }
        facts.locks.push_back(std::move(lock));
        break;
      }
    }
    // Guarded data member: `<type> name FVAE_GUARDED_BY(m) [= init];`.
    // The member is the identifier immediately before the annotation.
    if (!cls.empty()) {
      for (size_t j = 0; j < decl.size(); ++j) {
        if (decl[j].kind != TokKind::kIdent ||
            decl[j].text != "FVAE_GUARDED_BY" || j == 0 ||
            decl[j - 1].kind != TokKind::kIdent) {
          continue;
        }
        const std::vector<std::string> args = AnnotationArgs(decl, j);
        if (args.empty()) continue;
        GuardedDecl g;
        g.file = path_label;
        g.line = decl[j].line;
        g.ns = current_ns();
        g.cls = cls;
        g.member = decl[j - 1].text;
        g.guard = args.front();
        facts.guarded.push_back(std::move(g));
        break;
      }
    }
    // Plainly typed data member (`EpollLoop loop;`, `RpcServer* server =
    // nullptr;`): the receiver-type map for call resolution. Decls with
    // parens (methods, annotations) or template types fail the backward
    // walk and are simply skipped.
    if (!cls.empty() && !decl.empty()) {
      std::vector<Tok> head = decl;
      for (size_t j = 0; j < head.size(); ++j) {
        if (head[j].kind == TokKind::kPunct && head[j].text == "=") {
          head.resize(j);
          break;
        }
      }
      bool has_paren = false;
      for (const Tok& t : head) {
        if (t.kind == TokKind::kPunct && (t.text == "(" || t.text == ")")) {
          has_paren = true;
        }
      }
      if (!has_paren && head.size() >= 2 &&
          head.back().kind == TokKind::kIdent &&
          head.back().text.rfind("FVAE_", 0) != 0) {
        const std::string member = head.back().text;
        size_t j = head.size() - 1;
        while (j > 0 && head[j - 1].kind == TokKind::kPunct &&
               (head[j - 1].text == "*" || head[j - 1].text == "&")) {
          --j;
        }
        if (j > 0 && head[j - 1].kind == TokKind::kIdent &&
            head[j - 1].text != "const" && head[j - 1].text != member &&
            ControlKeywords().count(head[j - 1].text) == 0) {
          facts.member_types.push_back({cls, member, head[j - 1].text});
        }
      }
    }
    // Annotated prototype: purity / event-loop / requires annotations on a
    // declaration whose body lives in another file.
    if (HasIdent(decl, "FVAE_HOT") || HasIdent(decl, "FVAE_NOALLOC") ||
        HasIdent(decl, "FVAE_EVENT_LOOP") || HasIdent(decl, "FVAE_MAY_BLOCK") ||
        HasIdent(decl, "FVAE_REQUIRES") ||
        HasIdent(decl, "FVAE_REQUIRES_SHARED")) {
      const std::vector<std::string> chain = DeclaratorName(decl);
      if (!chain.empty()) {
        AttrDecl attr;
        attr.ns = current_ns();
        attr.cls = cls;
        for (size_t i = 0; i + 1 < chain.size(); ++i) {
          if (!attr.cls.empty()) attr.cls += "::";
          attr.cls += chain[i];
        }
        attr.name = chain.back();
        attr.hot = HasIdent(decl, "FVAE_HOT") || HasIdent(decl, "FVAE_NOALLOC");
        attr.noalloc = HasIdent(decl, "FVAE_NOALLOC");
        attr.event_loop = HasIdent(decl, "FVAE_EVENT_LOOP");
        attr.may_block = HasIdent(decl, "FVAE_MAY_BLOCK");
        for (size_t i = 0; i < decl.size(); ++i) {
          if (decl[i].kind == TokKind::kIdent &&
              (decl[i].text == "FVAE_REQUIRES" ||
               decl[i].text == "FVAE_REQUIRES_SHARED")) {
            for (auto& a : AnnotationArgs(decl, i)) {
              attr.requires_locks.push_back(std::move(a));
            }
          }
        }
        facts.attr_decls.push_back(std::move(attr));
      }
    }
  };

  for (size_t i = 0; i < tokens.size(); ++i) {
    const Tok& tok = tokens[i];
    if (tok.kind == TokKind::kPreproc) continue;

    FunctionFacts* fn = current_function();
    if (tok.kind == TokKind::kPunct) {
      if (tok.text == "{") {
        stack.push_back(classify_open());
        if (stack.back().kind == Scope::kFunction) {
          facts.functions[stack.back().func_index].body_begin = i + 1;
        }
        decl.clear();
        continue;
      }
      if (tok.text == "}") {
        if (!stack.empty()) {
          if (stack.back().kind == Scope::kFunction) {
            facts.functions[stack.back().func_index].body_end = i;
          }
          stack.pop_back();
          // Release the RAII guards whose scope just closed.
          while (!held.empty() && held.back().depth > stack.size()) {
            held.pop_back();
          }
        }
        decl.clear();
        continue;
      }
      if (tok.text == "(") ++paren_depth;
      if (tok.text == ")") --paren_depth;
      if (tok.text == ";" && paren_depth == 0) {
        if (fn == nullptr) classify_decl();
        decl.clear();
        continue;
      }
      if (tok.text == ":" && fn == nullptr && decl.size() == 1 &&
          decl[0].kind == TokKind::kIdent &&
          (decl[0].text == "public" || decl[0].text == "protected" ||
           decl[0].text == "private")) {
        decl.clear();  // access specifier
        continue;
      }
    }
    decl.push_back(tok);

    // Enum-body enumerators: identifiers directly after '{' or ','.
    if (tok.kind == TokKind::kIdent && !stack.empty() &&
        stack.back().enum_index >= 0 && i > 0 &&
        tokens[i - 1].kind == TokKind::kPunct &&
        (tokens[i - 1].text == "{" || tokens[i - 1].text == ",")) {
      facts.enums[stack.back().enum_index].enumerators.push_back(tok.text);
    }

    // ---- in-function fact extraction ----
    if (fn == nullptr || tok.kind != TokKind::kIdent) continue;
    const std::string& id = tok.text;
    const Tok* next = i + 1 < tokens.size() ? &tokens[i + 1] : nullptr;
    const Tok* prev = i > 0 ? &tokens[i - 1] : nullptr;
    const bool after_member =
        prev != nullptr && prev->kind == TokKind::kPunct &&
        (prev->text == "." || prev->text == "->");
    const bool after_scope = prev != nullptr &&
                             prev->kind == TokKind::kPunct &&
                             prev->text == "::";

    // RAII guard construction: GuardType [var] ( lock-expr ) ...
    if (IsGuardType(id)) {
      size_t j = i + 1;
      if (j < tokens.size() && tokens[j].kind == TokKind::kIdent) ++j;
      if (j < tokens.size() && tokens[j].kind == TokKind::kPunct &&
          tokens[j].text == "(") {
        int depth = 1;
        std::string lock_name;
        ++j;
        while (j < tokens.size() && depth > 0) {
          if (tokens[j].kind == TokKind::kPunct) {
            if (tokens[j].text == "(") ++depth;
            if (tokens[j].text == ")") --depth;
          } else if (tokens[j].kind == TokKind::kIdent) {
            lock_name = tokens[j].text;
          }
          ++j;
        }
        if (!lock_name.empty()) {
          acquire(fn, lock_name, tok.line);
        }
      }
      continue;
    }
    // Switch case labels: `case A::B:` chains and `default:`.
    if ((id == "case" || id == "default") && !after_member && !after_scope) {
      int sw = -1;
      for (size_t s = stack.size(); s-- > 0;) {
        if (stack[s].switch_index >= 0) {
          sw = stack[s].switch_index;
          break;
        }
        if (stack[s].kind == Scope::kFunction) break;
      }
      if (sw >= 0) {
        SwitchFacts& facts_sw = facts.switches[static_cast<size_t>(sw)];
        if (id == "default" && next != nullptr &&
            next->kind == TokKind::kPunct && next->text == ":") {
          facts_sw.has_default = true;
          facts_sw.default_line = tok.line;
        } else if (id == "case") {
          std::string chain;
          size_t j = i + 1;
          while (j < tokens.size() && tokens[j].kind == TokKind::kIdent) {
            if (!chain.empty()) chain += "::";
            chain += tokens[j].text;
            if (j + 2 < tokens.size() &&
                tokens[j + 1].kind == TokKind::kPunct &&
                tokens[j + 1].text == "::" &&
                tokens[j + 2].kind == TokKind::kIdent) {
              j += 2;
            } else {
              break;
            }
          }
          if (!chain.empty()) facts_sw.cases.push_back(chain);
        }
      }
      continue;
    }

    // Purity facts.
    if (id == "new" &&
        !(prev != nullptr && prev->kind == TokKind::kIdent &&
          prev->text == "operator")) {
      fn->allocs.push_back({"new", tok.line});
    } else if (after_member && IsAllocMember(id) && next != nullptr &&
               next->text == "(") {
      fn->allocs.push_back({id, tok.line});
    } else if (!after_member && IsAllocFree(id) && next != nullptr &&
               next->text == "(") {
      fn->allocs.push_back({id, tok.line});
    } else if (!after_member && IsSizedConstruction(tokens, i)) {
      fn->allocs.push_back({id, tok.line});
    }
    if (IsLogToken(id)) fn->logs.push_back({id, tok.line});
    if (IsIoToken(id)) fn->ios.push_back({id, tok.line});

    // TraceSpan construction facts for the hot-trace walk. Both the scope
    // macro and the constructor forms put the identifier before '(' —
    // directly (`TraceSpan("x")`, `FVAE_TRACE_SCOPE("x")`) or with the
    // variable name between (`TraceSpan span("x")`). Mentions that are not
    // constructions (a `const TraceSpan&` parameter) don't match.
    if (id == "TraceSpan" || id == "FVAE_TRACE_SCOPE") {
      const Tok* n2 = i + 2 < tokens.size() ? &tokens[i + 2] : nullptr;
      const bool direct = next != nullptr &&
                          next->kind == TokKind::kPunct && next->text == "(";
      const bool named = next != nullptr && next->kind == TokKind::kIdent &&
                         n2 != nullptr && n2->kind == TokKind::kPunct &&
                         n2->text == "(";
      if (direct || named) fn->traces.push_back({id, tok.line});
    }

    // Blocking facts for the event-loop walk. Sleeps appear in IsIoToken
    // too; AnalyzeEventLoops skips io facts that are also blocking facts so
    // a single call is reported once.
    if (!after_member && IsBlockingCall(id) && next != nullptr &&
        next->kind == TokKind::kPunct && next->text == "(") {
      fn->blocking.push_back({id, tok.line});
    } else if (after_member && IsBlockingMember(id) && next != nullptr &&
               next->kind == TokKind::kPunct && next->text == "(") {
      fn->blocking.push_back({id, tok.line});
    } else if (!after_member && IsSocketTransfer(id) && next != nullptr &&
               next->kind == TokKind::kPunct && next->text == "(") {
      // recv()/send() block unless the flags argument carries MSG_DONTWAIT
      // (the socket itself being O_NONBLOCK is invisible here, so the walk
      // demands the explicit per-call flag).
      bool dontwait = false;
      size_t j = i + 1;
      int depth = 0;
      while (j < tokens.size()) {
        if (tokens[j].kind == TokKind::kPunct) {
          if (tokens[j].text == "(") ++depth;
          if (tokens[j].text == ")" && --depth == 0) break;
        } else if (tokens[j].kind == TokKind::kIdent &&
                   tokens[j].text == "MSG_DONTWAIT") {
          dontwait = true;
        }
        ++j;
      }
      if (!dontwait) {
        fn->blocking.push_back({id + " without MSG_DONTWAIT", tok.line});
      }
    }

    // Dispatch-table registration: `t->member = Target;` (optionally
    // `&Target` or a `ns::Target` chain, in an assignment or a braced
    // initializer list). Recorded permissively — binds whose target never
    // resolves to a program function are dropped at link time — so plain
    // data-member assignments cost nothing.
    if (after_member && next != nullptr && next->kind == TokKind::kPunct &&
        next->text == "=") {
      size_t j = i + 2;
      if (j < tokens.size() && tokens[j].kind == TokKind::kPunct &&
          tokens[j].text == "&") {
        ++j;
      }
      std::string target;
      while (j < tokens.size() && tokens[j].kind == TokKind::kIdent) {
        if (!target.empty()) target += "::";
        target += tokens[j].text;
        if (j + 2 < tokens.size() && tokens[j + 1].kind == TokKind::kPunct &&
            tokens[j + 1].text == "::" &&
            tokens[j + 2].kind == TokKind::kIdent) {
          j += 2;
        } else {
          ++j;
          break;
        }
      }
      const bool terminated = j < tokens.size() &&
                              tokens[j].kind == TokKind::kPunct &&
                              (tokens[j].text == ";" || tokens[j].text == ",");
      if (!target.empty() && terminated) {
        fn->dispatch_binds.push_back({id, target, tok.line});
      }
    }

    // Guarded-member access facts. A member access is either receiver-form
    // (`obj.member` / `obj->member`, receiver an identifier) or bare
    // (`member_` — trailing-underscore members of the enclosing class).
    // Calls are recorded as CallSites instead, and `A::b` scope uses are
    // enumerator/static references, not object accesses.
    if (!after_scope &&
        !(next != nullptr && next->kind == TokKind::kPunct &&
          next->text == "(")) {
      if (after_member && i >= 2 && tokens[i - 2].kind == TokKind::kIdent) {
        MemberAccess access;
        access.member = id;
        access.receiver =
            tokens[i - 2].text == "this" ? "" : tokens[i - 2].text;
        access.line = tok.line;
        access.held = held_names();
        fn->accesses.push_back(std::move(access));
      } else if (!after_member && id.size() > 1 && id.back() == '_') {
        MemberAccess access;
        access.member = id;
        access.line = tok.line;
        access.held = held_names();
        fn->accesses.push_back(std::move(access));
      }
    }

    // Call site: identifier followed by '(' that is not a control keyword.
    if (next != nullptr && next->kind == TokKind::kPunct &&
        next->text == "(" && ControlKeywords().count(id) == 0) {
      CallSite call;
      call.name = id;
      call.line = tok.line;
      call.held = held_names();
      // Collect the "::" qualifier chain attached to the name.
      size_t back = i;
      while (back >= 2 && tokens[back - 1].kind == TokKind::kPunct &&
             tokens[back - 1].text == "::" &&
             tokens[back - 2].kind == TokKind::kIdent) {
        call.quals.insert(call.quals.begin(), tokens[back - 2].text);
        back -= 2;
      }
      call.member_access =
          back >= 1 && tokens[back - 1].kind == TokKind::kPunct &&
          (tokens[back - 1].text == "." || tokens[back - 1].text == "->");
      if (call.member_access && back >= 2 &&
          tokens[back - 2].kind == TokKind::kIdent &&
          tokens[back - 2].text != "this") {
        call.receiver = tokens[back - 2].text;
      }
      (void)after_scope;
      fn->calls.push_back(std::move(call));
    }
  }
  return facts;
}

}  // namespace fvae::lint

#endif  // FVAE_TOOLS_TU_FACTS_H_
