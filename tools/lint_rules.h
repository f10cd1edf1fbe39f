#ifndef FVAE_TOOLS_LINT_RULES_H_
#define FVAE_TOOLS_LINT_RULES_H_

#include <algorithm>
#include <cctype>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "tools/cpp_lexer.h"
#include "tools/lint_graph.h"
#include "tools/tu_facts.h"

/// fvae_lint rule engine, v2 — a dependency-free static analyzer built on a
/// real token stream (tools/cpp_lexer.h), so no rule can ever fire inside a
/// comment or a string/char/raw-string literal. Two layers:
///
/// **Per-file rules** (this header; see ARCHITECTURE.md §7 for rationale):
///
///   discarded-status   an expression statement calls a function returning
///                      Status / Result<T> and drops the value. Belt and
///                      braces over [[nodiscard]] — it also covers code the
///                      compiler never instantiates.
///   void-needs-reason  a `(void)` cast of a call has no inline
///                      justification comment (same line or line above).
///   raw-mutex          a std::mutex / std::shared_mutex / lock/condvar
///                      primitive is named outside common/mutex.h, where
///                      the capability-annotated wrappers live.
///   banned-random      rand(), srand(), std::random_device etc. outside
///                      src/common/random — all stochastic code must draw
///                      from an explicitly seeded fvae::Rng.
///   raw-socket         a bare or ::-qualified socket()/accept()/accept4()/
///                      close() call outside src/net/ — descriptors must
///                      live in the RAII net::Fd wrapper (net/fd.h) so they
///                      cannot leak through an early return or be closed
///                      twice. Member calls (file.close()) are exempt.
///   fd-leak            inside src/net/ (where the raw syscalls are
///                      allowed), every descriptor-producing call —
///                      socket()/accept()/accept4()/eventfd()/
///                      epoll_create1()/open() — must appear *inside* the
///                      argument list of an `Fd(...)` construction or an
///                      `.Reset(...)` call, so the result is owned before
///                      any statement can intervene. The paren-nesting
///                      check runs on the token stream, so multi-line
///                      wraps are fine; an intentionally raw result takes
///                      `fvae-lint: allow(fd-leak)` on the call line.
///   header-guard       a header's include guard does not match the
///                      FVAE_<PATH>_H_ convention (or #pragma once).
///   using-namespace    file-scope `using namespace` in a header.
///   metric-name        a string literal passed to a metrics-registry
///                      Counter()/Gauge()/Histo() call is not a snake_case
///                      dotted path ("training.epoch_loss").
///   atomic-write       a std::ofstream is named in a module that produces
///                      durable artifacts; those writes must go through
///                      AtomicFileWriter (common/atomic_file.h).
///
/// **Whole-program analyses** (tools/tu_facts.h + tools/lint_graph.h,
/// wired into LintTree over `src/`):
///
///   lock-cycle         the lock acquisition-order graph (declared
///                      FVAE_ACQUIRED_BEFORE/AFTER ranks plus statically
///                      observed nesting, propagated through calls) has a
///                      cycle — a potential deadlock; the offending path
///                      is printed edge by edge.
///   hot-log / hot-io / functions transitively reachable from an FVAE_HOT
///   hot-lock /         root log, do IO, or take a lock not marked
///   hot-alloc          FVAE_HOT_LOCK_EXEMPT; FVAE_NOALLOC roots also
///                      forbid heap-allocation tokens. The finding prints
///                      the call chain from the annotated root.
///   loop-block /       functions transitively reachable from an
///   loop-io /          FVAE_EVENT_LOOP root block (syscalls, sleeps,
///   loop-lock /        condvar waits, joins, recv/send without
///   loop-may-block     MSG_DONTWAIT), do file IO, take a non-exempt lock,
///                      or call into an FVAE_MAY_BLOCK function.
///   guarded-by         an FVAE_GUARDED_BY(m) member is accessed without
///                      `m` held (RAII guard, manual Lock(), or
///                      FVAE_REQUIRES on the enclosing function).
///   verb-switch        a switch over a known enum class (the wire Verb)
///                      misses enumerators without a justified default.
///
/// Findings on a line carrying `fvae-lint: allow(<rule>)` are suppressed;
/// `fvae-lint: allow(hot-path)` on a call line additionally prunes that
/// call edge from the hot-path walk.
///
/// The per-file rules stay deliberately line-oriented (one statement per
/// line is assumed), which keeps them fast and lets multi-line statements
/// escape discarded-status — fine, because [[nodiscard]] already catches
/// those at compile time.

namespace fvae::lint {

struct LintOptions {
  /// Expected include guard (empty: skip header-only checks).
  std::string expected_guard;
  /// True for common/mutex.h, which wraps the std primitives.
  bool allow_raw_mutex = false;
  /// True for src/common/random.*, the one sanctioned entropy boundary.
  bool allow_nondeterminism = false;
  /// True for src/net/*, where the RAII Fd wrapper itself makes the raw
  /// socket()/accept()/close() syscalls.
  bool allow_raw_sockets = false;
  /// True for modules whose outputs must be crash-safe: ban raw
  /// std::ofstream in favor of AtomicFileWriter.
  bool ban_raw_ofstream = false;
  /// Known Status/Result-returning function names (last path component).
  const std::set<std::string>* status_functions = nullptr;
};

namespace detail {

inline bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

inline std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::string line;
  std::istringstream in(text);
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

inline std::string Trim(const std::string& s) {
  size_t b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return "";
  size_t e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

/// True if the line suppresses `rule` via "fvae-lint: allow(rule)" or a
/// comma-separated list "fvae-lint: allow(rule,other)". Shared grammar
/// with the whole-program suppression check (see cpp_lexer.h).
inline bool Suppressed(const std::string& raw_line, const std::string& rule) {
  return SuppressionAllows(raw_line, rule);
}

/// Groups a token stream by 1-based line number. Multi-line tokens (raw
/// strings, joined preprocessor continuations) live on their first line.
inline std::vector<std::vector<Tok>> TokensByLine(const std::vector<Tok>& toks,
                                                  size_t line_count) {
  std::vector<std::vector<Tok>> by_line(line_count + 1);
  for (const Tok& t : toks) {
    if (t.line >= 1 && t.line <= line_count) by_line[t.line].push_back(t);
  }
  return by_line;
}

inline bool IsPunct(const Tok& t, const char* text) {
  return t.kind == TokKind::kPunct && t.text == text;
}
inline bool IsIdent(const Tok& t, const char* text) {
  return t.kind == TokKind::kIdent && t.text == text;
}

/// True when line[i] is `member` qualified as std::member (i >= 2).
inline bool IsStdQualified(const std::vector<Tok>& line, size_t i) {
  return i >= 2 && IsPunct(line[i - 1], "::") && IsIdent(line[i - 2], "std");
}

/// Parses a qualified callee chain (a::b.c->d) starting at line[*i];
/// returns the last component and advances *i past the chain, or returns
/// "" when line[*i] is not an identifier.
inline std::string ParseCalleeChain(const std::vector<Tok>& line, size_t* i) {
  std::string last;
  size_t j = *i;
  while (j < line.size() && line[j].kind == TokKind::kIdent) {
    last = line[j].text;
    if (j + 1 < line.size() &&
        (IsPunct(line[j + 1], "::") || IsPunct(line[j + 1], ".") ||
         IsPunct(line[j + 1], "->"))) {
      j += 2;
    } else {
      ++j;
      break;
    }
  }
  if (last.empty()) return "";
  *i = j;
  return last;
}

/// True for a valid dotted metric path: two or more snake_case segments
/// ([a-z][a-z0-9_]*) joined by '.'. Mirrors obs::IsValidMetricName so the
/// lint finding and the registry's runtime FVAE_CHECK agree.
inline bool IsMetricNamePath(const std::string& name) {
  if (name.empty()) return false;
  bool seen_dot = false;
  bool segment_start = true;
  for (char c : name) {
    if (c == '.') {
      if (segment_start) return false;  // empty segment
      seen_dot = true;
      segment_start = true;
      continue;
    }
    if (segment_start) {
      if (c < 'a' || c > 'z') return false;
      segment_start = false;
      continue;
    }
    const bool ok =
        (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_';
    if (!ok) return false;
  }
  return seen_dot && !segment_start;
}

/// Splits a kPreproc token's text into the directive name ("ifndef") and
/// the remainder ("FVAE_FOO_H_ ...").
inline std::pair<std::string, std::string> SplitDirective(
    const std::string& text) {
  size_t i = 0;
  while (i < text.size() && (text[i] == '#' || text[i] == ' ' ||
                             text[i] == '\t')) {
    ++i;
  }
  size_t j = i;
  while (j < text.size() && IsIdentChar(text[j])) ++j;
  return {text.substr(i, j - i), Trim(text.substr(j))};
}

}  // namespace detail

/// Scans a file's tokens for `Status Name(` / `Result<...> Name(`
/// declarations and collects the function names. Shared by the tree walk
/// (phase 1) so discarded-status knows the project's fallible functions.
///
/// When `non_status` is provided, names declared with any *other* leading
/// return type (`void Add(`, `bool Next(`) are collected there too. The
/// analyzer matches call sites by bare name across translation units, so
/// a name used both ways (obs::Counter::Add vs net::EpollLoop::Add) is
/// ambiguous; the tree walk drops such names from the fallible set rather
/// than flag unrelated call sites.
inline void CollectStatusFunctions(
    const std::string& content, std::set<std::string>* out,
    std::set<std::string>* non_status = nullptr) {
  using detail::IsPunct;
  const std::vector<Tok> toks = LexCpp(content);
  for (size_t i = 0; i < toks.size(); ++i) {
    const Tok& t = toks[i];
    if (t.kind != TokKind::kIdent) continue;
    // Reject qualified (x::Status), template-argument (<Status>), and
    // member (x.Status) uses: this must be a leading return type.
    if (i > 0 && toks[i - 1].kind == TokKind::kPunct &&
        (toks[i - 1].text == "::" || toks[i - 1].text == "<" ||
         toks[i - 1].text == "." || toks[i - 1].text == "->")) {
      continue;
    }
    const bool fallible = t.text == "Status" || t.text == "Result";
    size_t j = i + 1;
    if (fallible) {
      if (t.text == "Result") {
        // Must be Result<...>; match angle brackets with depth counting
        // (">>" closes two levels).
        if (j >= toks.size() || !IsPunct(toks[j], "<")) continue;
        int depth = 0;
        while (j < toks.size()) {
          if (IsPunct(toks[j], "<")) ++depth;
          if (IsPunct(toks[j], ">")) --depth;
          if (IsPunct(toks[j], ">>")) depth -= 2;
          ++j;
          if (depth <= 0) break;
        }
      }
    } else {
      if (non_status == nullptr) continue;
      // Statement keywords precede *calls*, not declarations; skipping
      // them keeps `return Foo(x);` from polluting the ambiguity set.
      static const std::set<std::string> kNotAType = {
          "return", "co_return", "co_await", "co_yield", "throw",
          "new",    "delete",    "else",     "do",       "goto",
          "case",   "operator",  "using",    "typedef",  "sizeof",
          "alignof", "not",      "and",      "or"};
      if (kNotAType.count(t.text) > 0) continue;
    }
    // Type, then an identifier chain, then '(' — `Status(...)` (ctor) and
    // `Status s = ...` fall out naturally.
    std::string name;
    while (j < toks.size() && toks[j].kind == TokKind::kIdent) {
      name = toks[j].text;
      if (j + 1 < toks.size() && IsPunct(toks[j + 1], "::")) {
        j += 2;
      } else {
        ++j;
        break;
      }
    }
    if (!name.empty() && j < toks.size() && IsPunct(toks[j], "(")) {
      (fallible ? out : non_status)->insert(name);
    }
  }
}

/// Derives the expected include guard from a repo-relative path:
/// src/serving/sharded_store.h -> FVAE_SERVING_SHARDED_STORE_H_,
/// bench/model_zoo.h -> FVAE_BENCH_MODEL_ZOO_H_. Empty for non-headers.
inline std::string ExpectedGuard(std::string rel_path) {
  if (rel_path.size() < 2 || rel_path.substr(rel_path.size() - 2) != ".h") {
    return "";
  }
  if (rel_path.rfind("src/", 0) == 0) rel_path = rel_path.substr(4);
  std::string guard = "FVAE_";
  for (char c : rel_path.substr(0, rel_path.size() - 2)) {
    guard += detail::IsIdentChar(c)
                 ? char(std::toupper(static_cast<unsigned char>(c)))
                 : '_';
  }
  return guard + "_H_";
}

/// Lints one file's content. `path_label` is used verbatim in findings.
inline std::vector<Finding> LintFile(const std::string& path_label,
                                     const std::string& content,
                                     const LintOptions& options) {
  using detail::IsIdent;
  using detail::IsPunct;
  using detail::IsStdQualified;
  std::vector<Finding> findings;
  const std::vector<std::string> raw = detail::SplitLines(content);
  const std::vector<Tok> toks = LexCpp(content);
  const std::vector<std::vector<Tok>> by_line =
      detail::TokensByLine(toks, raw.size());
  auto report = [&](size_t idx, const std::string& rule,
                    const std::string& message) {
    if (idx < raw.size() && detail::Suppressed(raw[idx], rule)) return;
    findings.push_back({path_label, idx + 1, rule, message});
  };

  static const std::set<std::string> kMutexTypes = {
      "mutex",       "shared_mutex",       "timed_mutex",
      "recursive_mutex", "lock_guard",     "unique_lock",
      "shared_lock", "scoped_lock",        "condition_variable",
      "condition_variable_any"};
  static const std::set<std::string> kBareRandom = {
      "rand", "srand", "drand48", "lrand48", "mrand48"};
  static const std::set<std::string> kRawSocketFns = {"socket", "accept",
                                                      "accept4", "close"};

  for (size_t idx = 0; idx < raw.size(); ++idx) {
    const std::vector<Tok>& line = by_line[idx + 1];
    if (line.empty()) continue;

    if (!options.allow_raw_mutex) {
      for (size_t i = 0; i < line.size(); ++i) {
        if (line[i].kind == TokKind::kIdent &&
            kMutexTypes.count(line[i].text) > 0 && IsStdQualified(line, i)) {
          report(idx, "raw-mutex",
                 "std::" + line[i].text +
                     " outside common/mutex.h; use the capability-annotated "
                     "fvae::Mutex/SharedMutex/CondVar wrappers");
          break;
        }
      }
    }

    if (!options.allow_nondeterminism) {
      for (size_t i = 0; i < line.size(); ++i) {
        if (line[i].kind != TokKind::kIdent) continue;
        const bool bare = kBareRandom.count(line[i].text) > 0 &&
                          !(i > 0 && IsPunct(line[i - 1], "::"));
        const bool device =
            line[i].text == "random_device" && IsStdQualified(line, i);
        if (bare || device) {
          report(idx, "banned-random",
                 line[i].text +
                     " is nondeterministic; draw from an explicitly seeded "
                     "fvae::Rng (common/random.h)");
          break;
        }
      }
    }

    if (!options.allow_raw_sockets) {
      for (size_t i = 0; i + 1 < line.size(); ++i) {
        if (line[i].kind != TokKind::kIdent ||
            kRawSocketFns.count(line[i].text) == 0 ||
            !IsPunct(line[i + 1], "(")) {
          continue;
        }
        // Member calls (file.close(), stream->close()) are not descriptor
        // syscalls; neither is a foreign-namespace qualification. Bare
        // calls and global-scope `::close(` are the POSIX functions.
        if (i > 0 &&
            (IsPunct(line[i - 1], ".") || IsPunct(line[i - 1], "->"))) {
          continue;
        }
        if (i > 0 && IsPunct(line[i - 1], "::") && i >= 2 &&
            line[i - 2].kind == TokKind::kIdent) {
          continue;
        }
        report(idx, "raw-socket",
               line[i].text +
                   "() handles a raw file descriptor outside src/net/; own "
                   "it with net::Fd (net/fd.h) so it cannot leak or "
                   "double-close");
        break;
      }
    }

    if (options.ban_raw_ofstream) {
      for (size_t i = 0; i < line.size(); ++i) {
        if (IsIdent(line[i], "ofstream") && IsStdQualified(line, i)) {
          report(idx, "atomic-write",
                 "std::ofstream writes a durable artifact in place; route it "
                 "through AtomicFileWriter (common/atomic_file.h) so a crash "
                 "leaves the old or the new file, never a torn one");
          break;
        }
      }
    }

    if (!options.expected_guard.empty() && line.size() >= 2 &&
        IsIdent(line[0], "using") && IsIdent(line[1], "namespace")) {
      report(idx, "using-namespace",
             "file-scope `using namespace` in a header leaks into every "
             "includer");
    }

    // Metric-name hygiene: a string literal handed to a registry
    // Counter()/Gauge()/Histo() call must be a snake_case dotted path.
    for (size_t i = 0; i + 2 < line.size(); ++i) {
      if (line[i].kind != TokKind::kIdent ||
          (line[i].text != "Counter" && line[i].text != "Gauge" &&
           line[i].text != "Histo")) {
        continue;
      }
      if (!IsPunct(line[i + 1], "(") ||
          line[i + 2].kind != TokKind::kString) {
        continue;
      }
      const std::string& name = line[i + 2].text;
      if (!detail::IsMetricNamePath(name)) {
        report(idx, "metric-name",
               "metric name \"" + name +
                   "\" must be a snake_case dotted path like "
                   "\"training.epoch_loss\"");
      }
    }

    // Span-name hygiene: trace span names share the metric-name grammar so
    // Chrome exports, span profiles and the hop-breakdown bench all key on
    // one vocabulary. Covers FVAE_TRACE_SCOPE("x"), TraceSpan s("x"),
    // TraceSpan("x") and RecordSpan("x", ...).
    for (size_t i = 0; i + 2 < line.size(); ++i) {
      if (line[i].kind != TokKind::kIdent ||
          (line[i].text != "FVAE_TRACE_SCOPE" &&
           line[i].text != "TraceSpan" && line[i].text != "RecordSpan")) {
        continue;
      }
      // The named-variable form puts one identifier between the type and
      // the open paren: `TraceSpan parse_span("net.server.parse")`.
      size_t open = i + 1;
      if (open < line.size() && line[open].kind == TokKind::kIdent) ++open;
      if (open + 1 >= line.size() || !IsPunct(line[open], "(") ||
          line[open + 1].kind != TokKind::kString) {
        continue;
      }
      const std::string& name = line[open + 1].text;
      if (!detail::IsMetricNamePath(name)) {
        report(idx, "span-name",
               "span name \"" + name +
                   "\" must be a snake_case dotted path like "
                   "\"net.server.parse\"");
      }
    }

    // (void)-cast of a call: demand an inline justification so intentional
    // discards stay auditable. `(void)identifier;` (unused-parameter
    // silencing) is exempt — no call involved.
    if (line.size() >= 3 && IsPunct(line[0], "(") && IsIdent(line[1], "void") &&
        IsPunct(line[2], ")")) {
      bool has_call = false;
      for (size_t i = 3; i < line.size(); ++i) {
        if (IsPunct(line[i], "(")) has_call = true;
      }
      if (has_call) {
        const bool commented_same =
            raw[idx].find("//") != std::string::npos ||
            raw[idx].find("/*") != std::string::npos;
        const bool commented_above =
            idx > 0 && detail::Trim(raw[idx - 1]).rfind("//", 0) == 0;
        if (!commented_same && !commented_above) {
          report(idx, "void-needs-reason",
                 "(void)-discarded call needs a justification comment on the "
                 "same line or the line above");
        }
        continue;  // an annotated discard is not a discarded-status finding
      }
    }

    // Discarded Status/Result: a whole statement on one line whose leading
    // expression is a call to a known fallible function, with no
    // assignment and no `return`.
    if (options.status_functions != nullptr &&
        IsPunct(line.back(), ";") && line[0].kind == TokKind::kIdent &&
        !IsIdent(line[0], "return")) {
      size_t pos = 0;
      const std::string callee = detail::ParseCalleeChain(line, &pos);
      long depth = 0;
      bool has_assign = false;
      for (const Tok& t : line) {
        if (t.kind != TokKind::kPunct) continue;
        if (t.text == "(") ++depth;
        if (t.text == ")") --depth;
        if (t.text.find('=') != std::string::npos) has_assign = true;
      }
      // A wrapped statement's continuation can itself carry balanced
      // parens and no '=' (`Result<Frame> f =\n    parser.Next();`), so
      // also require that the previous token-bearing line ended a
      // statement or opened a block — i.e. this line *starts* one.
      // Comment-only lines lex to nothing and are skipped.
      bool starts_statement = true;
      for (size_t p = idx; p >= 1; --p) {
        if (by_line[p].empty()) continue;
        const Tok& prev = by_line[p].back();
        starts_statement =
            prev.kind == TokKind::kPreproc ||
            (prev.kind == TokKind::kPunct &&
             (prev.text == ";" || prev.text == "{" || prev.text == "}" ||
              prev.text == ":"));
        break;
      }
      // Balanced parens ⇒ the line is a whole statement, not the tail of a
      // wrapped expression (those carry the extra closing paren).
      if (!callee.empty() && pos < line.size() && IsPunct(line[pos], "(") &&
          depth == 0 && !has_assign && starts_statement &&
          options.status_functions->count(callee) > 0) {
        report(idx, "discarded-status",
               callee + "() returns Status/Result; the value must be "
                        "checked (or (void)-discarded with a reason)");
      }
    }
  }

  // Fd-leak dataflow (src/net/ only — elsewhere raw-socket bans the calls
  // outright): walk the token stream with a paren stack; a descriptor
  // producer is legal only inside a paren group opened by an Fd
  // construction (`Fd(..)`, `Fd name(..)`, `return Fd(..)`) or a Reset
  // member call, which hands the int straight to the RAII owner.
  if (options.allow_raw_sockets) {
    static const std::set<std::string> kFdProducers = {
        "socket", "accept", "accept4", "eventfd", "epoll_create1", "open"};
    std::vector<bool> wrap_stack;  // one entry per open paren group
    for (size_t i = 0; i < toks.size(); ++i) {
      const Tok& t = toks[i];
      if (t.kind == TokKind::kPunct) {
        if (t.text == "(") {
          bool wrap = false;
          if (i >= 1 && toks[i - 1].kind == TokKind::kIdent) {
            const std::string& callee = toks[i - 1].text;
            if (callee == "Fd") {
              wrap = true;  // temporary: Fd(::socket(..))
            } else if (i >= 2 && toks[i - 2].kind == TokKind::kIdent &&
                       toks[i - 2].text == "Fd") {
              wrap = true;  // declaration: Fd fd(::socket(..))
            } else if (callee == "Reset" && i >= 2 &&
                       toks[i - 2].kind == TokKind::kPunct &&
                       (toks[i - 2].text == "." ||
                        toks[i - 2].text == "->")) {
              wrap = true;  // handoff: owner_.Reset(::eventfd(..))
            }
          }
          wrap_stack.push_back(wrap);
        } else if (t.text == ")") {
          if (!wrap_stack.empty()) wrap_stack.pop_back();
        }
        continue;
      }
      if (t.kind != TokKind::kIdent || kFdProducers.count(t.text) == 0) {
        continue;
      }
      if (i + 1 >= toks.size() || !IsPunct(toks[i + 1], "(")) continue;
      // Member calls (file.open()) and foreign qualifications (ns::open)
      // are not the POSIX producers; `::open(` and bare calls are.
      if (i >= 1 &&
          (IsPunct(toks[i - 1], ".") || IsPunct(toks[i - 1], "->"))) {
        continue;
      }
      if (i >= 2 && IsPunct(toks[i - 1], "::") &&
          toks[i - 2].kind == TokKind::kIdent) {
        continue;
      }
      bool wrapped = false;
      for (bool w : wrap_stack) wrapped = wrapped || w;
      if (!wrapped) {
        report(t.line - 1, "fd-leak",
               t.text +
                   "() returns a raw descriptor that is not handed straight "
                   "to net::Fd; wrap the call as Fd(" + t.text +
                   "(..)) or owner.Reset(" + t.text +
                   "(..)) so early returns cannot leak it");
      }
    }
  }

  // Header hygiene: guard lines must exist, match the path-derived name,
  // and #pragma once is banned (guards keep the convention greppable).
  if (!options.expected_guard.empty()) {
    bool saw_ifndef = false, saw_define = false, saw_endif = false;
    for (const Tok& t : toks) {
      if (t.kind != TokKind::kPreproc) continue;
      const auto [directive, rest] = detail::SplitDirective(t.text);
      const size_t idx = t.line - 1;
      if (directive == "pragma" && rest.rfind("once", 0) == 0) {
        report(idx, "header-guard", "#pragma once; use the FVAE_*_H_ guard");
      }
      if (!saw_ifndef && directive == "ifndef") {
        saw_ifndef = true;
        if (rest != options.expected_guard) {
          report(idx, "header-guard",
                 "include guard should be " + options.expected_guard);
        }
      } else if (saw_ifndef && !saw_define && directive == "define") {
        saw_define = true;
        if (rest != options.expected_guard) {
          report(idx, "header-guard",
                 "#define should match guard " + options.expected_guard);
        }
      }
      if (directive == "endif") saw_endif = true;
    }
    if (!saw_ifndef || !saw_define || !saw_endif) {
      report(raw.empty() ? 0 : raw.size() - 1, "header-guard",
             "missing #ifndef/#define/#endif include guard " +
                 options.expected_guard);
    }
  }
  return findings;
}

/// Wall-clock breakdown of a LintTree run, printed by fvae_lint so the
/// analyzer's own cost stays visible as the tree grows, and gated by the
/// ctest's --budget-ms check.
struct LintTimings {
  double scan_ms = 0;      // directory walk + file reads
  double per_file_ms = 0;  // per-file rules over every file
  size_t file_count = 0;
  AnalysisTiming analysis;  // whole-program passes (link + 9 analyses)
  double total_ms() const {
    return scan_ms + per_file_ms + analysis.link_ms + analysis.cfg_ms +
           analysis.lock_balance_ms + analysis.lock_cycle_ms +
           analysis.hot_path_ms + analysis.event_loop_ms +
           analysis.guarded_by_ms + analysis.verb_switch_ms +
           analysis.status_path_ms + analysis.resource_escape_ms +
           analysis.use_after_move_ms;
  }
};

/// Walks the repository tree rooted at `root` (src, tools, bench, tests,
/// examples), collects Status/Result signatures, lints every source file,
/// then runs the whole-program analyses (lock-cycle, hot-path purity,
/// event-loop discipline, guarded-by, verb-switch) over `src/`. This is
/// the whole program: fvae_lint's main() and the lint test's clean-tree
/// check both call it.
inline std::vector<Finding> LintTree(const std::filesystem::path& root,
                                     LintTimings* timings = nullptr) {
  namespace fs = std::filesystem;
  using Clock = std::chrono::steady_clock;
  auto ms = [](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
  };
  const auto t0 = Clock::now();
  static const char* kDirs[] = {"src", "tools", "bench", "tests", "examples"};
  std::vector<std::pair<std::string, std::string>> files;  // rel path, body
  for (const char* dir : kDirs) {
    const fs::path base = root / dir;
    if (!fs::exists(base)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(base)) {
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      if (ext != ".h" && ext != ".cc" && ext != ".cpp") continue;
      std::ifstream in(entry.path(), std::ios::binary);
      std::ostringstream body;
      body << in.rdbuf();
      files.emplace_back(fs::relative(entry.path(), root).generic_string(),
                         body.str());
    }
  }
  std::sort(files.begin(), files.end());
  const auto t1 = Clock::now();

  std::set<std::string> status_functions;
  std::set<std::string> ambiguous;
  for (const auto& [path, body] : files) {
    CollectStatusFunctions(body, &status_functions, &ambiguous);
  }
  // A name declared with both fallible and non-fallible return types
  // somewhere in the tree cannot be attributed by bare name; drop it
  // instead of flagging unrelated call sites.
  for (const std::string& name : ambiguous) status_functions.erase(name);

  std::vector<Finding> findings;
  for (const auto& [path, body] : files) {
    LintOptions options;
    options.expected_guard = ExpectedGuard(path);
    options.allow_raw_mutex = path == "src/common/mutex.h";
    options.allow_nondeterminism = path == "src/common/random.h" ||
                                   path == "src/common/random.cc";
    options.allow_raw_sockets = path.rfind("src/net/", 0) == 0;
    // Modules that persist durable artifacts. common/atomic_file.* itself
    // is the sanctioned wrapper, and lives outside these prefixes.
    options.ban_raw_ofstream =
        path.rfind("src/core/model_io", 0) == 0 ||
        path.rfind("src/core/checkpoint", 0) == 0 ||
        path.rfind("src/data/io", 0) == 0 ||
        path.rfind("src/data/streaming", 0) == 0 ||
        path.rfind("src/serving/sharded_store", 0) == 0 ||
        path.rfind("src/obs/", 0) == 0;
    options.status_functions = &status_functions;
    std::vector<Finding> file_findings = LintFile(path, body, options);
    findings.insert(findings.end(), file_findings.begin(),
                    file_findings.end());
  }
  const auto t2 = Clock::now();

  // Whole-program analyses over production code only: test fixtures and
  // fakes must not add call-graph candidates or lock-order edges (they
  // prove invariants through AnalyzeProgram directly in lint_test).
  // common/mutex.h is excluded — it *implements* the primitives (CondVar
  // re-locks via std::adopt_lock), so its raw facts would be noise.
  std::vector<SourceFile> program;
  for (const auto& [path, body] : files) {
    if (path.rfind("src/", 0) != 0) continue;
    if (path == "src/common/mutex.h") continue;
    program.push_back({path, body});
  }
  std::vector<Finding> analysis = AnalyzeProgram(
      program, timings != nullptr ? &timings->analysis : nullptr);
  findings.insert(findings.end(), analysis.begin(), analysis.end());
  if (timings != nullptr) {
    timings->scan_ms = ms(t0, t1);
    timings->per_file_ms = ms(t1, t2);
    timings->file_count = files.size();
  }
  return findings;
}

}  // namespace fvae::lint

#endif  // FVAE_TOOLS_LINT_RULES_H_
