#ifndef FVAE_TOOLS_LINT_RULES_H_
#define FVAE_TOOLS_LINT_RULES_H_

#include <algorithm>
#include <cctype>
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
///   void-needs-reason  a `(void)` cast of a call has no inline
///                      justification comment (same line or line above).
///   raw-mutex          a std::mutex / std::shared_mutex / lock/condvar
///                      primitive is named outside common/mutex.h, where
///                      the capability-annotated wrappers live; in src/, a
///                      manual .Lock()/.Unlock()/.LockShared()/
///                      .UnlockShared() call outside common/mutex.h too —
///                      production locking is RAII-only.
///   banned-random      rand(), srand(), std::random_device etc. outside
///                      src/common/random — all stochastic code must draw
///                      from an explicitly seeded fvae::Rng.
///   raw-socket         a bare or ::-qualified socket()/accept()/accept4()/
///                      close() call outside src/net/ — descriptors must
///                      live in the RAII net::Fd wrapper (net/fd.h) so they
///                      cannot leak through an early return or be closed
///                      twice. Member calls (file.close()) are exempt.
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
///                      `m` held (RAII guard in scope, or FVAE_REQUIRES on
///                      the enclosing function).
///   verb-switch        a switch over a known enum class (the wire Verb)
///                      misses enumerators without a justified default.
///   status-path /      path-sensitive Status consumption and resource
///   resource-escape    acquire/release over per-function CFGs.
///
/// Findings on a line carrying `fvae-lint: allow(<rule>)` are suppressed;
/// `fvae-lint: allow(hot-path)` on a call line additionally prunes that
/// call edge from the hot-path walk.
///
/// Invariants checked elsewhere are not re-checked here: a dropped
/// Status/Result is a compile error (`[[nodiscard]]` plus
/// -Werror=unused-result), lock balance is Clang -Wthread-safety's, and
/// reads of moved-from locals are clang-tidy's (ARCHITECTURE.md §7).

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
  static const std::set<std::string> kManualLockCalls = {
      "Lock", "Unlock", "LockShared", "UnlockShared"};
  // Production code locks through RAII guards only; tests may drive a
  // Mutex by hand to probe it.
  const bool raii_only = path_label.rfind("src/", 0) == 0;

  for (size_t idx = 0; idx < raw.size(); ++idx) {
    const std::vector<Tok>& line = by_line[idx + 1];
    if (line.empty()) continue;

    if (!options.allow_raw_mutex) {
      for (size_t i = 0; i < line.size(); ++i) {
        if (line[i].kind != TokKind::kIdent) continue;
        if (kMutexTypes.count(line[i].text) > 0 && IsStdQualified(line, i)) {
          report(idx, "raw-mutex",
                 "std::" + line[i].text +
                     " outside common/mutex.h; use the capability-annotated "
                     "fvae::Mutex/SharedMutex/CondVar wrappers");
          break;
        }
        if (raii_only && kManualLockCalls.count(line[i].text) > 0 && i > 0 &&
            (IsPunct(line[i - 1], ".") || IsPunct(line[i - 1], "->")) &&
            i + 1 < line.size() && IsPunct(line[i + 1], "(")) {
          report(idx, "raw-mutex",
                 "manual ." + line[i].text +
                     "() outside common/mutex.h; hold the lock with a "
                     "MutexLock/WriterMutexLock/ReaderMutexLock guard so "
                     "every path releases it");
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
  size_t file_count = 0;
  PhaseTimings phases;  // scan, per_file, then AnalyzeProgram's passes
  double total_ms() const {
    double total = 0;
    for (const auto& [phase, ms] : phases) total += ms;
    return total;
  }
};

/// Walks the repository tree rooted at `root` (src, tools, bench, tests,
/// examples), lints every source file, then runs the whole-program
/// analyses over `src/`. This is the whole program: fvae_lint's main()
/// and the lint test's clean-tree check both call it.
inline std::vector<Finding> LintTree(const std::filesystem::path& root,
                                     LintTimings* timings = nullptr) {
  namespace fs = std::filesystem;
  PhaseClock clock(timings != nullptr ? &timings->phases : nullptr);
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
  clock.Lap("scan");

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
        path.rfind("src/serving/sharded_store", 0) == 0 ||
        path.rfind("src/obs/", 0) == 0;
    std::vector<Finding> file_findings = LintFile(path, body, options);
    findings.insert(findings.end(), file_findings.begin(),
                    file_findings.end());
  }
  clock.Lap("per_file");

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
      program, timings != nullptr ? &timings->phases : nullptr);
  findings.insert(findings.end(), analysis.begin(), analysis.end());
  if (timings != nullptr) timings->file_count = files.size();
  return findings;
}

}  // namespace fvae::lint

#endif  // FVAE_TOOLS_LINT_RULES_H_
