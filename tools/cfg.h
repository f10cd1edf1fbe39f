#ifndef FVAE_TOOLS_CFG_H_
#define FVAE_TOOLS_CFG_H_

#include <cstddef>
#include <deque>
#include <string>
#include <vector>

#include "tools/cpp_lexer.h"

/// Per-function control-flow graphs for fvae_lint's path-sensitive
/// analyses (tools/dataflow.h). BuildCfg() parses one function body — a
/// token range produced by tools/cpp_lexer.h and delimited by the
/// brace-matched body indices that tools/tu_facts.h records on every
/// FunctionFacts — into basic blocks of statements:
///
///   - `if`/`else` (including `else if` chains and `if constexpr`), with
///     short-circuit `&&`/`||` conditions split into one guard node per
///     operand when the condition uses a single operator kind (a mixed
///     `a && b || c` condition stays one node — the analyses are
///     condition-blind, so only the edge structure matters);
///   - `while`, `do`/`while`, classic and range `for`; `while (true)`,
///     `while (1)` and `for (;;)` get no loop-head exit edge, so code
///     after an infinite loop is only reachable through `break` — a
///     worker-loop pattern (`for (;;) { ... if (done) { Flush();
///     return; } ... }`) has exactly the paths it executes;
///   - `switch`/`case` with fall-through edges between consecutive case
///     groups, `break` to the statement after the switch, and a
///     head-to-after edge only when there is no `default:`;
///   - early `return` / `throw` / `co_return` (edge to the exit node),
///     `break` / `continue` (edges to the innermost break/continue
///     targets), `goto` (conservative edge to exit);
///   - `try`/`catch` over-approximated: the catch block joins the states
///     from before the try and from its fall-through exit.
///
/// Statements are token ranges [begin, end) into the file's token vector;
/// braces *inside* a statement (lambda bodies, braced initializers, local
/// struct definitions) are swallowed into that statement, so a lambda's
/// control flow is opaque — documented blind spot, matching the fact
/// extractor's treatment. Code after a terminator lands in a fresh node
/// with no predecessors; `Cfg::reachable` (BFS from entry) lets analyses
/// both skip dead statements and *report* facts recorded in them as
/// unreachable. A node budget bounds pathological inputs: an over-budget
/// function sets `truncated` and the dataflow analyses skip it.

namespace fvae::lint {

/// One statement: a token range in the file's token stream. `line` is the
/// first token's line (use token lines for finer attribution).
struct CfgStmt {
  size_t begin = 0;  // inclusive token index
  size_t end = 0;    // exclusive token index
  size_t line = 0;
};

struct CfgNode {
  std::vector<CfgStmt> stmts;
  std::vector<size_t> succ;
  std::vector<size_t> pred;
};

struct Cfg {
  static constexpr size_t kEntry = 0;
  static constexpr size_t kExit = 1;
  std::vector<CfgNode> nodes;   // nodes[0] = entry, nodes[1] = exit
  std::vector<bool> reachable;  // from entry, over succ edges
  bool truncated = false;       // over budget: analyses must skip
};

namespace cfg_detail {

/// Node-count budget per function. Far above anything a real function
/// produces (the repo's largest bodies build well under 300 nodes); a
/// token stream pathological enough to exceed it marks the CFG truncated
/// rather than stalling the lint run.
constexpr size_t kMaxNodes = 4096;
constexpr size_t kMaxDepth = 200;  // statement-nesting recursion guard

class CfgBuilder {
 public:
  CfgBuilder(const std::vector<Tok>& toks, size_t begin, size_t end)
      : toks_(toks), begin_(begin), end_(end) {
    cfg_.nodes.resize(2);
  }

  Cfg Build() {
    size_t cur = NewNode();
    AddEdge(Cfg::kEntry, cur);
    cur = ParseSeq(begin_, end_, cur);
    AddEdge(cur, Cfg::kExit);  // implicit return at the closing brace
    cfg_.reachable.assign(cfg_.nodes.size(), false);
    std::deque<size_t> queue = {Cfg::kEntry};
    cfg_.reachable[Cfg::kEntry] = true;
    while (!queue.empty()) {
      const size_t n = queue.front();
      queue.pop_front();
      for (size_t s : cfg_.nodes[n].succ) {
        if (!cfg_.reachable[s]) {
          cfg_.reachable[s] = true;
          queue.push_back(s);
        }
      }
    }
    return std::move(cfg_);
  }

 private:
  bool IsPunct(size_t i, const char* text) const {
    return i < end_ && toks_[i].kind == TokKind::kPunct &&
           toks_[i].text == text;
  }
  bool IsIdent(size_t i, const char* text) const {
    return i < end_ && toks_[i].kind == TokKind::kIdent &&
           toks_[i].text == text;
  }

  size_t NewNode() {
    if (cfg_.nodes.size() >= kMaxNodes) {
      cfg_.truncated = true;
      return Cfg::kExit;  // safe sink; the truncated flag voids the graph
    }
    cfg_.nodes.emplace_back();
    return cfg_.nodes.size() - 1;
  }

  void AddEdge(size_t from, size_t to) {
    std::vector<size_t>& succ = cfg_.nodes[from].succ;
    for (size_t s : succ) {
      if (s == to) return;
    }
    succ.push_back(to);
    cfg_.nodes[to].pred.push_back(from);
  }

  void AddStmt(size_t node, size_t begin, size_t end) {
    if (begin >= end) return;
    cfg_.nodes[node].stmts.push_back({begin, end, toks_[begin].line});
  }

  /// Index just past the token matching the open paren/brace/bracket at
  /// `i` (end_ when unbalanced).
  size_t MatchGroup(size_t i) const {
    const std::string& open = toks_[i].text;
    const char* close = open == "(" ? ")" : open == "{" ? "}" : "]";
    int depth = 0;
    for (size_t j = i; j < end_; ++j) {
      if (toks_[j].kind != TokKind::kPunct) continue;
      if (toks_[j].text == open) ++depth;
      if (toks_[j].text == close && --depth == 0) return j + 1;
    }
    return end_;
  }

  /// Scans one plain statement starting at `i`: consumes balanced groups
  /// (parens, braces — lambdas, braced initializers — and brackets) and
  /// stops just past the terminating ';', or *at* an unmatched '}' or
  /// `end`.
  size_t ScanStmtEnd(size_t i, size_t end) const {
    int paren = 0, brace = 0;
    while (i < end) {
      const Tok& t = toks_[i];
      if (t.kind == TokKind::kPunct) {
        if (t.text == "(") {
          ++paren;
        } else if (t.text == ")") {
          --paren;
        } else if (t.text == "{") {
          ++brace;
        } else if (t.text == "}") {
          if (brace == 0) return i;
          --brace;
        } else if (t.text == ";" && paren <= 0 && brace == 0) {
          return i + 1;
        }
      }
      ++i;
    }
    return end;
  }

  size_t ParseSeq(size_t i, size_t end, size_t cur) {
    while (i < end && !cfg_.truncated) {
      cur = ParseStmt(&i, end, cur);
    }
    return cur;
  }

  /// Parses one statement starting at *ip (advanced past it) and returns
  /// the node where control continues.
  size_t ParseStmt(size_t* ip, size_t end, size_t cur) {
    const size_t i = *ip;
    if (++depth_ > kMaxDepth) cfg_.truncated = true;
    if (cfg_.truncated) {
      *ip = end;
      --depth_;
      return cur;
    }
    struct DepthGuard {
      size_t* d;
      ~DepthGuard() { --*d; }
    } guard{&depth_};

    const Tok& t = toks_[i];
    if (t.kind == TokKind::kPunct) {
      if (t.text == "{") {  // compound statement
        const size_t close = MatchGroup(i);
        const size_t exit = ParseSeq(i + 1, close > i ? close - 1 : i, cur);
        *ip = close;
        return exit;
      }
      if (t.text == ";") {  // empty statement
        *ip = i + 1;
        return cur;
      }
    }
    if (t.kind == TokKind::kIdent) {
      if (t.text == "if") return ParseIf(ip, end, cur);
      if (t.text == "while") return ParseWhile(ip, end, cur);
      if (t.text == "do") return ParseDo(ip, end, cur);
      if (t.text == "for") return ParseFor(ip, end, cur);
      if (t.text == "switch") return ParseSwitch(ip, end, cur);
      if (t.text == "try") return ParseTry(ip, end, cur);
      if (t.text == "return" || t.text == "throw" ||
          t.text == "co_return" || t.text == "goto") {
        const size_t stop = ScanStmtEnd(i, end);
        AddStmt(cur, i, stop);
        AddEdge(cur, Cfg::kExit);
        *ip = stop;
        return NewNode();  // fresh, predecessor-less: dead until a label
      }
      if (t.text == "break" || t.text == "continue") {
        const size_t stop = ScanStmtEnd(i, end);
        AddStmt(cur, i, stop);
        const std::vector<size_t>& targets =
            t.text == "break" ? break_targets_ : continue_targets_;
        AddEdge(cur, targets.empty() ? Cfg::kExit : targets.back());
        *ip = stop;
        return NewNode();
      }
      if (t.text == "else") {  // defensive: a dangling else is skipped
        *ip = i + 1;
        return cur;
      }
      // Plain label (`retry:`): skip it; the node keeps flowing. (A goto
      // already routed conservatively to exit.)
      if (IsPunct(i + 1, ":") && t.text != "default") {
        *ip = i + 2;
        return cur;
      }
    }
    const size_t stop = ScanStmtEnd(i, end);
    if (stop == i) {  // unmatched '}' or no progress: consume one token
      *ip = i + 1;
      return cur;
    }
    AddStmt(cur, i, stop);
    *ip = stop;
    return cur;
  }

  /// Splits a condition range on top-level `&&` (*op = 1) or `||`
  /// (*op = 2) when only one operator kind appears; otherwise returns the
  /// whole range (*op = 0).
  std::vector<std::pair<size_t, size_t>> SplitGuards(size_t b, size_t e,
                                                     int* op) const {
    std::vector<size_t> ands, ors;
    int depth = 0;
    for (size_t i = b; i < e; ++i) {
      if (toks_[i].kind != TokKind::kPunct) continue;
      const std::string& s = toks_[i].text;
      if (s == "(" || s == "[" || s == "{") ++depth;
      if (s == ")" || s == "]" || s == "}") --depth;
      if (depth != 0) continue;
      if (s == "&&") ands.push_back(i);
      if (s == "||") ors.push_back(i);
    }
    const std::vector<size_t>* cuts = nullptr;
    if (!ands.empty() && ors.empty()) {
      *op = 1;
      cuts = &ands;
    } else if (ands.empty() && !ors.empty()) {
      *op = 2;
      cuts = &ors;
    } else {
      *op = 0;
      return {{b, e}};
    }
    std::vector<std::pair<size_t, size_t>> parts;
    size_t start = b;
    for (size_t cut : *cuts) {
      parts.emplace_back(start, cut);
      start = cut + 1;
    }
    parts.emplace_back(start, e);
    return parts;
  }

  size_t ParseIf(size_t* ip, size_t end, size_t cur) {
    size_t i = *ip + 1;  // past 'if'
    if (IsIdent(i, "constexpr")) ++i;
    if (!IsPunct(i, "(")) {  // malformed: fall back to a plain statement
      const size_t stop = ScanStmtEnd(*ip, end);
      AddStmt(cur, *ip, stop);
      *ip = stop > *ip ? stop : *ip + 1;
      return cur;
    }
    const size_t close = MatchGroup(i);
    int op = 0;
    const auto guards = SplitGuards(i + 1, close - 1, &op);
    const size_t then_entry = NewNode();
    const size_t else_entry = NewNode();
    // Guard chain: one node per operand. For `&&` a false operand jumps
    // to else; for `||` a true operand jumps to then.
    size_t g = cur;
    for (size_t k = 0; k < guards.size(); ++k) {
      const size_t node = guards.size() == 1 ? cur : NewNode();
      if (node != g) AddEdge(g, node);
      AddStmt(node, guards[k].first, guards[k].second);
      const bool last = k + 1 == guards.size();
      if (last) {
        AddEdge(node, then_entry);
        AddEdge(node, else_entry);
      } else if (op == 1) {
        AddEdge(node, else_entry);  // short-circuit false
      } else {
        AddEdge(node, then_entry);  // short-circuit true
      }
      g = node;
    }
    const size_t join = NewNode();
    size_t j = close;
    const size_t then_exit = ParseStmt(&j, end, then_entry);
    AddEdge(then_exit, join);
    if (IsIdent(j, "else")) {
      ++j;
      const size_t else_exit = ParseStmt(&j, end, else_entry);
      AddEdge(else_exit, join);
    } else {
      AddEdge(else_entry, join);
    }
    *ip = j;
    return join;
  }

  /// `while (true)`, `while (1)`, `for (;;)`: no loop-head exit edge.
  bool IsInfinite(size_t b, size_t e) const {
    return e == b + 1 && (IsIdent(b, "true") ||
                          (toks_[b].kind == TokKind::kNumber &&
                           toks_[b].text == "1"));
  }

  size_t ParseWhile(size_t* ip, size_t end, size_t cur) {
    size_t i = *ip + 1;
    if (!IsPunct(i, "(")) {
      const size_t stop = ScanStmtEnd(*ip, end);
      AddStmt(cur, *ip, stop);
      *ip = stop > *ip ? stop : *ip + 1;
      return cur;
    }
    const size_t close = MatchGroup(i);
    const size_t head = NewNode();
    AddStmt(head, i + 1, close - 1);
    AddEdge(cur, head);
    const size_t after = NewNode();
    const size_t body = NewNode();
    AddEdge(head, body);
    if (!IsInfinite(i + 1, close - 1)) AddEdge(head, after);
    break_targets_.push_back(after);
    continue_targets_.push_back(head);
    size_t j = close;
    const size_t body_exit = ParseStmt(&j, end, body);
    break_targets_.pop_back();
    continue_targets_.pop_back();
    AddEdge(body_exit, head);
    *ip = j;
    return after;
  }

  size_t ParseDo(size_t* ip, size_t end, size_t cur) {
    size_t j = *ip + 1;
    const size_t body = NewNode();
    AddEdge(cur, body);
    const size_t cond = NewNode();
    const size_t after = NewNode();
    break_targets_.push_back(after);
    continue_targets_.push_back(cond);
    const size_t body_exit = ParseStmt(&j, end, body);
    break_targets_.pop_back();
    continue_targets_.pop_back();
    AddEdge(body_exit, cond);
    if (IsIdent(j, "while") && IsPunct(j + 1, "(")) {
      const size_t close = MatchGroup(j + 1);
      AddStmt(cond, j + 2, close - 1);
      AddEdge(cond, body);
      if (!IsInfinite(j + 2, close - 1)) AddEdge(cond, after);
      j = close;
      if (IsPunct(j, ";")) ++j;
    } else {
      AddEdge(cond, after);  // malformed do: degrade gracefully
    }
    *ip = j;
    return after;
  }

  size_t ParseFor(size_t* ip, size_t end, size_t cur) {
    size_t i = *ip + 1;
    if (!IsPunct(i, "(")) {
      const size_t stop = ScanStmtEnd(*ip, end);
      AddStmt(cur, *ip, stop);
      *ip = stop > *ip ? stop : *ip + 1;
      return cur;
    }
    const size_t close = MatchGroup(i);
    // Classic for carries top-level ';' in its head; range-for does not.
    std::vector<size_t> semis;
    int depth = 0;
    for (size_t j = i + 1; j + 1 < close; ++j) {
      if (toks_[j].kind != TokKind::kPunct) continue;
      const std::string& s = toks_[j].text;
      if (s == "(" || s == "[" || s == "{") ++depth;
      if (s == ")" || s == "]" || s == "}") --depth;
      if (s == ";" && depth == 0) semis.push_back(j);
    }
    const size_t after = NewNode();
    const size_t body = NewNode();
    size_t j = close;
    if (semis.size() < 2) {  // range-for: one head node, loop edges
      const size_t head = NewNode();
      AddStmt(head, i + 1, close - 1);
      AddEdge(cur, head);
      AddEdge(head, body);
      AddEdge(head, after);
      break_targets_.push_back(after);
      continue_targets_.push_back(head);
      const size_t body_exit = ParseStmt(&j, end, body);
      break_targets_.pop_back();
      continue_targets_.pop_back();
      AddEdge(body_exit, head);
    } else {
      AddStmt(cur, i + 1, semis[0]);  // init runs once, in the current node
      const size_t head = NewNode();
      const bool has_cond = semis[1] > semis[0] + 1;
      AddStmt(head, semis[0] + 1, semis[1]);
      AddEdge(cur, head);
      const size_t inc = NewNode();
      AddStmt(inc, semis[1] + 1, close - 1);
      AddEdge(head, body);
      if (has_cond) AddEdge(head, after);  // for(;;): break is the only way out
      break_targets_.push_back(after);
      continue_targets_.push_back(inc);
      const size_t body_exit = ParseStmt(&j, end, body);
      break_targets_.pop_back();
      continue_targets_.pop_back();
      AddEdge(body_exit, inc);
      AddEdge(inc, head);
    }
    *ip = j;
    return after;
  }

  size_t ParseSwitch(size_t* ip, size_t end, size_t cur) {
    size_t i = *ip + 1;
    if (!IsPunct(i, "(")) {
      const size_t stop = ScanStmtEnd(*ip, end);
      AddStmt(cur, *ip, stop);
      *ip = stop > *ip ? stop : *ip + 1;
      return cur;
    }
    const size_t close = MatchGroup(i);
    const size_t head = NewNode();
    AddStmt(head, i + 1, close - 1);
    AddEdge(cur, head);
    const size_t after = NewNode();
    if (!IsPunct(close, "{")) {  // switch without a block: degrade
      AddEdge(head, after);
      *ip = close;
      return after;
    }
    const size_t bclose = MatchGroup(close);
    break_targets_.push_back(after);
    size_t group = SIZE_MAX;  // current case group's flow node
    bool has_default = false;
    size_t j = close + 1;
    const size_t body_end = bclose > close ? bclose - 1 : close;
    while (j < body_end && !cfg_.truncated) {
      const bool is_case = IsIdent(j, "case");
      const bool is_default = IsIdent(j, "default") && IsPunct(j + 1, ":");
      if (is_case || is_default) {
        // Skip to the label's ':' (a lone ':', never the '::' token).
        size_t colon = j + 1;
        while (colon < body_end && !IsPunct(colon, ":")) ++colon;
        const size_t entry = NewNode();
        AddEdge(head, entry);
        if (group != SIZE_MAX) AddEdge(group, entry);  // fall-through
        group = entry;
        if (is_default) has_default = true;
        j = colon + 1;
        continue;
      }
      if (group == SIZE_MAX) group = NewNode();  // stmts before any label
      group = ParseStmt(&j, body_end, group);
    }
    if (group != SIZE_MAX) AddEdge(group, after);  // fall out of the last group
    break_targets_.pop_back();
    if (!has_default) AddEdge(head, after);
    *ip = bclose;
    return after;
  }

  size_t ParseTry(size_t* ip, size_t end, size_t cur) {
    size_t j = *ip + 1;
    const size_t try_entry = NewNode();
    AddEdge(cur, try_entry);
    const size_t try_exit = ParseStmt(&j, end, try_entry);
    const size_t join = NewNode();
    AddEdge(try_exit, join);
    while (IsIdent(j, "catch") && IsPunct(j + 1, "(")) {
      const size_t close = MatchGroup(j + 1);
      const size_t handler = NewNode();
      // Any statement in the try may throw: join the pre-try and
      // end-of-try states as the handler's input (over-approximation).
      AddEdge(cur, handler);
      AddEdge(try_exit, handler);
      j = close;
      const size_t handler_exit = ParseStmt(&j, end, handler);
      AddEdge(handler_exit, join);
    }
    *ip = j;
    return join;
  }

  const std::vector<Tok>& toks_;
  const size_t begin_;
  const size_t end_;
  Cfg cfg_;
  std::vector<size_t> break_targets_;
  std::vector<size_t> continue_targets_;
  size_t depth_ = 0;
};

}  // namespace cfg_detail

/// Builds the CFG of one function body: `[body_begin, body_end)` is the
/// token range strictly inside the body's braces (FunctionFacts records
/// it during extraction).
inline Cfg BuildCfg(const std::vector<Tok>& toks, size_t body_begin,
                    size_t body_end) {
  if (body_end > toks.size()) body_end = toks.size();
  if (body_begin > body_end) body_begin = body_end;
  return cfg_detail::CfgBuilder(toks, body_begin, body_end).Build();
}

}  // namespace fvae::lint

#endif  // FVAE_TOOLS_CFG_H_
