#ifndef FVAE_TOOLS_DATAFLOW_H_
#define FVAE_TOOLS_DATAFLOW_H_

#include <cstddef>
#include <deque>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "tools/cfg.h"
#include "tools/cpp_lexer.h"

/// Generic worklist dataflow solver over tools/cfg.h graphs, plus the
/// per-function summary type the interprocedural wiring in
/// tools/lint_graph.h exports.
///
/// The solver is direction- and lattice-agnostic: an analysis supplies a
/// `State` value type (with operator==), a boundary state injected at the
/// entry (forward) or exit (backward) node, an initial state for every
/// other node, a join, and a per-node transfer function. Iteration is
/// bounded by a per-function budget — `kVisitsPerNode * nodes` node
/// visits — so a lattice with unbounded ascent (or a transfer bug) marks
/// the result non-converged instead of hanging the lint run; callers
/// skip non-converged functions, trading silence for termination.
///
/// The path-sensitive analyses built on this solver (status-path,
/// resource-escape) live in tools/lint_graph.h next to the cross-TU facts
/// they need; their shared lattice is the three-point chain in `Flow`
/// below: per tracked name, a definite state on all paths, or `kMixed`
/// when paths disagree —
/// exactly the distinction the findings report ("on every path" vs "on
/// some path"). Absent map keys mean "no obligation", so joining a
/// branch that never created the obligation keeps the other branch's
/// definite state only where both agree.

namespace fvae::lint {

enum class DataflowDir { kForward, kBackward };

template <typename State>
struct DataflowResult {
  std::vector<State> in;   // state at node entry (forward: before stmts)
  std::vector<State> out;  // state at node exit
  bool converged = true;
};

namespace dataflow_detail {
constexpr size_t kVisitsPerNode = 64;
}  // namespace dataflow_detail

/// Solves a dataflow problem to fixpoint (or budget exhaustion).
///   transfer(node_index, in_state) -> out_state
///   join(accumulator*, incoming_state) merges predecessor outputs.
/// For kBackward the roles of succ/pred and entry/exit swap; `in` is then
/// the state at node *exit* and `out` at node entry, matching the
/// direction of propagation.
template <typename State, typename TransferFn, typename JoinFn>
DataflowResult<State> SolveDataflow(const Cfg& cfg, DataflowDir dir,
                                    const State& boundary,
                                    const State& initial, TransferFn transfer,
                                    JoinFn join) {
  const size_t n = cfg.nodes.size();
  DataflowResult<State> result;
  result.in.assign(n, initial);
  result.out.assign(n, initial);
  if (cfg.truncated || n == 0) {
    result.converged = false;
    return result;
  }
  const bool forward = dir == DataflowDir::kForward;
  const size_t boundary_node = forward ? Cfg::kEntry : Cfg::kExit;
  result.in[boundary_node] = boundary;
  result.out[boundary_node] = transfer(boundary_node, boundary);

  std::deque<size_t> worklist;
  std::vector<bool> queued(n, false);
  for (size_t i = 0; i < n; ++i) {
    worklist.push_back(i);
    queued[i] = true;
  }
  size_t budget = dataflow_detail::kVisitsPerNode * n;
  while (!worklist.empty()) {
    if (budget-- == 0) {
      result.converged = false;
      break;
    }
    const size_t node = worklist.front();
    worklist.pop_front();
    queued[node] = false;
    const std::vector<size_t>& preds =
        forward ? cfg.nodes[node].pred : cfg.nodes[node].succ;
    State in = node == boundary_node ? boundary : initial;
    for (size_t p : preds) {
      // Unreachable predecessors (dead code after a terminator) carry the
      // initial state only; joining them in would dilute a definite
      // "on every path" fact into kMixed, so forward solves skip them.
      if (forward && !cfg.reachable[p]) continue;
      join(&in, result.out[p]);
    }
    State out = transfer(node, in);
    result.in[node] = in;
    if (out == result.out[node]) continue;
    result.out[node] = std::move(out);
    const std::vector<size_t>& succs =
        forward ? cfg.nodes[node].succ : cfg.nodes[node].pred;
    for (size_t s : succs) {
      if (!queued[s]) {
        queued[s] = true;
        worklist.push_back(s);
      }
    }
  }
  return result;
}

/// Three-point obligation lattice shared by the path-sensitive analyses.
/// The meaning of kA/kB is per-analysis (e.g. status-path: kA=consumed,
/// kB=unconsumed; resource-escape: kA=settled, kB=live); kMixed means the
/// paths reaching this point disagree.
enum class Flow : unsigned char { kA = 0, kB = 1, kMixed = 2 };

/// Map-valued lattice state: tracked name -> Flow. A missing key is the
/// analysis's "no obligation" element; `missing` says which Flow value an
/// absent key stands for when joining against a map that has the key.
struct FlowState {
  std::map<std::string, Flow> vals;
  bool operator==(const FlowState& other) const {
    return vals == other.vals;
  }
};

inline Flow JoinFlow(Flow a, Flow b) { return a == b ? a : Flow::kMixed; }

/// Pointwise join; keys missing on one side join as `missing`. When the
/// join result equals `missing`, the key is dropped again so states stay
/// canonical (operator== keeps working as set equality).
inline void JoinFlowStates(FlowState* acc, const FlowState& other,
                           Flow missing) {
  for (auto& [name, val] : acc->vals) {
    auto it = other.vals.find(name);
    val = JoinFlow(val, it == other.vals.end() ? missing : it->second);
  }
  for (const auto& [name, val] : other.vals) {
    if (acc->vals.count(name) == 0) {
      acc->vals[name] = JoinFlow(val, missing);
    }
  }
  for (auto it = acc->vals.begin(); it != acc->vals.end();) {
    if (it->second == missing) {
      it = acc->vals.erase(it);
    } else {
      ++it;
    }
  }
}

/// Interprocedural summary of one function, keyed by bare name in
/// lint_graph.h (overloads OR-merge — the usual over-approximation).
///
///   consumes_status    has a Status/Result-typed parameter: passing a
///                      tracked Status value into it counts as consuming
///                      the value (the callee examines it).
///   takes_ownership    has an rvalue-reference parameter: passing a
///                      tracked resource via std::move hands it off.
///   releases_argument  the body calls a release-table method (Cancel,
///                      Del, Commit, Abort, close, Reset) on or
///                      with one of its parameters: passing a tracked
///                      resource to it discharges the obligation, so
///                      wrapper functions don't flag their callers.
struct FnSummary {
  bool consumes_status = false;
  bool takes_ownership = false;
  bool releases_argument = false;
};

using SummaryMap = std::map<std::string, FnSummary>;

}  // namespace fvae::lint

#endif  // FVAE_TOOLS_DATAFLOW_H_
