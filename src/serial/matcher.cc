#include "serial/matcher.h"

#include <algorithm>
#include <vector>

#include "graph/intersect.h"
#include "util/arena.h"

namespace smr {

namespace {

/// Backtracking state shared across recursion levels.
struct MatchState {
  const SampleGraph* pattern;
  const Graph* graph;
  InstanceSink* sink;
  CostCounter* cost;                 // never null: points at a dummy if the
                                     // caller passed none, so the hot loops
                                     // carry no null checks
  std::vector<int> var_order;        // variables in assignment order
  std::vector<NodeId> assignment;    // by variable index
  std::vector<bool> bound;           // by variable index
  std::vector<NodeId*> scratch;      // per-depth intersection buffers
  const std::vector<std::vector<int>>* automorphisms;
  uint64_t found = 0;
};

void Match(MatchState* s, size_t depth) {
  if (depth == s->var_order.size()) {
    if (IsCanonicalEmbedding(s->assignment, *s->automorphisms)) {
      ++s->found;
      ++s->cost->outputs;
      if (s->sink != nullptr) s->sink->Emit(s->assignment);
    }
    return;
  }
  const int var = s->var_order[depth];
  // Candidate generation: the two bound pattern-neighbors whose data-graph
  // nodes have the smallest adjacency lists (ties by pattern-variable id)
  // drive an intersection; any further bound neighbors are membership
  // probes against each survivor.
  int anchor1 = -1, anchor2 = -1;
  size_t deg1 = 0, deg2 = 0;
  for (int nbr : s->pattern->Neighbors(var)) {
    if (!s->bound[nbr]) continue;
    const size_t d = s->graph->Degree(s->assignment[nbr]);
    if (anchor1 < 0 || d < deg1) {
      anchor2 = anchor1;
      deg2 = deg1;
      anchor1 = nbr;
      deg1 = d;
    } else if (anchor2 < 0 || d < deg2) {
      anchor2 = nbr;
      deg2 = d;
    }
  }

  // `skip1`/`skip2` are bound neighbors whose closing edge the candidate
  // source already guarantees, so probing them again would be redundant.
  auto try_node = [&](NodeId node, int skip1, int skip2) {
    ++s->cost->candidates;
    // Distinctness.
    for (size_t x = 0; x < s->assignment.size(); ++x) {
      if (s->bound[x] && s->assignment[x] == node) return;
    }
    // All remaining pattern edges to bound variables must exist in the data
    // graph.
    for (int nbr : s->pattern->Neighbors(var)) {
      if (!s->bound[nbr] || nbr == skip1 || nbr == skip2) continue;
      ++s->cost->index_probes;
      if (!s->graph->HasEdge(node, s->assignment[nbr])) return;
    }
    s->assignment[var] = node;
    s->bound[var] = true;
    Match(s, depth + 1);
    s->bound[var] = false;
  };

  if (anchor1 < 0) {
    for (NodeId node = 0; node < s->graph->num_nodes(); ++node) {
      try_node(node, -1, -1);
    }
  } else if (anchor2 < 0) {
    for (NodeId node : s->graph->Neighbors(s->assignment[anchor1])) {
      try_node(node, anchor1, -1);
    }
  } else {
    // Both adjacency lists ascend by node id, so the survivors come out in
    // the same ascending order the anchor-list walk used to visit them in —
    // the enumeration (and any sink output) is unchanged.
    NodeId* const out = s->scratch[depth];
    const size_t count =
        IntersectInto(s->graph->Neighbors(s->assignment[anchor1]),
                      s->graph->Neighbors(s->assignment[anchor2]), out);
    // Price the merge as one probe per element of the shorter list.
    s->cost->index_probes += std::min(deg1, deg2);
    for (size_t i = 0; i < count; ++i) {
      try_node(out[i], anchor1, anchor2);
    }
  }
}

/// Orders variables so each (when possible) has a previously-bound neighbor,
/// starting from a maximum-degree variable. This keeps candidate sets small.
std::vector<int> ChooseVariableOrder(const SampleGraph& pattern) {
  const int p = pattern.num_vars();
  std::vector<int> order;
  std::vector<bool> placed(p, false);
  while (static_cast<int>(order.size()) < p) {
    int best = -1;
    int best_bound_nbrs = -1;
    int best_degree = -1;
    for (int v = 0; v < p; ++v) {
      if (placed[v]) continue;
      int bound_nbrs = 0;
      for (int w : pattern.Neighbors(v)) {
        if (placed[w]) ++bound_nbrs;
      }
      const int degree = pattern.Degree(v);
      if (bound_nbrs > best_bound_nbrs ||
          (bound_nbrs == best_bound_nbrs && degree > best_degree)) {
        best = v;
        best_bound_nbrs = bound_nbrs;
        best_degree = degree;
      }
    }
    placed[best] = true;
    order.push_back(best);
  }
  return order;
}

}  // namespace

uint64_t EnumerateInstances(const SampleGraph& pattern, const Graph& graph,
                            InstanceSink* sink, CostCounter* cost) {
  if (pattern.num_vars() == 0) return 0;
  CostCounter dummy;
  Arena arena;
  MatchState state;
  state.pattern = &pattern;
  state.graph = &graph;
  state.sink = sink;
  state.cost = cost != nullptr ? cost : &dummy;
  state.var_order = ChooseVariableOrder(pattern);
  state.assignment.assign(pattern.num_vars(), 0);
  state.bound.assign(pattern.num_vars(), false);
  // Each recursion level owns its intersection buffer: a level iterates its
  // survivors while deeper levels run, so the buffers cannot be shared. An
  // intersection result is at most the shorter input, itself at most the
  // graph's max degree.
  state.scratch.resize(pattern.num_vars());
  for (auto& buf : state.scratch) {
    buf = arena.AllocateArray<NodeId>(graph.MaxDegree() + kIntersectSlack);
  }
  state.automorphisms = &pattern.Automorphisms();
  Match(&state, 0);
  return state.found;
}

uint64_t CountInstances(const SampleGraph& pattern, const Graph& graph) {
  return EnumerateInstances(pattern, graph, nullptr, nullptr);
}

}  // namespace smr
