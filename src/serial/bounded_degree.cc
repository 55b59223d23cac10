#include "serial/bounded_degree.h"

#include <algorithm>
#include <functional>
#include <stdexcept>

#include "graph/intersect.h"
#include "serial/matcher.h"
#include "util/arena.h"

namespace smr {

namespace {

/// True iff `v` is an articulation point of the sub-pattern induced by the
/// variables with alive[v] == true.
bool IsArticulationInAlive(const SampleGraph& pattern,
                           const std::vector<bool>& alive, int v) {
  int start = -1;
  int alive_count = 0;
  for (int x = 0; x < pattern.num_vars(); ++x) {
    if (!alive[x]) continue;
    ++alive_count;
    if (x != v && start < 0) start = x;
  }
  if (alive_count <= 2) return false;
  std::vector<bool> seen(pattern.num_vars(), false);
  seen[v] = true;
  seen[start] = true;
  std::vector<int> stack = {start};
  int reached = 1;
  while (!stack.empty()) {
    const int x = stack.back();
    stack.pop_back();
    for (int w : pattern.Neighbors(x)) {
      if (!alive[w] || seen[w]) continue;
      seen[w] = true;
      ++reached;
      stack.push_back(w);
    }
  }
  return reached != alive_count - 1;
}

}  // namespace

std::vector<int> BoundedDegreeAssignmentOrder(const SampleGraph& pattern) {
  const int p = pattern.num_vars();
  std::vector<bool> alive(p, true);
  std::vector<int> removal;
  // Peel non-articulation variables until two adjacent variables remain.
  for (int remaining = p; remaining > 2; --remaining) {
    int pick = -1;
    for (int v = 0; v < p; ++v) {
      if (!alive[v]) continue;
      if (!IsArticulationInAlive(pattern, alive, v)) {
        pick = v;
        break;
      }
    }
    // A connected graph always has a non-articulation vertex.
    alive[pick] = false;
    removal.push_back(pick);
  }
  std::vector<int> order;
  for (int v = 0; v < p; ++v) {
    if (alive[v]) order.push_back(v);
  }
  std::reverse(removal.begin(), removal.end());
  order.insert(order.end(), removal.begin(), removal.end());
  return order;
}

uint64_t EnumerateBoundedDegree(const SampleGraph& pattern, const Graph& graph,
                                InstanceSink* sink, CostCounter* cost) {
  const int p = pattern.num_vars();
  if (p < 2 || !pattern.IsConnected()) {
    throw std::invalid_argument(
        "bounded-degree algorithm needs a connected pattern with p >= 2");
  }
  const std::vector<int> order = BoundedDegreeAssignmentOrder(pattern);
  const auto& automorphisms = pattern.Automorphisms();

  std::vector<NodeId> assignment(p, 0);
  std::vector<bool> bound(p, false);
  uint64_t found = 0;
  // Point the cost pointer at a dummy when the caller passed none, so the
  // per-candidate loops below carry no null checks.
  CostCounter dummy;
  CostCounter* const c = cost != nullptr ? cost : &dummy;
  // Per-depth intersection buffers (a level iterates its survivors while
  // deeper levels run, so the buffers cannot be shared).
  Arena arena;
  std::vector<NodeId*> scratch(p, nullptr);
  for (auto& buf : scratch) {
    buf = arena.AllocateArray<NodeId>(graph.MaxDegree() + kIntersectSlack);
  }

  std::function<void(int)> extend = [&](int depth) {
    if (depth == p) {
      if (!IsCanonicalEmbedding(assignment, automorphisms)) return;
      ++found;
      ++c->outputs;
      if (sink != nullptr) sink->Emit(assignment);
      return;
    }
    const int var = order[depth];
    // The two bound pattern-neighbors with the smallest data-graph adjacency
    // lists drive the candidate generation (at least one exists by
    // construction of the assignment order); remaining bound neighbors are
    // membership probes on each survivor.
    int anchor1 = -1, anchor2 = -1;
    size_t deg1 = 0, deg2 = 0;
    for (int w : pattern.Neighbors(var)) {
      if (!bound[w]) continue;
      const size_t d = graph.Degree(assignment[w]);
      if (anchor1 < 0 || d < deg1) {
        anchor2 = anchor1;
        deg2 = deg1;
        anchor1 = w;
        deg1 = d;
      } else if (anchor2 < 0 || d < deg2) {
        anchor2 = w;
        deg2 = d;
      }
    }

    auto try_node = [&](NodeId node) {
      ++c->candidates;
      for (int x = 0; x < p; ++x) {
        if (bound[x] && assignment[x] == node) return;
      }
      for (int w : pattern.Neighbors(var)) {
        if (!bound[w] || w == anchor1 || w == anchor2) continue;
        ++c->index_probes;
        if (!graph.HasEdge(node, assignment[w])) return;
      }
      assignment[var] = node;
      bound[var] = true;
      extend(depth + 1);
      bound[var] = false;
    };

    if (anchor2 < 0) {
      for (NodeId node : graph.Neighbors(assignment[anchor1])) {
        try_node(node);
      }
    } else {
      // Both lists ascend by node id, so the survivors come out in the same
      // ascending order the plain anchor walk visited them in.
      NodeId* const out = scratch[depth];
      const size_t count =
          IntersectInto(graph.Neighbors(assignment[anchor1]),
                        graph.Neighbors(assignment[anchor2]), out);
      c->index_probes += std::min(deg1, deg2);
      for (size_t i = 0; i < count; ++i) try_node(out[i]);
    }
  };

  // Base case: the first two variables form an edge of S; scan all data
  // edges in both orientations.
  const int v0 = order[0];
  const int v1 = order[1];
  for (const Edge& e : graph.edges()) {
    ++c->edges_scanned;
    for (int flip = 0; flip < 2; ++flip) {
      assignment[v0] = flip == 0 ? e.first : e.second;
      assignment[v1] = flip == 0 ? e.second : e.first;
      bound[v0] = bound[v1] = true;
      extend(2);
      bound[v0] = bound[v1] = false;
    }
  }
  return found;
}

}  // namespace smr
