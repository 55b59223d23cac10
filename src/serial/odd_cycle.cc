#include "serial/odd_cycle.h"

#include <algorithm>

#include "serial/matcher.h"
#include "serial/two_paths.h"

namespace smr {

namespace {

/// Tries every permutation and orientation of the chosen middle edges to
/// close the cycle between `v2` and `vlast` (Algorithm 1's inner loops).
/// `middle[i]` are edges (already node-disjoint, excluding the 2-path
/// nodes). Emits cycles through `visit`.
struct Stitcher {
  const Graph* graph;
  const std::vector<NodeId>* cycle_prefix;  // v1, v2
  NodeId vlast;
  const std::function<void(const std::vector<NodeId>&)>* visit;
  CostCounter* cost;  // never null (caller substitutes a dummy)
  uint64_t found = 0;

  std::vector<Edge> middle;
  std::vector<bool> used;
  std::vector<NodeId> path;   // nodes after v2, in cycle order
  std::vector<NodeId> cycle;  // assembly buffer, reused across emissions

  void Extend(NodeId attach_point) {
    if (path.size() == 2 * middle.size()) {
      ++cost->index_probes;
      if (graph->HasEdge(attach_point, vlast)) {
        cycle.assign(cycle_prefix->begin(), cycle_prefix->end());
        cycle.insert(cycle.end(), path.begin(), path.end());
        cycle.push_back(vlast);
        ++found;
        ++cost->outputs;
        if (*visit) (*visit)(cycle);
      }
      return;
    }
    for (size_t i = 0; i < middle.size(); ++i) {
      if (used[i]) continue;
      const auto [x, y] = middle[i];
      for (int orientation = 0; orientation < 2; ++orientation) {
        const NodeId enter = orientation == 0 ? x : y;
        const NodeId exit = orientation == 0 ? y : x;
        ++cost->candidates;
        ++cost->index_probes;
        if (!graph->HasEdge(attach_point, enter)) continue;
        used[i] = true;
        path.push_back(enter);
        path.push_back(exit);
        Extend(exit);
        path.pop_back();
        path.pop_back();
        used[i] = false;
      }
    }
  }
};

/// Enumerates all size-`want` subsets of edges that are node-disjoint, avoid
/// the three 2-path nodes, and whose endpoints all come after v1 in the
/// order; calls `handle` for each subset.
void ChooseMiddleEdges(const Graph& graph, const NodeOrder& order, NodeId v1,
                       NodeId v2, NodeId vlast, size_t want,
                       size_t first_index, std::vector<Edge>* chosen,
                       std::vector<bool>* node_used, CostCounter* cost,
                       const std::function<void()>& handle) {
  if (chosen->size() == want) {
    handle();
    return;
  }
  const auto& edges = graph.edges();
  for (size_t i = first_index; i < edges.size(); ++i) {
    const auto [x, y] = edges[i];
    ++cost->edges_scanned;  // callers substitute a dummy for null
    if (x == v1 || x == v2 || x == vlast || y == v1 || y == v2 || y == vlast) {
      continue;
    }
    if (!order.Less(v1, x) || !order.Less(v1, y)) continue;
    if ((*node_used)[x] || (*node_used)[y]) continue;
    (*node_used)[x] = (*node_used)[y] = true;
    chosen->push_back(edges[i]);
    ChooseMiddleEdges(graph, order, v1, v2, vlast, want, i + 1, chosen,
                      node_used, cost, handle);
    chosen->pop_back();
    (*node_used)[x] = (*node_used)[y] = false;
  }
}

}  // namespace

uint64_t EnumerateOddCycles(
    const Graph& graph, const NodeOrder& order, int k,
    const std::function<void(const std::vector<NodeId>&)>& visit,
    CostCounter* cost) {
  if (k < 1) return 0;
  uint64_t total = 0;
  CostCounter dummy;
  CostCounter* const c = cost != nullptr ? cost : &dummy;
  std::vector<bool> node_used(graph.num_nodes(), false);
  // First loop: properly ordered 2-paths vlast - v1 - v2 with v2 < vlast.
  EnumerateProperlyOrderedTwoPaths(
      graph, order,
      [&](NodeId v2, NodeId v1, NodeId vlast) {
        // EnumerateProperlyOrderedTwoPaths reports endpoints with
        // endpoint1 < endpoint2, so v2 < vlast holds already.
        if (k == 1) {
          ++c->index_probes;
          if (graph.HasEdge(v2, vlast)) {
            ++total;
            ++c->outputs;
            if (visit) visit({v1, v2, vlast});
          }
          return;
        }
        std::vector<Edge> chosen;
        std::vector<NodeId> prefix = {v1, v2};
        Stitcher stitcher;
        stitcher.graph = &graph;
        stitcher.cycle_prefix = &prefix;
        stitcher.vlast = vlast;
        stitcher.visit = &visit;
        stitcher.cost = c;
        ChooseMiddleEdges(
            graph, order, v1, v2, vlast, static_cast<size_t>(k - 1), 0,
            &chosen, &node_used, c, [&] {
              stitcher.middle = chosen;
              stitcher.used.assign(chosen.size(), false);
              stitcher.path.clear();
              stitcher.Extend(v2);
              total += stitcher.found;
              stitcher.found = 0;
            });
      },
      cost);
  return total;
}

std::vector<int> FindHamiltonCycle(const SampleGraph& pattern) {
  const int p = pattern.num_vars();
  if (p < 3) return {};
  std::vector<int> path = {0};
  std::vector<bool> used(p, false);
  used[0] = true;
  std::vector<int> result;
  // Depth-first search for a Hamilton cycle anchored at variable 0.
  std::function<bool()> dfs = [&]() -> bool {
    if (static_cast<int>(path.size()) == p) {
      if (pattern.HasEdge(path.back(), 0)) {
        result = path;
        return true;
      }
      return false;
    }
    for (int w : pattern.Neighbors(path.back())) {
      if (used[w]) continue;
      used[w] = true;
      path.push_back(w);
      if (dfs()) return true;
      path.pop_back();
      used[w] = false;
    }
    return false;
  };
  dfs();
  return result;
}

uint64_t EnumerateHamiltonianOddPattern(const SampleGraph& pattern,
                                        const Graph& graph,
                                        const NodeOrder& order,
                                        InstanceSink* sink,
                                        CostCounter* cost) {
  const int p = pattern.num_vars();
  const std::vector<int> ham = FindHamiltonCycle(pattern);
  if (ham.empty() || p % 2 == 0) return 0;
  const auto& automorphisms = pattern.Automorphisms();

  uint64_t found = 0;
  CostCounter dummy;
  CostCounter* const c = cost != nullptr ? cost : &dummy;
  auto handle_cycle = [&](const std::vector<NodeId>& cycle) {
    // Try all 2p ways to wrap the pattern's Hamilton cycle around the found
    // data cycle; check the chords; dedup by canonical embedding.
    std::vector<NodeId> assignment(p);
    for (int start = 0; start < p; ++start) {
      for (int direction : {1, -1}) {
        for (int i = 0; i < p; ++i) {
          const int pos = ((start + direction * i) % p + p) % p;
          assignment[ham[i]] = cycle[pos];
        }
        ++c->candidates;
        // All pattern edges (cycle edges hold by construction; chords need
        // checking) must exist.
        bool ok = true;
        for (const auto& [a, b] : pattern.edges()) {
          ++c->index_probes;
          if (!graph.HasEdge(assignment[a], assignment[b])) {
            ok = false;
            break;
          }
        }
        if (!ok) continue;
        // Canonical-embedding dedup (Lemma 6.1's lexicographic rule).
        if (!IsCanonicalEmbedding(assignment, automorphisms)) continue;
        ++found;
        ++c->outputs;
        if (sink != nullptr) sink->Emit(assignment);
      }
    }
  };
  EnumerateOddCycles(graph, order, (p - 1) / 2, handle_cycle, cost);
  return found;
}

}  // namespace smr
