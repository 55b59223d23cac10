#include "serial/matcher.h"

#include <vector>

namespace smr {

namespace {

/// Undirected adjacency: the candidate must be a neighbor of every bound
/// pattern neighbor's data node, and the row says so exactly.
struct UndirectedRows {
  const Graph& graph;

  static constexpr bool kRowIsEdgeTest = true;
  NodeId num_nodes() const { return graph.num_nodes(); }
  std::span<const NodeId> Row(PatternLink, NodeId at) const {
    return graph.Neighbors(at);
  }
  bool Holds(PatternLink, NodeId candidate, NodeId at) const {
    return graph.HasEdge(candidate, at);
  }
};

}  // namespace

uint64_t EnumerateInstances(const SampleGraph& pattern, const Graph& graph,
                            InstanceSink* sink, CostCounter* cost) {
  return EnumerateInstances(pattern, graph, ConnectedVariableOrder(pattern),
                            sink, cost);
}

uint64_t EnumerateInstances(const SampleGraph& pattern, const Graph& graph,
                            std::span<const int> order, InstanceSink* sink,
                            CostCounter* cost) {
  const int p = pattern.num_vars();
  if (p == 0) return 0;
  MatchPlan plan{std::vector<int>(order.begin(), order.end()), {},
                 pattern.Automorphisms()};
  plan.links.resize(p);
  for (int v = 0; v < p; ++v) {
    for (int w : pattern.Neighbors(v)) plan.links[v].push_back({w});
  }
  return MatchPattern(plan, UndirectedRows{graph}, sink, cost);
}

uint64_t CountInstances(const SampleGraph& pattern, const Graph& graph) {
  return EnumerateInstances(pattern, graph, nullptr, nullptr);
}

}  // namespace smr
