#include "graph/subgraph.h"

#include <algorithm>

namespace smr {

Subgraph BuildSubgraph(std::span<const Edge> edges) {
  std::vector<Edge> local_edges;
  std::vector<NodeId> local_to_global = RelabelDensely(edges, &local_edges);
  const auto num_nodes = static_cast<NodeId>(local_to_global.size());
  return Subgraph{Graph(num_nodes, std::move(local_edges)),
                  std::move(local_to_global)};
}

std::vector<NodeId> RelabelDensely(std::span<const Edge> edges,
                                   std::vector<Edge>* local_edges) {
  std::vector<NodeId> nodes;
  nodes.reserve(edges.size() * 2);
  for (const Edge& e : edges) {
    nodes.push_back(e.first);
    nodes.push_back(e.second);
  }
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());

  auto local_id = [&nodes](NodeId global) {
    return static_cast<NodeId>(
        std::lower_bound(nodes.begin(), nodes.end(), global) - nodes.begin());
  };
  local_edges->clear();
  local_edges->reserve(edges.size());
  for (const Edge& e : edges) {
    local_edges->emplace_back(local_id(e.first), local_id(e.second));
  }
  return nodes;
}

}  // namespace smr
