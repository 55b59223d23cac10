#include "graph/graph.h"

#include <algorithm>
#include <stdexcept>

#include "graph/intersect.h"

namespace smr {

bool Graph::HasEdge(NodeId u, NodeId v) const {
  if (u == v) return false;
  if (Degree(u) > Degree(v)) std::swap(u, v);
  return ContainsSorted(Neighbors(u), v);
}

Graph::Graph(NodeId num_nodes, std::vector<Edge> edges)
    : num_nodes_(num_nodes) {
  for (Edge& e : edges) {
    if (e.first == e.second) {
      throw std::invalid_argument("self-loop in edge list");
    }
    if (e.first >= num_nodes || e.second >= num_nodes) {
      throw std::invalid_argument("edge endpoint out of range");
    }
    if (e.first > e.second) std::swap(e.first, e.second);
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  edges_ = std::move(edges);

  std::vector<size_t> degree(size_t{num_nodes_} + 1, 0);
  for (const Edge& e : edges_) {
    ++degree[e.first];
    ++degree[e.second];
  }
  offsets_.assign(size_t{num_nodes_} + 2, 0);
  for (NodeId u = 0; u < num_nodes_; ++u) {
    offsets_[u + 1] = offsets_[u] + degree[u];
    max_degree_ = std::max(max_degree_, degree[u]);
  }
  adjacency_.resize(2 * edges_.size());
  std::vector<size_t> cursor(offsets_.begin(), offsets_.begin() + num_nodes_);
  for (const Edge& e : edges_) {
    adjacency_[cursor[e.first]++] = e.second;
    adjacency_[cursor[e.second]++] = e.first;
  }
  for (NodeId u = 0; u < num_nodes_; ++u) {
    std::sort(adjacency_.begin() + static_cast<long>(offsets_[u]),
              adjacency_.begin() + static_cast<long>(offsets_[u + 1]));
  }
}

}  // namespace smr
