#include "directed/directed_graph.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "graph/intersect.h"

namespace smr {

DirectedGraph::DirectedGraph(NodeId num_nodes, std::vector<Arc> arcs)
    : num_nodes_(num_nodes) {
  for (const Arc& a : arcs) {
    if (a.first == a.second) throw std::invalid_argument("self-loop");
    if (a.first >= num_nodes || a.second >= num_nodes) {
      throw std::invalid_argument("arc endpoint out of range");
    }
  }
  std::sort(arcs.begin(), arcs.end());
  arcs.erase(std::unique(arcs.begin(), arcs.end()), arcs.end());
  arcs_ = std::move(arcs);

  std::vector<size_t> out_degree(num_nodes_, 0);
  std::vector<size_t> in_degree(num_nodes_, 0);
  for (const Arc& a : arcs_) {
    ++out_degree[a.first];
    ++in_degree[a.second];
  }
  out_offsets_.assign(size_t{num_nodes_} + 1, 0);
  in_offsets_.assign(size_t{num_nodes_} + 1, 0);
  for (NodeId u = 0; u < num_nodes_; ++u) {
    out_offsets_[u + 1] = out_offsets_[u] + out_degree[u];
    in_offsets_[u + 1] = in_offsets_[u] + in_degree[u];
  }
  out_nodes_.resize(arcs_.size());
  in_nodes_.resize(arcs_.size());
  std::vector<size_t> out_cursor(out_offsets_.begin(),
                                 out_offsets_.begin() + num_nodes_);
  std::vector<size_t> in_cursor(in_offsets_.begin(),
                                in_offsets_.begin() + num_nodes_);
  for (const Arc& a : arcs_) {
    out_nodes_[out_cursor[a.first]++] = a.second;
    in_nodes_[in_cursor[a.second]++] = a.first;
  }
}

bool DirectedGraph::HasArc(NodeId u, NodeId v) const {
  if (u == v) return false;
  const std::span<const NodeId> out = Successors(u);
  const std::span<const NodeId> in = Predecessors(v);
  return out.size() <= in.size() ? ContainsSorted(out, v)
                                 : ContainsSorted(in, u);
}

DirectedSampleGraph::DirectedSampleGraph(
    int num_vars, std::vector<std::pair<int, int>> arcs)
    : num_vars_(num_vars) {
  for (const auto& [a, b] : arcs) {
    if (a == b || a < 0 || b < 0 || a >= num_vars || b >= num_vars) {
      throw std::invalid_argument("bad pattern arc");
    }
  }
  std::sort(arcs.begin(), arcs.end());
  arcs.erase(std::unique(arcs.begin(), arcs.end()), arcs.end());
  arcs_ = std::move(arcs);
  out_.assign(num_vars_, {});
  in_.assign(num_vars_, {});
  for (const auto& [a, b] : arcs_) {
    out_[a].push_back(b);
    in_[b].push_back(a);
  }
}

DirectedSampleGraph DirectedSampleGraph::CycleTriad() {
  return DirectedSampleGraph(3, {{0, 1}, {1, 2}, {2, 0}});
}

DirectedSampleGraph DirectedSampleGraph::FeedForwardLoop() {
  return DirectedSampleGraph(3, {{0, 1}, {1, 2}, {0, 2}});
}

DirectedSampleGraph DirectedSampleGraph::DirectedCycle(int p) {
  std::vector<std::pair<int, int>> arcs;
  for (int i = 0; i < p; ++i) arcs.emplace_back(i, (i + 1) % p);
  return DirectedSampleGraph(p, std::move(arcs));
}

DirectedSampleGraph DirectedSampleGraph::DirectedPath(int p) {
  std::vector<std::pair<int, int>> arcs;
  for (int i = 0; i + 1 < p; ++i) arcs.emplace_back(i, i + 1);
  return DirectedSampleGraph(p, std::move(arcs));
}

bool DirectedSampleGraph::HasArc(int a, int b) const {
  return std::binary_search(arcs_.begin(), arcs_.end(), std::make_pair(a, b));
}

std::vector<int> DirectedSampleGraph::Neighbors(int v) const {
  std::vector<int> result = out_[v];
  result.insert(result.end(), in_[v].begin(), in_[v].end());
  std::sort(result.begin(), result.end());
  result.erase(std::unique(result.begin(), result.end()), result.end());
  return result;
}

const std::vector<std::vector<int>>& DirectedSampleGraph::Automorphisms()
    const {
  if (!automorphisms_.empty()) return automorphisms_;
  for (const auto& mu : AllPermutations(num_vars_)) {
    bool ok = true;
    for (const auto& [a, b] : arcs_) {
      if (!HasArc(mu[a], mu[b])) {
        ok = false;
        break;
      }
    }
    if (ok) automorphisms_.push_back(mu);
  }
  return automorphisms_;
}

std::string DirectedSampleGraph::ToString() const {
  std::ostringstream os;
  os << "DirectedSampleGraph(p=" << num_vars_ << ", arcs={";
  for (size_t i = 0; i < arcs_.size(); ++i) {
    if (i > 0) os << ", ";
    os << arcs_[i].first << "->" << arcs_[i].second;
  }
  os << "})";
  return os.str();
}

}  // namespace smr
