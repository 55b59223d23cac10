#include "labeled/labeled_graph.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace smr {

namespace {

std::vector<Edge> SkeletonEdges(const std::vector<LabeledEdge>& edges) {
  std::vector<Edge> result;
  result.reserve(edges.size());
  for (const auto& e : edges) result.emplace_back(e.u, e.v);
  return result;
}

}  // namespace

LabeledGraph::LabeledGraph(NodeId num_nodes, std::vector<LabeledEdge> edges)
    : skeleton_(num_nodes, SkeletonEdges(edges)) {
  for (auto& e : edges) {
    if (e.u > e.v) std::swap(e.u, e.v);
  }
  std::sort(edges.begin(), edges.end(), [](const auto& a, const auto& b) {
    return std::make_pair(a.u, a.v) < std::make_pair(b.u, b.v);
  });
  for (size_t i = 1; i < edges.size(); ++i) {
    if (edges[i - 1].u == edges[i].u && edges[i - 1].v == edges[i].v &&
        edges[i - 1].label != edges[i].label) {
      throw std::invalid_argument("conflicting labels on one edge");
    }
  }
  edges.erase(std::unique(edges.begin(), edges.end(),
                          [](const auto& a, const auto& b) {
                            return a.u == b.u && a.v == b.v;
                          }),
              edges.end());
  if (edges.size() != skeleton_.num_edges()) {
    throw std::logic_error("label/skeleton edge mismatch");
  }
  edges_ = std::move(edges);
}

std::optional<EdgeLabel> LabeledGraph::LabelOf(NodeId u, NodeId v) const {
  if (u > v) std::swap(u, v);
  const auto it = std::lower_bound(
      edges_.begin(), edges_.end(), std::make_pair(u, v),
      [](const LabeledEdge& e, const std::pair<NodeId, NodeId>& key) {
        return std::make_pair(e.u, e.v) < key;
      });
  if (it == edges_.end() || it->u != u || it->v != v) return std::nullopt;
  return it->label;
}

LabeledSampleGraph::LabeledSampleGraph(
    int num_vars, std::vector<std::tuple<int, int, EdgeLabel>> edges)
    : skeleton_(num_vars,
                [&edges] {
                  std::vector<std::pair<int, int>> skeleton;
                  skeleton.reserve(edges.size());
                  for (const auto& [a, b, label] : edges) {
                    skeleton.emplace_back(a, b);
                  }
                  return skeleton;
                }()) {
  labels_.resize(skeleton_.edges().size());
  for (const auto& [a, b, label] : edges) {
    const std::pair<int, int> key{std::min(a, b), std::max(a, b)};
    const auto it = std::lower_bound(skeleton_.edges().begin(),
                                     skeleton_.edges().end(), key);
    labels_[it - skeleton_.edges().begin()] = label;
  }
}

EdgeLabel LabeledSampleGraph::LabelOf(int a, int b) const {
  const std::pair<int, int> key{std::min(a, b), std::max(a, b)};
  const auto it = std::lower_bound(skeleton_.edges().begin(),
                                   skeleton_.edges().end(), key);
  if (it == skeleton_.edges().end() || *it != key) {
    throw std::invalid_argument("no such pattern edge");
  }
  return labels_[it - skeleton_.edges().begin()];
}

const std::vector<std::vector<int>>& LabeledSampleGraph::Automorphisms()
    const {
  if (!automorphisms_.empty()) return automorphisms_;
  for (const auto& mu : skeleton_.Automorphisms()) {
    bool preserves_labels = true;
    for (size_t i = 0; i < skeleton_.edges().size(); ++i) {
      const auto& [a, b] = skeleton_.edges()[i];
      if (LabelOf(mu[a], mu[b]) != labels_[i]) {
        preserves_labels = false;
        break;
      }
    }
    if (preserves_labels) automorphisms_.push_back(mu);
  }
  return automorphisms_;
}

std::string LabeledSampleGraph::ToString() const {
  std::ostringstream os;
  os << "LabeledSampleGraph(p=" << skeleton_.num_vars() << ", edges={";
  for (size_t i = 0; i < skeleton_.edges().size(); ++i) {
    if (i > 0) os << ", ";
    os << skeleton_.edges()[i].first << "-" << skeleton_.edges()[i].second
       << ":" << static_cast<int>(labels_[i]);
  }
  os << "})";
  return os.str();
}

}  // namespace smr
