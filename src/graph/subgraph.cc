#include "graph/subgraph.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace smr {

void LocalGraph::MapNodes(std::span<const Edge> edges, const NodeOrder* order,
                          NodeId all_nodes) {
  // Mark each endpoint the first time it is seen; `local_to_global_`
  // doubles as the touched list.
  local_to_global_.clear();
  auto touch = [this](NodeId global) {
    if (global >= slot_.size()) slot_.resize(size_t{global} + 1, kUnmapped);
    if (slot_[global] == kUnmapped) {
      slot_[global] = 0;
      local_to_global_.push_back(global);
    }
  };
  for (NodeId u = 0; u < all_nodes; ++u) touch(u);
  for (const Edge& e : edges) {
    touch(e.first);
    touch(e.second);
  }
  // Local ids in rank order: sort the touched nodes, not the 2|edges|
  // endpoints.
  if (order == nullptr) {
    std::sort(local_to_global_.begin(), local_to_global_.end());
  } else {
    keys_.clear();
    for (const NodeId global : local_to_global_) {
      keys_.push_back(uint64_t{order->Rank(global)} << 32 | global);
    }
    std::sort(keys_.begin(), keys_.end());
    for (size_t i = 0; i < keys_.size(); ++i) {
      local_to_global_[i] = static_cast<NodeId>(keys_[i]);
    }
  }
  for (size_t i = 0; i < local_to_global_.size(); ++i) {
    slot_[local_to_global_[i]] = static_cast<NodeId>(i);
  }
}

void LocalGraph::UnmapNodes() {
  for (const NodeId global : local_to_global_) slot_[global] = kUnmapped;
}

void LocalGraph::Relabel(std::span<const Edge> edges, const NodeOrder* order) {
  MapNodes(edges, order, 0);
  local_edges_.resize(edges.size());
  for (size_t i = 0; i < edges.size(); ++i) {
    local_edges_[i] = {slot_[edges[i].first], slot_[edges[i].second]};
  }
  UnmapNodes();
}

void LocalGraph::Build(std::span<const Edge> oriented, const NodeOrder* order,
                       bool with_predecessors, NodeId all_nodes) {
  if (oriented.size() > std::numeric_limits<uint32_t>::max()) {
    throw std::length_error("reducer-local graph exceeds 2^32 edges");
  }
  MapNodes(oriented, order, all_nodes);
  num_edges_ = oriented.size();
  max_row_ = 0;
  BuildRows(oriented, false, &succ_offsets_, &succ_);
  pred_offsets_.clear();
  if (with_predecessors) BuildRows(oriented, true, &pred_offsets_, &pred_);
  UnmapNodes();
}

void LocalGraph::BuildRows(std::span<const Edge> oriented, bool reversed,
                           std::vector<uint32_t>* offsets,
                           std::vector<NodeId>* rows) {
  const size_t n = num_nodes();
  // Counting sort by row: count into offsets[u + 2], prefix-sum, then place
  // at offsets[u + 1]++, which leaves offsets[u] at each row's start.
  offsets->assign(n + 2, 0);
  for (const Edge& e : oriented) {
    ++(*offsets)[slot_[reversed ? e.second : e.first] + 2];
  }
  for (size_t u = 2; u < n + 2; ++u) (*offsets)[u] += (*offsets)[u - 1];
  rows->resize(oriented.size());
  for (const Edge& e : oriented) {
    const NodeId from = slot_[reversed ? e.second : e.first];
    (*rows)[(*offsets)[from + 1]++] = slot_[reversed ? e.first : e.second];
  }
  offsets->pop_back();
  for (size_t u = 0; u < n; ++u) {
    const auto begin = rows->begin() + (*offsets)[u];
    const auto end = rows->begin() + (*offsets)[u + 1];
    std::sort(begin, end);
    max_row_ = std::max(max_row_, static_cast<size_t>(end - begin));
  }
}

Subgraph BuildSubgraph(std::span<const Edge> edges) {
  LocalGraph local;
  local.Relabel(edges, nullptr);
  return Subgraph{Graph(local.num_nodes(),
                        std::vector<Edge>(local.local_edges().begin(),
                                          local.local_edges().end())),
                  std::vector<NodeId>(local.local_to_global().begin(),
                                      local.local_to_global().end())};
}

}  // namespace smr
