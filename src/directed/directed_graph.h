#ifndef SMR_DIRECTED_DIRECTED_GRAPH_H_
#define SMR_DIRECTED_DIRECTED_GRAPH_H_

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "util/combinatorics.h"

namespace smr {

/// Extension of Section 8, second bullet: directed graphs. An arc (u, v) is
/// an ordered pair; the relation A(X, Y) holds the arcs as-is (no node
/// order needed to canonicalize the relation — direction does that), while
/// the node order is still used to break automorphisms of the sample graph.
using Arc = std::pair<NodeId, NodeId>;

/// Immutable directed simple graph (no self-loops; at most one arc per
/// ordered pair; antiparallel arcs allowed).
class DirectedGraph {
 public:
  DirectedGraph(NodeId num_nodes, std::vector<Arc> arcs);

  NodeId num_nodes() const { return num_nodes_; }
  size_t num_arcs() const { return arcs_.size(); }
  const std::vector<Arc>& arcs() const { return arcs_; }

  std::span<const NodeId> Successors(NodeId u) const {
    return {out_nodes_.data() + out_offsets_[u],
            out_nodes_.data() + out_offsets_[u + 1]};
  }
  std::span<const NodeId> Predecessors(NodeId u) const {
    return {in_nodes_.data() + in_offsets_[u],
            in_nodes_.data() + in_offsets_[u + 1]};
  }

  /// Arc test over the shorter of u's sorted successor row and v's sorted
  /// predecessor row, with the membership kernel of graph/intersect.h — the
  /// probe Graph::HasEdge makes; no arc index is stored.
  bool HasArc(NodeId u, NodeId v) const;

 private:
  NodeId num_nodes_;
  std::vector<Arc> arcs_;
  std::vector<size_t> out_offsets_;
  std::vector<NodeId> out_nodes_;
  std::vector<size_t> in_offsets_;
  std::vector<NodeId> in_nodes_;
};

/// A directed sample graph on variables 0..p-1.
class DirectedSampleGraph {
 public:
  DirectedSampleGraph(int num_vars, std::vector<std::pair<int, int>> arcs);

  /// Directed triangle (3-cycle) and the "feed-forward loop" motif, the
  /// two classic directed 3-node motifs.
  static DirectedSampleGraph CycleTriad();
  static DirectedSampleGraph FeedForwardLoop();
  static DirectedSampleGraph DirectedCycle(int p);
  static DirectedSampleGraph DirectedPath(int p);

  int num_vars() const { return num_vars_; }
  const std::vector<std::pair<int, int>>& arcs() const { return arcs_; }
  bool HasArc(int a, int b) const;

  /// Out- and in-neighborhoods of a variable.
  const std::vector<int>& Successors(int v) const { return out_[v]; }
  const std::vector<int>& Predecessors(int v) const { return in_[v]; }
  /// All variables adjacent to v in either direction.
  std::vector<int> Neighbors(int v) const;

  /// Automorphisms preserving arc direction — typically a smaller group
  /// than the undirected skeleton's (Section 8's remark applies here too).
  const std::vector<std::vector<int>>& Automorphisms() const;

  std::string ToString() const;

 private:
  int num_vars_;
  std::vector<std::pair<int, int>> arcs_;
  std::vector<std::vector<int>> out_;
  std::vector<std::vector<int>> in_;
  mutable std::vector<std::vector<int>> automorphisms_;
};

}  // namespace smr

#endif  // SMR_DIRECTED_DIRECTED_GRAPH_H_
