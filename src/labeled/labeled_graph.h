#ifndef SMR_LABELED_LABELED_GRAPH_H_
#define SMR_LABELED_LABELED_GRAPH_H_

#include <cstdint>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "graph/graph.h"
#include "graph/sample_graph.h"

namespace smr {

/// Extension of Section 8 / Section 1.1: edges carry labels ("buys from",
/// "knows", "booked on"...). The paper observes that a labeled graph is a
/// collection of relations, one per label, and that the same CQ machinery
/// applies with smaller automorphism groups (hence more CQs).
///
/// Each unordered node pair carries at most one label; the unlabeled
/// *skeleton* supports all the structural machinery (orders, hashing,
/// adjacency), and labels are checked as an extra selection.
using EdgeLabel = uint8_t;

struct LabeledEdge {
  NodeId u;
  NodeId v;
  EdgeLabel label;
};

class LabeledGraph {
 public:
  LabeledGraph(NodeId num_nodes, std::vector<LabeledEdge> edges);

  const Graph& skeleton() const { return skeleton_; }
  NodeId num_nodes() const { return skeleton_.num_nodes(); }
  size_t num_edges() const { return skeleton_.num_edges(); }

  /// Label of the edge {u, v}, or nullopt if absent.
  std::optional<EdgeLabel> LabelOf(NodeId u, NodeId v) const;

  /// True iff the edge exists and carries `label`.
  bool HasLabeledEdge(NodeId u, NodeId v, EdgeLabel label) const {
    const auto l = LabelOf(u, v);
    return l.has_value() && *l == label;
  }

  /// All edges with their labels, canonical order.
  const std::vector<LabeledEdge>& labeled_edges() const { return edges_; }

 private:
  Graph skeleton_;
  std::vector<LabeledEdge> edges_;
};

/// A sample graph whose edges carry required labels.
class LabeledSampleGraph {
 public:
  LabeledSampleGraph(int num_vars,
                     std::vector<std::tuple<int, int, EdgeLabel>> edges);

  int num_vars() const { return skeleton_.num_vars(); }
  const SampleGraph& skeleton() const { return skeleton_; }

  /// Required label of pattern edge {a, b}.
  EdgeLabel LabelOf(int a, int b) const;

  /// Label-preserving automorphisms — a subgroup of the skeleton's group,
  /// usually smaller (Section 8: "the automorphism groups tend to be
  /// smaller, so the number of CQ's is greater").
  const std::vector<std::vector<int>>& Automorphisms() const;

  std::string ToString() const;

 private:
  SampleGraph skeleton_;
  std::vector<EdgeLabel> labels_;  // aligned with skeleton_.edges()
  mutable std::vector<std::vector<int>> automorphisms_;
};

}  // namespace smr

#endif  // SMR_LABELED_LABELED_GRAPH_H_
