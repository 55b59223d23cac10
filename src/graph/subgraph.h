#ifndef SMR_GRAPH_SUBGRAPH_H_
#define SMR_GRAPH_SUBGRAPH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "graph/node_order.h"

namespace smr {

/// The graph a reducer's kernel reads, built in one pass from the edges
/// delivered to it. Reducers must not allocate O(n) state per reducer
/// (there can be ~b^p of them), so nodes are relabeled densely, and
/// `local_to_global()` maps them back.
///
/// Local ids follow the global order's ranks: local u < local v iff the
/// global node of u precedes that of v. Integer comparison of local ids is
/// therefore the node-order comparison the CQ conditions need, and every
/// row below is ascending in both senses — the input format of the
/// graph/intersect.h kernels.
///
/// One LocalGraph is per-worker scratch, reused for every reducer the
/// worker runs: the relabel map is indexed by global id (O(n) once per
/// worker) and reset through the list of nodes it touched, so each build
/// costs O(local size), plus a sort of the local nodes by rank.
class LocalGraph {
 public:
  /// Relabels `edges` (global ids) only, for kernels that build their own
  /// graph type: fills local_to_global() and local_edges(), the edges in
  /// local ids in input order. Ranks come from `order`; a null order ranks
  /// by node id.
  void Relabel(std::span<const Edge> edges, const NodeOrder* order);

  /// Relabels and builds the successor rows in CSR form — and the
  /// predecessor rows when `with_predecessors`. Each edge must be oriented
  /// by `order` (first precedes second) and appear once: the mappers that
  /// ship reducer inputs guarantee both, so nothing is re-sorted or
  /// deduplicated here beyond ordering each row. The local nodes are the
  /// edges' endpoints, plus every node below `all_nodes`, for a whole graph
  /// whose nodes on no edge must stay placeable.
  void Build(std::span<const Edge> oriented, const NodeOrder* order,
             bool with_predecessors, NodeId all_nodes = 0);

  NodeId num_nodes() const {
    return static_cast<NodeId>(local_to_global_.size());
  }
  /// Edges of the last Build.
  size_t num_edges() const { return num_edges_; }

  /// Global id of each local node, ascending by global rank.
  std::span<const NodeId> local_to_global() const { return local_to_global_; }

  /// The last Relabel input's edges in local ids, in input order.
  std::span<const Edge> local_edges() const { return local_edges_; }

  /// Local successors of u (neighbors ranked after u), ascending.
  std::span<const NodeId> Successors(NodeId u) const {
    return {succ_.data() + succ_offsets_[u],
            succ_.data() + succ_offsets_[u + 1]};
  }

  /// Local predecessors of u, ascending; only after a Build with
  /// predecessors.
  std::span<const NodeId> Predecessors(NodeId u) const {
    return {pred_.data() + pred_offsets_[u],
            pred_.data() + pred_offsets_[u + 1]};
  }

  /// Longest row Build produced, for sizing intersection buffers.
  size_t max_row() const { return max_row_; }

 private:
  static constexpr NodeId kUnmapped = ~NodeId{0};

  // Assigns local ids to the endpoints (and nodes below `all_nodes`) in
  // `slot_`; UnmapNodes resets exactly those slots.
  void MapNodes(std::span<const Edge> edges, const NodeOrder* order,
                NodeId all_nodes);
  void UnmapNodes();
  // Fills `offsets`/`rows` with the CSR of the mapped edges, from first to
  // second endpoint (`reversed`: second to first).
  void BuildRows(std::span<const Edge> oriented, bool reversed,
                 std::vector<uint32_t>* offsets, std::vector<NodeId>* rows);

  std::vector<NodeId> slot_;  // global id -> local id, kUnmapped if none
  std::vector<uint64_t> keys_;
  std::vector<NodeId> local_to_global_;
  std::vector<Edge> local_edges_;
  std::vector<uint32_t> succ_offsets_;
  std::vector<NodeId> succ_;
  std::vector<uint32_t> pred_offsets_;
  std::vector<NodeId> pred_;
  size_t num_edges_ = 0;
  size_t max_row_ = 0;
};

/// A relabeled standalone Graph of the edges delivered to one reducer —
/// LocalGraph's relabel under the identity order, so local ids ascend with
/// global ids. The reducers themselves run on LocalGraph directly; this
/// remains for callers that need a full Graph.
struct Subgraph {
  Graph graph;
  std::vector<NodeId> local_to_global;
};

Subgraph BuildSubgraph(std::span<const Edge> edges);

}  // namespace smr

#endif  // SMR_GRAPH_SUBGRAPH_H_
