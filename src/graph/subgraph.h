#ifndef SMR_GRAPH_SUBGRAPH_H_
#define SMR_GRAPH_SUBGRAPH_H_

#include <span>
#include <vector>

#include "graph/graph.h"

namespace smr {

/// A compact relabeled graph built from the edges delivered to one reducer.
/// Reducers must not allocate O(n) state for the whole data graph (there can
/// be ~b^p of them), so local node ids are assigned densely and
/// `local_to_global` maps them back.
struct Subgraph {
  Graph graph;
  std::vector<NodeId> local_to_global;
};

/// Builds the relabeled subgraph spanned by `edges` (global ids).
/// `local_to_global` is sorted ascending, so identity ordering of local ids
/// coincides with identity ordering of global ids.
Subgraph BuildSubgraph(std::span<const Edge> edges);

/// BuildSubgraph's relabeling, for reducers that build another graph type
/// (the directed ones): writes `edges` in dense local ids, in input order,
/// to `local_edges` and returns local_to_global, sorted ascending.
std::vector<NodeId> RelabelDensely(std::span<const Edge> edges,
                                   std::vector<Edge>* local_edges);

}  // namespace smr

#endif  // SMR_GRAPH_SUBGRAPH_H_
