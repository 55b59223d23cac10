#ifndef SMR_CORE_TWO_PATH_ROUNDS_H_
#define SMR_CORE_TWO_PATH_ROUNDS_H_

#include <array>
#include <span>
#include <utility>

#include "graph/graph.h"
#include "graph/node_order.h"
#include "mapreduce/job.h"

namespace smr {
namespace two_path_rounds {

/// The first two rounds shared by the two-round pipelines built on [19]'s
/// node-iterator: TwoRoundTriangles (enumeration) and TriangleCensus
/// (counting). Internal to src/core — the specs capture `order` by
/// reference, so they must not outlive the caller's NodeOrder.

/// Round-2 value: either a 2-path u - mid - w (is_edge 0) or the closing
/// edge {u, w} (is_edge 1, mid 0). Keyed by u * n + w with u < w by order
/// rank — dense in the declared key space n^2, which the engine's
/// partitioned shuffle splits into key ranges (the old PackPair key,
/// u * 2^32 + w, put nearly every key beyond n^2 and would have collapsed
/// the shuffle into its last partition).
struct PathOrEdge {
  NodeId mid = 0;
  uint8_t is_edge = 0;
};

/// Round 1: group edges by their order-minimum endpoint. The reducer for
/// node v records every oriented edge (v, w) it holds as the closing-edge
/// record (v, v, w) — tagged by mid == u, which no 2-path has — and every
/// properly ordered 2-path u - v - w (u < w by order rank) as (u, v, w).
/// Round 2 maps this one buffer.
inline RoundSpec<Edge, NodeId> TwoPathsRound(const Graph& graph,
                                             const NodeOrder& order) {
  return RoundSpec<Edge, NodeId>{
      "two-paths",
      [&order](const Edge& edge, Emitter<NodeId>* out) {
        const Edge oriented = order.Orient(edge);
        // Key: the smaller endpoint; value: the larger.
        out->Emit(oriented.first, oriented.second);
      },
      [&order](uint64_t key, std::span<const NodeId> values,
               ReduceContext* context) {
        const NodeId mid = static_cast<NodeId>(key);
        context->cost->edges_scanned += values.size();
        for (size_t i = 0; i < values.size(); ++i) {
          const std::array<NodeId, 3> edge = {mid, mid, values[i]};
          context->EmitRecord(edge);
          for (size_t j = i + 1; j < values.size(); ++j) {
            ++context->cost->candidates;
            NodeId u = values[i];
            NodeId w = values[j];
            if (!order.Less(u, w)) std::swap(u, w);
            const std::array<NodeId, 3> path = {u, mid, w};
            context->EmitRecord(path);
          }
        }
      },
      graph.num_nodes(),
      {},
      /*emissions_per_input=*/1.0};  // Exactly one pair per edge.
}

/// Round 2: join 2-paths with closing edges on the endpoint pair, mapping
/// round 1's records in place; a reducer seeing both emits each triangle
/// (mid, u, w), mid the order-minimum, via EmitInstance — and, when
/// `record_triangles` is set, also as a record for a downstream counting
/// round. The closing edges interleave with the 2-paths but never reorder
/// them, so triangles come out in the order of the 2-paths.
inline RoundSpec<Record<3>, PathOrEdge> JoinRound(const Graph& graph,
                                                  bool record_triangles) {
  const uint64_t n = graph.num_nodes();
  return RoundSpec<Record<3>, PathOrEdge>{
      "join",
      [n](const Record<3>& record, Emitter<PathOrEdge>* out) {
        const bool is_edge = record[0] == record[1];
        out->Emit(static_cast<uint64_t>(record[0]) * n + record[2],
                  PathOrEdge{is_edge ? 0 : record[1],
                             static_cast<uint8_t>(is_edge)});
      },
      [n, record_triangles](uint64_t key, std::span<const PathOrEdge> values,
                            ReduceContext* context) {
        const NodeId u = static_cast<NodeId>(key / n);
        const NodeId w = static_cast<NodeId>(key % n);
        bool closing_edge = false;
        for (const PathOrEdge& value : values) {
          ++context->cost->edges_scanned;
          if (value.is_edge) closing_edge = true;
        }
        if (!closing_edge) return;
        for (const PathOrEdge& value : values) {
          if (value.is_edge) continue;
          ++context->cost->candidates;
          // Triangle (mid, u, w) with mid the order-minimum: emit sorted.
          const std::array<NodeId, 3> assignment = {value.mid, u, w};
          context->EmitInstance(assignment);
          if (record_triangles) context->EmitRecord(assignment);
        }
      },
      n * n,
      {},
      /*emissions_per_input=*/1.0};  // Exactly one pair per record.
}

}  // namespace two_path_rounds
}  // namespace smr

#endif  // SMR_CORE_TWO_PATH_ROUNDS_H_
