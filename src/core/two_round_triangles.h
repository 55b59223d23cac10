#ifndef SMR_CORE_TWO_ROUND_TRIANGLES_H_
#define SMR_CORE_TWO_ROUND_TRIANGLES_H_

#include <cstdint>

#include "graph/graph.h"
#include "graph/node_order.h"
#include "mapreduce/execution_policy.h"
#include "mapreduce/instance_sink.h"
#include "mapreduce/job.h"
#include "mapreduce/metrics.h"

namespace smr {

/// The *two-round* triangle algorithm of Suri & Vassilvitskii [19]
/// ("MR Node-Iterator"), implemented as the baseline the paper's one-round
/// algorithms are measured against — and as the tree's canonical
/// multi-round JobDriver pipeline:
///
///   Round 1 — key every edge by its order-minimum endpoint; the reducer
///   for node v records every properly ordered 2-path u - v - w, and
///   every oriented edge (v, w) it holds as a closing edge, in one
///   RecordBuffer.
///   Round 2 — maps that buffer in place: keys the 2-paths and the closing
///   edges by the endpoint pair {u, w}; a reducer seeing both a 2-path
///   and the closing edge emits the triangle.
///
/// Communication: 2m in round 1 plus (#2-paths + m) in round 2 — cheaper
/// than one-round replication on sparse graphs, at the price of a second
/// synchronization barrier (the trade-off Section 2 of the paper discusses).
struct TwoRoundMetrics {
  MapReduceMetrics round1;
  MapReduceMetrics round2;
  /// The same two rounds as a JobMetrics summary (round table, totals).
  JobMetrics job;

  uint64_t TotalKeyValuePairs() const {
    return round1.key_value_pairs + round2.key_value_pairs;
  }
};

/// Runs both rounds through one JobDriver; emits each triangle exactly once
/// (as the assignment sorted by `order`). Uses the nondecreasing-degree
/// order so round 1's 2-path count is O(m^{3/2}). Both rounds run under
/// `policy` — round 1's records flow through the engine's deterministic
/// record channel, so results are identical for every policy.
TwoRoundMetrics TwoRoundTriangles(
    const Graph& graph, const NodeOrder& order, InstanceSink* sink,
    const ExecutionPolicy& policy = ExecutionPolicy::Serial());

}  // namespace smr

#endif  // SMR_CORE_TWO_ROUND_TRIANGLES_H_
