#ifndef SMR_DIRECTED_DIRECTED_ENUMERATION_H_
#define SMR_DIRECTED_DIRECTED_ENUMERATION_H_

#include <cstdint>

#include "directed/directed_graph.h"
#include "mapreduce/execution_policy.h"
#include "mapreduce/instance_sink.h"
#include "mapreduce/job.h"
#include "mapreduce/metrics.h"
#include "util/cost_model.h"

namespace smr {

/// Directed-graph enumeration (Section 8, second bullet). The relation
/// A(X, Y) stores each arc once — direction replaces the node-order
/// canonicalization of the undirected case — while duplicate instances
/// under directed automorphisms are suppressed with the
/// lexicographically-first-embedding rule (Lemma 6.1's device).

/// Ground-truth serial enumeration of the directed pattern's instances;
/// each instance (arc-subgraph) exactly once.
uint64_t EnumerateDirectedInstances(const DirectedSampleGraph& pattern,
                                    const DirectedGraph& graph,
                                    InstanceSink* sink, CostCounter* cost);

/// Single-round map-reduce enumeration under the Section 4.5 BucketScheme
/// (core/bucket_oriented.h), with arcs in place of edges. Reducers run the
/// matcher (serial/matcher.h) on their local arcs. Throws
/// std::invalid_argument for a pattern variable in no arc.
MapReduceMetrics DirectedBucketOrientedEnumerate(
    const DirectedSampleGraph& pattern, const DirectedGraph& graph,
    int buckets, uint64_t seed, InstanceSink* sink,
    const ExecutionPolicy& policy = ExecutionPolicy::Serial(),
    JobMetrics* job = nullptr);

}  // namespace smr

#endif  // SMR_DIRECTED_DIRECTED_ENUMERATION_H_
