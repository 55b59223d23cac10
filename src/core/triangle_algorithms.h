#ifndef SMR_CORE_TRIANGLE_ALGORITHMS_H_
#define SMR_CORE_TRIANGLE_ALGORITHMS_H_

#include <cstdint>

#include "graph/graph.h"
#include "mapreduce/execution_policy.h"
#include "mapreduce/instance_sink.h"
#include "mapreduce/job.h"
#include "mapreduce/metrics.h"

namespace smr {

/// The three single-round map-reduce triangle-enumeration algorithms
/// compared in Section 2 (Figs. 1 and 2). All three find every triangle of
/// the data graph exactly once; they differ in reducer space and in
/// communication cost per edge:
///
///   algorithm             reducers       communication / edge
///   Partition [19]        C(b,3)         (3/2)(b-1)(b-2)/b   (~ 3b/2)
///   multiway join (2.2)   b^3            3b - 2
///   ordered buckets (2.3) C(b+2,3)       b
///
/// Every reducer evaluates the triangle CQ through CqReducer and keeps the
/// triangles it owns. Partition and ordered buckets are the p = 3 cases of
/// GeneralizedPartitionEnumerate and BucketOrientedEnumerate
/// (core/bucket_oriented.h), kept under the paper's names.
///
/// Emitted assignments are (X, Y, Z) triples; `sink` may be null to count
/// only. `seed` feeds the bucket hash function.

/// The Partition algorithm of Suri & Vassilvitskii (Section 2.1): nodes are
/// hashed into b >= 3 groups; one reducer per unordered triple of distinct
/// groups. Triangles whose nodes span fewer than three groups are seen by
/// several reducers; each reducer keeps a triangle only when its own triple
/// is the canonical one (CanonicalGroupSubset), the de-duplication the
/// paper notes Partition must pay extra work for.
MapReduceMetrics PartitionTriangles(
    const Graph& graph, int num_groups, uint64_t seed, InstanceSink* sink,
    const ExecutionPolicy& policy = ExecutionPolicy::Serial(),
    JobMetrics* job = nullptr);

/// The multiway-join algorithm of [2] (Section 2.2): the join
/// E(X,Y) |><| E(Y,Z) |><| E(X,Z) with each variable hashed to b buckets;
/// b^3 reducers; each edge is sent to 3b-2 distinct reducers (the overlap
/// of the three roles is deduplicated, as in the paper's footnote 1). The
/// reducer keyed (i, j, k) keeps the triangles x < y < z (by node id) with
/// (h(x), h(y), h(z)) = (i, j, k).
MapReduceMetrics MultiwayJoinTriangles(
    const Graph& graph, int buckets, uint64_t seed, InstanceSink* sink,
    const ExecutionPolicy& policy = ExecutionPolicy::Serial(),
    JobMetrics* job = nullptr);

/// The ordered-bucket algorithm of Section 2.3: nodes ordered by
/// (bucket, id), so only the C(b+2,3) nondecreasing bucket triples need
/// reducers and each edge is replicated exactly b times.
MapReduceMetrics OrderedBucketTriangles(
    const Graph& graph, int buckets, uint64_t seed, InstanceSink* sink,
    const ExecutionPolicy& policy = ExecutionPolicy::Serial(),
    JobMetrics* job = nullptr);

}  // namespace smr

#endif  // SMR_CORE_TRIANGLE_ALGORITHMS_H_
