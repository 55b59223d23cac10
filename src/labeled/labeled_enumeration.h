#ifndef SMR_LABELED_LABELED_ENUMERATION_H_
#define SMR_LABELED_LABELED_ENUMERATION_H_

#include <cstdint>
#include <vector>

#include "cq/conjunctive_query.h"
#include "labeled/labeled_graph.h"
#include "mapreduce/execution_policy.h"
#include "mapreduce/instance_sink.h"
#include "mapreduce/job.h"
#include "mapreduce/metrics.h"
#include "util/cost_model.h"

namespace smr {

/// Labeled-subgraph enumeration (the extension sketched in Sections 1.1 and
/// 8 of the paper): find every instance of a labeled sample graph in a
/// labeled data graph exactly once. The machinery is the unlabeled one with
/// (a) the automorphism group replaced by the label-preserving subgroup and
/// (b) a label selection at the end of the reduce function.

/// A CQ whose subgoals additionally require edge labels. The structural CQ
/// runs on the data graph's skeleton; `labels` is aligned with
/// cq.subgoals().
struct LabeledCq {
  ConjunctiveQuery cq;
  std::vector<EdgeLabel> labels;
};

/// Section 3 generation with the label-preserving quotient: one CQ per
/// class of Sym(p) / LabelAut(S), merged by (orientation, labels). Since
/// label-preserving groups are subgroups of the structural ones, the CQ
/// count is >= the unlabeled count (Section 8's remark).
std::vector<LabeledCq> LabeledCqsForSample(const LabeledSampleGraph& pattern);

/// Ground-truth serial enumeration: the matcher (serial/matcher.h) on the
/// skeleton's rows with a label test, lexicographic-first over the
/// label-preserving automorphisms.
uint64_t EnumerateLabeledInstances(const LabeledSampleGraph& pattern,
                                   const LabeledGraph& graph,
                                   InstanceSink* sink, CostCounter* cost);

/// Single-round map-reduce enumeration on the skeleton under the Section
/// 4.5 BucketScheme (core/bucket_oriented.h). Labels travel with the edges
/// and are checked at the reducers. Every labeled instance is emitted
/// exactly once.
MapReduceMetrics LabeledBucketOrientedEnumerate(
    const LabeledSampleGraph& pattern, const LabeledGraph& graph, int buckets,
    uint64_t seed, InstanceSink* sink,
    const ExecutionPolicy& policy = ExecutionPolicy::Serial(),
    JobMetrics* job = nullptr);

}  // namespace smr

#endif  // SMR_LABELED_LABELED_ENUMERATION_H_
