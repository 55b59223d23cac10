#ifndef SMR_CORE_VARIABLE_ORIENTED_H_
#define SMR_CORE_VARIABLE_ORIENTED_H_

#include <cstdint>
#include <span>
#include <vector>

#include "cq/conjunctive_query.h"
#include "graph/graph.h"
#include "graph/sample_graph.h"
#include "mapreduce/execution_policy.h"
#include "mapreduce/instance_sink.h"
#include "mapreduce/job.h"
#include "mapreduce/metrics.h"

namespace smr {

/// Variable-oriented processing (Section 4.3): the whole CQ group for S is
/// evaluated as if it were a single multiway join. Every variable x gets its
/// own share s_x (number of buckets) and its own hash function; a reducer is
/// a vector of buckets, one per variable, so there are prod(s_x) reducers.
///
/// For each subgoal E(X_a, X_b) appearing in some CQ, every data edge
/// (u, v) (u < v by node id — the order used for relation E here) is sent
/// to the reducers agreeing with h_a(u) and h_b(v) — prod of the other
/// shares of them. Edges of S used in both orientations are therefore
/// shipped twice per reducer slice, which is exactly the coefficient-2
/// terms of CostExpression::ForCqSet.
///
/// Each reducer deduplicates the edges it received and evaluates the CQ set
/// on them through CqReducer, keeping a solution only when every variable x
/// hashes to the reducer's bucket for x: all of that solution's edges were
/// shipped there, so each instance is emitted exactly once.
///
/// `shares[x]` is the integer share of variable x (>= 1). Use
/// OptimizeShares + RoundShares to derive them from a reducer budget k.
/// Throws std::invalid_argument for a pattern variable in no edge.
MapReduceMetrics VariableOrientedEnumerate(
    const SampleGraph& pattern, std::span<const ConjunctiveQuery> cqs,
    const Graph& graph, const std::vector<int>& shares, uint64_t seed,
    InstanceSink* sink,
    const ExecutionPolicy& policy = ExecutionPolicy::Serial(),
    JobMetrics* job = nullptr);

/// Rounds the optimizer's fractional shares to integers >= 1 (nearest
/// integer), the practical step the paper leaves implicit (its examples pick
/// integral share vectors directly, e.g. Example 4.3's (5,10,...,10)).
std::vector<int> RoundShares(const std::vector<double>& shares);

}  // namespace smr

#endif  // SMR_CORE_VARIABLE_ORIENTED_H_
