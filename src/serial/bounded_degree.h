#ifndef SMR_SERIAL_BOUNDED_DEGREE_H_
#define SMR_SERIAL_BOUNDED_DEGREE_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "graph/sample_graph.h"
#include "mapreduce/instance_sink.h"
#include "util/cost_model.h"

namespace smr {

/// Theorem 7.3: for a connected sample graph S with p >= 2 variables and a
/// data graph of maximum degree Delta, enumerates all instances of S in
/// O(n + m * Delta^{p-2}) time. Works by peeling non-articulation variables
/// one at a time (so the remainder stays connected) and running the matcher
/// (serial/matcher.h) in the reverse order: the first two variables walk
/// every node and its neighbors, i.e. every edge in both orientations, and
/// each peeled variable re-attaches through the neighbor list of an
/// already-bound neighbor, so it has at most Delta candidates. Duplicates
/// from pattern automorphisms are suppressed with the lexicographic-first
/// rule, as in Lemma 6.1.
///
/// Returns the number of instances. Throws std::invalid_argument if S is
/// not connected or has fewer than 2 variables.
uint64_t EnumerateBoundedDegree(const SampleGraph& pattern, const Graph& graph,
                                InstanceSink* sink, CostCounter* cost);

/// The peeling order used by EnumerateBoundedDegree: variables in the order
/// they are *assigned* (so the reverse of the removal order). The first two
/// variables are adjacent in S; every later variable has an earlier
/// neighbor. Exposed for tests.
std::vector<int> BoundedDegreeAssignmentOrder(const SampleGraph& pattern);

}  // namespace smr

#endif  // SMR_SERIAL_BOUNDED_DEGREE_H_
