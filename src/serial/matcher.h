#ifndef SMR_SERIAL_MATCHER_H_
#define SMR_SERIAL_MATCHER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "graph/sample_graph.h"
#include "mapreduce/instance_sink.h"
#include "util/cost_model.h"

namespace smr {

/// Ground-truth serial enumeration of all instances of `pattern` in `graph`,
/// each exactly once. An *instance* is a subgraph of the data graph
/// isomorphic to the sample graph (extra data-graph edges among the chosen
/// nodes are allowed, matching the paper's join semantics). Duplicate
/// embeddings related by an automorphism of the pattern are suppressed by
/// keeping only the lexicographically-least embedding of each orbit — the
/// same device the paper uses in Lemma 6.1 ("lexicographically first among
/// all the ways that this instance can be generated").
///
/// This is a plain backtracking matcher; it is the reference baseline that
/// every map-reduce algorithm and every specialized serial kernel in this
/// library is validated against.
///
/// Returns the number of instances. `sink` and `cost` may be null.
uint64_t EnumerateInstances(const SampleGraph& pattern, const Graph& graph,
                            InstanceSink* sink, CostCounter* cost);

/// Convenience: count only.
uint64_t CountInstances(const SampleGraph& pattern, const Graph& graph);

/// The duplicate filter of every backtracking matcher (this one, the
/// labeled and directed ones, and the specialized serial kernels): true iff
/// `assignment` is lexicographically least among its compositions with
/// the pattern's `automorphisms`, so each orbit of embeddings is kept once.
inline bool IsCanonicalEmbedding(
    std::span<const NodeId> assignment,
    const std::vector<std::vector<int>>& automorphisms) {
  for (const auto& mu : automorphisms) {
    for (size_t x = 0; x < assignment.size(); ++x) {
      const NodeId lhs = assignment[x];
      const NodeId rhs = assignment[mu[x]];
      if (lhs < rhs) break;         // original is smaller: next mu
      if (lhs > rhs) return false;  // a smaller relabeling exists
    }
  }
  return true;
}

/// Assignment order of the labeled and directed matchers: repeatedly the
/// unplaced variable with the most placed neighbors (lowest index on ties),
/// so each variable after the first has a bound neighbor when possible.
/// `Pattern` supplies num_vars() and Neighbors(v).
template <typename Pattern>
std::vector<int> ConnectedVariableOrder(const Pattern& pattern) {
  const int p = pattern.num_vars();
  std::vector<int> order;
  std::vector<bool> placed(p, false);
  for (int step = 0; step < p; ++step) {
    int best = -1;
    int best_bound = -1;
    for (int v = 0; v < p; ++v) {
      if (placed[v]) continue;
      int bound_nbrs = 0;
      for (int w : pattern.Neighbors(v)) {
        if (placed[w]) ++bound_nbrs;
      }
      if (bound_nbrs > best_bound) {
        best = v;
        best_bound = bound_nbrs;
      }
    }
    placed[best] = true;
    order.push_back(best);
  }
  return order;
}

}  // namespace smr

#endif  // SMR_SERIAL_MATCHER_H_
