#include "directed/directed_enumeration.h"

#include <span>
#include <vector>

#include "core/bucket_oriented.h"
#include "cq/cq_evaluator.h"
#include "graph/subgraph.h"
#include "mapreduce/job.h"
#include "serial/matcher.h"
#include "util/scratch_pool.h"

namespace smr {

namespace {

// PatternLink tags: which way the pattern arc between the placed variable
// and its bound neighbor points.
constexpr int kArcFromOther = 0;  // other -> placed
constexpr int kArcToOther = 1;    // placed -> other

/// Directed adjacency: a candidate reached through an arc other -> placed
/// must be a successor of the other's data node, through placed -> other a
/// predecessor. A mutual pair of arcs gives the variable two links, so both
/// rows constrain it.
struct DirectedRows {
  const DirectedGraph& graph;

  static constexpr bool kRowIsEdgeTest = true;
  NodeId num_nodes() const { return graph.num_nodes(); }
  std::span<const NodeId> Row(PatternLink link, NodeId at) const {
    return link.tag == kArcFromOther ? graph.Successors(at)
                                     : graph.Predecessors(at);
  }
  bool Holds(PatternLink link, NodeId candidate, NodeId at) const {
    return link.tag == kArcFromOther ? graph.HasArc(at, candidate)
                                     : graph.HasArc(candidate, at);
  }
};

/// The pattern side, shared by the serial path and every reducer (the
/// directed automorphism group is computed here, before any round runs).
MatchPlan DirectedPlan(const DirectedSampleGraph& pattern) {
  MatchPlan plan{ConnectedVariableOrder(pattern), {}, pattern.Automorphisms()};
  plan.links.resize(pattern.num_vars());
  for (const auto& [a, b] : pattern.arcs()) {
    plan.links[b].push_back({a, kArcFromOther});
    plan.links[a].push_back({b, kArcToOther});
  }
  return plan;
}

}  // namespace

uint64_t EnumerateDirectedInstances(const DirectedSampleGraph& pattern,
                                    const DirectedGraph& graph,
                                    InstanceSink* sink, CostCounter* cost) {
  return MatchPattern(DirectedPlan(pattern), DirectedRows{graph}, sink, cost);
}

MapReduceMetrics DirectedBucketOrientedEnumerate(
    const DirectedSampleGraph& pattern, const DirectedGraph& graph,
    int buckets, uint64_t seed, InstanceSink* sink,
    const ExecutionPolicy& policy, JobMetrics* job) {
  RequireEveryVariableOnAnEdge(pattern.num_vars(), pattern.arcs());
  const BucketScheme scheme(buckets, pattern.num_vars(), seed);
  // Built before the round: the reducers share it read-only, and building
  // it fills the pattern's unsynchronized automorphism cache.
  const MatchPlan plan = DirectedPlan(pattern);

  // Arcs are shipped as they are: direction replaces the node order.
  auto map_fn = [&](const Arc& arc, Emitter<Arc>* out) {
    scheme.ForEachReducer(arc.first, arc.second,
                          [&](uint64_t key) { out->Emit(key, arc); });
  };

  // The relabel step of the undirected reducers (CqReducer), by node id.
  ScratchPool<LocalGraph> relabel;
  auto reduce_fn = [&](uint64_t key, std::span<const Arc> values,
                       ReduceContext* context) {
    const ScratchPool<LocalGraph>::Lease scratch = relabel.Acquire();
    scratch->Relabel(values, nullptr);
    context->cost->edges_scanned += values.size();
    const DirectedGraph local(
        scratch->num_nodes(),
        std::vector<Arc>(scratch->local_edges().begin(),
                         scratch->local_edges().end()));
    // Local ids ascend with global ids, so the canonical embedding over
    // local ids is the canonical one over global ids.
    ReducerSink owned(scratch->local_to_global(), context,
                      scheme.OwnershipOf(key));
    MatchPattern(plan, DirectedRows{local}, &owned, context->cost);
  };

  JobDriver driver(policy);
  const RoundSpec<Arc, Arc> round{"directed-bucket", map_fn, reduce_fn,
                                  scheme.key_space(), {},
                                  scheme.replication()};
  const MapReduceMetrics metrics = driver.RunRound(round, graph.arcs(), sink);
  if (job != nullptr) *job = driver.job();
  return metrics;
}

}  // namespace smr
