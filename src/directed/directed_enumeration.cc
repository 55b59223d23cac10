#include "directed/directed_enumeration.h"

#include <functional>
#include <vector>

#include "core/bucket_oriented.h"
#include "graph/subgraph.h"
#include "mapreduce/job.h"
#include "serial/matcher.h"

namespace smr {

namespace {

/// Backtracking enumeration over a directed graph with canonical-embedding
/// deduplication; shared by the serial path and the reducers.
uint64_t MatchDirected(const DirectedSampleGraph& pattern,
                       const DirectedGraph& graph, InstanceSink* sink,
                       CostCounter* cost) {
  const int p = pattern.num_vars();
  const auto& automorphisms = pattern.Automorphisms();

  // Adjacency in either direction anchors a variable.
  const std::vector<int> var_order = ConnectedVariableOrder(pattern);

  std::vector<NodeId> assignment(p, 0);
  std::vector<bool> bound(p, false);
  uint64_t found = 0;

  std::function<void(size_t)> match = [&](size_t depth) {
    if (depth == var_order.size()) {
      if (!IsCanonicalEmbedding(assignment, automorphisms)) return;
      ++found;
      if (cost != nullptr) ++cost->outputs;
      if (sink != nullptr) sink->Emit(assignment);
      return;
    }
    const int var = var_order[depth];
    // Anchor through an out- or in-neighbor already bound.
    int anchor = -1;
    bool anchor_is_source = false;  // anchor -> var
    for (int w : pattern.Predecessors(var)) {
      if (bound[w]) {
        anchor = w;
        anchor_is_source = true;
        break;
      }
    }
    if (anchor < 0) {
      for (int w : pattern.Successors(var)) {
        if (bound[w]) {
          anchor = w;
          anchor_is_source = false;
          break;
        }
      }
    }
    auto try_node = [&](NodeId node) {
      if (cost != nullptr) ++cost->candidates;
      for (int x = 0; x < p; ++x) {
        if (bound[x] && assignment[x] == node) return;
      }
      for (int w : pattern.Predecessors(var)) {
        if (!bound[w]) continue;
        if (cost != nullptr) ++cost->index_probes;
        if (!graph.HasArc(assignment[w], node)) return;
      }
      for (int w : pattern.Successors(var)) {
        if (!bound[w]) continue;
        if (cost != nullptr) ++cost->index_probes;
        if (!graph.HasArc(node, assignment[w])) return;
      }
      assignment[var] = node;
      bound[var] = true;
      match(depth + 1);
      bound[var] = false;
    };
    if (anchor >= 0) {
      const auto candidates = anchor_is_source
                                  ? graph.Successors(assignment[anchor])
                                  : graph.Predecessors(assignment[anchor]);
      for (NodeId node : candidates) try_node(node);
    } else {
      for (NodeId node = 0; node < graph.num_nodes(); ++node) try_node(node);
    }
  };
  match(0);
  return found;
}

}  // namespace

uint64_t EnumerateDirectedInstances(const DirectedSampleGraph& pattern,
                                    const DirectedGraph& graph,
                                    InstanceSink* sink, CostCounter* cost) {
  return MatchDirected(pattern, graph, sink, cost);
}

MapReduceMetrics DirectedBucketOrientedEnumerate(
    const DirectedSampleGraph& pattern, const DirectedGraph& graph,
    int buckets, uint64_t seed, InstanceSink* sink,
    const ExecutionPolicy& policy, JobMetrics* job) {
  const BucketScheme scheme(buckets, pattern.num_vars(), seed);
  // Materialize the lazily computed automorphism cache before the round:
  // the reducers call MatchDirected concurrently, and the cache fill is not
  // synchronized.
  pattern.Automorphisms();

  // Arcs are shipped as they are: direction replaces the node order.
  auto map_fn = [&](const Arc& arc, Emitter<Arc>* out) {
    scheme.ForEachReducer(arc.first, arc.second,
                          [&](uint64_t key) { out->Emit(key, arc); });
  };

  auto reduce_fn = [&](uint64_t key, std::span<const Arc> values,
                       ReduceContext* context) {
    std::vector<Arc> local_arcs;
    const std::vector<NodeId> local_to_global =
        RelabelDensely(values, &local_arcs);
    context->cost->edges_scanned += values.size();
    const DirectedGraph local(static_cast<NodeId>(local_to_global.size()),
                              std::move(local_arcs));
    // Local ids ascend with global ids, so the canonical embedding over
    // local ids is the canonical one over global ids.
    ReducerSink owned(local_to_global, context, scheme.OwnershipOf(key));
    MatchDirected(pattern, local, &owned, context->cost);
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
