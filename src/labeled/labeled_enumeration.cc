#include "labeled/labeled_enumeration.h"

#include <algorithm>
#include <functional>
#include <map>

#include "core/bucket_oriented.h"
#include "cq/cq_evaluator.h"
#include "graph/node_order.h"
#include "graph/subgraph.h"
#include "mapreduce/job.h"
#include "serial/matcher.h"
#include "util/combinatorics.h"

namespace smr {

std::vector<LabeledCq> LabeledCqsForSample(const LabeledSampleGraph& pattern) {
  const auto& automorphisms = pattern.Automorphisms();
  const SampleGraph& skeleton = pattern.skeleton();
  // Quotient representatives under the label-preserving group.
  std::vector<ConjunctiveQuery> raw;
  std::vector<int> relabeled(skeleton.num_vars());
  for (const auto& order : AllPermutations(skeleton.num_vars())) {
    bool smallest = true;
    for (const auto& mu : automorphisms) {
      for (size_t i = 0; i < order.size(); ++i) relabeled[i] = mu[order[i]];
      if (std::lexicographical_compare(relabeled.begin(), relabeled.end(),
                                       order.begin(), order.end())) {
        smallest = false;
        break;
      }
    }
    if (smallest) raw.push_back(ConjunctiveQuery::ForOrder(skeleton, order));
  }
  // Merge by orientation. Labels are a function of the unordered pattern
  // edge, so CQs with equal subgoals always agree on labels.
  std::map<std::vector<std::pair<int, int>>, size_t> index_of;
  std::vector<LabeledCq> merged;
  for (const ConjunctiveQuery& cq : raw) {
    auto [it, inserted] = index_of.emplace(cq.subgoals(), merged.size());
    if (inserted) {
      std::vector<EdgeLabel> labels;
      labels.reserve(cq.subgoals().size());
      for (const auto& [a, b] : cq.subgoals()) {
        labels.push_back(pattern.LabelOf(a, b));
      }
      merged.push_back(LabeledCq{cq, std::move(labels)});
    } else {
      merged[it->second].cq.MergeCondition(cq);
    }
  }
  return merged;
}

uint64_t EnumerateLabeledInstances(const LabeledSampleGraph& pattern,
                                   const LabeledGraph& graph,
                                   InstanceSink* sink, CostCounter* cost) {
  const SampleGraph& skeleton = pattern.skeleton();
  const int p = skeleton.num_vars();
  const auto& automorphisms = pattern.Automorphisms();

  std::vector<NodeId> assignment(p, 0);
  std::vector<bool> bound(p, false);
  uint64_t found = 0;

  const std::vector<int> var_order = ConnectedVariableOrder(skeleton);

  std::function<void(size_t)> match = [&](size_t depth) {
    if (depth == var_order.size()) {
      if (!IsCanonicalEmbedding(assignment, automorphisms)) return;
      ++found;
      if (cost != nullptr) ++cost->outputs;
      if (sink != nullptr) sink->Emit(assignment);
      return;
    }
    const int var = var_order[depth];
    int anchor = -1;
    for (int nbr : skeleton.Neighbors(var)) {
      if (bound[nbr]) {
        anchor = nbr;
        break;
      }
    }
    auto try_node = [&](NodeId node) {
      if (cost != nullptr) ++cost->candidates;
      for (int x = 0; x < p; ++x) {
        if (bound[x] && assignment[x] == node) return;
      }
      for (int nbr : skeleton.Neighbors(var)) {
        if (!bound[nbr]) continue;
        if (cost != nullptr) ++cost->index_probes;
        if (!graph.HasLabeledEdge(node, assignment[nbr],
                                  pattern.LabelOf(var, nbr))) {
          return;
        }
      }
      assignment[var] = node;
      bound[var] = true;
      match(depth + 1);
      bound[var] = false;
    };
    if (anchor >= 0) {
      for (NodeId node : graph.skeleton().Neighbors(assignment[anchor])) {
        try_node(node);
      }
    } else {
      for (NodeId node = 0; node < graph.num_nodes(); ++node) {
        try_node(node);
      }
    }
  };
  match(0);
  return found;
}

MapReduceMetrics LabeledBucketOrientedEnumerate(
    const LabeledSampleGraph& pattern, const LabeledGraph& graph, int buckets,
    uint64_t seed, InstanceSink* sink, const ExecutionPolicy& policy,
    JobMetrics* job) {
  const BucketScheme scheme(buckets, pattern.num_vars(), seed);
  const NodeOrder order =
      NodeOrder::ByBucket(graph.num_nodes(), scheme.hasher());
  const auto cqs = LabeledCqsForSample(pattern);

  auto map_fn = [&](const LabeledEdge& edge, Emitter<LabeledEdge>* out) {
    const Edge oriented = order.Orient({edge.u, edge.v});
    const LabeledEdge value{oriented.first, oriented.second, edge.label};
    scheme.ForEachReducer(oriented.first, oriented.second,
                          [&](uint64_t key) { out->Emit(key, value); });
  };

  auto reduce_fn = [&](uint64_t key, std::span<const LabeledEdge> values,
                       ReduceContext* context) {
    std::vector<Edge> skeleton_edges;
    skeleton_edges.reserve(values.size());
    for (const auto& e : values) skeleton_edges.emplace_back(e.u, e.v);
    const Subgraph local = BuildSubgraph(skeleton_edges);
    context->cost->edges_scanned += values.size();
    const NodeOrder local_order =
        NodeOrder::Project(order, local.local_to_global);
    const CqEvaluator evaluator(local.graph, local_order);

    // The structural CQ runs on the skeleton; the label selection happens
    // on the solution's global ids.
    const LabeledCq* current = nullptr;
    ReducerSink owned(local.local_to_global, context, scheme.OwnershipOf(key),
                      [&](std::span<const NodeId> global) {
                        const auto& subgoals = current->cq.subgoals();
                        for (size_t s = 0; s < subgoals.size(); ++s) {
                          if (!graph.HasLabeledEdge(global[subgoals[s].first],
                                                    global[subgoals[s].second],
                                                    current->labels[s])) {
                            return false;
                          }
                        }
                        return true;
                      });
    for (const LabeledCq& lcq : cqs) {
      current = &lcq;
      evaluator.Evaluate(lcq.cq, &owned, context->cost);
    }
  };

  JobDriver driver(policy);
  const RoundSpec<LabeledEdge, LabeledEdge> round{
      "labeled-bucket", map_fn, reduce_fn, scheme.key_space(), {},
      scheme.replication()};
  const MapReduceMetrics metrics =
      driver.RunRound(round, graph.labeled_edges(), sink);
  if (job != nullptr) *job = driver.job();
  return metrics;
}

}  // namespace smr
