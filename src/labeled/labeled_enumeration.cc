#include "labeled/labeled_enumeration.h"

#include <span>

#include "core/bucket_oriented.h"
#include "cq/cq_evaluator.h"
#include "cq/cq_generation.h"
#include "graph/node_order.h"
#include "mapreduce/job.h"
#include "serial/matcher.h"

namespace smr {

namespace {

/// Labeled adjacency: the skeleton row holds every candidate adjacent to
/// the bound neighbor, but only the edge test checks the link's label (the
/// tag), so anchors are tested too.
struct LabeledRows {
  const LabeledGraph& graph;

  static constexpr bool kRowIsEdgeTest = false;
  NodeId num_nodes() const { return graph.num_nodes(); }
  std::span<const NodeId> Row(PatternLink, NodeId at) const {
    return graph.skeleton().Neighbors(at);
  }
  bool Holds(PatternLink link, NodeId candidate, NodeId at) const {
    return graph.HasLabeledEdge(candidate, at,
                                static_cast<EdgeLabel>(link.tag));
  }
};

}  // namespace

std::vector<LabeledCq> LabeledCqsForSample(const LabeledSampleGraph& pattern) {
  // Labels are a function of the unordered pattern edge, so CQs with equal
  // subgoals always agree on labels: merge as unlabeled, then attach them.
  std::vector<LabeledCq> labeled;
  for (ConjunctiveQuery& cq : MergeByOrientation(
           GenerateOrderCqs(pattern.skeleton(), pattern.Automorphisms()))) {
    std::vector<EdgeLabel> labels;
    labels.reserve(cq.subgoals().size());
    for (const auto& [a, b] : cq.subgoals()) {
      labels.push_back(pattern.LabelOf(a, b));
    }
    labeled.push_back(LabeledCq{std::move(cq), std::move(labels)});
  }
  return labeled;
}

uint64_t EnumerateLabeledInstances(const LabeledSampleGraph& pattern,
                                   const LabeledGraph& graph,
                                   InstanceSink* sink, CostCounter* cost) {
  const SampleGraph& skeleton = pattern.skeleton();
  MatchPlan plan{ConnectedVariableOrder(skeleton), {}, pattern.Automorphisms()};
  plan.links.resize(skeleton.num_vars());
  for (int v = 0; v < skeleton.num_vars(); ++v) {
    for (int w : skeleton.Neighbors(v)) {
      plan.links[v].push_back({w, pattern.LabelOf(v, w)});
    }
  }
  return MatchPattern(plan, LabeledRows{graph}, sink, cost);
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

  std::vector<ConjunctiveQuery> structural;
  for (const LabeledCq& lcq : cqs) structural.push_back(lcq.cq);
  const CqReducer reducer(structural, &order);

  auto reduce_fn = [&](uint64_t key, std::span<const LabeledEdge> values,
                       ReduceContext* context) {
    std::vector<Edge> skeleton_edges;
    skeleton_edges.reserve(values.size());
    for (const auto& e : values) skeleton_edges.emplace_back(e.u, e.v);
    const CqReducer::Local local = reducer.Build(skeleton_edges);
    context->cost->edges_scanned += values.size();

    // The structural CQ runs on the skeleton; the label selection happens
    // on the solution's global ids.
    const LabeledCq* current = nullptr;
    ReducerSink owned(local.local_to_global(), context, scheme.OwnershipOf(key),
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
    for (size_t i = 0; i < cqs.size(); ++i) {
      current = &cqs[i];
      local.Evaluate(i, &owned, context->cost);
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
