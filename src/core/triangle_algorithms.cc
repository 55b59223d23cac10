#include "core/triangle_algorithms.h"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <vector>

#include "core/bucket_oriented.h"
#include "cq/cq_evaluator.h"
#include "cq/cq_generation.h"
#include "graph/sample_graph.h"
#include "mapreduce/job.h"
#include "util/hashing.h"

namespace smr {

MapReduceMetrics MultiwayJoinTriangles(const Graph& graph, int buckets,
                                       uint64_t seed, InstanceSink* sink,
                                       const ExecutionPolicy& policy,
                                       JobMetrics* job) {
  if (buckets < 1) throw std::invalid_argument("buckets must be >= 1");
  const BucketHasher hasher(buckets, seed);
  const uint64_t key_space = static_cast<uint64_t>(buckets) * buckets * buckets;
  auto pack = [buckets](int x, int y, int z) {
    return (static_cast<uint64_t>(x) * buckets + y) * buckets + z;
  };

  // The edge u < v plays E(X,Y), E(Y,Z) and E(X,Z); a reducer reached in
  // several roles gets it once (footnote 1), so 3b-2 distinct keys remain.
  auto map_fn = [&](const Edge& edge, Emitter<Edge>* out) {
    const int hu = hasher.Bucket(edge.first);
    const int hv = hasher.Bucket(edge.second);
    std::vector<uint64_t> keys;
    keys.reserve(3 * buckets);
    for (int w = 0; w < buckets; ++w) {
      keys.push_back(pack(hu, hv, w));
      keys.push_back(pack(w, hu, hv));
      keys.push_back(pack(hu, w, hv));
    }
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    for (uint64_t key : keys) out->Emit(key, edge);
  };

  // Edges travel as stored, smaller id first: the node order is by id. The
  // reducer owns the triangle x < y < z when (h(x), h(y), h(z)) is its key.
  const std::vector<ConjunctiveQuery> cqs =
      CqsForSample(SampleGraph::Triangle());
  const CqReducer reducer(cqs, nullptr);
  auto reduce_fn = [&](uint64_t key, std::span<const Edge> values,
                       ReduceContext* context) {
    const CqReducer::Local local = reducer.Build(values);
    context->cost->edges_scanned += values.size();
    ReducerSink owned(local.local_to_global(), context,
                      [&](std::span<const NodeId> global) {
                        std::array<NodeId, 3> t = {global[0], global[1],
                                                   global[2]};
                        std::sort(t.begin(), t.end());
                        return pack(hasher.Bucket(t[0]), hasher.Bucket(t[1]),
                                    hasher.Bucket(t[2])) == key;
                      });
    local.EvaluateAll(&owned, context->cost);
  };

  JobDriver driver(policy);
  const RoundSpec<Edge, Edge> round{"multiway-join", map_fn, reduce_fn,
                                    key_space, {}};
  const MapReduceMetrics metrics = driver.RunRound(round, graph.edges(), sink);
  if (job != nullptr) *job = driver.job();
  return metrics;
}

MapReduceMetrics OrderedBucketTriangles(const Graph& graph, int buckets,
                                        uint64_t seed, InstanceSink* sink,
                                        const ExecutionPolicy& policy,
                                        JobMetrics* job) {
  return BucketOrientedEnumerate(SampleGraph::Triangle(),
                                 CqsForSample(SampleGraph::Triangle()), graph,
                                 buckets, seed, sink, policy, job);
}

MapReduceMetrics PartitionTriangles(const Graph& graph, int num_groups,
                                    uint64_t seed, InstanceSink* sink,
                                    const ExecutionPolicy& policy,
                                    JobMetrics* job) {
  return GeneralizedPartitionEnumerate(
      SampleGraph::Triangle(), CqsForSample(SampleGraph::Triangle()), graph,
      num_groups, seed, sink, policy, job);
}

}  // namespace smr
