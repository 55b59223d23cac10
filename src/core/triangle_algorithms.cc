#include "core/triangle_algorithms.h"

#include <array>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/bucket_oriented.h"
#include "cq/cq_evaluator.h"
#include "cq/cq_generation.h"
#include "graph/node_order.h"
#include "mapreduce/job.h"
#include "util/combinatorics.h"
#include "util/hashing.h"

namespace smr {

namespace {

uint64_t PackTriple(int a, int b, int c, int base) {
  return (static_cast<uint64_t>(a) * base + b) * base + c;
}

// PartitionTriangles keys its reducers by the combinatorial rank of the
// sorted group triple instead of PackTriple: its declared key space is
// C(b, 3), and base-b packing is sparse in that range — under the engine's
// partitioned shuffle almost every packed key would land beyond the
// declared space and collapse into the last partition, serializing the
// reduce. MultiwayJoinTriangles keeps PackTriple: its key space *is* b^3
// and the packing is already a dense bijection.

/// Value shipped by the multiway-join mapper: the edge plus the roles
/// (XY=1, YZ=2, XZ=4) it plays at the receiving reducer. Overlapping roles
/// at the same reducer are merged into one key-value pair (footnote 1).
struct RoleEdge {
  NodeId u;
  NodeId v;
  uint8_t roles;
};

}  // namespace

MapReduceMetrics MultiwayJoinTriangles(const Graph& graph, int buckets,
                                       uint64_t seed, InstanceSink* sink,
                                       const ExecutionPolicy& policy,
                                       JobMetrics* job) {
  if (buckets < 1) throw std::invalid_argument("buckets must be >= 1");
  const BucketHasher hasher(buckets, seed);
  const uint64_t key_space = static_cast<uint64_t>(buckets) * buckets * buckets;

  auto map_fn = [&](const Edge& edge, Emitter<RoleEdge>* out) {
    const auto [u, v] = edge;  // u < v by Graph's canonical storage
    const int hu = hasher.Bucket(u);
    const int hv = hasher.Bucket(v);
    std::unordered_map<uint64_t, uint8_t> roles_by_key;
    for (int z = 0; z < buckets; ++z) {
      roles_by_key[PackTriple(hu, hv, z, buckets)] |= 1;  // as E(X,Y)
    }
    for (int x = 0; x < buckets; ++x) {
      roles_by_key[PackTriple(x, hu, hv, buckets)] |= 2;  // as E(Y,Z)
    }
    for (int y = 0; y < buckets; ++y) {
      roles_by_key[PackTriple(hu, y, hv, buckets)] |= 4;  // as E(X,Z)
    }
    for (const auto& [key, roles] : roles_by_key) {
      out->Emit(key, RoleEdge{u, v, roles});
    }
  };

  auto reduce_fn = [&](uint64_t /*key*/, std::span<const RoleEdge> values,
                       ReduceContext* context) {
    // R_XY join R_YZ join R_XZ with shared middle / outer variables.
    std::unordered_map<uint64_t, std::vector<NodeId>> yz_by_first;
    std::unordered_set<uint64_t, IdHash> xz;
    for (const RoleEdge& value : values) {
      ++context->cost->edges_scanned;
      if (value.roles & 2) yz_by_first[value.u].push_back(value.v);
      if (value.roles & 4) xz.insert(PackPair(value.u, value.v));
    }
    for (const RoleEdge& value : values) {
      if (!(value.roles & 1)) continue;
      const auto it = yz_by_first.find(value.v);
      if (it == yz_by_first.end()) continue;
      for (NodeId w : it->second) {
        ++context->cost->candidates;
        ++context->cost->index_probes;
        if (xz.count(PackPair(value.u, w)) > 0) {
          const std::array<NodeId, 3> assignment = {value.u, value.v, w};
          context->EmitInstance(assignment);
        }
      }
    }
  };

  JobDriver driver(policy);
  const RoundSpec<Edge, RoleEdge> round{"multiway-join", map_fn, reduce_fn,
                                        key_space, {}};
  const MapReduceMetrics metrics = driver.RunRound(round, graph.edges(), sink);
  if (job != nullptr) *job = driver.job();
  return metrics;
}

MapReduceMetrics OrderedBucketTriangles(const Graph& graph, int buckets,
                                        uint64_t seed, InstanceSink* sink,
                                        const ExecutionPolicy& policy,
                                        JobMetrics* job) {
  const BucketScheme scheme(buckets, 3, seed);
  const NodeOrder order =
      NodeOrder::ByBucket(graph.num_nodes(), scheme.hasher());

  auto map_fn = [&](const Edge& edge, Emitter<Edge>* out) {
    const Edge oriented = order.Orient(edge);
    scheme.ForEachReducer(oriented.first, oriented.second,
                          [&](uint64_t key) { out->Emit(key, oriented); });
  };

  const std::vector<ConjunctiveQuery> cqs =
      CqsForSample(SampleGraph::Triangle());
  const CqReducer reducer(cqs, &order);
  auto reduce_fn = [&](uint64_t key, std::span<const Edge> values,
                       ReduceContext* context) {
    const CqReducer::Local local = reducer.Build(values);
    context->cost->edges_scanned += values.size();
    ReducerSink owned(local.local_to_global(), context,
                      scheme.OwnershipOf(key));
    local.EvaluateAll(&owned, context->cost);
  };

  JobDriver driver(policy);
  const RoundSpec<Edge, Edge> round{"ordered-buckets", map_fn, reduce_fn,
                                    scheme.key_space(), {},
                                    scheme.replication()};
  const MapReduceMetrics metrics = driver.RunRound(round, graph.edges(), sink);
  if (job != nullptr) *job = driver.job();
  return metrics;
}

MapReduceMetrics PartitionTriangles(const Graph& graph, int num_groups,
                                    uint64_t seed, InstanceSink* sink,
                                    const ExecutionPolicy& policy,
                                    JobMetrics* job) {
  if (num_groups < 3) throw std::invalid_argument("Partition needs b >= 3");
  const int b = num_groups;
  const BucketHasher hasher(b, seed);
  const uint64_t key_space = Binomial(b, 3);

  auto map_fn = [&](const Edge& edge, Emitter<Edge>* out) {
    int i = hasher.Bucket(edge.first);
    int j = hasher.Bucket(edge.second);
    if (i > j) std::swap(i, j);
    std::vector<int> required = {i};
    if (j != i) required.push_back(j);
    ForEachGroupSubsetContaining(
        b, 3, required, [&](const std::vector<int>& triple) {
          out->Emit(RankSubset3(triple[0], triple[1], triple[2], b), edge);
        });
  };

  // Edges travel as stored, smaller id first: the node order is by id.
  const std::vector<ConjunctiveQuery> cqs =
      CqsForSample(SampleGraph::Triangle());
  const CqReducer reducer(cqs, nullptr);
  auto reduce_fn = [&](uint64_t key, std::span<const Edge> values,
                       ReduceContext* context) {
    const std::vector<int> own = UnrankSubset(key, b, 3);
    const CqReducer::Local local = reducer.Build(values);
    context->cost->edges_scanned += values.size();
    // De-duplication: the triangle's distinct groups lie in several
    // reducer triples; only the canonical one emits it.
    ReducerSink owned(local.local_to_global(), context,
                      [&](std::span<const NodeId> global) {
                        return CanonicalGroupSubset(hasher, global, 3) == own;
                      });
    local.EvaluateAll(&owned, context->cost);
  };

  JobDriver driver(policy);
  const RoundSpec<Edge, Edge> round{"partition", map_fn, reduce_fn, key_space,
                                    {}};
  const MapReduceMetrics metrics = driver.RunRound(round, graph.edges(), sink);
  if (job != nullptr) *job = driver.job();
  return metrics;
}

}  // namespace smr
