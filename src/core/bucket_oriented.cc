#include "core/bucket_oriented.h"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "cq/cq_evaluator.h"
#include "graph/node_order.h"
#include "mapreduce/job.h"
#include "util/combinatorics.h"
#include "util/hashing.h"

namespace smr {

BucketScheme::BucketScheme(int buckets, int p, uint64_t seed)
    : buckets_(buckets), p_(p), hasher_(buckets, seed) {
  Validate(buckets, p);
  key_space_ = Binomial(int64_t{buckets} + p - 1, p);
  replication_ = static_cast<double>(Binomial(int64_t{buckets} + p - 3, p - 2));
  if (p != 3) paddings_ = NondecreasingSequences(buckets, p - 2);
}

void BucketScheme::Validate(int buckets, int p) {
  if (buckets < 1) {
    throw std::invalid_argument(
        "bucket-oriented processing needs b >= 1 buckets");
  }
  if (p < 2) {
    throw std::invalid_argument(
        "bucket-oriented processing needs a pattern of p >= 2 nodes");
  }
  if (!BinomialFitsUint64(int64_t{buckets} + p - 1, p)) {
    throw std::invalid_argument(
        "bucket-oriented reducer key space C(b+p-1, p) exceeds 64 bits; "
        "reduce the bucket count b or the pattern size p");
  }
}

uint64_t BucketScheme::PaddedKey(const std::vector<int>& padding, int i,
                                 int j, std::vector<int>* multiset) const {
  multiset->assign(padding.begin(), padding.end());
  multiset->push_back(i);
  multiset->push_back(j);
  std::sort(multiset->begin(), multiset->end());
  return RankNondecreasing(*multiset, buckets_);
}

BucketScheme::Ownership BucketScheme::OwnershipOf(uint64_t key) const {
  return Ownership(hasher_, UnrankNondecreasing(key, buckets_, p_));
}

bool BucketScheme::Ownership::operator()(std::span<const NodeId> nodes) {
  scratch_.clear();
  for (NodeId node : nodes) scratch_.push_back(hasher_.Bucket(node));
  std::sort(scratch_.begin(), scratch_.end());
  return scratch_ == own_;
}

MapReduceMetrics BucketOrientedEnumerate(
    const SampleGraph& pattern, std::span<const ConjunctiveQuery> cqs,
    const Graph& graph, int buckets, uint64_t seed, InstanceSink* sink,
    const ExecutionPolicy& policy, JobMetrics* job) {
  const BucketScheme scheme(buckets, pattern.num_vars(), seed);
  const NodeOrder order =
      NodeOrder::ByBucket(graph.num_nodes(), scheme.hasher());

  auto map_fn = [&](const Edge& edge, Emitter<Edge>* out) {
    const Edge oriented = order.Orient(edge);
    scheme.ForEachReducer(oriented.first, oriented.second,
                          [&](uint64_t key) { out->Emit(key, oriented); });
  };

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
  // No combiner: the reducers need every edge copy of their local subgraph.
  const RoundSpec<Edge, Edge> round{"bucket-oriented", map_fn, reduce_fn,
                                    scheme.key_space(), {},
                                    scheme.replication()};
  const MapReduceMetrics metrics = driver.RunRound(round, graph.edges(), sink);
  if (job != nullptr) *job = driver.job();
  return metrics;
}

MapReduceMetrics GeneralizedPartitionEnumerate(
    const SampleGraph& pattern, std::span<const ConjunctiveQuery> cqs,
    const Graph& graph, int num_groups, uint64_t seed, InstanceSink* sink,
    const ExecutionPolicy& policy, JobMetrics* job) {
  const int p = pattern.num_vars();
  const int b = num_groups;
  if (p < 3 || b < p) {
    throw std::invalid_argument("generalized Partition needs b >= p >= 3");
  }
  if (!BinomialFitsUint64(b, p)) {
    throw std::invalid_argument(
        "generalized-Partition reducer key space C(b, p) exceeds 64 bits; "
        "reduce the group count b or the pattern size p");
  }
  const BucketHasher hasher(b, seed);
  const uint64_t key_space = Binomial(b, p);

  // Sends the edge to every p-subset of groups containing its (one or two)
  // groups, extending only subsets of the remaining groups around them.
  auto map_fn = [&](const Edge& edge, Emitter<Edge>* out) {
    int i = hasher.Bucket(edge.first);
    int j = hasher.Bucket(edge.second);
    if (i > j) std::swap(i, j);
    std::vector<int> required = {i};
    if (j != i) required.push_back(j);
    ForEachGroupSubsetContaining(
        b, p, required, [&](const std::vector<int>& subset) {
          out->Emit(RankSubset(subset, b), edge);
        });
  };

  // Edges travel as stored, smaller id first: the node order is by id.
  const CqReducer reducer(cqs, nullptr);
  auto reduce_fn = [&](uint64_t key, std::span<const Edge> values,
                       ReduceContext* context) {
    const std::vector<int> own = UnrankSubset(key, b, p);
    const CqReducer::Local local = reducer.Build(values);
    context->cost->edges_scanned += values.size();
    ReducerSink owned(local.local_to_global(), context,
                      [&](std::span<const NodeId> global) {
                        return CanonicalGroupSubset(hasher, global, p) == own;
                      });
    local.EvaluateAll(&owned, context->cost);
  };

  JobDriver driver(policy);
  const RoundSpec<Edge, Edge> round{"generalized-partition", map_fn,
                                    reduce_fn, key_space, {}};
  const MapReduceMetrics metrics = driver.RunRound(round, graph.edges(), sink);
  if (job != nullptr) *job = driver.job();
  return metrics;
}

void ForEachGroupSubsetContaining(
    int b, int p, std::span<const int> required,
    const std::function<void(const std::vector<int>&)>& fn) {
  // Depth-first over candidate groups in ascending order, include-branch
  // first, with required groups forced in — so the subsets arrive in the
  // same lexicographic order the old enumerate-everything mapper produced,
  // but only C(b-|required|, p-|required|) leaves are ever visited.
  std::vector<int> subset;
  subset.reserve(p);
  std::function<void(int, size_t)> recurse = [&](int next, size_t req_i) {
    const int need = p - static_cast<int>(subset.size());
    const int required_left = static_cast<int>(required.size() - req_i);
    if (need == 0) {
      if (required_left == 0) fn(subset);
      return;
    }
    // Prune: not enough groups left, or too few slots for the required.
    if (b - next < need || required_left > need) return;
    const bool is_required =
        req_i < required.size() && required[req_i] == next;
    subset.push_back(next);
    recurse(next + 1, req_i + (is_required ? 1 : 0));
    subset.pop_back();
    if (!is_required) recurse(next + 1, req_i);
  };
  recurse(0, 0);
}

std::vector<int> CanonicalGroupSubset(const BucketHasher& groups,
                                      std::span<const NodeId> nodes, int p) {
  std::vector<int> subset;
  for (NodeId node : nodes) subset.push_back(groups.Bucket(node));
  std::sort(subset.begin(), subset.end());
  subset.erase(std::unique(subset.begin(), subset.end()), subset.end());
  for (int candidate = 0;
       static_cast<int>(subset.size()) < p && candidate < groups.buckets();
       ++candidate) {
    const auto it = std::lower_bound(subset.begin(), subset.end(), candidate);
    if (it == subset.end() || *it != candidate) subset.insert(it, candidate);
  }
  return subset;
}

}  // namespace smr
