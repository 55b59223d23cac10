#include "core/variable_oriented.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "core/bucket_oriented.h"
#include "cq/cq_evaluator.h"
#include "mapreduce/job.h"
#include "util/hashing.h"
#include "util/scratch_pool.h"

namespace smr {

std::vector<int> RoundShares(const std::vector<double>& shares) {
  std::vector<int> rounded(shares.size());
  for (size_t i = 0; i < shares.size(); ++i) {
    rounded[i] = std::max(1, static_cast<int>(std::llround(shares[i])));
  }
  return rounded;
}

MapReduceMetrics VariableOrientedEnumerate(
    const SampleGraph& pattern, std::span<const ConjunctiveQuery> cqs,
    const Graph& graph, const std::vector<int>& shares, uint64_t seed,
    InstanceSink* sink, const ExecutionPolicy& policy, JobMetrics* job) {
  const int p = pattern.num_vars();
  if (static_cast<int>(shares.size()) != p) {
    throw std::invalid_argument("need one share per variable");
  }
  for (int s : shares) {
    if (s < 1) throw std::invalid_argument("shares must be >= 1");
  }
  // Edges travel as stored, smaller id first: relation E is ordered by id.
  // Built first: it rejects a pattern variable in no edge.
  const CqReducer reducer(cqs, nullptr);
  // Independent hash function per variable.
  std::vector<BucketHasher> hashers;
  hashers.reserve(p);
  for (int x = 0; x < p; ++x) {
    hashers.emplace_back(shares[x], SplitMix64(seed + 0x9e37 * (x + 1)));
  }
  // Mixed-radix keys are dense in the product of the shares; the product
  // must fit 64 bits or keys from different bucket combinations would wrap
  // onto each other.
  uint64_t key_space = 1;
  for (int s : shares) {
    if (key_space > UINT64_MAX / static_cast<uint64_t>(s)) {
      throw std::invalid_argument(
          "variable-oriented reducer key space (product of shares) exceeds "
          "64 bits");
    }
    key_space *= static_cast<uint64_t>(s);
  }

  // Mixed-radix reducer key over per-variable buckets.
  std::vector<uint64_t> stride(p, 1);
  for (int x = p - 2; x >= 0; --x) {
    stride[x] = stride[x + 1] * static_cast<uint64_t>(shares[x + 1]);
  }

  // One route per subgoal E(X_a, X_b) of the CQ set: the edge (u, v) binds
  // X_a = u and X_b = v and goes to every reducer agreeing with h_a(u) and
  // h_b(v), one per bucket combination of the other variables. An edge of
  // S used in both orientations thus ships twice per reducer slice, the
  // coefficient-2 terms of CostExpression::ForCqSet.
  struct Route {
    int var_u;
    int var_v;
    std::vector<uint64_t> offsets;  // of the other variables' buckets
  };
  std::vector<std::pair<int, int>> subgoals;
  for (const ConjunctiveQuery& cq : cqs) {
    subgoals.insert(subgoals.end(), cq.subgoals().begin(),
                    cq.subgoals().end());
  }
  std::sort(subgoals.begin(), subgoals.end());
  subgoals.erase(std::unique(subgoals.begin(), subgoals.end()),
                 subgoals.end());
  std::vector<Route> routes;
  for (const auto& [a, b] : subgoals) {
    Route route{a, b, {0}};
    for (int x = 0; x < p; ++x) {
      if (x == a || x == b) continue;
      std::vector<uint64_t> next;
      next.reserve(route.offsets.size() * shares[x]);
      for (uint64_t offset : route.offsets) {
        for (int bucket = 0; bucket < shares[x]; ++bucket) {
          next.push_back(offset + static_cast<uint64_t>(bucket) * stride[x]);
        }
      }
      route.offsets = std::move(next);
    }
    routes.push_back(std::move(route));
  }

  auto map_fn = [&](const Edge& edge, Emitter<Edge>* out) {
    for (const Route& route : routes) {
      const uint64_t base =
          static_cast<uint64_t>(hashers[route.var_u].Bucket(edge.first)) *
              stride[route.var_u] +
          static_cast<uint64_t>(hashers[route.var_v].Bucket(edge.second)) *
              stride[route.var_v];
      for (uint64_t offset : route.offsets) out->Emit(base + offset, edge);
    }
  };

  // A reducer receives an edge once per route that reaches it, so it
  // deduplicates before building its local graph. Of the CQ solutions it
  // finds, it keeps those whose every variable x lies in its bucket for x:
  // all of their edges were shipped to it, so no other reducer keeps them.
  ScratchPool<std::vector<Edge>> unique_edges;
  auto reduce_fn = [&](uint64_t key, std::span<const Edge> values,
                       ReduceContext* context) {
    const ScratchPool<std::vector<Edge>>::Lease edges = unique_edges.Acquire();
    edges->assign(values.begin(), values.end());
    std::sort(edges->begin(), edges->end());
    edges->erase(std::unique(edges->begin(), edges->end()), edges->end());
    const CqReducer::Local local = reducer.Build(*edges);
    context->cost->edges_scanned += values.size();
    ReducerSink owned(local.local_to_global(), context,
                      [&](std::span<const NodeId> global) {
                        for (int x = 0; x < p; ++x) {
                          if (static_cast<uint64_t>(
                                  hashers[x].Bucket(global[x])) !=
                              key / stride[x] % shares[x]) {
                            return false;
                          }
                        }
                        return true;
                      });
    local.EvaluateAll(&owned, context->cost);
  };

  JobDriver driver(policy);
  const RoundSpec<Edge, Edge> round{"variable-oriented", map_fn, reduce_fn,
                                    key_space, {}};
  const MapReduceMetrics metrics = driver.RunRound(round, graph.edges(), sink);
  if (job != nullptr) *job = driver.job();
  return metrics;
}

}  // namespace smr
