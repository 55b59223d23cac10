#include "cq/cq_generation.h"

#include <map>

#include "util/combinatorics.h"

namespace smr {

std::vector<ConjunctiveQuery> GenerateOrderCqs(const SampleGraph& pattern) {
  return GenerateOrderCqs(pattern, pattern.Automorphisms());
}

std::vector<ConjunctiveQuery> GenerateOrderCqs(
    const SampleGraph& pattern, std::span<const std::vector<int>> group) {
  std::vector<ConjunctiveQuery> cqs;
  for (const auto& order : AllPermutations(pattern.num_vars())) {
    if (IsLeastInOrbit(order, group)) {
      cqs.push_back(ConjunctiveQuery::ForOrder(pattern, order));
    }
  }
  return cqs;
}

std::vector<ConjunctiveQuery> MergeByOrientation(
    const std::vector<ConjunctiveQuery>& cqs) {
  std::vector<ConjunctiveQuery> merged;
  std::map<std::vector<std::pair<int, int>>, size_t> index_of;
  for (const ConjunctiveQuery& cq : cqs) {
    auto [it, inserted] = index_of.emplace(cq.subgoals(), merged.size());
    if (inserted) {
      merged.push_back(cq);
    } else {
      merged[it->second].MergeCondition(cq);
    }
  }
  return merged;
}

std::vector<ConjunctiveQuery> CqsForSample(const SampleGraph& pattern) {
  return MergeByOrientation(GenerateOrderCqs(pattern));
}

}  // namespace smr
