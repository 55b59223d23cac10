#ifndef SMR_TESTS_TEST_UTIL_H_
#define SMR_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "graph/sample_graph.h"
#include "mapreduce/instance_sink.h"
#include "mapreduce/round.h"
#include "serial/matcher.h"

namespace smr {

/// Canonical sorted multiset of instance keys from a collecting sink.
inline std::vector<InstanceKey> KeysOf(const CollectingSink& sink,
                                       const SampleGraph& pattern) {
  return sink.Keys(pattern.edges());
}

/// Ground-truth instance keys via the reference serial matcher.
inline std::vector<InstanceKey> GroundTruthKeys(const SampleGraph& pattern,
                                                const Graph& graph) {
  CollectingSink sink;
  EnumerateInstances(pattern, graph, &sink, nullptr);
  return KeysOf(sink, pattern);
}

/// Engine-free oracle for one declared round — the textbook map-reduce
/// round the shuffle backends must reproduce: the mappers run in input
/// order into one vector (folding repeated keys when `combine` and the
/// spec declares a combiner), a stable sort groups it by key, and the
/// reducers run serially in ascending key order. Returns the round's
/// metrics; the semantic ones must equal every backend's.
template <typename Input, typename Value>
MapReduceMetrics ReferenceRound(
    const RoundSpec<Input, Value>& spec,
    std::span<const std::type_identity_t<Input>> inputs, InstanceSink* sink,
    InstanceSink* records = nullptr, bool combine = true) {
  using Pair = std::pair<uint64_t, Value>;
  const typename Emitter<Value>::CombineFn* combiner =
      (combine && spec.combiner) ? &spec.combiner : nullptr;
  std::vector<Pair> pairs;
  Emitter<Value> emitter(&pairs, combiner);
  for (const Input& input : inputs) spec.mapper(input, &emitter);
  std::stable_sort(pairs.begin(), pairs.end(),
                   [](const Pair& a, const Pair& b) {
                     return a.first < b.first;
                   });
  MapReduceMetrics metrics;
  metrics.input_records = inputs.size();
  metrics.key_space = spec.key_space;
  engine_internal::CountMapPhase<Value>(emitter.emitted(), pairs.size(),
                                        &metrics);
  engine_internal::ReduceRange(pairs, 0, pairs.size(), spec.reducer,
                               combiner, sink, records, &metrics);
  return metrics;
}

}  // namespace smr

#endif  // SMR_TESTS_TEST_UTIL_H_
