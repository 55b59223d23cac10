#ifndef SMR_MAPREDUCE_SHUFFLE_BACKEND_H_
#define SMR_MAPREDUCE_SHUFFLE_BACKEND_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "mapreduce/group_by_key.h"
#include "mapreduce/round.h"
#include "mapreduce/spill.h"

namespace smr {

/// Transport/shuffle layer: each way of moving a round's key-value pairs
/// from mappers to reducers is one ShuffleBackend. All backends honor the
/// same contract — reducers run in ascending key order, values arrive in
/// mapper emission order, semantic metrics and sink emissions are
/// byte-identical for every policy — and differ only in *how* the pairs
/// travel: through this process's memory, spilling to temp files under a
/// budget (InMemoryShuffleBackend below), or from forked map workers' run
/// files to forked reduce workers (mapreduce/process_backend.h).
/// engine.h's RunRound selects a backend from the ExecutionPolicy;
/// nothing else instantiates one.
template <typename Input, typename Value>
class ShuffleBackend {
 public:
  virtual ~ShuffleBackend() = default;

  /// Stable display name ("in-memory", "process").
  virtual const char* name() const = 0;

  /// Runs one declared round over the concatenation of `inputs`' runs.
  /// `expected_pairs` is a reservation hint for the round's total
  /// emission count (0 = none); `sink`/`records` may be null. See
  /// engine.h's RunRound for the full contract.
  virtual MapReduceMetrics RunRound(const RoundSpec<Input, Value>& spec,
                                    const InputRuns<Input>& inputs,
                                    InstanceSink* sink, RecordBuffer* records,
                                    const ExecutionPolicy& policy,
                                    uint64_t expected_pairs) const = 0;
};

namespace engine_internal {

/// With a combiner, an emission buffer holds at most one pair per distinct
/// key, so reservations clamp to the declared key space — a counting round
/// with millions of emissions onto a few thousand keys must not reserve
/// for the raw emission count.
inline uint64_t ClampCombined(bool combining, uint64_t key_space, uint64_t n) {
  return (combining && key_space > 0) ? std::min(n, key_space) : n;
}

/// Streaming twin of ReduceRange for spilled partitions: consumes one
/// partition's pairs in grouped order from a SpillMerger (ascending key,
/// emission order within a key) instead of a materialized vector, so peak
/// memory is one key group plus the merger's page buffers. Metrics, sink
/// emissions, and combiner folding are computed exactly as in ReduceRange
/// — the merged stream is the same sequence the resident path reduces.
template <typename Value>
void ReduceStream(
    SpillMerger<Value>* merger,
    const std::function<void(uint64_t key, std::span<const Value>,
                             ReduceContext*)>& reduce_fn,
    const std::function<void(Value&, const Value&)>* combiner,
    InstanceSink* sink, InstanceSink* records, MapReduceMetrics* metrics) {
  std::vector<Value> group;
  uint64_t key = 0;
  Value value{};
  bool pending = merger->Next(&key, &value);
  while (pending) {
    const uint64_t current = key;
    group.clear();
    if (combiner != nullptr) {
      Value accumulated = value;
      while ((pending = merger->Next(&key, &value)) && key == current) {
        (*combiner)(accumulated, value);
      }
      group.push_back(accumulated);
    } else {
      group.push_back(value);
      while ((pending = merger->Next(&key, &value)) && key == current) {
        group.push_back(value);
      }
    }
    ++metrics->distinct_keys;
    metrics->max_reducer_input =
        std::max<uint64_t>(metrics->max_reducer_input, group.size());
    ReduceContext context{&metrics->reduce_cost, sink, records, 0};
    reduce_fn(current, std::span<const Value>(group), &context);
    metrics->outputs += context.outputs;
  }
}

}  // namespace engine_internal

/// The one in-process shuffle. Each map worker scatters its slice's
/// emissions into its SpillChannel's P per-partition buckets (partition =
/// the key's position in [0, key_space), or the key's high bits when
/// key_space is 0; P = 1 for single-threaded rounds unless the policy sets
/// shuffle_partitions). Partitions are then drained from a dynamic queue,
/// and each one takes the path its own state calls for:
///
///   * resident (no channel spilled a run for it — always the case with
///     budget 0): GroupByKey over the per-worker buckets in worker order,
///     a counting scatter when the key range is dense and a stable_sort
///     otherwise (group_by_key.h), then ReduceRange;
///   * spilled: each worker's resident tail is stable-sorted and merged
///     with that worker's runs by a stable k-way SpillMerger, streamed
///     through ReduceStream.
///
/// With budget 0 the emitters never see the channels' accounting — no
/// per-append PagePool charge, nothing ever spills. With a budget, every
/// append is charged against the job's PagePool and a channel spills
/// sorted runs whenever the pool is over budget (mapreduce/spill.h).
/// Both paths yield the stable sort of the worker-order concatenation,
/// and partitions cover ascending disjoint key ranges, so replaying the
/// per-partition results in partition order reproduces the serial round
/// exactly, whatever the thread count, partition count, or budget. On
/// both paths a partition's reducers write their records straight into
/// the partition's own RecordBuffer shard, and the shards are spliced
/// into the round's buffer in partition order. A
/// Value the spill store cannot serialize (ValueCodec<V>::kEncodable ==
/// false) ignores the budget.
template <typename Input, typename Value>
class InMemoryShuffleBackend final : public ShuffleBackend<Input, Value> {
 public:
  const char* name() const override { return "in-memory"; }

  MapReduceMetrics RunRound(const RoundSpec<Input, Value>& spec,
                            const InputRuns<Input>& inputs, InstanceSink* sink,
                            RecordBuffer* records,
                            const ExecutionPolicy& policy,
                            uint64_t expected_pairs) const override {
    using Pair = std::pair<uint64_t, Value>;
    using CombineFn = typename Emitter<Value>::CombineFn;
    constexpr bool kEncodable = ValueCodec<Value>::kEncodable;
    MapReduceMetrics metrics;
    metrics.input_records = inputs.size();
    metrics.key_space = spec.key_space;

    const CombineFn* combiner =
        (policy.combine && spec.combiner) ? &spec.combiner : nullptr;
    const auto& map_fn = spec.mapper;
    const auto& reduce_fn = spec.reducer;
    const unsigned map_threads = policy.EffectiveThreads(inputs.size());
    const unsigned partitions = policy.EffectivePartitions();
    const KeyPartitioner partitioner(partitions, spec.key_space);
    metrics.shuffle.partitions = partitions;
    const bool bounded = kEncodable && policy.shuffle_budget_bytes > 0;

    // The pool outlives the channels (their destructors release their
    // resident accounting into it), and the channels outlive the reduce
    // phase (they own the buckets, spill files, and resident tails it
    // reads).
    PagePool pool(bounded ? policy.shuffle_budget_bytes : 0,
                  policy.spill_backend);
    std::vector<std::unique_ptr<SpillChannel<Value>>> channels;
    channels.reserve(map_threads);
    for (unsigned t = 0; t < map_threads; ++t) {
      channels.push_back(
          std::make_unique<SpillChannel<Value>>(&pool, partitions));
    }

    // Map phase: worker t walks its slice of the inputs' concatenation,
    // run by run, and scatters the emissions into its channel's bucket
    // per destination partition, in emission order.
    const std::vector<size_t> bounds =
        engine_internal::SliceBoundaries(inputs.size(), map_threads);
    const uint64_t worker_expected = engine_internal::ClampCombined(
        combiner != nullptr, spec.key_space, expected_pairs / map_threads);
    std::vector<uint64_t> worker_logical(map_threads, 0);
    engine_internal::RunWorkers(policy, map_threads, [&](size_t t) {
      std::vector<std::vector<Pair>>* buckets = channels[t]->buckets();
      if (!bounded && worker_expected > 0) {
        // Spread the expected volume evenly over partitions — the dense
        // reducer ranks the strategies declare make the even split a good
        // prior. Unbounded only: a reservation would evade the budget.
        for (auto& bucket : *buckets) {
          bucket.reserve(worker_expected / partitions + 1);
        }
      }
      Emitter<Value> emitter(buckets, &partitioner, combiner,
                             bounded ? 0 : worker_expected,
                             bounded ? channels[t].get() : nullptr);
      inputs.ForEach(bounds[t], bounds[t + 1],
                     [&](const Input& input) { map_fn(input, &emitter); });
      worker_logical[t] = emitter.emitted();
    }, &metrics.shuffle);

    std::vector<uint64_t> partition_pairs(partitions, 0);
    std::vector<char> spilled(partitions, 0);
    uint64_t total_pairs = 0;
    uint64_t logical_pairs = 0;
    for (unsigned p = 0; p < partitions; ++p) {
      for (unsigned t = 0; t < map_threads; ++t) {
        partition_pairs[p] += channels[t]->PairsInPartition(p);
        spilled[p] |= channels[t]->HasRuns(p);
      }
      total_pairs += partition_pairs[p];
    }
    for (const uint64_t n : worker_logical) logical_pairs += n;
    engine_internal::CountMapPhase<Value>(logical_pairs, total_pairs,
                                          &metrics);
    metrics.shuffle.pages_spilled = pool.pages_spilled();
    metrics.shuffle.bytes_spilled = pool.bytes_spilled();
    metrics.shuffle.spill_files = pool.spill_files();

    // Empty round: nothing to group, no reduce workers worth dispatching.
    if (total_pairs == 0) return metrics;

    // Reduce phase into partition-private metrics, sinks and record
    // shards, so nothing below needs a lock. A single reduce worker drains
    // the partitions in ascending order and can emit straight into the
    // round's sink and record buffer. Counting sinks don't need their
    // emissions buffered and replayed — the partition output totals
    // suffice. Records are written once, into their partition's shard,
    // whose chunks are spliced into the round's buffer below.
    const unsigned reduce_threads =
        std::min(policy.EffectiveThreads(total_pairs), partitions);
    const bool direct = reduce_threads <= 1;
    const bool counts_only =
        !direct && sink != nullptr && sink->CountsOnly();
    const bool buffered = !direct && sink != nullptr && !counts_only;
    const bool sharded_records = !direct && records != nullptr;
    std::vector<MapReduceMetrics> partition_metrics(partitions);
    std::vector<BufferingSink> partition_sinks(buffered ? partitions : 0);
    std::vector<RecordBuffer> record_shards;
    if (sharded_records) {
      record_shards.reserve(partitions);
      for (unsigned p = 0; p < partitions; ++p) {
        record_shards.emplace_back(records->arity());
      }
    }
    // How partition p was grouped (one writer per slot: each partition is
    // drained exactly once): 1 = counting scatter, 2 = stable_sort,
    // 0 = spill merge or empty.
    std::vector<uint8_t> partition_grouping(partitions, 0);
    std::atomic<unsigned> next_partition{0};
    engine_internal::RunWorkers(policy, reduce_threads, [&](size_t) {
      std::vector<Pair> local;
      std::vector<std::vector<Pair>*> buckets(map_threads);
      std::vector<uint32_t> counts;
      while (true) {
        const unsigned p = next_partition.fetch_add(1);
        if (p >= partitions) break;
        if (partition_pairs[p] == 0) continue;
        InstanceSink* out = direct     ? sink
                            : buffered ? &partition_sinks[p]
                                       : nullptr;
        InstanceSink* out_records =
            sharded_records ? &record_shards[p] : records;
        if constexpr (kEncodable) {
          if (spilled[p]) {
            std::vector<SpillSource<Value>> sources;
            for (unsigned t = 0; t < map_threads; ++t) {
              channels[t]->SortTail(p);
              channels[t]->AppendSources(p, &sources);
            }
            SpillMerger<Value> merger(std::move(sources));
            engine_internal::ReduceStream(&merger, reduce_fn, combiner, out,
                                          out_records, &partition_metrics[p]);
            continue;
          }
        }
        for (unsigned t = 0; t < map_threads; ++t) {
          buckets[t] = &(*channels[t]->buckets())[p];
        }
        const bool counted = engine_internal::GroupByKey<Value>(
            buckets, partition_pairs[p], &local, &counts);
        partition_grouping[p] = counted ? 1 : 2;
        engine_internal::ReduceRange(local, 0, local.size(), reduce_fn,
                                     combiner, out, out_records,
                                     &partition_metrics[p]);
      }
    }, &metrics.shuffle);

    // Ordered merge: partitions cover ascending disjoint key ranges, so
    // merging metrics, flushing buffered instances and splicing record
    // shards in partition order reproduces the serial round's
    // ascending-key order exactly.
    for (unsigned p = 0; p < partitions; ++p) {
      metrics.MergePartitionShard(partition_metrics[p], partition_pairs[p]);
      metrics.shuffle.counting_partitions += partition_grouping[p] == 1;
      metrics.shuffle.sorted_partitions += partition_grouping[p] == 2;
      if (buffered) partition_sinks[p].FlushTo(sink);
      if (sharded_records) records->Splice(std::move(record_shards[p]));
    }
    if (counts_only) sink->EmitCount(metrics.outputs);
    return metrics;
  }
};

}  // namespace smr

#endif  // SMR_MAPREDUCE_SHUFFLE_BACKEND_H_
