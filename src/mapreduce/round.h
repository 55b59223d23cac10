#ifndef SMR_MAPREDUCE_ROUND_H_
#define SMR_MAPREDUCE_ROUND_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "mapreduce/execution_policy.h"
#include "mapreduce/instance_sink.h"
#include "mapreduce/metrics.h"
#include "mapreduce/spill.h"
#include "mapreduce/thread_pool.h"
#include "util/cost_model.h"
#include "util/flat_map.h"

namespace smr {

/// Round vocabulary: the types a strategy uses to *declare* a map-reduce
/// round — RoundSpec (mapper/reducer/key space/combiner), the Emitter
/// mappers emit through, the ReduceContext reducers emit through — plus
/// the engine_internal helpers every shuffle backend is built from
/// (ReduceRange, SliceBoundaries, RunWorkers). How a declared round is
/// *executed* lives one layer up, in the shuffle backends
/// (mapreduce/shuffle_backend.h) behind mapreduce/engine.h's RunRound.

/// Routes a key to one of `partitions` contiguous, ascending key ranges.
/// The mapping is monotone nondecreasing in the key — the invariant the
/// in-memory shuffle's ordered replay rests on. When the round declared a
/// key space, ranges are proportional slices of [0, key_space) (strategies
/// keep their keys dense in the declared space precisely so this balances);
/// keys at or above the declared space land in the last partition, which
/// keeps the map monotone for strategies that under-declare. With no
/// declared key space the high bits of the key decide (radix partitioning
/// over the full 64-bit range).
class KeyPartitioner {
 public:
  KeyPartitioner(unsigned partitions, uint64_t key_space)
      : partitions_(partitions), key_space_(key_space) {}

  unsigned PartitionOf(uint64_t key) const {
    if (partitions_ <= 1) return 0;
    if (key_space_ > 0) {
      // Clamp in 128 bits: a key far above the declared space can push the
      // quotient past 2^32, and narrowing first would wrap it back into a
      // low partition — sending the largest keys below the smallest and
      // breaking the monotonicity the ordered replay rests on.
      const unsigned __int128 partition =
          static_cast<unsigned __int128>(key) * partitions_ / key_space_;
      return partition < partitions_ ? static_cast<unsigned>(partition)
                                     : partitions_ - 1;
    }
    return static_cast<unsigned>(
        (static_cast<unsigned __int128>(key) * partitions_) >> 64);
  }

  unsigned partitions() const { return partitions_; }

 private:
  unsigned partitions_;
  uint64_t key_space_;
};

/// Collects the key-value pairs emitted by a mapper: either into one flat
/// vector (the engine-free reference round tests compare against) or
/// scattered across one bucket per destination partition (both shuffle
/// backends). With a combiner, repeated
/// emissions of a key fold into the key's existing pair instead of
/// appending (map-side pre-aggregation); `emitted()` still counts every
/// logical emission, which is what the round's communication-cost metric
/// reports.
template <typename Value>
class Emitter {
 public:
  using CombineFn = std::function<void(Value& acc, const Value& incoming)>;

  /// `expected_keys` pre-sizes the combiner's slot index (an upper bound —
  /// e.g. the worker's expected emission count — is fine); ignored without
  /// a usable combiner.
  explicit Emitter(std::vector<std::pair<uint64_t, Value>>* out,
                   const CombineFn* combiner = nullptr,
                   size_t expected_keys = 0)
      : out_(out), combiner_(Usable(combiner)) {
    if (combiner_ != nullptr && expected_keys > 0) {
      slots_.reserve(expected_keys);
    }
  }

  /// `spill` (optional) is the budgeted shuffle's channel owning
  /// `buckets`: every append is accounted against the job's page pool and
  /// may spill the channel, at which point the combiner's remembered
  /// bucket positions are dropped (the buckets were emptied).
  Emitter(std::vector<std::vector<std::pair<uint64_t, Value>>>* buckets,
          const KeyPartitioner* partitioner,
          const CombineFn* combiner = nullptr, size_t expected_keys = 0,
          SpillChannel<Value>* spill = nullptr)
      : buckets_(buckets),
        partitioner_(partitioner),
        combiner_(Usable(combiner)),
        spill_(spill) {
    if (combiner_ != nullptr && expected_keys > 0) {
      slots_.reserve(expected_keys);
    }
  }

  void Emit(uint64_t key, const Value& value) {
    ++emitted_;
    auto& bucket =
        out_ != nullptr ? *out_ : (*buckets_)[partitioner_->PartitionOf(key)];
    if (combiner_ != nullptr) {
      // A key lands in the same bucket every time, so the remembered index
      // into that bucket stays valid across emissions (until a spill
      // empties the buckets, which clears the slot index below).
      bool inserted = false;
      const size_t slot = slots_.FindOrInsert(key, bucket.size(), &inserted);
      if (!inserted) {
        (*combiner_)(bucket[slot].second, value);
        return;
      }
    }
    bucket.emplace_back(key, value);
    if (spill_ != nullptr && spill_->NotifyAppend()) slots_.Clear();
  }

  /// Logical emissions seen, counting the ones the combiner absorbed.
  uint64_t emitted() const { return emitted_; }

 private:
  static const CombineFn* Usable(const CombineFn* combiner) {
    return (combiner != nullptr && *combiner) ? combiner : nullptr;
  }

  std::vector<std::pair<uint64_t, Value>>* out_ = nullptr;
  std::vector<std::vector<std::pair<uint64_t, Value>>>* buckets_ = nullptr;
  const KeyPartitioner* partitioner_ = nullptr;
  const CombineFn* combiner_ = nullptr;
  SpillChannel<Value>* spill_ = nullptr;
  FlatMap64 slots_;
  uint64_t emitted_ = 0;
};

/// Per-reducer context: instrumented cost, the round's output sink, and the
/// intermediate-record channel of a multi-round job.
struct ReduceContext {
  CostCounter* cost;
  InstanceSink* sink;
  InstanceSink* records = nullptr;
  uint64_t outputs = 0;

  /// Emits a final result instance of the job (counted in `outputs`).
  void EmitInstance(std::span<const NodeId> assignment) {
    ++outputs;
    ++cost->outputs;
    if (sink != nullptr) sink->Emit(assignment);
  }

  /// Emits an intermediate record for the next round of a multi-round
  /// pipeline (not a result: neither `outputs` nor the cost model counts
  /// it). Records reach the round's record sink in the same deterministic
  /// order as instance emissions — ascending key, emission order within a
  /// key — so the next round's input order is policy-independent.
  void EmitRecord(std::span<const NodeId> record) {
    if (records != nullptr) records->Emit(record);
  }
};

/// One declared map-reduce round over inputs of type `Input`, shuffling
/// values of type `Value`. Strategies build these and hand them to a
/// JobDriver; nothing outside src/mapreduce/ runs rounds by hand.
template <typename Input, typename Value>
struct RoundSpec {
  /// Display name for the JobMetrics round table ("two-paths", "join", ...).
  std::string name;

  /// Applied to every input; emits key-value pairs.
  std::function<void(const Input&, Emitter<Value>*)> mapper;

  /// Invoked once per distinct key with all of the key's values, in
  /// emission order (exactly one pre-folded value when a combiner ran).
  std::function<void(uint64_t key, std::span<const Value>, ReduceContext*)>
      reducer;

  /// Size of the reducer id space the algorithm declared; besides being
  /// copied into the metrics it steers the in-memory shuffle's key-range
  /// split, so declare it accurately (or 0 for radix partitioning over raw
  /// 64-bit keys).
  uint64_t key_space = 0;

  /// Optional map-side combiner folding `incoming` into `acc`. MUST be
  /// associative over the emission order (sums, min/max, bitwise merges);
  /// the reducer must compute the same result from combined values as from
  /// the raw ones. Leave empty for rounds whose reducers need the raw
  /// multiset (e.g. every edge copy).
  std::function<void(Value& acc, const Value& incoming)> combiner;

  /// Optional sizing hint: expected emissions per input record (0 = no
  /// hint). Strategies that know their replication rate analytically
  /// (bucket-oriented ships C(b+p-3, p-2) pairs per edge, the 2-path
  /// round exactly 1) declare it so the engine can reserve its emission
  /// buffers and scatter buckets up front instead of reallocating through
  /// the map phase. A wrong hint costs memory or a few reallocations,
  /// never correctness.
  double emissions_per_input = 0.0;
};

namespace engine_internal {

/// Reduces the already-sorted pairs in [begin, end) — which must be aligned
/// to key boundaries — accumulating reduce-phase counters into `metrics`,
/// instances into `sink`, and intermediate records into `records`. With a
/// combiner, each key's adjacent partials are folded (in their stored
/// order, which is worker order = serial emission order) into the single
/// value the reducer sees.
template <typename Value>
void ReduceRange(
    const std::vector<std::pair<uint64_t, Value>>& pairs, size_t begin,
    size_t end,
    const std::function<void(uint64_t key, std::span<const Value>,
                             ReduceContext*)>& reduce_fn,
    const std::function<void(Value&, const Value&)>* combiner,
    InstanceSink* sink, InstanceSink* records, MapReduceMetrics* metrics) {
  std::vector<Value> group;
  size_t i = begin;
  while (i < end) {
    const uint64_t key = pairs[i].first;
    group.clear();
    if (combiner != nullptr) {
      Value accumulated = pairs[i].second;
      ++i;
      while (i < end && pairs[i].first == key) {
        (*combiner)(accumulated, pairs[i].second);
        ++i;
      }
      group.push_back(accumulated);
    } else {
      while (i < end && pairs[i].first == key) {
        group.push_back(pairs[i].second);
        ++i;
      }
    }
    ++metrics->distinct_keys;
    metrics->max_reducer_input =
        std::max<uint64_t>(metrics->max_reducer_input, group.size());
    ReduceContext context{&metrics->reduce_cost, sink, records, 0};
    reduce_fn(key, std::span<const Value>(group), &context);
    metrics->outputs += context.outputs;
  }
}

/// Splits [0, size) into at most `parts` contiguous slices of near-equal
/// length; returns the slice boundaries (parts+1 entries). The product is
/// taken in 128 bits: `size * t` in size_t arithmetic wraps once
/// size > SIZE_MAX / parts and would scramble the boundaries.
inline std::vector<size_t> SliceBoundaries(size_t size, unsigned parts) {
  std::vector<size_t> bounds;
  bounds.reserve(parts + 1);
  for (unsigned t = 0; t <= parts; ++t) {
    bounds.push_back(static_cast<size_t>(
        static_cast<unsigned __int128>(size) * t / parts));
  }
  return bounds;
}

/// Runs `task(t)` for t in [0, count): task 0 on the calling thread, the
/// rest through the policy's persistent ThreadPool (which preserves the
/// historical contract of spawning fresh threads here: join-all semantics
/// and the lowest-index worker exception rethrown to the caller — so a
/// callback that throws surfaces exactly as it would under the serial
/// engine instead of reaching std::terminate). The pool's spawn/reuse
/// split for this dispatch is folded into `stats`; a warm pool reuses
/// parked threads and spawns nothing.
template <typename Task>
void RunWorkers(const ExecutionPolicy& policy, size_t count, const Task& task,
                ShuffleStats* stats) {
  if (count <= 1) {
    task(0);
    return;
  }
  const ThreadPool::RunStats run = policy.EnsurePool().Run(count, task);
  stats->pool_threads_spawned += run.spawned;
  stats->pool_tasks_reused += run.reused;
}

/// Fills a round's map-phase counters: `logical` emissions are the round's
/// communication cost in the paper's model (key_value_pairs x record
/// size); `shipped` is what the shuffle physically moved after map-side
/// combining (equal without a combiner). Every backend — including the
/// process one, whose wire bytes are measured separately in
/// ShuffleStats — reports these identically, which is what keeps
/// JobMetrics policy-independent.
template <typename Value>
void CountMapPhase(uint64_t logical, uint64_t shipped,
                   MapReduceMetrics* metrics) {
  metrics->key_value_pairs = logical;
  metrics->bytes = logical * (sizeof(uint64_t) + sizeof(Value));
  metrics->shuffle.pairs_shipped = shipped;
  metrics->shuffle.shuffle_bytes =
      shipped * (sizeof(uint64_t) + sizeof(Value));
}

}  // namespace engine_internal

}  // namespace smr

#endif  // SMR_MAPREDUCE_ROUND_H_
