#ifndef SMR_MAPREDUCE_ENGINE_H_
#define SMR_MAPREDUCE_ENGINE_H_

#include <type_traits>

#include "mapreduce/codec.h"
#include "mapreduce/execution_policy.h"
#include "mapreduce/input_runs.h"
#include "mapreduce/instance_sink.h"
#include "mapreduce/process_backend.h"
#include "mapreduce/round.h"
#include "mapreduce/shuffle_backend.h"
#include "mapreduce/spill.h"

namespace smr {

/// Execution substrate: a faithful simulator of map-reduce rounds
/// (map -> shuffle/group-by-key -> reduce), the model of [11] that the
/// whole paper is expressed in. Keys are 64-bit reducer ids; values are an
/// algorithm-chosen POD. The engine measures exactly the quantities the
/// paper optimizes (Section 1.2): key-value pairs shipped (communication
/// cost), distinct keys (reducers), skew, and the reducers' instrumented
/// computation cost.
///
/// The engine is layered:
///
///   strategies -> JobDriver (mapreduce/job.h)
///                   |  declared rounds
///                   v
///   RunRound (this header) ------ mapper/reducer orchestration: picks ONE
///                   |             shuffle backend per round from the policy
///                   v
///   ShuffleBackend (mapreduce/shuffle_backend.h) -- transport/shuffle:
///       in-memory                 partitioned, spilling to the paged
///                                 spill store under a budget
///                                 (same header, mapreduce/spill.h)
///       process                   forked workers; pairs go one hop, from
///                                 map run files to reduce workers
///                                 (mapreduce/process_backend.h)
///                   |
///                   v
///   codec (mapreduce/codec.h) --- one serialization vocabulary: fixed-size
///                                 ValueCodec records (spill) and
///                                 length-prefixed varint frames (process)
///
/// A round is *declared*, not hand-wired: a RoundSpec (mapreduce/round.h)
/// names the mapper, the reducer, the reducer key space, and (optionally)
/// an associative map-side combiner. Rounds are run through a JobDriver,
/// which chains them under one ExecutionPolicy and aggregates their
/// metrics; the low-level RunRound entry point below is what the driver
/// calls.
///
/// Every backend honors one contract, whatever the transport: the shuffle
/// is fully deterministic — values arrive at each reducer in mapper
/// emission order, reducers run in ascending key order — and metrics and
/// sink emissions are byte-identical to the serial engine for every thread
/// count, worker count, partition count, and budget. Map and
/// reduce callbacks must therefore be re-entrant: they may mutate only
/// their own locals and the ReduceContext/Emitter they are handed, never
/// shared captured state. A reducer reaches the caller only through what
/// it emits: the process backend runs reducers in forked children, and a
/// retry may run one more than once (process_backend.h).
///
/// Parallel phases dispatch through the policy's persistent ThreadPool
/// (mapreduce/thread_pool.h): threads are spawned on the first parallel
/// phase and parked between phases, so a multi-round job pays thread setup
/// once, not per phase per round. ShuffleStats records the per-round
/// spawn/reuse split.
///
/// Combining. When a RoundSpec declares a combiner (and the policy does
/// not disable it), each map worker pre-aggregates its own emissions in
/// place: the first emission of a key appends a pair, later emissions of
/// the same key fold into that pair via the combiner. After the shuffle
/// each key's per-worker partials sit adjacent in worker order, and the
/// engine folds them once more before invoking the reducer, which
/// therefore receives exactly ONE combined value per key. Because map
/// workers cover contiguous input slices in order, the two folds compose
/// to a left fold over the full serial emission order — so for an
/// *associative* combiner the reducer's input, the semantic metrics, and
/// the sink emissions are byte-identical for every policy, exactly as
/// without a combiner. The logical communication cost (`key_value_pairs`,
/// what the paper's model counts) is unchanged by combining; the
/// physically shipped pair count is reported separately in
/// `ShuffleStats::pairs_shipped` and shrinks with combining — per-worker
/// pre-aggregation is host-scheduling-dependent, which is why it lives
/// with the other host-side shuffle stats outside metrics equality.

/// Selects the one shuffle backend a round runs on, from the policy:
///
///   1. process   — policy.backend == BackendMode::kProcess and the value
///                  type is codec-encodable (it must cross a process
///                  boundary);
///   2. in-memory — everything else, at every thread count, partition
///                  count, and budget.
///
/// Backends are stateless const singletons per (Input, Value)
/// instantiation; the reference stays valid for the program's lifetime.
template <typename Input, typename Value>
const ShuffleBackend<Input, Value>& SelectShuffleBackend(
    [[maybe_unused]] const ExecutionPolicy& policy) {
  if constexpr (ValueCodec<Value>::kEncodable) {
    if (policy.backend == BackendMode::kProcess) {
      static const ProcessShuffleBackend<Input, Value> process;
      return process;
    }
  }
  static const InMemoryShuffleBackend<Input, Value> in_memory;
  return in_memory;
}

/// Runs one declared round over `inputs` — a span or vector, or the runs
/// of a previous round's RecordBuffer, mapped in place. `sink` receives
/// the reducers' final instances (EmitInstance), `records` the
/// intermediate records (EmitRecord) a multi-round pipeline threads into
/// its next round; either may be null.
/// `policy` selects the host-side scheduling; results are identical for
/// every thread count, partition count, budget, and backend.
/// `expected_pairs` is a host-side reservation hint for the round's total
/// emission count (0 = none; the spec's own `emissions_per_input` hint
/// takes precedence) — a JobDriver passes the previous round's shipped
/// pair count, a decent prior for pipelines that reshuffle similar
/// volumes. Prefer JobDriver::RunRound (mapreduce/job.h), which also
/// aggregates JobMetrics.
template <typename Input, typename Value>
MapReduceMetrics RunRound(
    const RoundSpec<Input, Value>& spec,
    // type_identity keeps the runs out of deduction so callers can pass
    // spans and vectors (Input/Value are pinned by the spec).
    const InputRuns<std::type_identity_t<Input>>& inputs, InstanceSink* sink,
    RecordBuffer* records = nullptr,
    const ExecutionPolicy& policy = ExecutionPolicy::Serial(),
    uint64_t expected_pairs = 0) {
  if (spec.emissions_per_input > 0) {
    expected_pairs = static_cast<uint64_t>(
        spec.emissions_per_input * static_cast<double>(inputs.size()));
  }
  return SelectShuffleBackend<Input, Value>(policy).RunRound(
      spec, inputs, sink, records, policy, expected_pairs);
}

}  // namespace smr

#endif  // SMR_MAPREDUCE_ENGINE_H_
