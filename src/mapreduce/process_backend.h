#ifndef SMR_MAPREDUCE_PROCESS_BACKEND_H_
#define SMR_MAPREDUCE_PROCESS_BACKEND_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "mapreduce/codec.h"
#include "mapreduce/fault_injection.h"
#include "mapreduce/round.h"
#include "mapreduce/shuffle_backend.h"
#include "mapreduce/spill.h"
#include "mapreduce/worker_error.h"

namespace smr {

namespace process_internal {

/// The process backend's non-template half, defined in process_backend.cc
/// (the only translation unit that talks to fork/socketpair/poll): the
/// coordinator, the link protocol, and the child-side helpers the
/// template bodies below call.

/// The round's fault bookkeeping, surfaced in ShuffleStats and preserved
/// across the retries-exhausted thread fallback.
struct FaultCounters {
  uint64_t retries = 0;
  uint64_t discarded = 0;
  uint64_t deadline_kills = 0;
};

/// Where one sorted run lies in a map worker's run file.
struct RunExtent {
  uint64_t offset = 0;  // bytes
  uint64_t count = 0;   // fixed-size spill records
};

/// A map worker's report: its run-index frame (kHeader) carries, per
/// partition, the runs it wrote, oldest first, plus the spill counters of
/// its own page pool; the kEnd frame after it carries its logical
/// emission count.
struct MapReport {
  std::vector<std::vector<RunExtent>> runs;  // [partition][run]
  uint64_t pages_spilled = 0;
  uint64_t bytes_spilled = 0;
  uint64_t spill_files = 0;
  uint64_t logical_pairs = 0;
};

using RunFiles = std::vector<std::unique_ptr<SpillFile>>;

/// Runs in map child t: writes its runs into `run_file` and sends its
/// report on `fd`.
using MapBody = std::function<void(size_t t, SpillFile* run_file,
                                   const std::optional<ArmedFault>& fault,
                                   int fd)>;

/// Runs in a reduce child: reduces partitions [first, last) over every
/// map worker's runs and sends the output on `fd`.
using ReduceBody = std::function<void(
    const RunFiles& files, const std::vector<MapReport>& reports,
    unsigned first, unsigned last, bool want_instances, bool want_records,
    const std::optional<ArmedFault>& fault, int fd)>;

/// The coordinator: forks `map_workers` map children (opening one run
/// file per attempt first) and collects their reports in worker order,
/// then forks reduce children over balanced contiguous partition ranges,
/// collects their output in worker order, and replays it into the sinks
/// once every worker has succeeded. Retries, deadlines and injected
/// faults follow the policy. Fills the ShuffleStats of *metrics, the
/// reduce counters, and the map totals *logical_pairs / *shipped_pairs;
/// throws WorkerError when a worker slot exhausts its attempts.
void Coordinate(const ExecutionPolicy& policy, unsigned map_workers,
                unsigned partitions, uint64_t record_bytes,
                const MapBody& map_body, const ReduceBody& reduce_body,
                InstanceSink* sink, InstanceSink* records,
                MapReduceMetrics* metrics, uint64_t* logical_pairs,
                uint64_t* shipped_pairs, FaultCounters* counters);

/// Map-child view of the run file the coordinator opened for the attempt:
/// the SpillBackend the child's PagePool spills through, so early spills
/// and the end-of-map flush all land in that one file. It records where
/// each run lies, relying on how SpillChannel::Spill writes: buckets in
/// ascending partition order, each starting with a fresh append and
/// emptied only after its last record is written — so a new run belongs
/// to the lowest non-empty bucket. An armed kill/stall fires once
/// `after` records are written, or at Finish.
class RunFileWriter final : public SpillBackend {
 public:
  RunFileWriter(SpillFile* file, uint64_t record_bytes,
                const std::optional<ArmedFault>& fault);

  /// Sizes of the buckets of the channel spilling through this writer.
  void Watch(unsigned partitions, std::function<size_t(unsigned)> bucket_size);

  std::unique_ptr<SpillFile> Create() override;

  /// After the flush: checks that the runs hold exactly pairs[p] records
  /// per partition (std::logic_error otherwise), fires an armed kill/stall
  /// the appends never reached, and stores the runs in *report.
  void Finish(const std::vector<uint64_t>& pairs, MapReport* report) const;

 private:
  class View;
  void Append(const void* data, size_t bytes);

  SpillFile* file_;
  uint64_t record_bytes_;
  std::optional<ArmedFault> cut_;
  std::function<size_t(unsigned)> bucket_size_;
  std::vector<std::vector<RunExtent>> runs_;
  uint64_t written_ = 0;
  uint64_t run_left_ = 0;
};

/// Sends a map child's report. An armed kCorruptFrame corrupts the
/// run-index frame, which the coordinator must then reject.
void SendMapReport(int fd, const MapReport& report,
                   const std::optional<ArmedFault>& fault);

/// Reducer sink that serializes each emission as one frame ([varint
/// arity][varint node]*) into a shared output buffer — instances and
/// records interleave in emission order, so the coordinator's replay
/// preserves the engine's deterministic order. When `boundaries` is
/// non-null the start offset of every frame is recorded, which is what
/// lets an armed child cut or corrupt its stream at an exact frame.
class FrameSink final : public InstanceSink {
 public:
  FrameSink(FrameKind kind, std::vector<unsigned char>* out,
            std::vector<size_t>* boundaries)
      : kind_(kind), out_(out), boundaries_(boundaries) {}

  void Emit(std::span<const NodeId> assignment) override;

 private:
  FrameKind kind_;
  std::vector<unsigned char>* out_;
  std::vector<size_t>* boundaries_;
  std::vector<unsigned char> scratch_;
};

/// Sends a reduce child's buffered output followed by its shard metrics
/// and kEnd. An armed fault cuts (kill/stall) or corrupts the stream at
/// output frame `after`; `boundaries` is non-null exactly then.
void SendReduceOutput(int fd, const MapReduceMetrics& shard,
                      std::vector<unsigned char>* out,
                      std::vector<size_t>* boundaries,
                      const std::optional<ArmedFault>& fault);

}  // namespace process_internal

/// BackendMode::kProcess: map and reduce workers are forked child
/// processes, and every shuffled pair makes exactly one hop — the one the
/// paper's communication cost counts. Map child t scatters its input
/// slice into key-range partitions with the in-memory backend's
/// KeyPartitioner and Emitter, sorts each partition stably, and writes it
/// as a run of fixed-size spill records into a run file the parent opened
/// for the attempt before forking; it then sends a small run-index frame
/// (per partition, the runs' offsets and counts). Once every map worker
/// has succeeded, reduce child r takes a contiguous range of partitions,
/// balanced by pair count, and streams each one through a stable
/// SpillMerger over the map workers' runs — in worker order, oldest run
/// first, reading the inherited run files with pread — into
/// engine_internal::ReduceStream. It sends back only instance, record and
/// metrics frames, which the parent replays in worker order. The parent
/// never touches a pair: it spawns, watches liveness, retries, and
/// replays. Partitions are ascending key ranges and the merge is the
/// stable sort of the worker-order concatenation, so instances, order
/// and semantic metrics are byte-identical to the in-memory backend
/// (tests/process_backend_test.cc pins this differentially). With a
/// shuffle budget, each map child's page pool gets budget / map workers
/// and spills early runs into the same run file.
///
/// Fault tolerance (tests/fault_tolerance_test.cc pins all of it):
///
///   * Retries. Each worker slot is an independent retry scope under
///     policy.retry. A failed map attempt — crash, reported child error,
///     deadline, corrupt or out-of-file run index, spawn or run-file
///     failure — drops its run file, and the retry gets a fresh one. A
///     failed reduce attempt drops its buffered output and is re-forked
///     over the same runs; no map reruns. Inputs and runs are read-only,
///     so a recovered round is byte-identical to a fault-free run.
///   * Deadlines. With policy.worker_deadline_ms > 0 every link wait is a
///     poll() bounded by the deadline; a worker whose link makes no
///     progress for the whole window is SIGKILLed, reaped, and counted as
///     a failed attempt (ShuffleStats::deadline_kills).
///   * Escalation. A slot that exhausts max_attempts throws WorkerError
///     (mapreduce/worker_error.h) naming the fault kind, role, worker,
///     and attempt count. Under OnExhausted::kFallbackThread the round is
///     rerun on InMemoryShuffleBackend instead — output is replayed only
///     after every worker has succeeded, so the fallback cannot duplicate
///     emissions (ShuffleStats::thread_fallbacks records it).
///   * Injection. policy.fault_injector (or $SMR_FAULT_PLAN — see
///     mapreduce/fault_injection.h) arms deterministic faults at spawn.
///
/// Wire accounting: ShuffleStats::link_bytes_on_wire[t] counts map worker
/// t's run-file bytes plus its control frames (map_bytes_on_wire is the
/// sum), reduce_bytes_on_wire the reducers' output frames; only the
/// successful attempt of each worker counts. The semantic `bytes` metric
/// keeps the paper's key_value_pairs x record_size formula
/// (bench/bench_backend_comm.cc plots one against the other).
///
/// Stricter reducer contract than the thread backend: reducers run in
/// forked children, so ONLY what they emit through the ReduceContext
/// reaches the parent — a shared-slot side effect (e.g. census's
/// per-node table) stays in the child. Retries tighten this further:
/// side effects outside the emitted stream may run more than once.
template <typename Input, typename Value>
class ProcessShuffleBackend final : public ShuffleBackend<Input, Value> {
  static_assert(ValueCodec<Value>::kEncodable,
                "process backend requires a codec-encodable value type");
  using Pair = std::pair<uint64_t, Value>;
  using CombineFn = typename Emitter<Value>::CombineFn;
  using FaultCounters = process_internal::FaultCounters;
  using MapReport = process_internal::MapReport;
  static constexpr uint64_t kRecordBytes = SpillChannel<Value>::kRecordBytes;

 public:
  const char* name() const override { return "process"; }

  MapReduceMetrics RunRound(const RoundSpec<Input, Value>& spec,
                            std::span<const Input> inputs, InstanceSink* sink,
                            InstanceSink* records,
                            const ExecutionPolicy& policy,
                            uint64_t expected_pairs) const override {
    FaultCounters counters;
    MapReduceMetrics metrics;
    try {
      metrics = RunProcessRound(spec, inputs, sink, records, policy,
                                expected_pairs, &counters);
    } catch (const WorkerError&) {
      if (policy.on_exhausted != OnExhausted::kFallbackThread) throw;
      // Graceful degradation: nothing was emitted yet, and the backends
      // share one determinism contract.
      metrics = InMemoryShuffleBackend<Input, Value>().RunRound(
          spec, inputs, sink, records, policy, expected_pairs);
      metrics.shuffle.thread_fallbacks = 1;
    }
    metrics.shuffle.worker_retries = counters.retries;
    metrics.shuffle.frames_discarded = counters.discarded;
    metrics.shuffle.deadline_kills = counters.deadline_kills;
    return metrics;
  }

 private:
  MapReduceMetrics RunProcessRound(const RoundSpec<Input, Value>& spec,
                                   std::span<const Input> inputs,
                                   InstanceSink* sink, InstanceSink* records,
                                   const ExecutionPolicy& policy,
                                   uint64_t expected_pairs,
                                   FaultCounters* counters) const {
    MapReduceMetrics metrics;
    metrics.input_records = inputs.size();
    metrics.key_space = spec.key_space;
    if (inputs.empty()) return metrics;

    // Children inherit the inputs by fork (the paper costs the shuffle,
    // not the input distribution).
    const CombineFn* combiner =
        (policy.combine && spec.combiner) ? &spec.combiner : nullptr;
    const unsigned map_workers = policy.EffectiveProcessWorkers(inputs.size());
    const KeyPartitioner partitioner(policy.EffectiveProcessPartitions(),
                                     spec.key_space);
    const std::vector<size_t> bounds =
        engine_internal::SliceBoundaries(inputs.size(), map_workers);
    const uint64_t budget =
        policy.shuffle_budget_bytes == 0
            ? 0
            : std::max<uint64_t>(1, policy.shuffle_budget_bytes / map_workers);
    const uint64_t expected = engine_internal::ClampCombined(
        combiner != nullptr, spec.key_space, expected_pairs / map_workers);

    uint64_t logical_pairs = 0;
    uint64_t shipped_pairs = 0;
    process_internal::Coordinate(
        policy, map_workers, partitioner.partitions(), kRecordBytes,
        [&](size_t t, SpillFile* run_file,
            const std::optional<ArmedFault>& fault, int fd) {
          MapChild(spec,
                   inputs.subspan(bounds[t], bounds[t + 1] - bounds[t]),
                   combiner, partitioner, budget, expected, run_file, fault,
                   fd);
        },
        [&](const process_internal::RunFiles& files,
            const std::vector<MapReport>& reports, unsigned first,
            unsigned last, bool want_instances, bool want_records,
            const std::optional<ArmedFault>& fault, int fd) {
          ReduceChild(spec, combiner, files, reports, first, last,
                      want_instances, want_records, fault, fd);
        },
        sink, records, &metrics, &logical_pairs, &shipped_pairs, counters);
    engine_internal::CountMapPhase<Value>(logical_pairs, shipped_pairs,
                                          &metrics);
    return metrics;
  }

  /// Map worker body (runs in the forked child): scatter the slice into
  /// the channel's partition buckets — spilling early runs under a budget
  /// — then flush every bucket as a stably sorted run and send the report.
  static void MapChild(const RoundSpec<Input, Value>& spec,
                       std::span<const Input> slice,
                       const CombineFn* combiner,
                       const KeyPartitioner& partitioner, uint64_t budget,
                       uint64_t expected, SpillFile* run_file,
                       const std::optional<ArmedFault>& fault, int fd) {
    const unsigned partitions = partitioner.partitions();
    process_internal::RunFileWriter writer(run_file, kRecordBytes, fault);
    PagePool pool(budget, &writer);
    SpillChannel<Value> channel(&pool, partitions);
    std::vector<std::vector<Pair>>* buckets = channel.buckets();
    writer.Watch(partitions,
                 [buckets](unsigned p) { return (*buckets)[p].size(); });
    if (budget == 0 && expected > 0) {
      for (auto& bucket : *buckets) bucket.reserve(expected / partitions + 1);
    }
    Emitter<Value> emitter(buckets, &partitioner, combiner,
                           budget == 0 ? expected : 0, &channel);
    for (const Input& input : slice) spec.mapper(input, &emitter);

    MapReport report;
    report.pages_spilled = pool.pages_spilled();
    report.bytes_spilled = pool.bytes_spilled();
    report.spill_files = pool.spill_files();
    report.logical_pairs = emitter.emitted();
    std::vector<uint64_t> pairs(partitions);
    for (unsigned p = 0; p < partitions; ++p) {
      pairs[p] = channel.PairsInPartition(p);
    }
    channel.Spill();  // the end-of-map flush: every bucket becomes a run
    writer.Finish(pairs, &report);
    process_internal::SendMapReport(fd, report, fault);
  }

  /// Reduce worker body (runs in the forked child): merge and reduce each
  /// partition of [first, last) over the map workers' runs in worker
  /// order, buffering the output, then send it with the shard metrics.
  static void ReduceChild(const RoundSpec<Input, Value>& spec,
                          const CombineFn* combiner,
                          const process_internal::RunFiles& files,
                          const std::vector<MapReport>& reports,
                          unsigned first, unsigned last, bool want_instances,
                          bool want_records,
                          const std::optional<ArmedFault>& fault, int fd) {
    MapReduceMetrics shard;
    std::vector<unsigned char> out;
    std::vector<size_t> boundaries;
    std::vector<size_t>* marks = fault ? &boundaries : nullptr;
    process_internal::FrameSink instances(FrameKind::kInstance, &out, marks);
    process_internal::FrameSink record_sink(FrameKind::kRecord, &out, marks);
    for (unsigned p = first; p < last; ++p) {
      std::vector<SpillSource<Value>> sources;
      for (size_t t = 0; t < files.size(); ++t) {
        for (const process_internal::RunExtent& run : reports[t].runs[p]) {
          sources.emplace_back(files[t].get(), run.offset, run.count);
        }
      }
      SpillMerger<Value> merger(std::move(sources));
      engine_internal::ReduceStream(
          &merger, spec.reducer, combiner,
          want_instances ? &instances : nullptr,
          want_records ? &record_sink : nullptr, &shard);
    }
    process_internal::SendReduceOutput(fd, shard, &out, marks, fault);
  }
};

}  // namespace smr

#endif  // SMR_MAPREDUCE_PROCESS_BACKEND_H_
