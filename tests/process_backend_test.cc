// Differential and crash tests for the process backend
// (mapreduce/process_backend.h): forked map workers writing run files and
// forked reduce workers merging them must produce byte-identical
// instances, order, and semantic metrics to the in-thread backend (and,
// round by round, to the engine-free ReferenceRound) for every worker
// count and spill budget — and a worker that dies or throws must surface
// as a runtime_error naming the worker, never as a hang.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/strategy.h"
#include "graph/generators.h"
#include "graph/sample_graph.h"
#include "mapreduce/codec.h"
#include "mapreduce/engine.h"
#include "mapreduce/execution_policy.h"
#include "mapreduce/instance_sink.h"
#include "mapreduce/job.h"
#include "mapreduce/metrics.h"
#include "mapreduce/process_backend.h"
#include "mapreduce/worker_error.h"
#include "tests/test_util.h"

namespace smr {
namespace {

Graph TestGraph() { return ErdosRenyi(60, 240, 7); }

bool Contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

// ---------------------------------------------------------------------------
// Full-strategy differential: process backend vs the serial reference
// ---------------------------------------------------------------------------

struct StrategyRun {
  uint64_t instances = 0;
  std::vector<std::vector<NodeId>> assignments;
  MapReduceMetrics metrics;
  JobMetrics job;
};

StrategyRun RunStrategy(const SampleGraph& pattern, const Graph& graph,
                        const std::string& strategy,
                        const ExecutionPolicy& policy) {
  CollectingSink sink;
  EnumerationQuery query = EnumerationQuery::Undirected(pattern, graph);
  query.WithStrategy(strategy).WithPolicy(policy).WithSink(&sink);
  const EnumerationResult result = StrategyRegistry::Global().Run(query);
  return StrategyRun{result.instances, sink.assignments(), result.metrics,
                     result.job};
}

// The acceptance grid: worker counts {1,2,4} x a spill budget, on a
// triangle and a square pattern, including a
// multi-round strategy (tworound) so the intermediate-record channel
// crosses the process boundary too. Every cell must match the serial
// reference byte for byte: instance count, assignments in order, the
// headline round's semantic metrics, and the whole JobMetrics chain.
TEST(ProcessBackend, MatchesThreadBackendAcrossWorkersModesAndBudgets) {
  const Graph graph = TestGraph();
  const SampleGraph triangle = SampleGraph::Triangle();
  const SampleGraph square = SampleGraph::Square();
  const struct {
    const SampleGraph* pattern;
    const char* strategy;
  } kCases[] = {
      {&triangle, "bucket:6"},
      {&triangle, "tworound"},
      {&square, "bucket:5"},
  };

  for (const auto& test_case : kCases) {
    const StrategyRun expected =
        RunStrategy(*test_case.pattern, graph, test_case.strategy,
                    ExecutionPolicy::Serial());
    ASSERT_GT(expected.instances, 0u) << test_case.strategy;

    for (const unsigned workers : {1u, 2u, 4u}) {
      for (const uint64_t budget : {uint64_t{0}, uint64_t{64} * 1024}) {
        const ExecutionPolicy policy =
            ExecutionPolicy::Serial().WithBudget(budget).WithBackend(
                BackendMode::kProcess, workers);
        const StrategyRun got =
            RunStrategy(*test_case.pattern, graph, test_case.strategy, policy);
        const std::string label = std::string(test_case.strategy) +
                                  " workers=" + std::to_string(workers) +
                                  " budget=" + std::to_string(budget);
        EXPECT_EQ(got.instances, expected.instances) << label;
        EXPECT_EQ(got.assignments, expected.assignments) << label;
        EXPECT_TRUE(got.metrics == expected.metrics) << label;
        EXPECT_TRUE(got.job == expected.job) << label;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Round-level differentials over a synthetic counting round
// ---------------------------------------------------------------------------

using CountSpec = RoundSpec<uint32_t, uint64_t>;

CountSpec CountRound(uint64_t keys, bool with_combiner) {
  CountSpec spec;
  spec.name = "count";
  spec.key_space = keys;
  spec.mapper = [keys](const uint32_t& input, Emitter<uint64_t>* emitter) {
    emitter->Emit(input % keys, 1);
  };
  spec.reducer = [](uint64_t key, std::span<const uint64_t> values,
                    ReduceContext* context) {
    uint64_t total = 0;
    for (const uint64_t value : values) total += value;
    const NodeId out[2] = {static_cast<NodeId>(key),
                           static_cast<NodeId>(total)};
    context->EmitInstance(out);
  };
  if (with_combiner) {
    spec.combiner = [](uint64_t& acc, const uint64_t& incoming) {
      acc += incoming;
    };
  }
  return spec;
}

std::vector<uint32_t> Iota(size_t n) {
  std::vector<uint32_t> inputs(n);
  std::iota(inputs.begin(), inputs.end(), 0u);
  return inputs;
}

TEST(ProcessBackend, RoundLevelMetricsAndEmissionsMatchThreadBackend) {
  const CountSpec spec = CountRound(50, /*with_combiner=*/false);
  const std::vector<uint32_t> inputs = Iota(1000);

  CollectingSink reference_sink;
  const MapReduceMetrics reference_metrics =
      ReferenceRound(spec, std::span<const uint32_t>(inputs), &reference_sink);

  for (const unsigned workers : {1u, 2u, 3u, 4u}) {
    CollectingSink process_sink;
    const MapReduceMetrics process_metrics = RunRound(
        spec, std::span<const uint32_t>(inputs), &process_sink, nullptr,
        ExecutionPolicy::Serial().WithBackend(BackendMode::kProcess,
                                              workers));
    EXPECT_TRUE(process_metrics == reference_metrics) << workers;
    EXPECT_EQ(process_sink.assignments(), reference_sink.assignments())
        << workers;
  }
}

// Per-child combining: the logical pair count (the paper's communication
// cost) must be unchanged, the physically shipped count shrinks to about
// one pair per (worker, key), and the semantic results still match the
// thread backend exactly.
TEST(ProcessBackend, CombinerShrinksShippedPairsButNotSemantics) {
  const CountSpec spec = CountRound(50, /*with_combiner=*/true);
  const std::vector<uint32_t> inputs = Iota(1000);

  CollectingSink reference_sink;
  const MapReduceMetrics reference_metrics =
      ReferenceRound(spec, std::span<const uint32_t>(inputs), &reference_sink);

  CollectingSink process_sink;
  const MapReduceMetrics process_metrics = RunRound(
      spec, std::span<const uint32_t>(inputs), &process_sink, nullptr,
      ExecutionPolicy::Serial().WithBackend(BackendMode::kProcess, 4));

  EXPECT_TRUE(process_metrics == reference_metrics);
  EXPECT_EQ(process_sink.assignments(), reference_sink.assignments());
  EXPECT_EQ(process_metrics.key_value_pairs, 1000u);
  // 4 workers x 50 keys: every worker's slice covers every key.
  EXPECT_EQ(process_metrics.shuffle.pairs_shipped, 200u);
}

TEST(ProcessBackend, CountsOnlySinkMatchesThreadBackend) {
  const CountSpec spec = CountRound(50, /*with_combiner=*/false);
  const std::vector<uint32_t> inputs = Iota(1000);

  CountingSink reference_sink;
  const MapReduceMetrics reference_metrics =
      ReferenceRound(spec, std::span<const uint32_t>(inputs), &reference_sink);

  CountingSink process_sink;
  const MapReduceMetrics process_metrics = RunRound(
      spec, std::span<const uint32_t>(inputs), &process_sink, nullptr,
      ExecutionPolicy::Serial().WithBackend(BackendMode::kProcess, 3));

  EXPECT_TRUE(process_metrics == reference_metrics);
  EXPECT_EQ(process_sink.count(), reference_sink.count());
  EXPECT_EQ(process_sink.count(), 50u);
}

// Intermediate records (the multi-round channel) must cross the process
// boundary in the same deterministic order the thread backend replays.
TEST(ProcessBackend, RecordChannelCrossesTheProcessBoundaryInOrder) {
  CountSpec spec = CountRound(50, /*with_combiner=*/false);
  spec.reducer = [](uint64_t key, std::span<const uint64_t> values,
                    ReduceContext* context) {
    const NodeId record[2] = {static_cast<NodeId>(key),
                              static_cast<NodeId>(values.size())};
    context->EmitRecord(record);
    if (key % 2 == 0) context->EmitInstance(record);
  };
  const std::vector<uint32_t> inputs = Iota(1000);

  CollectingSink reference_sink;
  RecordBuffer thread_records(2);
  const MapReduceMetrics reference_metrics =
      RunRound(spec, std::span<const uint32_t>(inputs), &reference_sink,
               &thread_records);

  CollectingSink process_sink;
  RecordBuffer process_records(2);
  const MapReduceMetrics process_metrics = RunRound(
      spec, std::span<const uint32_t>(inputs), &process_sink,
      &process_records,
      ExecutionPolicy::Serial().WithBackend(BackendMode::kProcess, 4));

  EXPECT_TRUE(process_metrics == reference_metrics);
  EXPECT_EQ(process_sink.assignments(), reference_sink.assignments());
  EXPECT_EQ(NodesOf(process_records), NodesOf(thread_records));
}

// ---------------------------------------------------------------------------
// Instance and record frames: hand-built, decoded strictly
// ---------------------------------------------------------------------------

std::vector<unsigned char> NodeListFrame(FrameKind kind,
                                         std::vector<uint64_t> nodes) {
  std::vector<unsigned char> body;
  AppendVarint(nodes.size(), &body);
  for (const uint64_t node : nodes) AppendVarint(node, &body);
  std::vector<unsigned char> wire;
  AppendFrame(kind, body.data(), body.size(), &wire);
  return wire;
}

bool DecodesAs(const std::vector<unsigned char>& wire, size_t arity,
               std::vector<NodeId>* nodes) {
  FrameView frame;
  size_t consumed = 0;
  DecodeFrameChecked(wire.data(), wire.size(), /*closed=*/true,
                     kMaxFrameBytes, &frame, &consumed);
  return process_internal::DecodeNodeList(frame, arity, nodes);
}

TEST(ProcessBackend, NodeFramesRejectANodeBeyondTheNodeIdRange) {
  std::vector<NodeId> nodes;
  ASSERT_TRUE(DecodesAs(NodeListFrame(FrameKind::kInstance, {7, 0xFFFFFFFF}),
                        0, &nodes));
  EXPECT_EQ(nodes, (std::vector<NodeId>{7, 0xFFFFFFFF}));
  // Narrowed to a NodeId, 2^32 would read as node 0.
  EXPECT_FALSE(DecodesAs(
      NodeListFrame(FrameKind::kInstance, {7, uint64_t{1} << 32}), 0, &nodes));
  EXPECT_FALSE(DecodesAs(
      NodeListFrame(FrameKind::kRecord, {uint64_t{1} << 32, 1, 2}), 3,
      &nodes));
}

TEST(ProcessBackend, RecordFramesOfTheWrongArityAreRejected) {
  std::vector<NodeId> nodes;
  ASSERT_TRUE(
      DecodesAs(NodeListFrame(FrameKind::kRecord, {1, 2, 3}), 3, &nodes));
  EXPECT_EQ(nodes, (std::vector<NodeId>{1, 2, 3}));
  EXPECT_FALSE(DecodesAs(NodeListFrame(FrameKind::kRecord, {1, 2}), 3, &nodes));
}

// A reducer that emits an arity-2 record on an arity-3 channel fails the
// round — as a corrupt reduce frame on the process backend, as the
// buffer's own arity check in process — instead of shifting every record
// after it.
TEST(ProcessBackend, WrongArityRecordFailsTheRound) {
  CountSpec spec = CountRound(8, /*with_combiner=*/false);
  spec.reducer = [](uint64_t key, std::span<const uint64_t>,
                    ReduceContext* context) {
    const NodeId record[2] = {static_cast<NodeId>(key),
                              static_cast<NodeId>(key)};
    context->EmitRecord(record);
  };
  const std::vector<uint32_t> inputs = Iota(100);
  RecordBuffer records(3);
  try {
    RunRound(spec, std::span<const uint32_t>(inputs), nullptr, &records,
             ExecutionPolicy::Serial().WithBackend(BackendMode::kProcess, 2));
    FAIL() << "a wrong-arity record frame must fail the round";
  } catch (const WorkerError& error) {
    EXPECT_EQ(error.kind(), WorkerErrorKind::kCorruptFrame) << error.what();
  }
  EXPECT_EQ(records.size(), 0u);
  EXPECT_THROW(RunRound(spec, std::span<const uint32_t>(inputs), nullptr,
                        &records, ExecutionPolicy::WithThreads(2)),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Wire accounting: measured bytes vs the paper's modeled bytes
// ---------------------------------------------------------------------------

TEST(ProcessBackend, CountsBytesOnTheWirePerLink) {
  const CountSpec spec = CountRound(64, /*with_combiner=*/false);
  const std::vector<uint32_t> inputs = Iota(2000);

  CollectingSink sink;
  const MapReduceMetrics metrics = RunRound(
      spec, std::span<const uint32_t>(inputs), &sink, nullptr,
      ExecutionPolicy::Serial().WithBackend(BackendMode::kProcess, 3));
  const ShuffleStats& stats = metrics.shuffle;

  // 3 map workers + 3 reduce workers were forked.
  EXPECT_EQ(stats.process_workers, 6u);
  ASSERT_EQ(stats.link_bytes_on_wire.size(), 3u);
  uint64_t link_total = 0;
  for (const uint64_t link : stats.link_bytes_on_wire) {
    EXPECT_GT(link, 0u);
    link_total += link;
  }
  EXPECT_EQ(link_total, stats.map_bytes_on_wire);
  EXPECT_GT(stats.reduce_bytes_on_wire, 0u);

  // The measured map->coordinator volume tracks the paper's
  // key_value_pairs x record_size model: varint framing compresses small
  // keys, length prefixes add a little, so the ratio stays within
  // [0.5, 1.5] of the modeled shuffle bytes.
  EXPECT_GT(stats.shuffle_bytes, 0u);
  EXPECT_GE(stats.map_bytes_on_wire * 2, stats.shuffle_bytes);
  EXPECT_LE(stats.map_bytes_on_wire * 2, stats.shuffle_bytes * 3);
}

// One hop: a pair travels from a map child's run file straight to a
// reduce child, so on a round with many pairs and few outputs the reduce
// links carry only the output frames — never a second copy of the pairs.
TEST(ProcessBackend, PairsCrossOneHop) {
  const CountSpec spec = CountRound(16, /*with_combiner=*/false);
  const std::vector<uint32_t> inputs = Iota(20000);

  CollectingSink sink;
  const MapReduceMetrics metrics = RunRound(
      spec, std::span<const uint32_t>(inputs), &sink, nullptr,
      ExecutionPolicy::Serial().WithBackend(BackendMode::kProcess, 4));
  const ShuffleStats& stats = metrics.shuffle;

  EXPECT_EQ(metrics.outputs, 16u);
  EXPECT_GE(stats.map_bytes_on_wire, stats.shuffle_bytes);
  EXPECT_GT(stats.reduce_bytes_on_wire, 0u);
  EXPECT_LT(stats.reduce_bytes_on_wire * 4, stats.map_bytes_on_wire);
}

TEST(ProcessBackend, ThreadBackendLeavesWireCountersZero) {
  const CountSpec spec = CountRound(64, /*with_combiner=*/false);
  const std::vector<uint32_t> inputs = Iota(500);
  CollectingSink sink;
  const MapReduceMetrics metrics =
      RunRound(spec, std::span<const uint32_t>(inputs), &sink);
  EXPECT_EQ(metrics.shuffle.map_bytes_on_wire, 0u);
  EXPECT_EQ(metrics.shuffle.reduce_bytes_on_wire, 0u);
  EXPECT_TRUE(metrics.shuffle.link_bytes_on_wire.empty());
}

// A tight budget makes each map child's channel spill early runs into its
// run file; semantics must be identical to the unbudgeted thread run.
TEST(ProcessBackend, SpillsUnderBudgetWithoutChangingResults) {
  const CountSpec spec = CountRound(256, /*with_combiner=*/false);
  const std::vector<uint32_t> inputs = Iota(20000);

  CollectingSink reference_sink;
  const MapReduceMetrics reference_metrics =
      ReferenceRound(spec, std::span<const uint32_t>(inputs), &reference_sink);

  CollectingSink process_sink;
  const MapReduceMetrics process_metrics = RunRound(
      spec, std::span<const uint32_t>(inputs), &process_sink, nullptr,
      ExecutionPolicy::Serial().WithBudget(16 * 1024).WithBackend(
          BackendMode::kProcess, 2));

  EXPECT_GT(process_metrics.shuffle.pages_spilled, 0u);
  EXPECT_GT(process_metrics.shuffle.spill_files, 0u);
  EXPECT_TRUE(process_metrics == reference_metrics);
  EXPECT_EQ(process_sink.assignments(), reference_sink.assignments());
}

// ---------------------------------------------------------------------------
// Crash detection: dead or throwing workers raise, never hang
// ---------------------------------------------------------------------------

TEST(ProcessBackend, DeadMapWorkerRaisesErrorNamingTheWorker) {
  const pid_t parent = getpid();
  CountSpec spec = CountRound(8, /*with_combiner=*/false);
  spec.mapper = [parent](const uint32_t& input, Emitter<uint64_t>* emitter) {
    if (getpid() != parent) _exit(3);
    emitter->Emit(input % 8, 1);
  };
  const std::vector<uint32_t> inputs = Iota(100);
  CollectingSink sink;
  try {
    RunRound(spec, std::span<const uint32_t>(inputs), &sink, nullptr,
             ExecutionPolicy::Serial().WithBackend(BackendMode::kProcess, 2));
    FAIL() << "a dead map worker must raise";
  } catch (const std::runtime_error& error) {
    EXPECT_TRUE(Contains(error.what(), "map worker")) << error.what();
    EXPECT_TRUE(Contains(error.what(), "exited with status 3"))
        << error.what();
    EXPECT_TRUE(Contains(error.what(), "before finishing its stream"))
        << error.what();
  }
}

TEST(ProcessBackend, DeadReduceWorkerRaisesErrorNamingTheWorker) {
  const pid_t parent = getpid();
  CountSpec spec = CountRound(8, /*with_combiner=*/false);
  spec.reducer = [parent](uint64_t, std::span<const uint64_t>,
                          ReduceContext*) {
    if (getpid() != parent) _exit(4);
  };
  const std::vector<uint32_t> inputs = Iota(100);
  CollectingSink sink;
  try {
    RunRound(spec, std::span<const uint32_t>(inputs), &sink, nullptr,
             ExecutionPolicy::Serial().WithBackend(BackendMode::kProcess, 2));
    FAIL() << "a dead reduce worker must raise";
  } catch (const std::runtime_error& error) {
    EXPECT_TRUE(Contains(error.what(), "reduce worker")) << error.what();
    EXPECT_TRUE(Contains(error.what(), "exited with status 4"))
        << error.what();
  }
}

TEST(ProcessBackend, MapperExceptionTravelsBackWithItsMessage) {
  const pid_t parent = getpid();
  CountSpec spec = CountRound(8, /*with_combiner=*/false);
  spec.mapper = [parent](const uint32_t& input, Emitter<uint64_t>* emitter) {
    if (getpid() != parent) {
      throw std::runtime_error("mapper exploded on purpose");
    }
    emitter->Emit(input % 8, 1);
  };
  const std::vector<uint32_t> inputs = Iota(100);
  CollectingSink sink;
  try {
    RunRound(spec, std::span<const uint32_t>(inputs), &sink, nullptr,
             ExecutionPolicy::Serial().WithBackend(BackendMode::kProcess, 2));
    FAIL() << "a throwing mapper must raise in the coordinator";
  } catch (const std::runtime_error& error) {
    EXPECT_TRUE(Contains(error.what(), "map worker")) << error.what();
    EXPECT_TRUE(Contains(error.what(), "mapper exploded on purpose"))
        << error.what();
  }
}

TEST(ProcessBackend, ReducerExceptionTravelsBackWithItsMessage) {
  const pid_t parent = getpid();
  CountSpec spec = CountRound(8, /*with_combiner=*/false);
  spec.reducer = [parent](uint64_t, std::span<const uint64_t>,
                          ReduceContext*) {
    if (getpid() != parent) {
      throw std::runtime_error("reducer exploded on purpose");
    }
  };
  const std::vector<uint32_t> inputs = Iota(100);
  CollectingSink sink;
  try {
    RunRound(spec, std::span<const uint32_t>(inputs), &sink, nullptr,
             ExecutionPolicy::Serial().WithBackend(BackendMode::kProcess, 2));
    FAIL() << "a throwing reducer must raise in the coordinator";
  } catch (const std::runtime_error& error) {
    EXPECT_TRUE(Contains(error.what(), "reduce worker")) << error.what();
    EXPECT_TRUE(Contains(error.what(), "reducer exploded on purpose"))
        << error.what();
  }
}

// Empty input and empty shuffle: the process backend short-circuits
// without forking a reduce crew and still reports the same (all-zero)
// semantic metrics as the thread backend.
TEST(ProcessBackend, EmptyRoundsShortCircuit) {
  const CountSpec spec = CountRound(8, /*with_combiner=*/false);
  const std::vector<uint32_t> empty;
  CollectingSink sink;
  const MapReduceMetrics none = RunRound(
      spec, std::span<const uint32_t>(empty), &sink, nullptr,
      ExecutionPolicy::Serial().WithBackend(BackendMode::kProcess, 4));
  EXPECT_EQ(none.input_records, 0u);
  EXPECT_EQ(none.key_value_pairs, 0u);
  EXPECT_TRUE(sink.assignments().empty());

  CountSpec silent = CountRound(8, /*with_combiner=*/false);
  silent.mapper = [](const uint32_t&, Emitter<uint64_t>*) {};
  const std::vector<uint32_t> inputs = Iota(10);
  const MapReduceMetrics quiet = RunRound(
      silent, std::span<const uint32_t>(inputs), &sink, nullptr,
      ExecutionPolicy::Serial().WithBackend(BackendMode::kProcess, 4));
  EXPECT_EQ(quiet.input_records, 10u);
  EXPECT_EQ(quiet.key_value_pairs, 0u);
  EXPECT_EQ(quiet.distinct_keys, 0u);
}

}  // namespace
}  // namespace smr
