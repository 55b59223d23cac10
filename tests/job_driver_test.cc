// JobDriver pipeline tests: the two-round triangle pipeline is pinned
// against the metrics the hand-wired pre-refactor implementation produced
// (captured from the seed tree on the same graph), and the JobMetrics
// aggregation and record-channel threading are exercised directly.

#include <array>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/two_round_triangles.h"
#include "graph/generators.h"
#include "graph/node_order.h"
#include "mapreduce/execution_policy.h"
#include "mapreduce/input_runs.h"
#include "mapreduce/instance_sink.h"
#include "mapreduce/job.h"
#include "tests/test_util.h"

namespace smr {
namespace {

TEST(JobDriver, TwoRoundTrianglesMatchesPreRefactorGoldens) {
  // Golden values captured from the pre-RoundSpec implementation (commit
  // cbd9824) on exactly this graph and order. The refactor moved the
  // 2-path hand-off from a shared vector to the engine's record channel;
  // every metric of both rounds must be unchanged.
  const Graph g = ErdosRenyi(500, 3000, 42);
  const NodeOrder order = NodeOrder::ByDegree(g);
  const TwoRoundMetrics result = TwoRoundTriangles(g, order, nullptr);

  EXPECT_EQ(result.round1.input_records, 3000u);
  EXPECT_EQ(result.round1.key_value_pairs, 3000u);
  EXPECT_EQ(result.round1.bytes, 36000u);
  EXPECT_EQ(result.round1.distinct_keys, 485u);
  EXPECT_EQ(result.round1.key_space, 500u);
  EXPECT_EQ(result.round1.max_reducer_input, 11u);
  EXPECT_EQ(result.round1.outputs, 0u);
  EXPECT_EQ(result.round1.reduce_cost.edges_scanned, 3000u);
  EXPECT_EQ(result.round1.reduce_cost.candidates, 9188u);
  EXPECT_EQ(result.round1.reduce_cost.outputs, 0u);

  EXPECT_EQ(result.round2.input_records, 12188u);
  EXPECT_EQ(result.round2.key_value_pairs, 12188u);
  EXPECT_EQ(result.round2.bytes, 195008u);
  EXPECT_EQ(result.round2.distinct_keys, 11149u);
  EXPECT_EQ(result.round2.key_space, 250000u);
  EXPECT_EQ(result.round2.max_reducer_input, 5u);
  EXPECT_EQ(result.round2.outputs, 265u);
  EXPECT_EQ(result.round2.reduce_cost.edges_scanned, 12188u);
  EXPECT_EQ(result.round2.reduce_cost.candidates, 265u);
  EXPECT_EQ(result.round2.reduce_cost.outputs, 265u);

  EXPECT_EQ(result.TotalKeyValuePairs(), 15188u);
}

TEST(JobDriver, TwoRoundPipelineDeterministicAcrossPolicies) {
  // Round 1 used to be forced serial (its reducer appended to a shared
  // vector); through the record channel it now parallelizes — and both
  // rounds must stay byte-identical to the serial run.
  const Graph g = ErdosRenyi(500, 3000, 42);
  const NodeOrder order = NodeOrder::ByDegree(g);
  CollectingSink serial_sink;
  const TwoRoundMetrics serial = TwoRoundTriangles(g, order, &serial_sink);
  for (const unsigned threads : {2u, 8u}) {
    for (const unsigned partitions : {1u, 0u}) {
      CollectingSink sink;
      const TwoRoundMetrics parallel = TwoRoundTriangles(
          g, order, &sink,
          ExecutionPolicy::WithThreads(threads).WithPartitions(partitions));
      EXPECT_EQ(parallel.round1, serial.round1) << "threads=" << threads;
      EXPECT_EQ(parallel.round2, serial.round2) << "threads=" << threads;
      EXPECT_EQ(sink.assignments(), serial_sink.assignments())
          << "threads=" << threads;
    }
  }
}

TEST(JobDriver, AggregatesPerRoundMetricsIntoJobSummary) {
  const Graph g = ErdosRenyi(200, 1200, 9);
  const NodeOrder order = NodeOrder::ByDegree(g);
  const TwoRoundMetrics result = TwoRoundTriangles(g, order, nullptr);

  ASSERT_EQ(result.job.rounds.size(), 2u);
  EXPECT_EQ(result.job.rounds[0].name, "two-paths");
  EXPECT_EQ(result.job.rounds[1].name, "join");
  EXPECT_EQ(result.job.TotalCommunication(), result.TotalKeyValuePairs());
  EXPECT_EQ(result.job.TotalPairsShipped(), result.TotalKeyValuePairs());
  EXPECT_EQ(result.job.MaxRoundReducers(),
            std::max(result.round1.distinct_keys, result.round2.distinct_keys));
  EXPECT_EQ(result.job.TotalOutputs(), result.round2.outputs);

  const std::string table = result.job.RoundTable();
  EXPECT_NE(table.find("two-paths"), std::string::npos);
  EXPECT_NE(table.find("join"), std::string::npos);
  EXPECT_NE(table.find("total"), std::string::npos);
}

TEST(JobDriver, RecordChannelThreadsRoundsDeterministically) {
  // A synthetic 2-round pipeline: round 1 buckets values and records each
  // (bucket, value) survivor; round 2 consumes the records. Exercises the
  // record channel directly under every policy.
  std::vector<int> inputs(700);
  for (size_t i = 0; i < inputs.size(); ++i) inputs[i] = static_cast<int>(i);

  const RoundSpec<int, uint64_t> first{
      "bucket",
      [](const int& input, Emitter<uint64_t>* out) {
        out->Emit(static_cast<uint64_t>(input % 13),
                  static_cast<uint64_t>(input));
      },
      [](uint64_t key, std::span<const uint64_t> values,
         ReduceContext* context) {
        for (const uint64_t value : values) {
          if (value % 3 == 0) {
            const std::array<NodeId, 2> record = {
                static_cast<NodeId>(key), static_cast<NodeId>(value)};
            context->EmitRecord(record);
          }
        }
      },
      13,
      {}};
  const RoundSpec<NodeId, uint64_t> second{
      "sum-per-bucket",
      [](const NodeId& node, Emitter<uint64_t>* out) { out->Emit(node % 5, 1); },
      [](uint64_t key, std::span<const uint64_t> values,
         ReduceContext* context) {
        uint64_t total = 0;
        for (const uint64_t value : values) total += value;
        const std::array<NodeId, 2> instance = {static_cast<NodeId>(key),
                                                static_cast<NodeId>(total)};
        context->EmitInstance(instance);
      },
      5,
      [](uint64_t& acc, const uint64_t& incoming) { acc += incoming; }};

  auto run = [&](const ExecutionPolicy& policy, CollectingSink* sink) {
    JobDriver driver(policy);
    RecordBuffer survivors(2);
    driver.RunRound(first, inputs, nullptr, &survivors);
    driver.RunRound(second, survivors.nodes(), sink);
    return driver.job();
  };

  // Engine-free reference for both rounds; round 2's reducer sees one
  // folded value per key only when the combiner runs.
  RecordBuffer reference_survivors(2);
  const MapReduceMetrics reference_first =
      ReferenceRound(first, inputs, nullptr, &reference_survivors);
  ASSERT_GT(reference_survivors.size(), 0u);
  for (const bool combine : {false, true}) {
    CollectingSink reference_sink;
    const MapReduceMetrics reference_second =
        ReferenceRound(second, reference_survivors.nodes(), &reference_sink,
                       nullptr, combine);
    ASSERT_GT(reference_second.outputs, 0u);
    for (const unsigned threads : {1u, 2u, 8u}) {
      CollectingSink sink;
      const JobMetrics parallel = run(
          ExecutionPolicy::WithThreads(threads).WithCombine(combine), &sink);
      ASSERT_EQ(parallel.rounds.size(), 2u);
      EXPECT_EQ(sink.assignments(), reference_sink.assignments())
          << "threads=" << threads << " combine=" << combine;
      EXPECT_EQ(parallel.rounds[0].metrics, reference_first)
          << "threads=" << threads;
      EXPECT_EQ(parallel.rounds[1].metrics, reference_second)
          << "threads=" << threads << " combine=" << combine;
    }
  }
}

// Round 1's record output in the shapes the chunked channel must carry in
// order: none, one, only in the last partition, and enough records to
// span several chunks, so that round 2's slice boundaries fall exactly on
// a chunk edge ("two-chunks" at two threads) and inside one.
TEST(JobDriver, RecordChannelKeepsOrderForEveryShapeAndPolicy) {
  constexpr uint64_t kKeys = 64;
  const size_t per_chunk = RecordBuffer(3).records_per_chunk();
  struct Shape {
    const char* name;
    size_t records;
    bool last_key_only;
  };
  const Shape shapes[] = {
      {"none", 0, false},
      {"one", 1, false},
      {"last-partition", 500, true},
      {"two-chunks", 2 * per_chunk, false},
      {"inside-a-chunk", 3 * per_chunk + per_chunk / 3, false},
  };

  for (const Shape& shape : shapes) {
    // Round 1 records every input whose value is below shape.records; its
    // keys are scrambled over [0, kKeys), or all kKeys - 1.
    std::vector<uint32_t> inputs(std::max<size_t>(shape.records, 40));
    for (size_t i = 0; i < inputs.size(); ++i) {
      inputs[i] = static_cast<uint32_t>(i);
    }
    const uint32_t kept = static_cast<uint32_t>(shape.records);
    const bool last_key_only = shape.last_key_only;
    const RoundSpec<uint32_t, uint64_t> first{
        "records",
        [last_key_only](const uint32_t& input, Emitter<uint64_t>* out) {
          out->Emit(last_key_only ? kKeys - 1 : input * uint64_t{7919} % kKeys,
                    input);
        },
        [kept](uint64_t key, std::span<const uint64_t> values,
               ReduceContext* context) {
          for (const uint64_t value : values) {
            if (value >= kept) continue;
            const Record<3> record = {static_cast<NodeId>(key),
                                      static_cast<NodeId>(value),
                                      static_cast<NodeId>(value * 3 + key)};
            context->EmitRecord(record);
          }
        },
        kKeys,
        {}};
    // Round 2 maps the records in place; each reducer folds its values in
    // arrival order, so any reordering of the records shows in its output.
    const RoundSpec<Record<3>, uint64_t> second{
        "fold",
        [](const Record<3>& record, Emitter<uint64_t>* out) {
          out->Emit(record[1] % 17, uint64_t{record[0]} << 32 | record[2]);
        },
        [](uint64_t key, std::span<const uint64_t> values,
           ReduceContext* context) {
          uint64_t fold = 0;
          for (const uint64_t value : values) fold = fold * 31 + value;
          const Record<3> instance = {static_cast<NodeId>(key),
                                      static_cast<NodeId>(values.size()),
                                      static_cast<NodeId>(fold ^ fold >> 32)};
          context->EmitInstance(instance);
        },
        17,
        {}};

    RecordBuffer reference_records(3);
    CollectingSink reference_sink;
    JobMetrics reference;
    reference.rounds.push_back(
        {first.name,
         ReferenceRound(first, inputs, nullptr, &reference_records)});
    reference.rounds.push_back(
        {second.name, ReferenceRound(second, reference_records.records<3>(),
                                     &reference_sink)});
    ASSERT_EQ(reference_records.size(), shape.records) << shape.name;
    if (shape.records >= 2 * per_chunk) {
      EXPECT_GE(reference_records.nodes().runs().size(), 2u) << shape.name;
    }

    for (const unsigned threads : {1u, 2u, 8u}) {
      for (const unsigned partitions : {1u, 16u}) {
        for (const uint64_t budget : {uint64_t{0}, uint64_t{64} * 1024}) {
          for (const bool process : {false, true}) {
            ExecutionPolicy policy = ExecutionPolicy::WithThreads(threads)
                                         .WithPartitions(partitions)
                                         .WithBudget(budget);
            if (process) policy = policy.WithBackend(BackendMode::kProcess, 2);
            JobDriver driver(policy);
            RecordBuffer records(3);
            CollectingSink sink;
            driver.RunRound(first, inputs, nullptr, &records);
            driver.RunRound(second, records.records<3>(), &sink);
            const std::string where =
                std::string(shape.name) + " threads=" +
                std::to_string(threads) + " partitions=" +
                std::to_string(partitions) + " budget=" +
                std::to_string(budget) + " process=" + std::to_string(process);
            EXPECT_EQ(NodesOf(records), NodesOf(reference_records)) << where;
            EXPECT_EQ(sink.assignments(), reference_sink.assignments())
                << where;
            EXPECT_EQ(driver.job(), reference) << where;
          }
        }
      }
    }
  }
}

// A flat NodeId run binds to a record input only as whole records.
TEST(JobDriver, RecordInputRejectsARunThatEndsInsideARecord) {
  const std::vector<NodeId> whole = {1, 2, 3, 4, 5, 6};
  EXPECT_EQ(InputRuns<Record<3>>(whole).size(), 2u);
  const std::vector<NodeId> partial = {1, 2, 3, 4};
  EXPECT_THROW(InputRuns<Record<3>>{partial}, std::invalid_argument);
}

}  // namespace
}  // namespace smr
