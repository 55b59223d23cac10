// The sort-free grouping layer (mapreduce/group_by_key.h): unit tests of
// the counting scatter's stability and its density rule (dense inputs take
// the counting scatter, sparse ones the stable_sort fallback, both equal
// to the engine-free reference), a property-fuzz grid asserting
// byte-identical outputs, order, and semantic metrics against
// ReferenceRound (tests/test_util.h) across 1/2/4/8 threads x partition
// counts x combine on/off, the grouping ShuffleStats, and the empty-round
// short-circuit regression.

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "mapreduce/group_by_key.h"
#include "mapreduce/job.h"
#include "tests/test_util.h"
#include "util/hashing.h"
#include "util/rng.h"

namespace smr {
namespace {

using Pair = std::pair<uint64_t, int>;

std::vector<Pair> Group(std::vector<std::vector<Pair>> buckets,
                        bool* counted) {
  std::vector<std::vector<Pair>*> pointers;
  size_t total = 0;
  for (auto& bucket : buckets) {
    pointers.push_back(&bucket);
    total += bucket.size();
  }
  std::vector<Pair> out;
  std::vector<uint32_t> counts;
  *counted = engine_internal::GroupByKey<int>(pointers, total, &out, &counts);
  return out;
}

/// The oracle every grouping must equal: the worker-order concatenation,
/// stable-sorted by key.
std::vector<Pair> StableSorted(const std::vector<std::vector<Pair>>& buckets) {
  std::vector<Pair> all;
  for (const auto& bucket : buckets) {
    all.insert(all.end(), bucket.begin(), bucket.end());
  }
  std::stable_sort(all.begin(), all.end(), [](const Pair& a, const Pair& b) {
    return a.first < b.first;
  });
  return all;
}

TEST(GroupByKey, CountingScatterIsStableAndAscending) {
  const std::vector<std::vector<Pair>> buckets = {
      {{5, 1}, {3, 2}, {5, 3}}, {{3, 4}, {4, 5}, {5, 6}}};
  bool counted = false;
  const std::vector<Pair> grouped = Group(buckets, &counted);
  EXPECT_TRUE(counted);  // Range 3..5 is dense for 6 pairs.
  const std::vector<Pair> expected = {
      {3, 2}, {3, 4}, {4, 5}, {5, 1}, {5, 3}, {5, 6}};
  EXPECT_EQ(grouped, expected);
  EXPECT_EQ(grouped, StableSorted(buckets));
}

TEST(GroupByKey, SparseRangeFallsBackToSortWithIdenticalResult) {
  const std::vector<std::vector<Pair>> buckets = {
      {{1000000000, 1}, {0, 2}}, {{1000000000, 3}}};
  bool counted = true;
  const std::vector<Pair> sorted = Group(buckets, &counted);
  EXPECT_FALSE(counted);  // Spread 1e9 >> 4 * 3 pairs.
  const std::vector<Pair> expected = {{0, 2}, {1000000000, 1},
                                      {1000000000, 3}};
  EXPECT_EQ(sorted, expected);
  EXPECT_EQ(sorted, StableSorted(buckets));
}

TEST(GroupByKey, DensityRuleDecidesThePath) {
  // kAutoSparsityCap is the one rule: counting while the key spread stays
  // below kAutoSparsityCap x pairs, the stable sort from there on. Both
  // paths equal the stable-sorted concatenation.
  for (const uint64_t spread : {uint64_t{11}, uint64_t{12}}) {
    const std::vector<std::vector<Pair>> buckets = {
        {{7 + spread, 1}, {7, 2}}, {{8, 3}}};
    bool counted = false;
    const std::vector<Pair> grouped = Group(buckets, &counted);
    EXPECT_EQ(counted, spread < engine_internal::kAutoSparsityCap * 3)
        << "spread=" << spread;
    EXPECT_EQ(grouped, StableSorted(buckets)) << "spread=" << spread;
  }
}

TEST(GroupByKey, StrayKeyFarPastTheRangeTakesSortFallback) {
  // A dense run of keys plus one stray key near 2^63 (a key far past the
  // declared space clamps into the last partition): the range is
  // astronomical, so the histogram is never attempted.
  std::vector<std::vector<Pair>> buckets(2);
  for (int i = 0; i < 64; ++i) {
    buckets[static_cast<size_t>(i % 2)].emplace_back(
        static_cast<uint64_t>(i % 16), i);
  }
  buckets[1].emplace_back(uint64_t{1} << 63, -1);
  bool counted = true;
  const std::vector<Pair> grouped = Group(buckets, &counted);
  EXPECT_FALSE(counted);
  EXPECT_EQ(grouped, StableSorted(buckets));
  EXPECT_EQ(grouped.back(), (Pair{uint64_t{1} << 63, -1}));
}

TEST(GroupByKey, EmptyPartition) {
  bool counted = true;
  EXPECT_TRUE(Group({{}, {}}, &counted).empty());
  EXPECT_FALSE(counted);
}

// ---------------------------------------------------------------------------
// Property grid: every (threads, partitions, combine) cell must reproduce
// the engine-free reference byte-for-byte, whichever grouping path each
// partition took.

struct GridRound {
  uint64_t seed = 0;
  uint64_t key_space = 0;
  size_t num_inputs = 0;
  bool stray_keys = false;
  bool with_combiner = false;
};

RoundSpec<int, int> MakeRound(const GridRound& spec) {
  const uint64_t seed = spec.seed;
  const uint64_t key_space = spec.key_space;
  const bool stray = spec.stray_keys;
  RoundSpec<int, int> round;
  round.name = "grouping-grid";
  round.key_space = key_space;
  round.mapper = [seed, key_space, stray](const int& input,
                                          Emitter<int>* out) {
    const unsigned emissions =
        SplitMix64(static_cast<uint64_t>(input) ^ seed) % 5;
    for (unsigned e = 0; e < emissions; ++e) {
      uint64_t key =
          SplitMix64(static_cast<uint64_t>(input) * 2654435761u + e + seed);
      if (key_space > 0) {
        key = (stray && key % 17 == 0) ? key_space + key % 3000
                                       : key % key_space;
      }
      out->Emit(key, input + static_cast<int>(e));
    }
  };
  round.reducer = [](uint64_t key, std::span<const int> values,
                     ReduceContext* context) {
    context->cost->edges_scanned += values.size();
    int sum = 0;
    for (const int v : values) sum += v;
    if ((static_cast<uint64_t>(sum) + key) % 2 == 0) {
      const NodeId node = static_cast<NodeId>(sum & 0xffff);
      context->EmitInstance(std::span<const NodeId>(&node, 1));
    }
  };
  if (spec.with_combiner) {
    round.combiner = [](int& acc, const int& incoming) { acc += incoming; };
  }
  return round;
}

std::string Describe(const ExecutionPolicy& policy) {
  return "threads=" + std::to_string(policy.num_threads) +
         " partitions=" + std::to_string(policy.shuffle_partitions) +
         " combine=" + (policy.combine ? "on" : "off");
}

TEST(GroupingEquivalence, GridMatchesReferenceRound) {
  const uint64_t key_spaces[] = {0, 1, 500, 40000};
  std::vector<GridRound> specs;
  Rng rng(0xbeef);
  for (uint64_t trial = 0; trial < 8; ++trial) {
    GridRound spec;
    spec.seed = rng.Next();
    spec.key_space = key_spaces[trial % 4];
    spec.num_inputs = 200 + rng.Below(600);
    spec.stray_keys = trial % 2 == 0;
    spec.with_combiner = trial % 3 != 0;
    specs.push_back(spec);
  }

  for (const GridRound& spec : specs) {
    std::vector<int> inputs(spec.num_inputs);
    Rng value_rng(spec.seed);
    for (int& v : inputs) v = static_cast<int>(value_rng.Below(1 << 20));
    const RoundSpec<int, int> round = MakeRound(spec);

    // One reference per combine setting: combining changes what the
    // reducer sees (one folded value), so max_reducer_input / reduce_cost
    // legitimately differ between on and off — but outputs never do.
    CollectingSink reference_sinks[2];
    MapReduceMetrics references[2];
    for (const bool combine : {false, true}) {
      references[combine] = ReferenceRound(
          round, inputs, &reference_sinks[combine], nullptr, combine);
    }
    EXPECT_EQ(reference_sinks[0].assignments(),
              reference_sinks[1].assignments())
        << "combining changed results, key_space=" << spec.key_space;

    for (const unsigned threads : {1u, 2u, 4u, 8u}) {
      for (const unsigned partitions : {0u, 1u}) {
        for (const bool combine : {true, false}) {
          const ExecutionPolicy policy = ExecutionPolicy::WithThreads(threads)
                                             .WithPartitions(partitions)
                                             .WithCombine(combine);
          CollectingSink sink;
          JobDriver driver(policy);
          const MapReduceMetrics metrics =
              driver.RunRound(round, inputs, &sink);
          EXPECT_EQ(metrics, references[combine])
              << Describe(policy) << " key_space=" << spec.key_space;
          EXPECT_EQ(sink.assignments(), reference_sinks[combine].assignments())
              << Describe(policy) << " key_space=" << spec.key_space;
        }
      }
    }
  }
}

TEST(GroupingStats, DenseRoundCountsEveryPartitionAndSortModeNone) {
  std::vector<int> inputs(20000);
  for (size_t i = 0; i < inputs.size(); ++i) inputs[i] = static_cast<int>(i);
  RoundSpec<int, int> round;
  round.name = "dense";
  round.key_space = 512;
  round.mapper = [](const int& v, Emitter<int>* out) {
    out->Emit(SplitMix64(static_cast<uint64_t>(v)) % 512, v);
  };
  round.reducer = [](uint64_t, std::span<const int> values,
                     ReduceContext* context) {
    context->cost->edges_scanned += values.size();
  };

  const MapReduceMetrics reference = ReferenceRound(round, inputs, nullptr);
  for (const unsigned threads : {1u, 4u}) {
    JobDriver driver(ExecutionPolicy::WithThreads(threads));
    const MapReduceMetrics dense = driver.RunRound(round, inputs, nullptr);
    EXPECT_EQ(dense.shuffle.counting_partitions, dense.shuffle.partitions)
        << "threads=" << threads;
    EXPECT_EQ(dense.shuffle.sorted_partitions, 0u) << "threads=" << threads;
    EXPECT_EQ(dense, reference) << "threads=" << threads;
  }
}

TEST(GroupingStats, SparseRoundSortsItsPartitions) {
  // 64 pairs spread over a 2^40 key space: every partition is far too
  // sparse for a histogram, so every one takes the stable_sort fallback.
  std::vector<int> inputs(64);
  for (size_t i = 0; i < inputs.size(); ++i) inputs[i] = static_cast<int>(i);
  RoundSpec<int, int> round;
  round.name = "sparse";
  round.key_space = uint64_t{1} << 40;
  round.mapper = [](const int& v, Emitter<int>* out) {
    out->Emit(SplitMix64(static_cast<uint64_t>(v)) % (uint64_t{1} << 40), v);
  };
  round.reducer = [](uint64_t, std::span<const int> values,
                     ReduceContext* context) {
    context->cost->edges_scanned += values.size();
  };

  const MapReduceMetrics reference = ReferenceRound(round, inputs, nullptr);
  for (const unsigned threads : {1u, 4u}) {
    JobDriver driver(ExecutionPolicy::WithThreads(threads).WithPartitions(2));
    const MapReduceMetrics sparse = driver.RunRound(round, inputs, nullptr);
    EXPECT_EQ(sparse.shuffle.counting_partitions, 0u) << "threads=" << threads;
    EXPECT_EQ(sparse.shuffle.sorted_partitions, 2u) << "threads=" << threads;
    EXPECT_EQ(sparse, reference) << "threads=" << threads;
  }
}

// ---------------------------------------------------------------------------
// Satellite regression: a mapper that emits nothing must short-circuit the
// round (no sort, no reduce dispatch) and still return coherent metrics.

TEST(EmptyRound, MapperEmittingNothingShortCircuits) {
  std::vector<int> inputs(500);
  for (size_t i = 0; i < inputs.size(); ++i) inputs[i] = static_cast<int>(i);
  RoundSpec<int, int> round;
  round.name = "silent";
  round.key_space = 1000;
  round.mapper = [](const int&, Emitter<int>*) {};  // Never emits.
  round.reducer = [](uint64_t, std::span<const int>, ReduceContext*) {
    FAIL() << "reducer must not run in an empty round";
  };

  for (const unsigned threads : {1u, 2u, 8u}) {
    for (const unsigned partitions : {1u, 0u}) {
      const ExecutionPolicy policy =
          ExecutionPolicy::WithThreads(threads).WithPartitions(partitions);
      CollectingSink sink;
      CountingSink counting;
      JobDriver driver(policy);
      const MapReduceMetrics metrics = driver.RunRound(round, inputs, &sink);
      JobDriver counting_driver(policy);
      const MapReduceMetrics counted =
          counting_driver.RunRound(round, inputs, &counting);
      EXPECT_EQ(metrics, counted);
      EXPECT_EQ(metrics.input_records, inputs.size());
      EXPECT_EQ(metrics.key_value_pairs, 0u);
      EXPECT_EQ(metrics.distinct_keys, 0u);
      EXPECT_EQ(metrics.outputs, 0u);
      EXPECT_TRUE(sink.assignments().empty());
      EXPECT_EQ(counting.count(), 0u);
      // No reduce dispatch happened: the round's pool accounting shows at
      // most the map phase.
      EXPECT_EQ(metrics.shuffle.counting_partitions +
                    metrics.shuffle.sorted_partitions,
                0u);
    }
  }
}

TEST(EmptyRound, EmptyInputSpanShortCircuits) {
  RoundSpec<int, int> round;
  round.name = "no-inputs";
  round.key_space = 10;
  round.mapper = [](const int&, Emitter<int>*) {
    FAIL() << "mapper must not run without inputs";
  };
  round.reducer = [](uint64_t, std::span<const int>, ReduceContext*) {
    FAIL() << "reducer must not run without inputs";
  };
  const std::vector<int> inputs;
  for (const unsigned partitions : {1u, 0u}) {
    JobDriver driver(
        ExecutionPolicy::WithThreads(4).WithPartitions(partitions));
    const MapReduceMetrics metrics = driver.RunRound(round, inputs, nullptr);
    EXPECT_EQ(metrics.input_records, 0u);
    EXPECT_EQ(metrics.key_value_pairs, 0u);
    EXPECT_EQ(metrics.outputs, 0u);
  }
}

}  // namespace
}  // namespace smr
