// Regression tests for the reducer-key codec and the generalized-Partition
// mapper.
//
//  * Before this codec, bucket-oriented reducer ids were base-b positional
//    packings (PackDigits), which wrap a uint64_t as soon as b^p > 2^64
//    (e.g. b=64, p=11) and silently fuse distinct reducers — corrupting
//    counts. The tests below pin an explicit collision of the old packing
//    at that boundary and verify the combinatorial-rank codec that replaced
//    it is a dense bijection there.
//  * The old generalized-Partition mapper enumerated all C(b, p) group
//    subsets per edge and filtered; the rewrite extends only subsets of the
//    non-required groups (C(b-2, p-2) work). Equivalence of the emitted
//    subset lists is pinned against a brute-force reference, and a large-b
//    round pins the speedup: with b in the thousands the old mapper's
//    C(b, 3) sweep per edge does not complete in test time.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/bucket_oriented.h"
#include "core/strategy.h"
#include "core/triangle_algorithms.h"
#include "directed/directed_enumeration.h"
#include "directed/directed_graph.h"
#include "graph/graph.h"
#include "graph/sample_graph.h"
#include "labeled/labeled_enumeration.h"
#include "labeled/labeled_graph.h"
#include "mapreduce/instance_sink.h"
#include "util/combinatorics.h"
#include "util/hashing.h"
#include "util/rng.h"

namespace smr {
namespace {

/// The pre-fix key function, reproduced verbatim: base-b positional packing
/// of the sorted bucket sequence.
uint64_t OldPackDigits(const std::vector<int>& digits, int base) {
  uint64_t key = 0;
  for (int d : digits) key = key * base + static_cast<uint64_t>(d);
  return key;
}

TEST(ReducerKey, OldPackingCollidesAtOverflowBoundary) {
  // b=64, p=11: 64^11 = 2^66, so the leading digit's weight 64^10 = 2^60
  // wraps for digits >= 16. The all-16s multiset and the same multiset with
  // its smallest element replaced by 0 differ by exactly 16 * 64^10 = 2^64,
  // i.e. they packed to the SAME key — two distinct reducers fused.
  const int b = 64;
  const std::vector<int> all_sixteens(11, 16);
  std::vector<int> with_zero = all_sixteens;
  with_zero[0] = 0;  // Still nondecreasing: [0, 16, 16, ..., 16].

  ASSERT_NE(all_sixteens, with_zero);
  EXPECT_EQ(OldPackDigits(all_sixteens, b), OldPackDigits(with_zero, b))
      << "the old packing no longer collides — this regression test is "
         "pinned to the wrong boundary";

  // The rank codec keeps them distinct and round-trips both.
  const uint64_t rank_a = RankNondecreasing(all_sixteens, b);
  const uint64_t rank_b = RankNondecreasing(with_zero, b);
  EXPECT_NE(rank_a, rank_b);
  EXPECT_EQ(UnrankNondecreasing(rank_a, b, 11), all_sixteens);
  EXPECT_EQ(UnrankNondecreasing(rank_b, b, 11), with_zero);
}

TEST(ReducerKey, RankNondecreasingDenseAndMonotoneAtBoundary) {
  // Random multisets at the b=64, p=11 boundary: every rank must fall in
  // [0, C(74, 11)), round-trip, and order exactly as the sequences do
  // lexicographically (the property that keeps reducer emission order
  // identical to the old packing where the old packing was correct).
  const int b = 64;
  const int p = 11;
  ASSERT_TRUE(BinomialFitsUint64(b + p - 1, p));
  const uint64_t key_space = Binomial(b + p - 1, p);

  Rng rng(2024);
  std::vector<int> prev_seq;
  uint64_t prev_rank = 0;
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<int> seq(p);
    for (int& d : seq) d = static_cast<int>(rng.Below(b));
    std::sort(seq.begin(), seq.end());
    const uint64_t rank = RankNondecreasing(seq, b);
    EXPECT_LT(rank, key_space);
    EXPECT_EQ(UnrankNondecreasing(rank, b, p), seq);
    if (!prev_seq.empty()) {
      EXPECT_EQ(prev_seq < seq, prev_rank < rank);
      EXPECT_EQ(prev_seq == seq, prev_rank == rank);
    }
    prev_seq = seq;
    prev_rank = rank;
  }
}

TEST(ReducerKey, SubsetRankIsLexicographicBijection) {
  // Exhaustive check on small instances: ranking all p-subsets of [0, b)
  // in lexicographic order yields exactly 0, 1, ..., C(b, p)-1.
  for (const auto& [b, p] : std::vector<std::pair<int, int>>{
           {5, 3}, {7, 2}, {8, 4}, {9, 5}}) {
    uint64_t expected_rank = 0;
    std::vector<int> subset;
    std::function<void(int)> recurse = [&](int next) {
      if (static_cast<int>(subset.size()) == p) {
        EXPECT_EQ(RankSubset(subset, b), expected_rank);
        EXPECT_EQ(UnrankSubset(expected_rank, b, p), subset);
        ++expected_rank;
        return;
      }
      for (int v = next; v < b; ++v) {
        subset.push_back(v);
        recurse(v + 1);
        subset.pop_back();
      }
    };
    recurse(0);
    EXPECT_EQ(expected_rank, Binomial(b, p));
  }
}

TEST(ReducerKey, ClosedFormTripleRanksMatchGenericRanking) {
  // The triangle bucket scheme keys every emission through the closed
  // form; it must agree with the generic ranker on every triple.
  for (int base : {3, 4, 7, 12, 20}) {
    for (int a = 0; a < base; ++a) {
      for (int b = a; b < base; ++b) {
        for (int c = b; c < base; ++c) {
          EXPECT_EQ(RankNondecreasing3(a, b, c, base),
                    RankNondecreasing({a, b, c}, base))
              << a << "," << b << "," << c << " base=" << base;
        }
      }
    }
  }
}

TEST(ReducerKey, UnrankNondecreasingInvertsEnumerationOrder) {
  const int base = 5;
  const int length = 4;
  const auto seqs = NondecreasingSequences(base, length);
  for (size_t i = 0; i < seqs.size(); ++i) {
    EXPECT_EQ(UnrankNondecreasing(i, base, length), seqs[i]);
  }
}

TEST(ReducerKey, BucketOrientedRejectsOverflowingKeySpace) {
  // Every bucket-oriented entry point validates through BucketScheme:
  // b < 1 and a key space C(b+p-1, p) above 2^64 are named errors, not a
  // division by zero, a wrap, or a hang. The check runs before any CQ
  // generation, automorphism computation or per-edge work, so one-edge
  // graphs, an empty CQ set and 30-node path patterns suffice.
  const Graph graph(2, {{0, 1}});
  const LabeledGraph labeled_graph(2, {{0, 1, 0}});
  const DirectedGraph directed_graph(2, {{0, 1}});
  const SampleGraph triangle = SampleGraph::Triangle();
  const LabeledSampleGraph labeled_triangle(3, {{0, 1, 0}, {0, 2, 0},
                                                {1, 2, 0}});
  const DirectedSampleGraph cycle_triad = DirectedSampleGraph::CycleTriad();
  const SampleGraph path = SampleGraph::Path(30);
  std::vector<std::tuple<int, int, EdgeLabel>> labeled_path_edges;
  for (int v = 0; v + 1 < 30; ++v) labeled_path_edges.emplace_back(v, v + 1, 0);
  const LabeledSampleGraph labeled_path(30, labeled_path_edges);
  const DirectedSampleGraph directed_path =
      DirectedSampleGraph::DirectedPath(30);
  ASSERT_FALSE(BinomialFitsUint64(500 + 30 - 1, 30));
  // A round bucket count just past C(b+2, 3) > 2^64 for triangles; the
  // check must fire before the mapper ships b pairs per edge.
  constexpr int kTriangleOverflowB = 5'000'000;
  ASSERT_FALSE(BinomialFitsUint64(kTriangleOverflowB + 2, 3));

  // Each entry point runs a small pattern at bucket count b, and a pattern
  // and b whose key space overflows.
  struct EntryPoint {
    const char* name;
    std::function<void(int)> run_small;
    std::function<void()> run_overflowing;
  };
  const std::vector<EntryPoint> entry_points = {
      {"BucketOrientedEnumerate",
       [&](int b) {
         BucketOrientedEnumerate(triangle, {}, graph, b, 1, nullptr);
       },
       [&] { BucketOrientedEnumerate(path, {}, graph, 500, 1, nullptr); }},
      {"OrderedBucketTriangles",
       [&](int b) { OrderedBucketTriangles(graph, b, 1, nullptr); },
       [&] { OrderedBucketTriangles(graph, kTriangleOverflowB, 1, nullptr); }},
      {"LabeledBucketOrientedEnumerate",
       [&](int b) {
         LabeledBucketOrientedEnumerate(labeled_triangle, labeled_graph, b, 1,
                                        nullptr);
       },
       [&] {
         LabeledBucketOrientedEnumerate(labeled_path, labeled_graph, 500, 1,
                                        nullptr);
       }},
      {"DirectedBucketOrientedEnumerate",
       [&](int b) {
         DirectedBucketOrientedEnumerate(cycle_triad, directed_graph, b, 1,
                                         nullptr);
       },
       [&] {
         DirectedBucketOrientedEnumerate(directed_path, directed_graph, 500, 1,
                                         nullptr);
       }},
      // The registry's `bucket` must validate b before it generates the
      // pattern's CQ set (30! orders for the path).
      {"registry bucket",
       [&](int b) {
         StrategyRegistry::Global().Run(
             EnumerationQuery::Undirected(triangle, graph)
                 .WithSpec({"bucket", {TunableValue::Int(b)}}));
       },
       [&] {
         StrategyRegistry::Global().Run(
             EnumerationQuery::Undirected(path, graph).WithStrategy(
                 "bucket:500"));
       }},
  };
  for (int b : {0, -1}) {
    for (const EntryPoint& entry : entry_points) {
      EXPECT_THROW(entry.run_small(b), std::invalid_argument)
          << entry.name << " b=" << b;
    }
  }
  for (const EntryPoint& entry : entry_points) {
    EXPECT_THROW(entry.run_overflowing(), std::invalid_argument)
        << entry.name << " overflowing key space";
  }
}

TEST(ReducerKey, GeneralizedPartitionRejectsOverflowingKeySpace) {
  const Graph g(2, {{0, 1}});
  const SampleGraph pattern = SampleGraph::Path(35);
  ASSERT_FALSE(BinomialFitsUint64(100, 35));
  EXPECT_THROW(
      GeneralizedPartitionEnumerate(pattern, {}, g, 100, 1, nullptr),
      std::invalid_argument);
}

/// Brute-force reference for the generalized-Partition mapper: the old
/// algorithm — enumerate every p-subset of [0, b) in lexicographic order
/// and keep those containing all required groups.
std::vector<std::vector<int>> AllSubsetsContaining(
    int b, int p, const std::vector<int>& required) {
  std::vector<std::vector<int>> result;
  std::vector<int> subset;
  std::function<void(int)> recurse = [&](int next) {
    if (static_cast<int>(subset.size()) == p) {
      for (int r : required) {
        if (!std::binary_search(subset.begin(), subset.end(), r)) return;
      }
      result.push_back(subset);
      return;
    }
    for (int v = next; v < b; ++v) {
      subset.push_back(v);
      recurse(v + 1);
      subset.pop_back();
    }
  };
  recurse(0);
  return result;
}

TEST(GeneralizedPartitionMapper, MatchesBruteForceEnumeration) {
  // The rewritten mapper must emit exactly the subsets the old
  // enumerate-everything-and-filter mapper emitted, in the same
  // (lexicographic) order — so metrics and shipped instances are
  // byte-identical.
  for (int b : {5, 7, 10}) {
    for (int p : {3, 4, 5}) {
      for (const std::vector<int>& required :
           std::vector<std::vector<int>>{{0}, {2}, {b - 1}, {0, 1},
                                         {1, b - 2}, {b - 2, b - 1}}) {
        std::vector<std::vector<int>> got;
        ForEachGroupSubsetContaining(
            b, p, required,
            [&](const std::vector<int>& subset) { got.push_back(subset); });
        EXPECT_EQ(got, AllSubsetsContaining(b, p, required))
            << "b=" << b << " p=" << p;
        const int r = static_cast<int>(required.size());
        EXPECT_EQ(got.size(), Binomial(b - r, p - r));
      }
    }
  }
}

TEST(GeneralizedPartitionMapper, LargeGroupCountCompletesQuickly) {
  // b in the thousands: the old mapper's per-edge C(b, 3) sweep (~4.5e9
  // subsets per edge at b=3000) cannot finish in test time; the rewritten
  // mapper does C(b-2, 1) = b-2 emissions per edge. Communication cost is
  // checked against the closed form, so a wrong (or colliding) key path
  // cannot sneak through.
  const int b = 3000;
  const Graph g(12, {{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5},
                     {6, 7}, {8, 9}, {10, 11}, {2, 6}});
  const uint64_t seed = 7;
  const BucketHasher hasher(b, seed);
  uint64_t expected_pairs = 0;
  for (const Edge& e : g.edges()) {
    const int i = hasher.Bucket(e.first);
    const int j = hasher.Bucket(e.second);
    expected_pairs += (i == j) ? Binomial(b - 1, 2) : Binomial(b - 2, 1);
  }

  CountingSink sink;
  const MapReduceMetrics metrics = GeneralizedPartitionEnumerate(
      SampleGraph::Triangle(), {}, g, b, seed, &sink);
  EXPECT_EQ(metrics.key_value_pairs, expected_pairs);
  EXPECT_EQ(metrics.key_space, Binomial(b, 3));
  EXPECT_EQ(metrics.outputs, 0u);  // Empty CQ set: nothing may be emitted.
}

}  // namespace
}  // namespace smr
