#include <set>

#include <gtest/gtest.h>

#include "directed/directed_enumeration.h"
#include "directed/directed_graph.h"
#include "util/rng.h"

namespace smr {
namespace {

DirectedGraph RandomDigraph(NodeId n, size_t m, uint64_t seed) {
  Rng rng(seed);
  std::set<Arc> seen;
  std::vector<Arc> arcs;
  while (arcs.size() < m) {
    NodeId u = static_cast<NodeId>(rng.Below(n));
    NodeId v = static_cast<NodeId>(rng.Below(n));
    if (u == v) continue;
    if (!seen.insert({u, v}).second) continue;
    arcs.emplace_back(u, v);
  }
  return DirectedGraph(n, std::move(arcs));
}

TEST(DirectedGraph, BasicAdjacency) {
  DirectedGraph g(4, {{0, 1}, {1, 2}, {2, 0}, {0, 2}});
  EXPECT_EQ(g.num_arcs(), 4u);
  EXPECT_TRUE(g.HasArc(0, 1));
  EXPECT_FALSE(g.HasArc(1, 0));
  EXPECT_TRUE(g.HasArc(0, 2));
  EXPECT_TRUE(g.HasArc(2, 0));  // antiparallel pair allowed
  ASSERT_EQ(g.Successors(0).size(), 2u);
  ASSERT_EQ(g.Predecessors(0).size(), 1u);
  EXPECT_EQ(g.Predecessors(0)[0], 2u);
}

TEST(DirectedGraph, RejectsBadArcs) {
  EXPECT_THROW(DirectedGraph(3, {{1, 1}}), std::invalid_argument);
  EXPECT_THROW(DirectedGraph(3, {{0, 3}}), std::invalid_argument);
}

TEST(DirectedSampleGraph, AutomorphismGroups) {
  // The 3-cycle triad has the cyclic group C3 (3 automorphisms) — the
  // reflection reverses arcs, so it's excluded (vs 6 for the undirected
  // triangle). The feed-forward loop is rigid.
  EXPECT_EQ(DirectedSampleGraph::CycleTriad().Automorphisms().size(), 3u);
  EXPECT_EQ(DirectedSampleGraph::FeedForwardLoop().Automorphisms().size(),
            1u);
  EXPECT_EQ(DirectedSampleGraph::DirectedCycle(5).Automorphisms().size(), 5u);
  EXPECT_EQ(DirectedSampleGraph::DirectedPath(4).Automorphisms().size(), 1u);
}

TEST(DirectedMatcher, HandCounts) {
  // Graph: 3-cycle 0->1->2->0 plus chord 0->2.
  DirectedGraph g(3, {{0, 1}, {1, 2}, {2, 0}, {0, 2}});
  EXPECT_EQ(EnumerateDirectedInstances(DirectedSampleGraph::CycleTriad(), g,
                                       nullptr, nullptr),
            1u);
  EXPECT_EQ(EnumerateDirectedInstances(DirectedSampleGraph::FeedForwardLoop(),
                                       g, nullptr, nullptr),
            1u);
  // Directed 2-paths x->y->z: 0->1->2, 1->2->0, 2->0->1, 2->0->2? no —
  // distinct nodes: 0->1->2, 1->2->0, 2->0->1, 2->0->2 invalid, 0->2->0
  // invalid, 1->2->0 counted, plus 0->2 chord: x->y->z via 0->2->0 invalid;
  // through chord: ?->0->2: 2->0->2 invalid; 0->2->0 invalid. Total 3.
  EXPECT_EQ(EnumerateDirectedInstances(DirectedSampleGraph::DirectedPath(3),
                                       g, nullptr, nullptr),
            3u);
}

TEST(DirectedMatcher, CycleOrientationMatters) {
  // A directed 4-cycle contains the directed C4 once; reversing one arc
  // destroys it.
  DirectedGraph cycle(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
  EXPECT_EQ(EnumerateDirectedInstances(DirectedSampleGraph::DirectedCycle(4),
                                       cycle, nullptr, nullptr),
            1u);
  DirectedGraph broken(4, {{0, 1}, {1, 2}, {2, 3}, {0, 3}});
  EXPECT_EQ(EnumerateDirectedInstances(DirectedSampleGraph::DirectedCycle(4),
                                       broken, nullptr, nullptr),
            0u);
}

TEST(DirectedMatcher, FeedForwardInTournament) {
  // Acyclic tournament on 4 nodes (all arcs low -> high): every 3-subset is
  // a feed-forward loop, none is a cyclic triad.
  std::vector<Arc> arcs;
  for (NodeId u = 0; u < 4; ++u) {
    for (NodeId v = u + 1; v < 4; ++v) arcs.emplace_back(u, v);
  }
  DirectedGraph tournament(4, std::move(arcs));
  EXPECT_EQ(EnumerateDirectedInstances(DirectedSampleGraph::FeedForwardLoop(),
                                       tournament, nullptr, nullptr),
            4u);
  EXPECT_EQ(EnumerateDirectedInstances(DirectedSampleGraph::CycleTriad(),
                                       tournament, nullptr, nullptr),
            0u);
}

class DirectedMrParam
    : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {};

TEST_P(DirectedMrParam, BucketOrientedMatchesSerial) {
  const auto [buckets, seed] = GetParam();
  const DirectedGraph g = RandomDigraph(24, 90, seed);
  const DirectedSampleGraph patterns[] = {
      DirectedSampleGraph::CycleTriad(),
      DirectedSampleGraph::FeedForwardLoop(),
      DirectedSampleGraph::DirectedCycle(4),
      DirectedSampleGraph::DirectedPath(4),
      DirectedSampleGraph(4, {{0, 1}, {0, 2}, {0, 3}}),  // out-star
  };
  for (const auto& pattern : patterns) {
    CollectingSink mr_sink;
    const auto metrics =
        DirectedBucketOrientedEnumerate(pattern, g, buckets, seed, &mr_sink);
    CollectingSink serial_sink;
    EnumerateDirectedInstances(pattern, g, &serial_sink, nullptr);
    // Compare assignment multisets (sorted) — directed instances are
    // identified by their full assignments up to automorphism, and both
    // sides emit canonical embeddings, so the sorted assignment lists must
    // agree exactly.
    auto mr = mr_sink.assignments();
    auto serial = serial_sink.assignments();
    std::sort(mr.begin(), mr.end());
    std::sort(serial.begin(), serial.end());
    EXPECT_EQ(mr, serial) << pattern.ToString() << " b=" << buckets
                          << " seed=" << seed;
    EXPECT_EQ(metrics.outputs, serial.size());
  }
}

INSTANTIATE_TEST_SUITE_P(BucketsBySeed, DirectedMrParam,
                         ::testing::Combine(::testing::Values(2, 4),
                                            ::testing::Values(1ull, 5ull)));

TEST(DirectedMr, RejectsVariableInNoArc) {
  // A reducer sees only the nodes of the arcs shipped to it, so it cannot
  // place variable 2; the serial matcher, which sees every node, can.
  const DirectedGraph g = RandomDigraph(24, 90, 1);
  const DirectedSampleGraph pattern(3, {{0, 1}});
  EXPECT_EQ(EnumerateDirectedInstances(pattern, g, nullptr, nullptr),
            90u * 22u);
  for (const int buckets : {1, 3}) {
    EXPECT_THROW(
        DirectedBucketOrientedEnumerate(pattern, g, buckets, 1, nullptr),
        std::invalid_argument)
        << "b=" << buckets;
  }
}

TEST(DirectedMr, ReplicationMatchesFormula) {
  const DirectedGraph g = RandomDigraph(30, 120, 3);
  const auto metrics = DirectedBucketOrientedEnumerate(
      DirectedSampleGraph::CycleTriad(), g, 5, 1, nullptr);
  EXPECT_EQ(metrics.key_value_pairs, g.num_arcs() * 5u);
}

}  // namespace
}  // namespace smr
