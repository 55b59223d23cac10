// Differential tests of the reducer path every CQ-evaluating strategy runs:
// the bucket-oriented, generalized-Partition, variable-oriented and labeled
// enumerators, the Section 2 Partition, multiway-join and ordered-bucket
// triangles, and the standalone CqEvaluator. Each must produce exactly the
// serial matcher's instance multiset — for connected and disconnected
// patterns, at several bucket counts, share vectors and thread counts —
// and the reducers' cost counters (a semantic JobMetrics field) are pinned
// on the Fig. 1 graph.
//
// A pattern variable in no edge can be placed on any node, but a reducer
// only sees the nodes of the edges shipped to it: the map-reduce paths
// reject such patterns with a named error instead of missing instances,
// and the standalone evaluator, which holds every node, must find them all.

#include <algorithm>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/bucket_oriented.h"
#include "core/strategy.h"
#include "cq/cq_evaluator.h"
#include "cq/cq_generation.h"
#include "graph/generators.h"
#include "graph/sample_graph.h"
#include "labeled/labeled_enumeration.h"
#include "labeled/labeled_graph.h"
#include "serial/matcher.h"
#include "util/rng.h"

namespace smr {
namespace {

/// One found instance, independent of which automorphic assignment found
/// it: the sorted node set plus the sorted images of the pattern's edges.
/// The node set tells apart instances that differ only in where an isolated
/// variable landed.
using Key = std::pair<std::vector<NodeId>, std::vector<Edge>>;

class KeySink final : public InstanceSink {
 public:
  explicit KeySink(std::vector<std::pair<int, int>> pattern_edges)
      : pattern_edges_(std::move(pattern_edges)) {}

  void Emit(std::span<const NodeId> assignment) override {
    Key key;
    key.first.assign(assignment.begin(), assignment.end());
    std::sort(key.first.begin(), key.first.end());
    for (const auto& [a, b] : pattern_edges_) {
      key.second.emplace_back(std::min(assignment[a], assignment[b]),
                              std::max(assignment[a], assignment[b]));
    }
    std::sort(key.second.begin(), key.second.end());
    keys_.push_back(std::move(key));
  }

  /// The multiset, sorted (duplicates kept).
  std::vector<Key> Multiset() const {
    std::vector<Key> sorted = keys_;
    std::sort(sorted.begin(), sorted.end());
    return sorted;
  }

 private:
  std::vector<std::pair<int, int>> pattern_edges_;
  std::vector<Key> keys_;
};

struct NamedPattern {
  std::string name;
  SampleGraph pattern;

  bool has_isolated_variable() const {
    for (int v = 0; v < pattern.num_vars(); ++v) {
      if (pattern.Degree(v) == 0) return true;
    }
    return false;
  }
};

std::vector<NamedPattern> Zoo() {
  return {
      {"triangle", SampleGraph::Triangle()},
      {"square", SampleGraph::Square()},
      {"lollipop", SampleGraph::Lollipop()},
      {"k4", SampleGraph::Clique(4)},
      {"c5", SampleGraph::Cycle(5)},
      {"p4", SampleGraph::Path(4)},
      {"star3", SampleGraph::Star(4)},
      {"2k2", SampleGraph(4, {{0, 1}, {2, 3}})},
      // A triangle plus a variable in no subgoal.
      {"triangle+isolated", SampleGraph(4, {{0, 1}, {0, 2}, {1, 2}})},
  };
}

std::vector<Key> SerialKeys(const SampleGraph& pattern, const Graph& graph) {
  KeySink sink(pattern.edges());
  EnumerateInstances(pattern, graph, &sink, nullptr);
  return sink.Multiset();
}

// Dense enough for squares, K4s and 5-cycles; small enough that the
// isolated variable's n-fold blow-up stays cheap.
Graph DataGraph() { return ErdosRenyi(36, 150, 5); }

TEST(ReducerPath, BucketOrientedMatchesSerialMultiset) {
  const Graph graph = DataGraph();
  for (const NamedPattern& named : Zoo()) {
    const std::vector<Key> expected = SerialKeys(named.pattern, graph);
    ASSERT_FALSE(expected.empty()) << named.name;
    for (const int b : {1, 2, 3, 5}) {
      for (const unsigned threads : {1u, 3u}) {
        KeySink sink(named.pattern.edges());
        const std::string spec = "bucket:" + std::to_string(b);
        const EnumerationQuery query =
            EnumerationQuery::Undirected(named.pattern, graph)
                .WithStrategy(spec)
                .WithSeed(7)
                .WithPolicy(ExecutionPolicy::WithThreads(threads))
                .WithSink(&sink);
        if (named.has_isolated_variable()) {
          EXPECT_THROW(StrategyRegistry::Global().Run(query),
                       std::invalid_argument)
              << named.name << " " << spec;
          continue;
        }
        const EnumerationResult result = StrategyRegistry::Global().Run(query);
        EXPECT_EQ(sink.Multiset(), expected)
            << named.name << " " << spec << " threads=" << threads;
        EXPECT_EQ(result.instances, expected.size()) << named.name;
      }
    }
  }
}

TEST(ReducerPath, GeneralizedPartitionMatchesSerialMultiset) {
  const Graph graph = DataGraph();
  for (const NamedPattern& named : Zoo()) {
    const int p = named.pattern.num_vars();
    if (p < 3) continue;
    const std::vector<ConjunctiveQuery> cqs = CqsForSample(named.pattern);
    const std::vector<Key> expected = SerialKeys(named.pattern, graph);
    for (const unsigned threads : {1u, 3u}) {
      KeySink sink(named.pattern.edges());
      auto run = [&] {
        GeneralizedPartitionEnumerate(named.pattern, cqs, graph, p + 1, 3,
                                      &sink,
                                      ExecutionPolicy::WithThreads(threads));
      };
      if (named.has_isolated_variable()) {
        EXPECT_THROW(run(), std::invalid_argument) << named.name;
        continue;
      }
      run();
      EXPECT_EQ(sink.Multiset(), expected)
          << named.name << " threads=" << threads;
    }
  }
}

/// Runs `query` and expects the named error for a variable in no edge.
void ExpectUnplaceableVariableError(const EnumerationQuery& query,
                                    const std::string& label) {
  try {
    StrategyRegistry::Global().Run(query);
    ADD_FAILURE() << label << ": no error";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("variable in no edge"),
              std::string::npos)
        << label << ": " << error.what();
  }
}

/// "variable:" with one share per variable, cycling through `cycle`.
std::string SharesSpec(int p, const std::vector<int>& cycle) {
  std::string spec = "variable:";
  for (int x = 0; x < p; ++x) {
    if (x > 0) spec += "x";
    spec += std::to_string(cycle[x % cycle.size()]);
  }
  return spec;
}

TEST(ReducerPath, VariableOrientedMatchesSerialMultiset) {
  const Graph graph = DataGraph();
  for (const NamedPattern& named : Zoo()) {
    const int p = named.pattern.num_vars();
    // Explicit all-2 and mixed shares, optimizer shares at the default and
    // at k = 64, and the advisor, which may pick the variable-oriented plan:
    // each rejects an isolated variable before pricing shares for it.
    const std::vector<Key> expected = SerialKeys(named.pattern, graph);
    for (const std::string& spec :
         {SharesSpec(p, {2}), SharesSpec(p, {1, 3, 2}), std::string("variable"),
          std::string("variable-auto:64"), std::string("auto:64")}) {
      for (const unsigned threads : {1u, 3u}) {
        KeySink sink(named.pattern.edges());
        const EnumerationQuery query =
            EnumerationQuery::Undirected(named.pattern, graph)
                .WithStrategy(spec)
                .WithSeed(5)
                .WithPolicy(ExecutionPolicy::WithThreads(threads))
                .WithSink(&sink);
        if (named.has_isolated_variable()) {
          ExpectUnplaceableVariableError(query, named.name + " " + spec);
          continue;
        }
        const EnumerationResult result = StrategyRegistry::Global().Run(query);
        EXPECT_EQ(sink.Multiset(), expected)
            << named.name << " " << spec << " threads=" << threads;
        EXPECT_EQ(result.instances, expected.size()) << named.name;
      }
    }
  }
}

TEST(ReducerPath, TriangleAlgorithmsMatchSerialMultiset) {
  const Graph graph = ErdosRenyi(120, 900, 11);
  const SampleGraph triangle = SampleGraph::Triangle();
  const std::vector<Key> expected = SerialKeys(triangle, graph);
  ASSERT_FALSE(expected.empty());
  for (const char* spec : {"partition:4", "multiway:3", "orderedbucket:3"}) {
    for (const unsigned threads : {1u, 3u}) {
      KeySink sink(triangle.edges());
      StrategyRegistry::Global().Run(
          EnumerationQuery::Undirected(triangle, graph)
              .WithStrategy(spec)
              .WithSeed(2)
              .WithPolicy(ExecutionPolicy::WithThreads(threads))
              .WithSink(&sink));
      EXPECT_EQ(sink.Multiset(), expected) << spec << " threads=" << threads;
    }
  }
}

TEST(ReducerPath, StandaloneEvaluatorMatchesSerialMultiset) {
  // Three extra nodes on no edge: the isolated variable may land there.
  const Graph base = DataGraph();
  const Graph graph(base.num_nodes() + 3, base.edges());
  const BucketHasher hasher(3, 9);
  for (const NamedPattern& named : Zoo()) {
    const std::vector<Key> expected = SerialKeys(named.pattern, graph);
    for (const NodeOrder& order :
         {NodeOrder::Identity(graph.num_nodes()), NodeOrder::ByDegree(graph),
          NodeOrder::ByBucket(graph.num_nodes(), hasher)}) {
      KeySink sink(named.pattern.edges());
      const uint64_t found = CqEvaluator(graph, order).EvaluateAll(
          CqsForSample(named.pattern), &sink, nullptr);
      EXPECT_EQ(sink.Multiset(), expected) << named.name;
      EXPECT_EQ(found, expected.size()) << named.name;
    }
  }
}

LabeledGraph TwoLabelGraph(const Graph& skeleton, uint64_t seed) {
  Rng rng(seed);
  std::vector<LabeledEdge> edges;
  for (const Edge& e : skeleton.edges()) {
    edges.push_back({e.first, e.second, static_cast<EdgeLabel>(rng.Below(2))});
  }
  return LabeledGraph(skeleton.num_nodes(), std::move(edges));
}

TEST(ReducerPath, LabeledMatchesSerialMultiset) {
  const LabeledGraph graph = TwoLabelGraph(DataGraph(), 3);
  for (const NamedPattern& named : Zoo()) {
    // Label the pattern's edges alternately, so most patterns lose some
    // automorphisms and the labeled CQ set differs from the skeleton's.
    std::vector<std::tuple<int, int, EdgeLabel>> labeled_edges;
    for (size_t i = 0; i < named.pattern.edges().size(); ++i) {
      const auto [a, b] = named.pattern.edges()[i];
      labeled_edges.emplace_back(a, b, static_cast<EdgeLabel>(i % 2));
    }
    const LabeledSampleGraph pattern(named.pattern.num_vars(),
                                     std::move(labeled_edges));
    KeySink serial(named.pattern.edges());
    EnumerateLabeledInstances(pattern, graph, &serial, nullptr);
    const std::vector<Key> expected = serial.Multiset();
    for (const unsigned threads : {1u, 3u}) {
      KeySink sink(named.pattern.edges());
      const EnumerationQuery query =
          EnumerationQuery::Labeled(pattern, graph)
              .WithStrategy("labeled:3")
              .WithSeed(4)
              .WithPolicy(ExecutionPolicy::WithThreads(threads))
              .WithSink(&sink);
      if (named.has_isolated_variable()) {
        EXPECT_THROW(StrategyRegistry::Global().Run(query),
                     std::invalid_argument)
            << named.name;
        continue;
      }
      StrategyRegistry::Global().Run(query);
      EXPECT_EQ(sink.Multiset(), expected)
          << named.name << " threads=" << threads;
    }
  }
}

CostCounter ReduceCost(const SampleGraph& pattern, const std::string& spec,
                       unsigned threads) {
  const Graph graph = ErdosRenyi(2000, 20000, 42);
  return StrategyRegistry::Global()
      .Run(EnumerationQuery::Undirected(pattern, graph)
               .WithStrategy(spec)
               .WithSeed(1)
               .WithPolicy(ExecutionPolicy::WithThreads(threads)))
      .metrics.reduce_cost;
}

TEST(ReducerPath, TriangleReduceCostPinnedOnFig1Graph) {
  for (const unsigned threads : {1u, 3u}) {
    const CostCounter cost =
        ReduceCost(SampleGraph::Triangle(), "bucket:8", threads);
    EXPECT_EQ(cost.edges_scanned, 320000u);
    EXPECT_EQ(cost.candidates, 762879u);
    EXPECT_EQ(cost.index_probes, 601330u);
    EXPECT_EQ(cost.outputs, 2937u);
  }
}

TEST(ReducerPath, SquareReduceCostPinnedOnFig1Graph) {
  for (const unsigned threads : {1u, 3u}) {
    const CostCounter cost =
        ReduceCost(SampleGraph::Square(), "bucket:3", threads);
    EXPECT_EQ(cost.edges_scanned, 480000u);
    EXPECT_EQ(cost.candidates, 25769008u);
    EXPECT_EQ(cost.index_probes, 20655072u);
    EXPECT_EQ(cost.outputs, 69005u);
  }
}

}  // namespace
}  // namespace smr
