// Exhaustive small-world property tests: every data graph on 5 nodes (all
// 2^10 edge subsets) is checked against the ground-truth matcher for the
// CQ-union semantics, the cycle CQs and the decomposition algorithm. Small
// enough to be exhaustive, strong enough to catch orientation/dedup corner
// cases random sweeps miss (e.g. graphs made entirely of one triangle,
// stars, or disjoint edges).
//
// The matcher itself — under EnumerateInstances, the bounded-degree
// kernel, and the labeled and directed enumerators — is checked against a
// brute-force oracle that shares no code with it: every injective map of
// the pattern into the data graph, reduced to the set of data edges (or
// arcs) it covers. Distinct images are exactly the distinct instances.

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cq/cq_evaluator.h"
#include "cq/cq_generation.h"
#include "cycles/cycle_cqs.h"
#include "directed/directed_enumeration.h"
#include "graph/generators.h"
#include "labeled/labeled_enumeration.h"
#include "serial/bounded_degree.h"
#include "serial/decomposition.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace smr {
namespace {

/// All 5-node graphs, as edge bitmasks over the 10 possible edges.
std::vector<Graph> AllFiveNodeGraphs() {
  std::vector<Edge> all_edges;
  for (NodeId u = 0; u < 5; ++u) {
    for (NodeId v = u + 1; v < 5; ++v) all_edges.emplace_back(u, v);
  }
  std::vector<Graph> graphs;
  graphs.reserve(1 << all_edges.size());
  for (uint32_t mask = 0; mask < (1u << all_edges.size()); ++mask) {
    std::vector<Edge> edges;
    for (size_t i = 0; i < all_edges.size(); ++i) {
      if (mask & (1u << i)) edges.push_back(all_edges[i]);
    }
    graphs.emplace_back(5, std::move(edges));
  }
  return graphs;
}

class ExhaustivePatterns : public ::testing::TestWithParam<int> {};

TEST_P(ExhaustivePatterns, CqUnionMatchesMatcherOnAll5NodeGraphs) {
  const SampleGraph patterns[] = {
      SampleGraph::Triangle(), SampleGraph::Square(), SampleGraph::Lollipop(),
      SampleGraph::Path(3),    SampleGraph::Star(4),  SampleGraph::Cycle(5),
      SampleGraph::Clique(4)};
  const SampleGraph& pattern = patterns[GetParam()];
  const auto cqs = CqsForSample(pattern);
  uint64_t graphs_with_instances = 0;
  for (const Graph& g : AllFiveNodeGraphs()) {
    if (g.num_edges() < static_cast<size_t>(pattern.num_edges())) continue;
    const CqEvaluator evaluator(g, NodeOrder::Identity(5));
    const uint64_t found = evaluator.EvaluateAll(cqs, nullptr, nullptr);
    const uint64_t expected = CountInstances(pattern, g);
    ASSERT_EQ(found, expected) << pattern.ToString() << " on graph with "
                               << g.num_edges() << " edges";
    if (expected > 0) ++graphs_with_instances;
  }
  // Sanity: the sweep actually exercised non-trivial graphs.
  EXPECT_GT(graphs_with_instances, 10u);
}

INSTANTIATE_TEST_SUITE_P(Patterns, ExhaustivePatterns, ::testing::Range(0, 7));

TEST(Exhaustive, CycleCqsOnAll5NodeGraphs) {
  for (int p : {3, 4, 5}) {
    const auto cqs = CycleCqs(p);
    const SampleGraph pattern = SampleGraph::Cycle(p);
    for (const Graph& g : AllFiveNodeGraphs()) {
      if (g.num_edges() < static_cast<size_t>(p)) continue;
      const CqEvaluator evaluator(g, NodeOrder::Identity(5));
      uint64_t found = 0;
      for (const auto& entry : cqs) {
        found += evaluator.Evaluate(entry.cq, nullptr, nullptr);
      }
      ASSERT_EQ(found, CountInstances(pattern, g))
          << "C" << p << " on graph with " << g.num_edges() << " edges";
    }
  }
}

TEST(Exhaustive, DecompositionOnAll5NodeGraphs) {
  const SampleGraph patterns[] = {SampleGraph::Triangle(),
                                  SampleGraph::Square(),
                                  SampleGraph::Lollipop()};
  for (const auto& pattern : patterns) {
    const auto decomposition = DecomposeSample(pattern);
    ASSERT_TRUE(decomposition.has_value());
    for (const Graph& g : AllFiveNodeGraphs()) {
      if (g.num_edges() < static_cast<size_t>(pattern.num_edges())) continue;
      CountingSink sink;
      EnumerateByDecomposition(pattern, *decomposition, g, &sink, nullptr);
      ASSERT_EQ(sink.count(), CountInstances(pattern, g))
          << pattern.ToString() << " on graph with " << g.num_edges()
          << " edges";
    }
  }
}

// ---------------------------------------------------------------------------
// Brute-force oracle
// ---------------------------------------------------------------------------

/// An instance as the set of data edges (or arcs) it covers, sorted.
using Image = std::vector<std::pair<NodeId, NodeId>>;

/// Images of the embeddings `emitted`, sorted (duplicates kept, so an
/// enumerator that reports one instance twice shows up).
std::vector<Image> ImagesOf(const std::vector<std::vector<NodeId>>& emitted,
                            const std::vector<std::pair<int, int>>& edges,
                            bool directed) {
  std::vector<Image> images;
  for (const auto& map : emitted) {
    Image image;
    for (const auto& [a, b] : edges) {
      NodeId u = map[a];
      NodeId v = map[b];
      if (!directed && u > v) std::swap(u, v);
      image.emplace_back(u, v);
    }
    std::sort(image.begin(), image.end());
    images.push_back(std::move(image));
  }
  std::sort(images.begin(), images.end());
  return images;
}

/// Every injective map of `p` variables into nodes [0, n) under which
/// `fits(map)` holds, reduced to distinct images of the pattern `edges`.
std::vector<Image> BruteForceImages(
    int p, NodeId n, const std::vector<std::pair<int, int>>& edges,
    bool directed,
    const std::function<bool(const std::vector<NodeId>&)>& fits) {
  std::vector<std::vector<NodeId>> maps;
  std::vector<NodeId> map(p);
  std::vector<bool> used(n, false);
  std::function<void(int)> extend = [&](int depth) {
    if (depth == p) {
      if (fits(map)) maps.push_back(map);
      return;
    }
    for (NodeId v = 0; v < n; ++v) {
      if (used[v]) continue;
      used[v] = true;
      map[depth] = v;
      extend(depth + 1);
      used[v] = false;
    }
  };
  extend(0);
  std::vector<Image> images = ImagesOf(maps, edges, directed);
  images.erase(std::unique(images.begin(), images.end()), images.end());
  return images;
}

/// The oracle for an undirected pattern on `graph`'s raw edge list.
std::vector<Image> UndirectedOracle(const SampleGraph& pattern,
                                    const Graph& graph) {
  const std::set<Edge> edges(graph.edges().begin(), graph.edges().end());
  return BruteForceImages(
      pattern.num_vars(), graph.num_nodes(), pattern.edges(), false,
      [&](const std::vector<NodeId>& map) {
        for (const auto& [a, b] : pattern.edges()) {
          if (edges.count({std::min(map[a], map[b]),
                           std::max(map[a], map[b])}) == 0) {
            return false;
          }
        }
        return true;
      });
}

TEST(BruteForceOracle, EnumerateInstancesOnAll5NodeGraphs) {
  const SampleGraph patterns[] = {
      SampleGraph::Triangle(), SampleGraph::Square(), SampleGraph::Lollipop(),
      SampleGraph::Path(3),    SampleGraph::Star(4),  SampleGraph::Cycle(5),
      SampleGraph::Clique(4)};
  for (const auto& pattern : patterns) {
    uint64_t instances = 0;
    for (const Graph& g : AllFiveNodeGraphs()) {
      CollectingSink sink;
      EnumerateInstances(pattern, g, &sink, nullptr);
      const std::vector<Image> expected = UndirectedOracle(pattern, g);
      ASSERT_EQ(ImagesOf(sink.assignments(), pattern.edges(), false),
                expected)
          << pattern.ToString() << " on graph with " << g.num_edges()
          << " edges";
      instances += expected.size();
    }
    EXPECT_GT(instances, 0u) << pattern.ToString();
  }
}

TEST(Exhaustive, BoundedDegreeOnAll5NodeGraphs) {
  // Checked against the CQ evaluator and the brute-force oracle: the
  // bounded-degree kernel runs the same matcher as CountInstances, so
  // comparing the two would test the matcher against itself.
  const SampleGraph patterns[] = {
      SampleGraph::Triangle(), SampleGraph::Path(4), SampleGraph::Star(3),
      SampleGraph::Square(),   SampleGraph::Lollipop(),
      SampleGraph::Cycle(5)};
  for (const auto& pattern : patterns) {
    const auto cqs = CqsForSample(pattern);
    for (const Graph& g : AllFiveNodeGraphs()) {
      CollectingSink bounded;
      EnumerateBoundedDegree(pattern, g, &bounded, nullptr);
      CollectingSink evaluated;
      CqEvaluator(g, NodeOrder::Identity(5)).EvaluateAll(cqs, &evaluated,
                                                         nullptr);
      const std::vector<Image> images =
          ImagesOf(bounded.assignments(), pattern.edges(), false);
      ASSERT_EQ(images,
                ImagesOf(evaluated.assignments(), pattern.edges(), false))
          << pattern.ToString() << " on graph with " << g.num_edges()
          << " edges";
      ASSERT_EQ(images, UndirectedOracle(pattern, g))
          << pattern.ToString() << " on graph with " << g.num_edges()
          << " edges";
    }
  }
}

/// All 4-node digraphs, as arc bitmasks over the 12 ordered pairs.
std::vector<DirectedGraph> AllFourNodeDigraphs() {
  std::vector<Arc> all_arcs;
  for (NodeId u = 0; u < 4; ++u) {
    for (NodeId v = 0; v < 4; ++v) {
      if (u != v) all_arcs.emplace_back(u, v);
    }
  }
  std::vector<DirectedGraph> graphs;
  graphs.reserve(1 << all_arcs.size());
  for (uint32_t mask = 0; mask < (1u << all_arcs.size()); ++mask) {
    std::vector<Arc> arcs;
    for (size_t i = 0; i < all_arcs.size(); ++i) {
      if (mask & (1u << i)) arcs.push_back(all_arcs[i]);
    }
    graphs.emplace_back(4, std::move(arcs));
  }
  return graphs;
}

TEST(BruteForceOracle, DirectedPatternsWithMutualArcsOnAll4NodeDigraphs) {
  const DirectedSampleGraph patterns[] = {
      DirectedSampleGraph(2, {{0, 1}, {1, 0}}),                  // a <-> b
      DirectedSampleGraph(3, {{0, 1}, {1, 0}, {1, 2}}),          // + tail
      DirectedSampleGraph(3, {{0, 1}, {1, 0}, {1, 2}, {2, 0}}),  // in a cycle
      DirectedSampleGraph(3, {{0, 1}, {1, 0}, {1, 2}, {2, 1}}),  // two pairs
      DirectedSampleGraph(4, {{0, 1}, {1, 0}, {1, 2}, {2, 3}, {3, 2}}),
      DirectedSampleGraph::CycleTriad(),
      DirectedSampleGraph::FeedForwardLoop(),
  };
  for (const auto& pattern : patterns) {
    uint64_t instances = 0;
    for (const DirectedGraph& g : AllFourNodeDigraphs()) {
      const std::set<Arc> arcs(g.arcs().begin(), g.arcs().end());
      const std::vector<Image> expected = BruteForceImages(
          pattern.num_vars(), g.num_nodes(), pattern.arcs(), true,
          [&](const std::vector<NodeId>& map) {
            for (const auto& [a, b] : pattern.arcs()) {
              if (arcs.count({map[a], map[b]}) == 0) return false;
            }
            return true;
          });
      CollectingSink serial;
      EnumerateDirectedInstances(pattern, g, &serial, nullptr);
      ASSERT_EQ(ImagesOf(serial.assignments(), pattern.arcs(), true),
                expected)
          << pattern.ToString() << " on " << g.num_arcs() << " arcs";
      CollectingSink reduced;
      DirectedBucketOrientedEnumerate(pattern, g, 2, 1, &reduced);
      ASSERT_EQ(ImagesOf(reduced.assignments(), pattern.arcs(), true),
                expected)
          << "reducers: " << pattern.ToString() << " on " << g.num_arcs()
          << " arcs";
      instances += expected.size();
    }
    EXPECT_GT(instances, 0u) << pattern.ToString();
  }
}

TEST(BruteForceOracle, LabeledPatternsOnRandomTwoLabelGraphs) {
  // Skeleton automorphisms that swap differently labeled edges are not
  // label-preserving: the square's rotation by one, the triangle's and
  // the path's reflections, the lollipop's swap of its two triangle ends.
  const LabeledSampleGraph patterns[] = {
      LabeledSampleGraph(4, {{0, 1, 0}, {1, 2, 1}, {2, 3, 0}, {0, 3, 1}}),
      LabeledSampleGraph(3, {{0, 1, 0}, {1, 2, 0}, {0, 2, 1}}),
      LabeledSampleGraph(3, {{0, 1, 0}, {1, 2, 1}}),
      LabeledSampleGraph(4, {{0, 1, 1}, {1, 2, 0}, {1, 3, 1}, {2, 3, 0}}),
  };
  for (const auto& pattern : patterns) {
    ASSERT_LT(pattern.Automorphisms().size(),
              pattern.skeleton().Automorphisms().size())
        << pattern.ToString();
  }
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    const NodeId n = 7;
    std::map<Edge, EdgeLabel> label_of;
    std::vector<LabeledEdge> edges;
    for (NodeId u = 0; u < n; ++u) {
      for (NodeId v = u + 1; v < n; ++v) {
        if (rng.Below(2) == 0) continue;
        const auto label = static_cast<EdgeLabel>(rng.Below(2));
        label_of[{u, v}] = label;
        edges.push_back({u, v, label});
      }
    }
    const LabeledGraph g(n, std::move(edges));
    for (const auto& pattern : patterns) {
      const auto& skeleton_edges = pattern.skeleton().edges();
      const std::vector<Image> expected = BruteForceImages(
          pattern.num_vars(), n, skeleton_edges, false,
          [&](const std::vector<NodeId>& map) {
            for (const auto& [a, b] : skeleton_edges) {
              const auto it = label_of.find(
                  {std::min(map[a], map[b]), std::max(map[a], map[b])});
              if (it == label_of.end() ||
                  it->second != pattern.LabelOf(a, b)) {
                return false;
              }
            }
            return true;
          });
      CollectingSink serial;
      EnumerateLabeledInstances(pattern, g, &serial, nullptr);
      ASSERT_EQ(ImagesOf(serial.assignments(), skeleton_edges, false),
                expected)
          << pattern.ToString() << " seed=" << seed;
    }
  }
}

}  // namespace
}  // namespace smr
