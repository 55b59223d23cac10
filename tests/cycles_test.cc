#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "cq/cq_evaluator.h"
#include "cq/cq_generation.h"
#include "cycles/cycle_cqs.h"
#include "graph/generators.h"
#include "tests/test_util.h"
#include "util/combinatorics.h"

namespace smr {
namespace {

TEST(CycleCqs, PentagonHasThreeCqs) {
  // Example 5.3: C5 needs exactly the three orientations udddd, uuddd,
  // ududd (up to equivalence).
  const auto cqs = CycleCqs(5);
  ASSERT_EQ(cqs.size(), 3u);
  std::set<std::string> orientations;
  for (const auto& entry : cqs) orientations.insert(entry.orientation);
  EXPECT_EQ(orientations,
            (std::set<std::string>{"udddd", "uuddd", "ududd"}));
}

TEST(CycleCqs, HeptagonHasNineCqs) {
  // Example 5.5: p = 7 (prime) meets the conditional upper bound
  // (2^7 - 2) / 14 = 9.
  EXPECT_EQ(CycleCqs(7).size(), 9u);
  EXPECT_DOUBLE_EQ(CycleCqConditionalUpperBound(7), 9.0);
  EXPECT_EQ(CycleCqExactCount(7), 9u);
}

TEST(CycleCqs, TriangleHasOneCq) {
  const auto cqs = CycleCqs(3);
  ASSERT_EQ(cqs.size(), 1u);
  EXPECT_EQ(cqs[0].orientation, "udd");
}

TEST(CycleCqs, HexagonCount) {
  // Example 5.4 of the paper claims 7 classes for C6 but its own list is
  // internally inconsistent (Example 5.4 keeps {1122,1212,1221}, Example
  // 5.5 lists 1113 instead of 1221). Burnside's lemma over rotations and
  // complementing reflections gives 8, which the exactly-once property test
  // below confirms is both necessary and sufficient.
  EXPECT_EQ(CycleCqExactCount(6), 8u);
  EXPECT_EQ(CycleCqs(6).size(), 8u);
}

TEST(CycleCqs, CountMatchesBurnsideFormula) {
  for (int p = 3; p <= 10; ++p) {
    EXPECT_EQ(CycleCqs(p).size(), CycleCqExactCount(p)) << "p=" << p;
  }
}

TEST(CycleCqs, AllowedOrdersAreTheLeastLinearExtensions) {
  // The definition the conditions implement, by brute force over all p!
  // orders: the orders consistent with every subgoal that are least in
  // their orbit under the oriented cycle's automorphisms.
  for (int p = 3; p <= 8; ++p) {
    for (const auto& entry : CycleCqs(p)) {
      const auto& subgoals = entry.cq.subgoals();
      std::set<std::pair<int, int>> arcs(subgoals.begin(), subgoals.end());
      std::vector<std::vector<int>> automorphisms;
      for (const auto& g : AllPermutations(p)) {
        bool keeps = true;
        for (const auto& [a, b] : subgoals) keeps &= arcs.count({g[a], g[b]}) > 0;
        if (keeps) automorphisms.push_back(g);
      }
      std::vector<std::vector<int>> expected;
      for (const auto& order : AllPermutations(p)) {
        const std::vector<int> position = Inverse(order);
        bool consistent = true;
        for (const auto& [a, b] : subgoals) {
          consistent &= position[a] < position[b];
        }
        if (consistent && IsLeastInOrbit(order, automorphisms)) {
          expected.push_back(order);
        }
      }
      EXPECT_EQ(entry.cq.allowed_orders(), expected)
          << "p=" << p << " " << entry.orientation;
    }
  }
}

TEST(CycleCqs, ConditionsPinnedThroughP10) {
  // Digest of every CQ's subgoals and admissible orders, and the orders'
  // count ((p-1)!/2: each p-cycle of K_p once), as the all-permutations
  // construction produced them.
  struct Pin {
    int p;
    uint64_t orders;
    uint64_t digest;
  };
  const Pin pins[] = {
      {3, 1u, 0x8734e8bf6dc46ebdull},      {4, 3u, 0xd7949765fa1eda64ull},
      {5, 12u, 0xd92e26643a207207ull},     {6, 60u, 0x193bbe8384f90369ull},
      {7, 360u, 0xdfd586eb27631a9dull},    {8, 2520u, 0x9cd66c92d22f27c7ull},
      {9, 20160u, 0x6e78db2a4157e477ull},  {10, 181440u, 0xb12337ca2d1238efull},
  };
  for (const Pin& pin : pins) {
    uint64_t digest = 1469598103934665603ull;  // FNV-1a
    auto mix = [&digest](uint64_t v) {
      digest ^= v;
      digest *= 1099511628211ull;
    };
    uint64_t orders = 0;
    for (const auto& entry : CycleCqs(pin.p)) {
      for (const auto& [a, b] : entry.cq.subgoals()) {
        mix(a);
        mix(b);
      }
      for (const auto& order : entry.cq.allowed_orders()) {
        ++orders;
        for (const int v : order) mix(v);
        mix(0xff);
      }
      mix(0xfe);
    }
    EXPECT_EQ(orders, pin.orders) << "p=" << pin.p;
    EXPECT_EQ(digest, pin.digest) << "p=" << pin.p;
  }
}

TEST(CycleCqs, ConditionalUpperBoundIsExactForPrimes) {
  for (int p : {3, 5, 7, 11, 13}) {
    EXPECT_DOUBLE_EQ(CycleCqConditionalUpperBound(p),
                     static_cast<double>(CycleCqExactCount(p)))
        << "p=" << p;
  }
}

TEST(CycleCqs, ConditionalBoundIsLowerForCompositeEvenP) {
  // For composite p the conditional bound undercounts (periodic and
  // palindromic sequences); Section 5.3 discusses the correction.
  EXPECT_LT(CycleCqConditionalUpperBound(6),
            static_cast<double>(CycleCqExactCount(6)));
}

TEST(CycleCqs, RunSequencesSumToP) {
  for (int p = 3; p <= 9; ++p) {
    for (const auto& entry : CycleCqs(p)) {
      int sum = 0;
      for (int run : entry.runs) sum += run;
      EXPECT_EQ(sum, p);
      EXPECT_EQ(entry.runs.size() % 2, 0u);
      EXPECT_EQ(entry.orientation.size(), static_cast<size_t>(p));
      EXPECT_EQ(entry.orientation.front(), 'u');
      EXPECT_EQ(entry.orientation.back(), 'd');
    }
  }
}

TEST(CycleCqs, HexagonSelfSymmetries) {
  // Example 5.4: 33 (uuuddd) is a palindrome; 111111 (ududud) has
  // nontrivial periodicity; both need extra inequalities.
  bool saw_33 = false;
  bool saw_alternating = false;
  for (const auto& entry : CycleCqs(6)) {
    if (entry.runs == std::vector<int>{3, 3}) {
      saw_33 = true;
      EXPECT_TRUE(entry.palindrome);
    }
    if (entry.runs == std::vector<int>(6, 1)) {
      saw_alternating = true;
      EXPECT_GT(entry.periodicity, 1);
      EXPECT_TRUE(entry.palindrome);
    }
  }
  EXPECT_TRUE(saw_33);
  EXPECT_TRUE(saw_alternating);
}

TEST(CycleCqs, PalindromeConditionHalvesExtensions) {
  // For uuuddd the flip is the only self-symmetry: the condition keeps
  // exactly half of the linear extensions of the orientation.
  for (const auto& entry : CycleCqs(6)) {
    if (entry.runs != std::vector<int>{3, 3}) continue;
    // Count linear extensions of the orientation partial order directly.
    uint64_t extensions = 0;
    for (const auto& order : AllPermutations(6)) {
      const auto pos = Inverse(order);
      bool ok = true;
      for (const auto& [a, b] : entry.cq.subgoals()) {
        if (pos[a] >= pos[b]) ok = false;
      }
      if (ok) ++extensions;
    }
    EXPECT_EQ(entry.cq.allowed_orders().size(), extensions / 2);
  }
}

class CycleExactlyOnce : public ::testing::TestWithParam<int> {};

TEST_P(CycleExactlyOnce, UnionOfCqsFindsEachCycleOnce) {
  const int p = GetParam();
  const auto cqs = CycleCqs(p);
  const SampleGraph pattern = SampleGraph::Cycle(p);
  for (uint64_t seed = 0; seed < 3; ++seed) {
    const Graph g = ErdosRenyi(14, 36, seed + 40);
    const CqEvaluator evaluator(g, NodeOrder::Identity(g.num_nodes()));
    CollectingSink sink;
    for (const auto& entry : cqs) {
      evaluator.Evaluate(entry.cq, &sink, nullptr);
    }
    EXPECT_EQ(KeysOf(sink, pattern), GroundTruthKeys(pattern, g))
        << "p=" << p << " seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Lengths, CycleExactlyOnce,
                         ::testing::Values(3, 4, 5, 6, 7, 8));

TEST(CycleCqs, DroppingAnyHexagonCqLosesCycles) {
  // Minimality (Section 5.2): each of the 8 CQ classes for C6 is needed.
  const auto cqs = CycleCqs(6);
  // A graph rich in hexagons: K_7.
  const Graph g = CompleteGraph(7);
  const uint64_t expected = CountInstances(SampleGraph::Cycle(6), g);
  const CqEvaluator evaluator(g, NodeOrder::Identity(g.num_nodes()));
  uint64_t total = 0;
  for (const auto& entry : cqs) {
    const uint64_t found = evaluator.Evaluate(entry.cq, nullptr, nullptr);
    EXPECT_GT(found, 0u) << "run sequence contributes nothing";
    total += found;
  }
  EXPECT_EQ(total, expected);
}

TEST(CycleCqs, FewerCqsThanGeneralMethod) {
  // Section 5: the orientation method beats the node-order method of
  // Section 3. Example 5.3 reports 7 CQs for the pentagon under the
  // paper's representative choice (X1 smallest, X2 < X5); our
  // lexicographic representatives happen to merge into 6 orientations —
  // the group count depends on which quotient representatives are chosen.
  EXPECT_EQ(CycleCqs(5).size(), 3u);
  EXPECT_EQ(CqsForSample(SampleGraph::Cycle(5)).size(), 6u);
  for (int p = 4; p <= 8; ++p) {
    EXPECT_LE(CycleCqs(p).size(), CqsForSample(SampleGraph::Cycle(p)).size())
        << "p=" << p;
  }
}

}  // namespace
}  // namespace smr
