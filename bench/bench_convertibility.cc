// Reproduces Theorem 6.1 (convertible algorithms): the total instrumented
// computation cost over all reducers stays within a constant factor of the
// serial algorithm's cost as the number of reducers grows, when
// p <= alpha + 2*beta. Shown for triangles (p=3, (0,3/2)-algorithm, Example
// 6.1) and squares/lollipops via the CQ evaluator at the reducers.
// Also prints the (alpha, beta) costs and convertibility verdicts of the
// decomposition algorithm (Theorem 7.2) for a catalog of patterns.

#include <cstdio>

#include "core/strategy.h"
#include "cq/cq_generation.h"
#include "graph/generators.h"
#include "serial/convertible.h"
#include "serial/decomposition.h"
#include "serial/triangles.h"
#include "cq/cq_evaluator.h"

namespace smr {
namespace {

void Run() {
  const Graph g = ErdosRenyi(1200, 14000, 17);
  std::printf(
      "Theorem 6.1: total reducer ops vs serial ops (should stay within a\n"
      "constant factor as reducers grow)\n\n");

  const SampleGraph patterns[] = {SampleGraph::Triangle(),
                                  SampleGraph::Square(),
                                  SampleGraph::Lollipop()};
  for (const auto& pattern : patterns) {
    CostCounter serial_cost;
    // Serial baseline: the CQ evaluator on the whole graph (the same kernel
    // the reducers run), so the comparison is apples to apples.
    const CqEvaluator evaluator(g, NodeOrder::Identity(g.num_nodes()));
    const uint64_t serial_found =
        evaluator.EvaluateAll(CqsForSample(pattern), nullptr, &serial_cost);
    std::printf("%s  instances=%llu serial_ops=%llu\n",
                pattern.ToString().c_str(),
                static_cast<unsigned long long>(serial_found),
                static_cast<unsigned long long>(serial_cost.Total()));
    std::printf("  %4s %12s %14s %12s %8s\n", "b", "reducers", "reduce_ops",
                "outputs", "ratio");
    for (int b : {2, 3, 4, 6}) {
      const auto metrics =
          StrategyRegistry::Global()
              .Run(EnumerationQuery::Undirected(pattern, g)
                       .WithStrategy("bucket:" + std::to_string(b)))
              .metrics;
      std::printf("  %4d %12llu %14llu %12llu %8.2f\n", b,
                  static_cast<unsigned long long>(metrics.key_space),
                  static_cast<unsigned long long>(metrics.reduce_cost.Total()),
                  static_cast<unsigned long long>(metrics.outputs),
                  static_cast<double>(metrics.reduce_cost.Total()) /
                      static_cast<double>(serial_cost.Total()));
    }
    std::printf("\n");
  }

  std::printf("Theorem 7.2: decomposition costs and convertibility\n");
  const SampleGraph catalog[] = {
      SampleGraph::Triangle(), SampleGraph::Square(), SampleGraph::Lollipop(),
      SampleGraph::Cycle(5),   SampleGraph::Cycle(6), SampleGraph::Clique(4),
      SampleGraph::Path(4),    SampleGraph::Star(4),  SampleGraph::Star(5)};
  for (const auto& pattern : catalog) {
    const auto decomposition = DecomposeSample(pattern);
    const SerialCost cost = CostOfDecomposition(*decomposition);
    std::printf("  %-30s %-34s %s convertible=%s\n",
                pattern.ToString().c_str(), decomposition->ToString().c_str(),
                cost.ToString().c_str(),
                IsConvertible(cost, pattern.num_vars()) ? "yes" : "no");
  }
}

}  // namespace
}  // namespace smr

int main() {
  smr::Run();
  return 0;
}
