// Reproduces Theorem 7.3: on data graphs of maximum degree Delta, any
// connected p-node sample graph has an O(m * Delta^{p-2}) enumeration
// algorithm, and the bound is tight — a Delta-regular tree contains
// Theta(m * Delta^{p-2}) p-stars. We measure:
//  * star counts on Delta-regular trees vs the closed form
//    sum_v C(deg(v), p-1),
//  * the instrumented operation count of the bounded-degree algorithm,
//    whose growth with Delta should track Delta^{p-2},
//  * the same ratio for squares on degree-capped random graphs, whose
//    counts are checked against the reference matcher (exit 1 if not).

#include <cmath>
#include <cstdio>

#include "graph/generators.h"
#include "serial/bounded_degree.h"
#include "serial/matcher.h"
#include "util/combinatorics.h"

namespace smr {
namespace {

bool Run() {
  std::printf(
      "Theorem 7.3 tightness: p-stars in Delta-regular trees\n"
      "(count ~ m * Delta^{p-2}; ops of the bounded-degree algorithm track "
      "it)\n\n");
  std::printf("%6s %3s %10s %12s %14s %14s %10s\n", "Delta", "p", "m",
              "stars", "closed form", "ops", "ops/mD^p-2");
  for (int p : {3, 4}) {
    const SampleGraph star = SampleGraph::Star(p);
    for (int delta : {4, 8, 16}) {
      const Graph tree = RegularTree(delta, 3);
      uint64_t closed_form = 0;
      for (NodeId u = 0; u < tree.num_nodes(); ++u) {
        closed_form += Binomial(tree.Degree(u), p - 1);
      }
      CostCounter cost;
      CountingSink sink;
      EnumerateBoundedDegree(star, tree, &sink, &cost);
      const double denom =
          static_cast<double>(tree.num_edges()) * std::pow(delta, p - 2);
      std::printf("%6d %3d %10zu %12llu %14llu %14llu %10.2f\n", delta, p,
                  tree.num_edges(),
                  static_cast<unsigned long long>(sink.count()),
                  static_cast<unsigned long long>(closed_form),
                  static_cast<unsigned long long>(cost.Total()),
                  static_cast<double>(cost.Total()) / denom);
    }
  }

  std::printf(
      "\nsquares on degree-capped random graphs (p = 4): ops against the\n"
      "Theorem 7.3 bound; counts checked against the reference matcher\n\n");
  std::printf("%6s %8s %12s %14s %10s\n", "Delta", "m", "squares", "ops",
              "ops/mD^2");
  bool agree = true;
  for (size_t delta : {4, 8, 16}) {
    const Graph g = DegreeCapped(3000, 6000, delta, 11);
    CostCounter cost;
    CountingSink sink;
    EnumerateBoundedDegree(SampleGraph::Square(), g, &sink, &cost);
    CountingSink reference;
    EnumerateInstances(SampleGraph::Square(), g, &reference, nullptr);
    const double bound = static_cast<double>(g.num_edges()) *
                         std::pow(static_cast<double>(g.MaxDegree()), 2);
    std::printf("%6zu %8zu %12llu %14llu %10.2f%s\n", g.MaxDegree(),
                g.num_edges(), static_cast<unsigned long long>(sink.count()),
                static_cast<unsigned long long>(cost.Total()),
                static_cast<double>(cost.Total()) / bound,
                sink.count() == reference.count() ? "" : "  MISMATCH");
    agree &= sink.count() == reference.count();
  }
  return agree;
}

}  // namespace
}  // namespace smr

int main() { return smr::Run() ? 0 : 1; }
