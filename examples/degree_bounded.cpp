// Bounded-degree enumeration (Theorem 7.3): on data graphs whose maximum
// degree is Delta, any connected p-node pattern can be enumerated in
// O(m * Delta^{p-2}) — much better than the general O(m^{p/2}) when Delta
// is small. The scenario: road/mesh-like networks (grids) and sensor
// networks (degree-capped random graphs), where degree is naturally small.
//
// Run: ./build/examples/degree_bounded  (exits 1 if the counts disagree)

#include <cmath>
#include <cstdio>

#include "graph/generators.h"
#include "serial/bounded_degree.h"
#include "serial/matcher.h"

namespace {

// Prints one row: the bounded-degree kernel's operation count against the
// Theorem 7.3 bound m * Delta^{p-2}. Returns false when its instance count
// disagrees with the reference matcher's.
bool Report(const char* label, const smr::Graph& graph,
            const smr::SampleGraph& pattern, const char* pattern_name) {
  smr::CostCounter cost;
  smr::CountingSink bounded;
  smr::EnumerateBoundedDegree(pattern, graph, &bounded, &cost);
  smr::CountingSink reference;
  smr::EnumerateInstances(pattern, graph, &reference, nullptr);
  const double bound =
      static_cast<double>(graph.num_edges()) *
      std::pow(static_cast<double>(graph.MaxDegree()), pattern.num_vars() - 2);
  const bool agree = bounded.count() == reference.count();
  std::printf("%-18s %-9s Delta=%-3zu count=%-8llu ops=%-9llu "
              "m*Delta^(p-2)=%-9.0f ops/bound=%.2f %s\n",
              label, pattern_name, graph.MaxDegree(),
              static_cast<unsigned long long>(bounded.count()),
              static_cast<unsigned long long>(cost.Total()), bound,
              static_cast<double>(cost.Total()) / bound,
              agree ? "" : "MISMATCH");
  return agree;
}

}  // namespace

int main() {
  std::printf("Theorem 7.3: bounded-degree enumeration\n\n");

  bool agree = true;
  const smr::Graph grid = smr::GridGraph(60, 60);
  agree &= Report("road grid 60x60", grid, smr::SampleGraph::Square(),
                  "square");
  agree &= Report("road grid 60x60", grid, smr::SampleGraph::Path(4),
                  "path-4");

  const smr::Graph sensors = smr::DegreeCapped(4000, 9000, 6, 99);
  agree &= Report("sensor net cap-6", sensors, smr::SampleGraph::Triangle(),
                  "triangle");
  agree &= Report("sensor net cap-6", sensors, smr::SampleGraph::Square(),
                  "square");
  agree &= Report("sensor net cap-6", sensors, smr::SampleGraph::Star(4),
                  "star-4");

  const smr::Graph tree = smr::RegularTree(8, 4);
  agree &= Report("8-regular tree", tree, smr::SampleGraph::Star(3),
                  "star-3");
  agree &= Report("8-regular tree", tree, smr::SampleGraph::Path(4),
                  "path-4");

  std::printf(
      "\nops/bound stays a small constant: the bounded-degree kernel's work\n"
      "is O(m * Delta^{p-2}) (Theorem 7.3), so it stays fast on meshes and\n"
      "sensor networks. Counts are checked against the reference matcher.\n");
  return agree ? 0 : 1;
}
