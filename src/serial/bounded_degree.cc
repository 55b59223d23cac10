#include "serial/bounded_degree.h"

#include <algorithm>
#include <stdexcept>

#include "serial/matcher.h"

namespace smr {

namespace {

/// True iff `v` is an articulation point of the sub-pattern induced by the
/// variables with alive[v] == true.
bool IsArticulationInAlive(const SampleGraph& pattern,
                           const std::vector<bool>& alive, int v) {
  int start = -1;
  int alive_count = 0;
  for (int x = 0; x < pattern.num_vars(); ++x) {
    if (!alive[x]) continue;
    ++alive_count;
    if (x != v && start < 0) start = x;
  }
  if (alive_count <= 2) return false;
  std::vector<bool> seen(pattern.num_vars(), false);
  seen[v] = true;
  seen[start] = true;
  std::vector<int> stack = {start};
  int reached = 1;
  while (!stack.empty()) {
    const int x = stack.back();
    stack.pop_back();
    for (int w : pattern.Neighbors(x)) {
      if (!alive[w] || seen[w]) continue;
      seen[w] = true;
      ++reached;
      stack.push_back(w);
    }
  }
  return reached != alive_count - 1;
}

}  // namespace

std::vector<int> BoundedDegreeAssignmentOrder(const SampleGraph& pattern) {
  const int p = pattern.num_vars();
  std::vector<bool> alive(p, true);
  std::vector<int> removal;
  // Peel non-articulation variables until two adjacent variables remain.
  for (int remaining = p; remaining > 2; --remaining) {
    int pick = -1;
    for (int v = 0; v < p; ++v) {
      if (!alive[v]) continue;
      if (!IsArticulationInAlive(pattern, alive, v)) {
        pick = v;
        break;
      }
    }
    // A connected graph always has a non-articulation vertex.
    alive[pick] = false;
    removal.push_back(pick);
  }
  std::vector<int> order;
  for (int v = 0; v < p; ++v) {
    if (alive[v]) order.push_back(v);
  }
  std::reverse(removal.begin(), removal.end());
  order.insert(order.end(), removal.begin(), removal.end());
  return order;
}

uint64_t EnumerateBoundedDegree(const SampleGraph& pattern, const Graph& graph,
                                InstanceSink* sink, CostCounter* cost) {
  if (pattern.num_vars() < 2 || !pattern.IsConnected()) {
    throw std::invalid_argument(
        "bounded-degree algorithm needs a connected pattern with p >= 2");
  }
  return EnumerateInstances(pattern, graph,
                            BoundedDegreeAssignmentOrder(pattern), sink, cost);
}

}  // namespace smr
