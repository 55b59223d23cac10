#ifndef SMR_SERIAL_MATCHER_H_
#define SMR_SERIAL_MATCHER_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "graph/intersect.h"
#include "graph/sample_graph.h"
#include "mapreduce/instance_sink.h"
#include "util/cost_model.h"

namespace smr {

/// Ground-truth serial enumeration of all instances of `pattern` in `graph`,
/// each exactly once. An *instance* is a subgraph of the data graph
/// isomorphic to the sample graph (extra data-graph edges among the chosen
/// nodes are allowed, matching the paper's join semantics). Duplicate
/// embeddings related by an automorphism of the pattern are suppressed by
/// keeping only the lexicographically-least embedding of each orbit — the
/// same device the paper uses in Lemma 6.1 ("lexicographically first among
/// all the ways that this instance can be generated").
///
/// This is MatchPattern below on undirected adjacency rows, in
/// ConnectedVariableOrder; it is the reference baseline that every
/// map-reduce algorithm and every specialized serial kernel in this library
/// is validated against.
///
/// Returns the number of instances. `sink` and `cost` may be null.
uint64_t EnumerateInstances(const SampleGraph& pattern, const Graph& graph,
                            InstanceSink* sink, CostCounter* cost);

/// The same enumeration with a caller-chosen assignment `order` (a
/// permutation of the pattern's variables; EnumerateBoundedDegree passes
/// Theorem 7.3's peeling order). Every order finds the same instances; the
/// emission order and the CostCounter totals depend on it.
uint64_t EnumerateInstances(const SampleGraph& pattern, const Graph& graph,
                            std::span<const int> order, InstanceSink* sink,
                            CostCounter* cost);

/// Convenience: count only.
uint64_t CountInstances(const SampleGraph& pattern, const Graph& graph);

/// The duplicate filter of every backtracking matcher (MatchPattern and the
/// specialized serial kernels): true iff `assignment` is lexicographically
/// least among its compositions with the pattern's `automorphisms`, so each
/// orbit of embeddings is kept once.
inline bool IsCanonicalEmbedding(
    std::span<const NodeId> assignment,
    std::span<const std::vector<int>> automorphisms) {
  for (const auto& mu : automorphisms) {
    for (size_t x = 0; x < assignment.size(); ++x) {
      const NodeId lhs = assignment[x];
      const NodeId rhs = assignment[mu[x]];
      if (lhs < rhs) break;         // original is smaller: next mu
      if (lhs > rhs) return false;  // a smaller relabeling exists
    }
  }
  return true;
}

/// Assignment order of the matcher: repeatedly the unplaced variable with
/// the most placed neighbors, then the highest degree, then the lowest
/// index — so each variable after the first has a bound neighbor when
/// possible, and the search starts from a maximum-degree variable.
/// `Pattern` supplies num_vars() and Neighbors(v) (distinct variables).
template <typename Pattern>
std::vector<int> ConnectedVariableOrder(const Pattern& pattern) {
  const int p = pattern.num_vars();
  std::vector<int> order;
  std::vector<bool> placed(p, false);
  while (static_cast<int>(order.size()) < p) {
    int best = -1;
    int best_bound = -1;
    int best_degree = -1;
    for (int v = 0; v < p; ++v) {
      if (placed[v]) continue;
      const auto& neighbors = pattern.Neighbors(v);
      int bound = 0;
      for (int w : neighbors) {
        if (placed[w]) ++bound;
      }
      const int degree = static_cast<int>(neighbors.size());
      if (bound > best_bound ||
          (bound == best_bound && degree > best_degree)) {
        best = v;
        best_bound = bound;
        best_degree = degree;
      }
    }
    placed[best] = true;
    order.push_back(best);
  }
  return order;
}

/// One pattern edge seen from one of its endpoints: the other endpoint and
/// a family tag that the data-graph rows interpret (an arc direction, an
/// edge label; 0 for undirected patterns).
struct PatternLink {
  int other;
  int tag = 0;
};

/// The pattern side of a match: the assignment order, every variable's
/// links (one per pattern edge at it — two for a mutual pair of arcs), and
/// the automorphism group whose orbits are deduplicated. Read-only while
/// matching, so one plan serves concurrent reducers.
struct MatchPlan {
  std::vector<int> order;
  std::vector<std::vector<PatternLink>> links;  // by variable
  std::span<const std::vector<int>> automorphisms;
};

namespace matcher_internal {

template <typename Rows>
class Backtracker {
 public:
  Backtracker(const MatchPlan& plan, const Rows& rows, InstanceSink* sink,
              CostCounter* cost)
      : plan_(plan),
        rows_(rows),
        sink_(sink),
        cost_(cost),
        assignment_(plan.links.size(), 0),
        bound_(plan.links.size(), false),
        scratch_(plan.order.size()) {}

  uint64_t Run() {
    Extend(0);
    return found_;
  }

 private:
  void Extend(size_t depth) {
    if (depth == plan_.order.size()) {
      if (IsCanonicalEmbedding(assignment_, plan_.automorphisms)) {
        ++found_;
        ++cost_->outputs;
        if (sink_ != nullptr) sink_->Emit(assignment_);
      }
      return;
    }
    const int var = plan_.order[depth];
    const std::vector<PatternLink>& links = plan_.links[var];
    // Candidate generation: the two bound links with the shortest rows
    // (ties by link position) drive an intersection; any further bound
    // links are probed on each survivor.
    int anchor1 = -1, anchor2 = -1;
    std::span<const NodeId> row1, row2;
    for (int i = 0; i < static_cast<int>(links.size()); ++i) {
      if (!bound_[links[i].other]) continue;
      const std::span<const NodeId> row =
          rows_.Row(links[i], assignment_[links[i].other]);
      if (anchor1 < 0 || row.size() < row1.size()) {
        anchor2 = anchor1;
        row2 = row1;
        anchor1 = i;
        row1 = row;
      } else if (anchor2 < 0 || row.size() < row2.size()) {
        anchor2 = i;
        row2 = row;
      }
    }

    if (anchor1 < 0) {
      for (NodeId node = 0; node < rows_.num_nodes(); ++node) {
        Try(depth, var, node, -1, -1);
      }
    } else if (anchor2 < 0) {
      for (NodeId node : row1) Try(depth, var, node, anchor1, -1);
    } else {
      // Rows ascend by node id, so the survivors come out in the order a
      // walk of either row would visit them. Each depth owns its buffer: a
      // level iterates its survivors while deeper levels run.
      std::vector<NodeId>& out = scratch_[depth];
      const size_t shorter = std::min(row1.size(), row2.size());
      if (out.size() < shorter + kIntersectSlack) {
        out.resize(shorter + kIntersectSlack);
      }
      const size_t count = IntersectInto(row1, row2, out.data());
      // Price the merge as one probe per element of the shorter row.
      cost_->index_probes += shorter;
      for (size_t i = 0; i < count; ++i) {
        Try(depth, var, out[i], anchor1, anchor2);
      }
    }
  }

  // `skip1`/`skip2` are the anchor links; when rows are exact edge tests,
  // the candidate source already proves their edges.
  void Try(size_t depth, int var, NodeId node, int skip1, int skip2) {
    ++cost_->candidates;
    for (size_t x = 0; x < assignment_.size(); ++x) {
      if (bound_[x] && assignment_[x] == node) return;  // distinctness
    }
    const std::vector<PatternLink>& links = plan_.links[var];
    for (int i = 0; i < static_cast<int>(links.size()); ++i) {
      const PatternLink& link = links[i];
      if (!bound_[link.other]) continue;
      if (Rows::kRowIsEdgeTest && (i == skip1 || i == skip2)) continue;
      ++cost_->index_probes;
      if (!rows_.Holds(link, node, assignment_[link.other])) return;
    }
    assignment_[var] = node;
    bound_[var] = true;
    Extend(depth + 1);
    bound_[var] = false;
  }

  const MatchPlan& plan_;
  const Rows& rows_;
  InstanceSink* sink_;
  CostCounter* cost_;
  std::vector<NodeId> assignment_;  // by variable
  std::vector<bool> bound_;         // by variable
  std::vector<std::vector<NodeId>> scratch_;  // by depth
  uint64_t found_ = 0;
};

}  // namespace matcher_internal

/// The one backtracking matcher behind the undirected, bounded-degree,
/// labeled and directed enumerators. Variables are bound in `plan.order`;
/// a candidate for the next variable must lie in the data row of every
/// bound link — the rows of the two shortest are intersected, the others
/// probed — and full embeddings are kept only when canonical under
/// `plan.automorphisms` (Lemma 6.1). `Rows` adapts a family's data graph:
///
///   NodeId num_nodes() const;
///   // Sorted row that holds every candidate for the placed variable when
///   // `link.other` sits at data node `at`.
///   std::span<const NodeId> Row(PatternLink link, NodeId at) const;
///   // The full edge test of `link` between `candidate` and `at`.
///   bool Holds(PatternLink link, NodeId candidate, NodeId at) const;
///   // True when row membership alone proves the edge (no label to check).
///   static constexpr bool kRowIsEdgeTest;
///
/// Returns the number of instances. `sink` and `cost` may be null.
template <typename Rows>
uint64_t MatchPattern(const MatchPlan& plan, const Rows& rows,
                      InstanceSink* sink, CostCounter* cost) {
  // A dummy counter keeps null checks out of the hot loops.
  CostCounter dummy;
  return matcher_internal::Backtracker<Rows>(
             plan, rows, sink, cost != nullptr ? cost : &dummy)
      .Run();
}

}  // namespace smr

#endif  // SMR_SERIAL_MATCHER_H_
