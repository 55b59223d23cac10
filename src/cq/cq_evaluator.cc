#include "cq/cq_evaluator.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "graph/intersect.h"

namespace smr {

namespace {

using Matrix = std::vector<std::vector<bool>>;

/// Number of total orders of `num_vars` variables that extend the partial
/// order `before`, by dynamic programming over the set of variables placed
/// first.
uint64_t CountLinearExtensions(const Matrix& before, int num_vars) {
  std::vector<uint64_t> ways(size_t{1} << num_vars, 0);
  ways[0] = 1;
  for (size_t placed = 0; placed < ways.size(); ++placed) {
    if (ways[placed] == 0) continue;
    for (int v = 0; v < num_vars; ++v) {
      if (placed >> v & 1) continue;
      bool ready = true;
      for (int a = 0; a < num_vars && ready; ++a) {
        if (before[a][v] && !(placed >> a & 1)) ready = false;
      }
      if (ready) ways[placed | size_t{1} << v] += ways[placed];
    }
  }
  return ways.back();
}

}  // namespace

CompiledCq::CompiledCq(const ConjunctiveQuery& cq) : cq_(&cq) {
  const auto& subgoals = cq.subgoals();
  const int p = cq.num_vars();
  if (subgoals.empty()) return;
  Matrix subgoal(p, std::vector<bool>(p, false));
  for (const auto& [a, b] : subgoals) subgoal[a][b] = true;

  // The binding order, which the cost counters depend on: seed from the
  // first subgoal; then repeatedly bind through the first unused subgoal
  // with exactly one bound endpoint (its bound endpoint's row comes
  // first), or, when none is left but unused subgoals remain, seed the next
  // component from the edge list. Every unused subgoal whose endpoints are
  // now both bound is checked at that step.
  std::vector<bool> bound(p, false);
  std::vector<bool> used(subgoals.size(), false);
  seed_a_ = subgoals[0].first;
  seed_b_ = subgoals[0].second;
  bound[seed_a_] = bound[seed_b_] = true;
  used[0] = true;
  while (true) {
    int chosen = -1;
    int unseeded = -1;
    for (size_t s = 0; s < subgoals.size(); ++s) {
      if (used[s]) continue;
      const auto [a, b] = subgoals[s];
      if (bound[a] != bound[b]) {
        chosen = static_cast<int>(s);
        break;
      }
      if (unseeded < 0 && !bound[a] && !bound[b]) {
        unseeded = static_cast<int>(s);
      }
    }
    if (chosen < 0 && unseeded < 0) break;
    const std::vector<bool> bound_before = bound;
    Step step;
    if (chosen >= 0) {
      const auto [a, b] = subgoals[chosen];
      step.var = bound[a] ? b : a;
      step.rows.push_back({bound[a] ? a : b, bound[a]});
      used[chosen] = true;
      bound[step.var] = true;
    } else {
      const auto [a, b] = subgoals[unseeded];
      step.edge_seed = true;
      step.var = a;
      step.var2 = b;
      used[unseeded] = true;
      bound[a] = bound[b] = true;
    }
    for (size_t s = 0; s < subgoals.size(); ++s) {
      if (used[s]) continue;
      const auto [x, y] = subgoals[s];
      if (!bound[x] || !bound[y]) continue;
      used[s] = true;
      if (step.edge_seed) {
        step.checks.push_back(subgoals[s]);
      } else {
        // Every check of a variable step involves the new variable:
        // E(x, var) holds iff var is a successor of x, E(var, y) iff it is a
        // predecessor of y.
        step.rows.push_back(y == step.var ? Row{x, true} : Row{y, false});
      }
    }
    // Which already-bound nodes the rows may contain: a node lies in the
    // successors of w iff the CQ has E(w, node) — certainly, once both are
    // bound, since that subgoal was enforced — never if it has E(node, w)
    // or the node is w's own, and possibly otherwise.
    step.known_in.assign(step.rows.size(), 0);
    for (int u = 0; u < p; ++u) {
      if (!bound_before[u] || step.edge_seed) continue;
      Bound membership{u, {}};
      for (const Row& row : step.rows) {
        const bool toward = row.successors ? subgoal[row.var][u]
                                           : subgoal[u][row.var];
        const bool away = row.successors ? subgoal[u][row.var]
                                         : subgoal[row.var][u];
        membership.in_row.push_back(row.var == u || away ? In::kNo
                                    : toward             ? In::kYes
                                                         : In::kMaybe);
      }
      const auto first_no = std::find(membership.in_row.begin(),
                                      membership.in_row.end(), In::kNo);
      if (std::find(membership.in_row.begin(), first_no, In::kMaybe) !=
          first_no) {
        step.maybe.push_back(std::move(membership));
        continue;
      }
      for (auto it = membership.in_row.begin(); it != first_no; ++it) {
        ++step.known_in[it - membership.in_row.begin()];
      }
    }
    for (const Row& row : step.rows) {
      if (!row.successors) needs_predecessors_ = true;
    }
    steps_.push_back(std::move(step));
  }
  for (int v = 0; v < p; ++v) {
    if (!bound[v]) free_vars_.push_back(v);
  }

  // The condition: the pairs ordered alike in every admissible order, as a
  // transitive reduction, minus what the subgoals already imply (each
  // subgoal's row orients it). Those comparisons are the whole condition
  // iff the admissible orders are all their linear extensions.
  Matrix before(p, std::vector<bool>(p, true));
  for (int a = 0; a < p; ++a) before[a][a] = false;
  for (const std::vector<int>& order : cq.allowed_orders()) {
    for (int i = 0; i < p; ++i) {
      for (int j = 0; j < i; ++j) before[order[i]][order[j]] = false;
    }
  }
  Matrix implied = subgoal;
  for (int c = 0; c < p; ++c) {
    for (int a = 0; a < p; ++a) {
      for (int b = 0; b < p; ++b) {
        if (implied[a][c] && implied[c][b]) implied[a][b] = true;
      }
    }
  }
  for (int a = 0; a < p; ++a) {
    for (int b = 0; b < p; ++b) {
      if (!before[a][b] || implied[a][b]) continue;
      bool reducible = false;
      for (int c = 0; c < p && !reducible; ++c) {
        reducible = before[a][c] && before[c][b];
      }
      if (!reducible) comparisons_.emplace_back(a, b);
    }
  }
  const size_t allowed = cq.allowed_orders().size();
  comparisons_exact_ =
      allowed == 1 ||
      (p <= 16 && CountLinearExtensions(before, p) == allowed);
}

/// One evaluation: the plan walked depth-first over a local graph.
class CompiledCq::Run {
 public:
  Run(const CompiledCq& plan, const LocalGraph& graph, JoinScratch* scratch,
      InstanceSink* sink, CostCounter* cost)
      : plan_(plan),
        graph_(graph),
        scratch_(*scratch),
        sink_(sink),
        cost_(cost != nullptr ? *cost : ignored_),
        buffer_size_(graph.max_row() + kIntersectSlack) {
    scratch_.assignment.assign(plan.cq_->num_vars(), 0);
    scratch_.buffers.resize(2 * plan.steps_.size() * buffer_size_);
    bound_.reserve(plan.cq_->num_vars());
    in_rows_.resize(plan.steps_.size() * plan.cq_->num_vars());
  }

  uint64_t Seeds() {
    NodeId* const assignment = scratch_.assignment.data();
    cost_.edges_scanned += graph_.num_edges();
    bound_.assign({plan_.seed_a_, plan_.seed_b_});
    for (NodeId u = 0; u < graph_.num_nodes(); ++u) {
      for (const NodeId v : graph_.Successors(u)) {
        assignment[plan_.seed_a_] = u;
        assignment[plan_.seed_b_] = v;
        Next(0);
      }
    }
    return found_;
  }

 private:
  std::span<const NodeId> RowOf(const Row& row) const {
    const NodeId at = scratch_.assignment[row.var];
    return row.successors ? graph_.Successors(at) : graph_.Predecessors(at);
  }

  // True if no variable bound so far holds `node`.
  bool Distinct(NodeId node) const {
    for (const int var : bound_) {
      if (scratch_.assignment[var] == node) return false;
    }
    return true;
  }

  void Next(size_t depth) {
    if (depth == plan_.steps_.size()) {
      BindFree(0);
      return;
    }
    const Step& step = plan_.steps_[depth];
    if (step.edge_seed) {
      EdgeSeed(step, depth);
    } else {
      Intersect(step, depth);
    }
  }

  void Intersect(const Step& step, size_t depth) {
    NodeId* const assignment = scratch_.assignment.data();
    // Bound nodes in a prefix of the rows: `in_rows[i]` is how many rows,
    // from the first, hold the i-th maybe variable's node.
    size_t* const in_rows = in_rows_.data() + depth * scratch_.assignment.size();
    for (size_t i = 0; i < step.maybe.size(); ++i) {
      const Bound& maybe = step.maybe[i];
      size_t held = 0;
      for (; held < step.rows.size(); ++held) {
        const In in = maybe.in_row[held];
        if (in == In::kNo ||
            (in == In::kMaybe && !ContainsSorted(RowOf(step.rows[held]),
                                                 assignment[maybe.var]))) {
          break;
        }
      }
      in_rows[i] = held;
    }
    auto bound_in = [&](size_t level) {
      uint64_t count = step.known_in[level];
      for (size_t i = 0; i < step.maybe.size(); ++i) {
        if (in_rows[i] > level) ++count;
      }
      return count;
    };

    std::span<const NodeId> current = RowOf(step.rows[0]);
    cost_.candidates += current.size();
    NodeId* const buffers =
        scratch_.buffers.data() + 2 * depth * buffer_size_;
    for (size_t level = 1; level < step.rows.size(); ++level) {
      // Every not-yet-bound candidate left is tested against this row.
      cost_.index_probes += current.size() - bound_in(level - 1);
      NodeId* const out = buffers + (level % 2) * buffer_size_;
      current = {out, IntersectInto(current, RowOf(step.rows[level]), out)};
      if (current.empty()) return;
    }
    const bool skip_bound = bound_in(step.rows.size() - 1) > 0;
    for (const NodeId node : current) {
      if (skip_bound && !Distinct(node)) continue;
      assignment[step.var] = node;
      bound_.push_back(step.var);
      Next(depth + 1);
      bound_.pop_back();
    }
  }

  void EdgeSeed(const Step& step, size_t depth) {
    NodeId* const assignment = scratch_.assignment.data();
    for (NodeId u = 0; u < graph_.num_nodes(); ++u) {
      for (const NodeId v : graph_.Successors(u)) {
        ++cost_.candidates;
        if (!Distinct(u) || !Distinct(v)) continue;
        assignment[step.var] = u;
        assignment[step.var2] = v;
        bool holds = true;
        for (const auto& [a, b] : step.checks) {
          ++cost_.index_probes;
          if (!ContainsSorted(graph_.Successors(assignment[a]),
                              assignment[b])) {
            holds = false;
            break;
          }
        }
        if (!holds) continue;
        bound_.push_back(step.var);
        bound_.push_back(step.var2);
        Next(depth + 1);
        bound_.resize(bound_.size() - 2);
      }
    }
  }

  void BindFree(size_t index) {
    if (index == plan_.free_vars_.size()) {
      Emit();
      return;
    }
    const int var = plan_.free_vars_[index];
    for (NodeId node = 0; node < graph_.num_nodes(); ++node) {
      if (!Distinct(node)) continue;
      scratch_.assignment[var] = node;
      bound_.push_back(var);
      BindFree(index + 1);
      bound_.pop_back();
    }
  }

  void Emit() {
    ++cost_.candidates;
    const std::vector<NodeId>& assignment = scratch_.assignment;
    for (const auto& [a, b] : plan_.comparisons_) {
      if (assignment[a] > assignment[b]) return;
    }
    if (!plan_.comparisons_exact_) {
      std::vector<int>& order = scratch_.order;
      order.resize(assignment.size());
      std::iota(order.begin(), order.end(), 0);
      std::sort(order.begin(), order.end(), [&](int a, int b) {
        return assignment[a] < assignment[b];
      });
      if (!plan_.cq_->OrderAllowed(order)) return;
    }
    ++found_;
    ++cost_.outputs;
    if (sink_ != nullptr) sink_->Emit(assignment);
  }

  const CompiledCq& plan_;
  const LocalGraph& graph_;
  JoinScratch& scratch_;
  InstanceSink* sink_;
  CostCounter ignored_;
  CostCounter& cost_;
  const size_t buffer_size_;
  std::vector<int> bound_;  // variables bound so far, in binding order
  std::vector<size_t> in_rows_;  // per step depth, see Intersect
  uint64_t found_ = 0;
};

uint64_t CompiledCq::Evaluate(const LocalGraph& graph, JoinScratch* scratch,
                              InstanceSink* sink, CostCounter* cost) const {
  if (seed_a_ < 0) return 0;
  return Run(*this, graph, scratch, sink, cost).Seeds();
}

void RequireEveryVariableOnAnEdge(
    int num_vars, std::span<const std::pair<int, int>> edges) {
  std::vector<bool> on_edge(num_vars, false);
  for (const auto& [a, b] : edges) on_edge[a] = on_edge[b] = true;
  if (std::find(on_edge.begin(), on_edge.end(), false) != on_edge.end()) {
    throw std::invalid_argument(
        "a pattern variable in no edge cannot be placed by a reducer, "
        "which sees only the nodes of the edges shipped to it; use the "
        "serial strategy");
  }
}

CqReducer::CqReducer(std::span<const ConjunctiveQuery> cqs,
                     const NodeOrder* order)
    : order_(order) {
  plans_.reserve(cqs.size());
  for (const ConjunctiveQuery& cq : cqs) {
    RequireEveryVariableOnAnEdge(cq.num_vars(), cq.subgoals());
    plans_.emplace_back(cq);
    needs_predecessors_ |= plans_.back().needs_predecessors();
  }
}

CqReducer::Local CqReducer::Build(std::span<const Edge> edges) const {
  Local local(*this, scratch_.Acquire());
  local.scratch_->graph.Build(edges, order_, needs_predecessors_);
  return local;
}

uint64_t CqReducer::Local::Evaluate(size_t index, InstanceSink* sink,
                                    CostCounter* cost) const {
  return reducer_->plans_[index].Evaluate(scratch_->graph, &scratch_->join,
                                          sink, cost);
}

uint64_t CqReducer::Local::EvaluateAll(InstanceSink* sink,
                                       CostCounter* cost) const {
  uint64_t total = 0;
  for (size_t i = 0; i < reducer_->plans_.size(); ++i) {
    total += Evaluate(i, sink, cost);
  }
  return total;
}

namespace {

/// Maps the join's local-id assignments back to node ids.
class GlobalIdSink final : public InstanceSink {
 public:
  GlobalIdSink(std::span<const NodeId> local_to_global, InstanceSink* sink)
      : local_to_global_(local_to_global), sink_(sink) {}

  void Emit(std::span<const NodeId> assignment) override {
    global_.resize(assignment.size());
    for (size_t i = 0; i < assignment.size(); ++i) {
      global_[i] = local_to_global_[assignment[i]];
    }
    sink_->Emit(global_);
  }

 private:
  std::span<const NodeId> local_to_global_;
  InstanceSink* sink_;
  std::vector<NodeId> global_;
};

}  // namespace

CqEvaluator::CqEvaluator(const Graph& graph, NodeOrder order) {
  std::vector<Edge> oriented;
  oriented.reserve(graph.num_edges());
  for (const Edge& e : graph.edges()) oriented.push_back(order.Orient(e));
  local_.Build(oriented, &order, /*with_predecessors=*/true,
               graph.num_nodes());
}

uint64_t CqEvaluator::Evaluate(const ConjunctiveQuery& cq, InstanceSink* sink,
                               CostCounter* cost) const {
  JoinScratch scratch;
  GlobalIdSink global(local_.local_to_global(), sink);
  return CompiledCq(cq).Evaluate(local_, &scratch,
                                 sink != nullptr ? &global : nullptr, cost);
}

uint64_t CqEvaluator::EvaluateAll(std::span<const ConjunctiveQuery> cqs,
                                  InstanceSink* sink,
                                  CostCounter* cost) const {
  uint64_t total = 0;
  for (const ConjunctiveQuery& cq : cqs) total += Evaluate(cq, sink, cost);
  return total;
}

}  // namespace smr
