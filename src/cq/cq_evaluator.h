#ifndef SMR_CQ_CQ_EVALUATOR_H_
#define SMR_CQ_CQ_EVALUATOR_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "cq/conjunctive_query.h"
#include "graph/graph.h"
#include "graph/node_order.h"
#include "graph/subgraph.h"
#include "mapreduce/instance_sink.h"
#include "util/cost_model.h"
#include "util/scratch_pool.h"

namespace smr {

/// Per-worker scratch of the join: the partial assignment and one pair of
/// intersection buffers per plan step, reused across reducers and CQs.
struct JoinScratch {
  std::vector<NodeId> assignment;
  std::vector<NodeId> buffers;
  std::vector<int> order;  // induced variable order, when a CQ needs it
};

/// One conjunctive query compiled into a generic-join plan (Ngo, Ré and
/// Rudra, "Skew strikes back", arXiv:1310.3314) over a LocalGraph. Built
/// once per job and shared read-only by every reducer.
///
/// The first subgoal seeds the join from every oriented edge. Each later
/// variable is bound to the intersection of the rows of all its bound
/// neighbors — successor rows for subgoals E(bound, var), predecessor rows
/// for E(var, bound) — computed by the graph/intersect.h kernels, so every
/// subgoal is enforced by membership in an oriented row and no edge index
/// is probed. A further connected component of the CQ is seeded from the
/// edge list again; a variable in no subgoal ranges over every node.
/// Whatever the subgoals do not already imply of the arithmetic condition
/// is checked as integer comparisons of local ids, which are ranks.
///
/// The cost counters model a backtracking join that binds each variable
/// from its first row and tests the others one by one, and are computed
/// from intersection sizes: per bound variable, its first row's length in
/// `candidates`, and one `index_probes` per not-yet-bound candidate per
/// further row it is tested against (a candidate leaves at its first
/// failing row); one `candidates` per full assignment and one `outputs` per
/// one passing the condition; the local edge count in `edges_scanned`.
class CompiledCq {
 public:
  explicit CompiledCq(const ConjunctiveQuery& cq);

  /// True if some step intersects predecessor rows: build the LocalGraph
  /// with them.
  bool needs_predecessors() const { return needs_predecessors_; }

  /// Enumerates the CQ's solutions in `graph`, emitting assignments
  /// (variable -> local id) into `sink`. Returns the solution count.
  uint64_t Evaluate(const LocalGraph& graph, JoinScratch* scratch,
                    InstanceSink* sink, CostCounter* cost) const;

 private:
  /// A row a step intersects: the successors or predecessors of the node
  /// bound to `var`.
  struct Row {
    int var;
    bool successors;
  };
  /// Whether a bound variable's node lies in a row, as far as the plan
  /// alone tells.
  enum class In : uint8_t { kNo, kYes, kMaybe };
  /// A bound variable that may lie in a prefix of a step's rows, with its
  /// membership in each row.
  struct Bound {
    int var;
    std::vector<In> in_row;
  };
  struct Step {
    // Binds `var` to the intersection of `rows`, the first row being the
    // one the cost model binds from; or, for an edge seed, (var, var2) to
    // every oriented edge, then tests `checks` one by one.
    bool edge_seed = false;
    int var = -1;
    int var2 = -1;
    std::vector<Row> rows;
    std::vector<std::pair<int, int>> checks;
    // known_in[j]: bound variables certainly in rows 0..j; `maybe` lists
    // the ones whose membership is tested at run time.
    std::vector<uint32_t> known_in;
    std::vector<Bound> maybe;
  };
  class Run;

  const ConjunctiveQuery* cq_;
  int seed_a_ = -1;
  int seed_b_ = -1;
  std::vector<Step> steps_;
  std::vector<int> free_vars_;
  // The condition's comparisons the subgoals leave open: pairs (a, b)
  // meaning node(a) < node(b). When they alone are not the condition
  // (`comparisons_exact_` false), the induced order is also looked up.
  std::vector<std::pair<int, int>> comparisons_;
  bool comparisons_exact_ = true;
  bool needs_predecessors_ = false;
};

/// Throws std::invalid_argument if one of the `num_vars` pattern variables
/// is on none of `edges` (a pattern's edges or arcs, or a CQ's subgoals): a
/// reducer sees only the nodes of the edges shipped to it, so it cannot
/// place such a variable. Every map-reduce enumerator rejects it through
/// this check instead of missing instances; the serial strategy finds them.
void RequireEveryVariableOnAnEdge(int num_vars,
                                  std::span<const std::pair<int, int>> edges);

/// The one reducer path of every undirected CQ-evaluating strategy
/// (bucket-oriented, generalized Partition and their Section 2 triangle
/// cases, variable-oriented, the multiway-join triangles, the labeled
/// enumerator): the CQ set compiled once per job, and per-worker scratch —
/// a LocalGraph and a JoinScratch — leased to each reducer in turn. Memory
/// is O(n) per worker for the relabel map plus O(largest reducer input),
/// never O(n) per reducer.
class CqReducer {
 public:
  /// `cqs` and `order` must outlive the reducer. The reducers' inputs must
  /// be oriented by `order` (a null order: by node id), each edge once.
  /// Throws std::invalid_argument if a CQ has a variable in no subgoal
  /// (RequireEveryVariableOnAnEdge).
  CqReducer(std::span<const ConjunctiveQuery> cqs, const NodeOrder* order);

  struct Scratch {
    LocalGraph graph;
    JoinScratch join;
  };

  /// A reducer's local graph, built in the leased worker scratch.
  class Local {
   public:
    std::span<const NodeId> local_to_global() const {
      return scratch_->graph.local_to_global();
    }

    /// Evaluates CQ `index` of the set; emits local-id assignments.
    uint64_t Evaluate(size_t index, InstanceSink* sink,
                      CostCounter* cost) const;

    /// Evaluates the whole set: Section 3 makes the union produce each
    /// instance exactly once.
    uint64_t EvaluateAll(InstanceSink* sink, CostCounter* cost) const;

   private:
    friend class CqReducer;
    Local(const CqReducer& reducer, ScratchPool<Scratch>::Lease scratch)
        : reducer_(&reducer), scratch_(std::move(scratch)) {}

    const CqReducer* reducer_;
    ScratchPool<Scratch>::Lease scratch_;
  };

  /// Builds the local graph of one reducer's `edges`.
  Local Build(std::span<const Edge> edges) const;

 private:
  std::vector<CompiledCq> plans_;
  const NodeOrder* order_;
  bool needs_predecessors_ = false;
  mutable ScratchPool<Scratch> scratch_;
};

/// Evaluates conjunctive queries over the single edge relation E of a whole
/// data graph, each undirected edge stored once, oriented by a node order:
/// the multiway-join-plus-selection of Section 3 run standalone, a complete
/// serial algorithm for enumerating instances. It is CqReducer's path over
/// one "reducer" holding every edge: the graph relabeled into rank order
/// once, each CQ compiled and joined as CompiledCq describes, results
/// mapped back to node ids.
class CqEvaluator {
 public:
  /// The graph is read only here; the evaluator keeps its own copy.
  CqEvaluator(const Graph& graph, NodeOrder order);

  /// Enumerates all solutions of `cq`; emits assignments (variable ->
  /// data node) into `sink`. Returns the number of solutions.
  uint64_t Evaluate(const ConjunctiveQuery& cq, InstanceSink* sink,
                    CostCounter* cost) const;

  /// Evaluates every CQ in the set; the generation guarantees of Section 3
  /// make the union produce each instance exactly once.
  uint64_t EvaluateAll(std::span<const ConjunctiveQuery> cqs,
                       InstanceSink* sink, CostCounter* cost) const;

 private:
  LocalGraph local_;
};

}  // namespace smr

#endif  // SMR_CQ_CQ_EVALUATOR_H_
