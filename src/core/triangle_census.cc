#include "core/triangle_census.h"

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "core/two_path_rounds.h"
#include "mapreduce/job.h"

namespace smr {
namespace {

/// Writes each (node, low word, high word) instance of the count round
/// into the per-node table.
class PerNodeSink final : public InstanceSink {
 public:
  explicit PerNodeSink(std::vector<uint64_t>* per_node)
      : per_node_(per_node) {}

  void Emit(std::span<const NodeId> instance) override {
    (*per_node_)[instance[0]] =
        uint64_t{instance[1]} | uint64_t{instance[2]} << 32;
  }

 private:
  std::vector<uint64_t>* per_node_;
};

}  // namespace

TriangleCensusResult TriangleCensus(const Graph& graph, const NodeOrder& order,
                                    const ExecutionPolicy& policy) {
  JobDriver driver(policy);

  // Rounds 1-2: the shared two-path/join pipeline, with every triangle
  // threaded to round 3 as a (mid, u, w) record. Round 1's records are
  // released after round 2 finishes, before round 3 runs.
  RecordBuffer triangles(3);
  {
    RecordBuffer paths_and_edges(3);
    driver.RunRound(two_path_rounds::TwoPathsRound(graph, order),
                    graph.edges(), nullptr, &paths_and_edges);
    driver.RunRound(
        two_path_rounds::JoinRound(graph, /*record_triangles=*/true),
        paths_and_edges.records<3>(), nullptr, &triangles);
  }

  // Round 3: count triangle memberships per node. Every corner of every
  // triangle record is one input; the SUM combiner pre-aggregates a
  // worker's repeated corners so the shuffle ships per-worker partial
  // counts instead of raw 1s — same model communication cost
  // (`key_value_pairs`), strictly fewer `pairs_shipped`.
  TriangleCensusResult result;
  result.per_node.assign(graph.num_nodes(), 0);
  const RoundSpec<NodeId, uint64_t> count_round{
      "count-per-node",
      [](const NodeId& corner, Emitter<uint64_t>* out) {
        out->Emit(corner, 1);
      },
      [](uint64_t key, std::span<const uint64_t> values,
         ReduceContext* context) {
        uint64_t sum = 0;
        for (const uint64_t value : values) {
          ++context->cost->edges_scanned;
          sum += value;
        }
        // The count travels as the instance (node, low word, high word),
        // the one reducer output that reaches the caller on every backend.
        const std::array<NodeId, 3> instance = {static_cast<NodeId>(key),
                                                static_cast<NodeId>(sum),
                                                static_cast<NodeId>(sum >> 32)};
        context->EmitInstance(instance);
      },
      graph.num_nodes(),
      [](uint64_t& acc, const uint64_t& incoming) { acc += incoming; },
      /*emissions_per_input=*/1.0};
  PerNodeSink per_node(&result.per_node);
  driver.RunRound(count_round, triangles.nodes(), &per_node);

  result.job = driver.job();
  result.total_triangles = triangles.size();
  return result;
}

}  // namespace smr
