#include "core/two_round_triangles.h"

#include "core/two_path_rounds.h"
#include "mapreduce/job.h"

namespace smr {

TwoRoundMetrics TwoRoundTriangles(const Graph& graph, const NodeOrder& order,
                                  InstanceSink* sink,
                                  const ExecutionPolicy& policy) {
  JobDriver driver(policy);

  // Round 1: 2-paths and closing edges by order-minimum endpoint,
  // threaded to round 2 through the engine's deterministic record channel.
  RecordBuffer paths_and_edges(3);
  driver.RunRound(two_path_rounds::TwoPathsRound(graph, order), graph.edges(),
                  nullptr, &paths_and_edges);

  // Round 2: join 2-paths with closing edges on the endpoint pair, mapping
  // round 1's records where they lie.
  driver.RunRound(two_path_rounds::JoinRound(graph, /*record_triangles=*/false),
                  paths_and_edges.records<3>(), sink);

  TwoRoundMetrics result;
  result.job = driver.job();
  result.round1 = result.job.rounds[0].metrics;
  result.round2 = result.job.rounds[1].metrics;
  return result;
}

}  // namespace smr
