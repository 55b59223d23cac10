#ifndef SMR_MAPREDUCE_JOB_H_
#define SMR_MAPREDUCE_JOB_H_

#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "mapreduce/engine.h"
#include "mapreduce/execution_policy.h"
#include "mapreduce/instance_sink.h"
#include "mapreduce/metrics.h"

namespace smr {

/// Metrics of one named round inside a job.
struct JobRoundMetrics {
  std::string name;
  MapReduceMetrics metrics;

  /// Semantic equality: round name plus the paper's cost measures.
  /// Host-side ShuffleStats are excluded via MapReduceMetrics::operator==,
  /// so two runs of one job compare equal across thread counts, shuffle
  /// modes, budgets, and backends — the engine's determinism contract at
  /// job granularity (pinned by tests/mapreduce_test.cc and ridden on by
  /// the process-backend differential tests).
  bool operator==(const JobRoundMetrics& other) const {
    return name == other.name && metrics == other.metrics;
  }
};

/// Aggregate cost measures of a multi-round map-reduce job — the summary
/// the paper's round-by-round analysis adds up. Per-round metrics stay
/// available in `rounds`; the totals below are what a plan comparison (and
/// the smr_cli round table) reads off.
struct JobMetrics {
  std::vector<JobRoundMetrics> rounds;

  /// Total communication cost: key-value pairs across all rounds in the
  /// paper's model (Section 1.2), unaffected by map-side combining.
  uint64_t TotalCommunication() const;

  /// Key-value pairs the shuffles physically moved after map-side
  /// combining (== TotalCommunication() when no round combined).
  uint64_t TotalPairsShipped() const;

  /// Reducers of the widest round (max distinct keys over rounds) — the
  /// cluster size the job needs at its widest point.
  uint64_t MaxRoundReducers() const;

  /// Result instances across all rounds (intermediate records are not
  /// outputs and are not counted).
  uint64_t TotalOutputs() const;

  /// One row per round: name, communication, shipped pairs, reducers
  /// used, max reducer input, outputs — plus a totals row.
  std::string RoundTable() const;

  std::string ToString() const;

  /// Round-by-round semantic equality (see JobRoundMetrics::operator==).
  bool operator==(const JobMetrics& other) const {
    return rounds == other.rounds;
  }
};

/// Runs a declared chain of rounds under one ExecutionPolicy, collecting
/// each round's metrics into a JobMetrics summary. Intermediate emissions
/// are threaded between rounds through the `records` channel: a round's
/// reducers EmitRecord() into a RecordBuffer, and the next round maps
/// that buffer's chunks in place, as Record<Arity> views or flat nodes.
///
///   JobDriver driver(policy);
///   RecordBuffer paths(3);
///   driver.RunRound(paths_round, graph.edges(), nullptr, &paths);
///   driver.RunRound(join_round, paths.records<3>(), sink);
///   const JobMetrics& job = driver.job();
///
/// The policy's `combine` switch gates every declared combiner in the
/// chain, so a whole pipeline is A/B-measurable with one flag.
class JobDriver {
 public:
  explicit JobDriver(const ExecutionPolicy& policy = ExecutionPolicy::Serial())
      : policy_(policy) {}

  /// Runs one round; returns its metrics (also appended to job()).
  /// `sink` receives final instances, `records` intermediate records for
  /// the next round; either may be null. Returned by value: a reference
  /// into job() would dangle as soon as the next round's push_back
  /// reallocates the rounds vector.
  ///
  /// The driver threads two kinds of cross-round host state to the engine:
  /// the policy's persistent ThreadPool (held by value here, so every
  /// round's phases wake the same parked workers), and the previous
  /// round's physically shipped pair count, which sizes the next round's
  /// emission buffers and scatter buckets when the round declares no
  /// `emissions_per_input` hint of its own.
  template <typename Input, typename Value>
  MapReduceMetrics RunRound(
      const RoundSpec<Input, Value>& spec,
      const InputRuns<std::type_identity_t<Input>>& inputs, InstanceSink* sink,
      RecordBuffer* records = nullptr) {
    MapReduceMetrics metrics = smr::RunRound(spec, inputs, sink, records,
                                             policy_, previous_round_pairs_);
    previous_round_pairs_ = metrics.shuffle.pairs_shipped;
    job_.rounds.push_back(JobRoundMetrics{spec.name, metrics});
    return metrics;
  }

  const ExecutionPolicy& policy() const { return policy_; }

  /// Per-round and aggregate metrics of everything run so far.
  const JobMetrics& job() const { return job_; }

 private:
  ExecutionPolicy policy_;
  JobMetrics job_;
  uint64_t previous_round_pairs_ = 0;
};

}  // namespace smr

#endif  // SMR_MAPREDUCE_JOB_H_
