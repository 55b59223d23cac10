#include "core/plan_advisor.h"

#include <charconv>
#include <sstream>
#include <string>

#include "cq/cq_generation.h"
#include "mapreduce/job.h"
#include "graph/node_order.h"
#include "shares/cost_expression.h"
#include "shares/replication_formulas.h"
#include "shares/share_optimizer.h"

namespace smr {

namespace {

const char* StrategyName(StrategyPlan::Strategy s) {
  switch (s) {
    case StrategyPlan::Strategy::kBucketOriented:
      return "bucket-oriented";
    case StrategyPlan::Strategy::kVariableOriented:
      return "variable-oriented";
    case StrategyPlan::Strategy::kTwoRound:
      return "two-round";
    case StrategyPlan::Strategy::kCensus:
      return "census";
  }
  return "?";
}

/// The registry name a plan runs (and is calibrated) under.
const char* RegistryName(StrategyPlan::Strategy s) {
  switch (s) {
    case StrategyPlan::Strategy::kBucketOriented:
      return "bucket";
    case StrategyPlan::Strategy::kVariableOriented:
      return "variable-auto";
    case StrategyPlan::Strategy::kTwoRound:
      return "tworound";
    case StrategyPlan::Strategy::kCensus:
      return "census";
  }
  return "?";
}

bool IsTriangle(const SampleGraph& pattern) {
  return pattern.num_vars() == 3 && pattern.num_edges() == 3;
}

}  // namespace

std::string StrategyPlan::RecommendedSpec() const {
  std::string spec = RegistryName(recommended);
  if (recommended == Strategy::kBucketOriented) {
    spec += ":" + std::to_string(buckets);
  } else if (recommended == Strategy::kVariableOriented) {
    // Shortest round-trip form, so the spec parses back to exactly k.
    char text[32];
    const auto end = std::to_chars(text, text + sizeof(text), k).ptr;
    spec += ":" + std::string(text, end);
  }
  return spec;
}

std::string StrategyPlan::ToString() const {
  std::ostringstream os;
  os << "recommended=" << StrategyName(recommended) << " bucket(b=" << buckets
     << ", cost/edge=" << bucket_cost_per_edge
     << ") variable(cost/edge=" << variable_cost_per_edge << ", shares=[";
  for (size_t i = 0; i < shares.size(); ++i) {
    if (i > 0) os << ", ";
    os << shares[i];
  }
  os << "])";
  if (two_round_cost_per_edge > 0) {
    os << " two-round(cost/edge=" << two_round_cost_per_edge << ")";
  }
  if (census_cost_per_edge > 0) {
    os << " census(cost/edge=" << census_cost_per_edge << ")";
  }
  os << " cqs=" << num_cqs;
  return os.str();
}

int BucketCountForBudget(double k, int num_vars) {
  int b = 1;
  while (BucketOrientedReducerCount(b + 1, num_vars) <=
         static_cast<uint64_t>(k)) {
    ++b;
  }
  return b;
}

double TwoRoundCostPerEdge(uint64_t edges, uint64_t wedges) {
  if (edges == 0) return 0;
  return 2.0 + static_cast<double>(wedges) / static_cast<double>(edges);
}

double CensusCostPerEdge(NodeId nodes, uint64_t edges, uint64_t wedges) {
  if (edges == 0) return 0;
  const double n = static_cast<double>(nodes);
  const double m = static_cast<double>(edges);
  const double closure = n > 1 ? 2.0 * m / (n * (n - 1)) : 0.0;
  const double triangles = static_cast<double>(wedges) * closure;
  return TwoRoundCostPerEdge(edges, wedges) + 3.0 * triangles / m;
}

uint64_t CountOrderedWedges(const Graph& graph) {
  const OrientedAdjacency adjacency(graph, NodeOrder::ByDegree(graph));
  uint64_t wedges = 0;
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    const uint64_t d = adjacency.OutDegree(v);
    wedges += d * (d - 1) / 2;
  }
  return wedges;
}

StrategyPlan PlanEnumeration(const SampleGraph& pattern, double k) {
  PlanInputs inputs;
  inputs.k = k;
  return PlanEnumeration(pattern, inputs);
}

StrategyPlan PlanEnumeration(const SampleGraph& pattern,
                             const PlanInputs& inputs) {
  const int p = pattern.num_vars();
  StrategyPlan plan;
  plan.k = inputs.k;
  const auto cqs = CqsForSample(pattern);
  plan.num_cqs = cqs.size();

  // Bucket-oriented: the largest b whose useful-reducer count fits in k.
  plan.buckets = BucketCountForBudget(inputs.k, p);
  plan.bucket_cost_per_edge =
      static_cast<double>(BucketOrientedEdgeReplication(plan.buckets, p));

  // Variable-oriented: optimizer on the merged cost expression.
  const ShareSolution solution =
      OptimizeShares(CostExpression::ForCqSet(cqs), inputs.k);
  plan.shares = solution.shares;
  plan.variable_cost_per_edge = solution.cost_per_edge;

  // Multi-round triangle pipelines, priced only when the caller supplied
  // the wedge statistic: round 1 ships one pair per edge, round 2 one per
  // 2-path record plus one closing-edge marker per edge.
  const bool multi_round = IsTriangle(pattern) && inputs.edges > 0;
  if (multi_round) {
    plan.two_round_cost_per_edge =
        TwoRoundCostPerEdge(inputs.edges, inputs.wedges);
    if (inputs.counting_only) {
      // The counting round ships 3 pairs per triangle (model cost; the
      // map-side combiner lowers the physical volume, not this number).
      plan.census_cost_per_edge =
          CensusCostPerEdge(inputs.nodes, inputs.edges, inputs.wedges);
    }
  }

  // Cheapest eligible strategy; ties keep the earlier candidate. Each plan
  // is priced in bytes per edge: its pairs per edge times the bytes per
  // pair CostCalibration measured for it, or the modeled record size. With
  // nothing measured every plan scales alike, so the pick is the plain
  // pair comparison.
  const CostCalibration& calibration = CostCalibration::Global();
  plan.recommended = StrategyPlan::Strategy::kBucketOriented;
  double best = calibration.BytesPerEdge(RegistryName(plan.recommended),
                                         plan.bucket_cost_per_edge);
  const auto consider = [&](StrategyPlan::Strategy candidate, double pairs) {
    if (pairs <= 0) return;  // not eligible
    const double cost = calibration.BytesPerEdge(RegistryName(candidate),
                                                 pairs);
    if (cost < best) {
      best = cost;
      plan.recommended = candidate;
    }
  };
  consider(StrategyPlan::Strategy::kVariableOriented,
           plan.variable_cost_per_edge);
  consider(StrategyPlan::Strategy::kTwoRound, plan.two_round_cost_per_edge);
  consider(StrategyPlan::Strategy::kCensus, plan.census_cost_per_edge);
  return plan;
}

CostCalibration& CostCalibration::Global() {
  static CostCalibration calibration;
  return calibration;
}

void CostCalibration::Record(const std::string& strategy,
                             double bytes_per_pair) {
  if (!(bytes_per_pair > 0)) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  measured_[strategy] = bytes_per_pair;
}

void CostCalibration::Observe(const std::string& strategy,
                              const JobMetrics& job) {
  uint64_t wire_bytes = 0;
  uint64_t logical_pairs = 0;
  for (const JobRoundMetrics& round : job.rounds) {
    wire_bytes += round.metrics.shuffle.map_bytes_on_wire;
    logical_pairs += round.metrics.key_value_pairs;
  }
  if (wire_bytes == 0 || logical_pairs == 0) return;
  Record(strategy, static_cast<double>(wire_bytes) /
                       static_cast<double>(logical_pairs));
}

std::optional<double> CostCalibration::BytesPerPair(
    const std::string& strategy) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = measured_.find(strategy);
  if (it == measured_.end()) return std::nullopt;
  return it->second;
}

double CostCalibration::BytesPerEdge(const std::string& strategy,
                                     double pairs_per_edge) const {
  return pairs_per_edge * BytesPerPair(strategy).value_or(
                              kModeledBytesPerPair);
}

void CostCalibration::Clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  measured_.clear();
}

}  // namespace smr
