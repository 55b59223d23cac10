// Closes the paper's communication-cost loop: the model (Section 1.2)
// prices a round at key_value_pairs x record_size bytes; the process
// backend (mapreduce/process_backend.h) moves every shuffled pair once,
// from a map worker's run file to a reduce worker, and counts the bytes.
// This bench runs the Fig. 1 and Fig. 2 triangle scenarios under
// BackendMode::kProcess and prints the measured map-side bytes (run-file
// bytes plus control frames) next to the modeled bytes, per strategy.
// Run files hold fixed-size records of an 8-byte key plus the value's
// bytes — the model's own record — and the run-index frames add a few
// hundred bytes per round, so measured/modeled sits at about 1.0 (below
// it only when a combiner shrinks the shipped pairs) — well inside the
// 1.5x band the acceptance criteria pin.
//
// Exit status: 0 when every Fig. 1 scenario's measured bytes are within
// 1.5x of the modeled bytes (both directions), 1 otherwise. CI runs it in
// the release job's bench smoke step, so the band is a check, not just a
// table.
//
// Each run also feeds CostCalibration::Observe, then prints the calibrated
// bytes-per-pair table `auto:<k>` would price plans with — the advisor's
// measured-cost hook exercised end to end.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/plan_advisor.h"
#include "core/strategy.h"
#include "graph/generators.h"
#include "graph/sample_graph.h"
#include "mapreduce/execution_policy.h"
#include "mapreduce/fault_injection.h"
#include "shares/replication_formulas.h"

namespace smr {
namespace {

struct MeasuredRow {
  std::string spec;
  uint64_t logical_pairs = 0;
  uint64_t modeled_bytes = 0;   // sum of key_value_pairs x record_size
  uint64_t measured_bytes = 0;  // sum of map_bytes_on_wire
  uint64_t outputs = 0;
  double Ratio() const {
    return modeled_bytes == 0
               ? 0.0
               : static_cast<double>(measured_bytes) /
                     static_cast<double>(modeled_bytes);
  }
};

/// Runs one registry spec on the process backend and sums the modeled and
/// measured byte costs over the job's rounds.
MeasuredRow RunOnWire(const std::string& spec, const SampleGraph& pattern,
                      const Graph& graph, unsigned workers) {
  const ExecutionPolicy policy =
      ExecutionPolicy::Serial().WithBackend(BackendMode::kProcess, workers);
  const EnumerationResult result = StrategyRegistry::Global().Run(
      EnumerationQuery::Undirected(pattern, graph)
          .WithStrategy(spec)
          .WithPolicy(policy));
  MeasuredRow row;
  row.spec = spec;
  row.outputs = result.instances;
  for (const JobRoundMetrics& round : result.job.rounds) {
    row.logical_pairs += round.metrics.key_value_pairs;
    row.modeled_bytes += round.metrics.bytes;
    row.measured_bytes += round.metrics.shuffle.map_bytes_on_wire;
  }
  CostCalibration::Global().Observe(result.resolved_spec.name, result.job);
  return row;
}

bool PrintRow(const MeasuredRow& row, bool enforce) {
  const double ratio = row.Ratio();
  const bool ok = !enforce || (ratio >= 1.0 / 1.5 && ratio <= 1.5);
  std::printf("%-16s %12llu %14llu %14llu %8.3f%s\n", row.spec.c_str(),
              static_cast<unsigned long long>(row.logical_pairs),
              static_cast<unsigned long long>(row.modeled_bytes),
              static_cast<unsigned long long>(row.measured_bytes), ratio,
              ok ? "" : "  <-- OUTSIDE 1.5x");
  return ok;
}

int Run() {
  const SampleGraph pattern = SampleGraph::Triangle();
  constexpr unsigned kWorkers = 4;
  bool ok = true;

  // Fig. 1 scenarios: the three one-round triangle algorithms at the
  // paper's comparable reducer budgets, on the Fig. 1 data graph.
  {
    const Graph g = ErdosRenyi(2000, 20000, 42);
    std::printf(
        "Fig.1 scenarios on the process backend (%u workers)\n"
        "data graph: n=%u m=%zu (Erdos-Renyi)\n\n",
        kWorkers, g.num_nodes(), g.num_edges());
    std::printf("%-16s %12s %14s %14s %8s\n", "strategy", "pairs",
                "modeled bytes", "wire bytes", "ratio");
    for (const char* spec :
         {"partition:6", "partition:12", "multiway:4", "multiway:6",
          "orderedbucket:8", "orderedbucket:10"}) {
      ok &= PrintRow(RunOnWire(spec, pattern, g, kWorkers), true);
    }
  }

  // Fig. 2 scenario: the same three algorithms at the figure's reducer
  // counts (220 / 216 / 220) on the Fig. 2 graph, plus the bucket and
  // two-round pipelines for a multi-round row. Reported, not enforced —
  // the 1.5x acceptance band is the Fig. 1 criterion.
  {
    const Graph g = ErdosRenyi(3000, 36000, 7);
    std::printf(
        "\nFig.2 scenarios on the process backend (%u workers)\n"
        "data graph: n=%u m=%zu (Erdos-Renyi)\n\n",
        kWorkers, g.num_nodes(), g.num_edges());
    std::printf("%-16s %12s %14s %14s %8s\n", "strategy", "pairs",
                "modeled bytes", "wire bytes", "ratio");
    for (const char* spec : {"partition:12", "multiway:6", "orderedbucket:10",
                             "bucket:10", "tworound"}) {
      PrintRow(RunOnWire(spec, pattern, g, kWorkers), false);
    }
  }

  // Fault-recovery overhead: the Fig. 1 bucket round once clean and once
  // with a mapper SIGKILLed mid-stream and deterministically re-executed
  // under a 2-attempt retry budget. Reported, not enforced — the premium
  // is bounded by one worker's slice plus a respawn, and both runs must
  // land on the same instance count (checked, since a silent divergence
  // would invalidate the whole table).
  {
    const Graph g = ErdosRenyi(2000, 20000, 42);
    const auto timed_run = [&](FaultInjector* injector, uint64_t* instances,
                               uint64_t* retries) {
      ExecutionPolicy policy =
          ExecutionPolicy::Serial()
              .WithBackend(BackendMode::kProcess, kWorkers)
              .WithRetry(RetryPolicy{2, 0, 2.0})
              .WithFaultInjector(injector);
      const auto start = std::chrono::steady_clock::now();
      const EnumerationResult result = StrategyRegistry::Global().Run(
          EnumerationQuery::Undirected(pattern, g)
              .WithStrategy("bucket:6")
              .WithPolicy(policy));
      const auto stop = std::chrono::steady_clock::now();
      *instances = result.instances;
      *retries = 0;
      for (const JobRoundMetrics& round : result.job.rounds) {
        *retries += round.metrics.shuffle.worker_retries;
      }
      return std::chrono::duration<double, std::milli>(stop - start).count();
    };

    uint64_t clean_instances = 0, clean_retries = 0;
    uint64_t faulted_instances = 0, faulted_retries = 0;
    // Untimed warmup so the clean run doesn't absorb first-fork and
    // page-cache costs the faulted run would then appear to beat.
    timed_run(nullptr, &clean_instances, &clean_retries);
    const double clean_ms =
        timed_run(nullptr, &clean_instances, &clean_retries);
    FaultInjector injector(ParseFaultPlan("map:kill:1:after=5"));
    const double faulted_ms =
        timed_run(&injector, &faulted_instances, &faulted_retries);

    std::printf(
        "\nfault-recovery overhead (bucket:6 on the Fig.1 graph, "
        "map worker killed mid-stream):\n"
        "  clean run:            %8.1f ms  (%llu instances)\n"
        "  killed + re-executed: %8.1f ms  (%llu instances, %llu retry)\n"
        "  recovery premium:     %+7.1f%%\n",
        clean_ms, static_cast<unsigned long long>(clean_instances),
        faulted_ms, static_cast<unsigned long long>(faulted_instances),
        static_cast<unsigned long long>(faulted_retries),
        clean_ms > 0 ? (faulted_ms / clean_ms - 1.0) * 100.0 : 0.0);
    ok &= clean_instances == faulted_instances && faulted_retries == 1;
  }

  // The advisor hook, fed by the runs above: measured bytes per logical
  // pair, the factor auto:<k> now folds into each candidate's closed-form
  // pairs-per-edge estimate.
  std::printf("\ncalibrated bytes/pair (CostCalibration, modeled = %.1f):\n",
              CostCalibration::kModeledBytesPerPair);
  for (const char* name :
       {"partition", "multiway", "orderedbucket", "bucket", "tworound"}) {
    const auto measured = CostCalibration::Global().BytesPerPair(name);
    if (measured) {
      std::printf("  %-14s %6.2f\n", name, *measured);
    }
  }

  std::printf("\n%s\n", ok ? "OK: every Fig.1 scenario within 1.5x of "
                             "key_value_pairs x record_size"
                           : "FAIL: a Fig.1 scenario left the 1.5x band");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace smr

int main() { return smr::Run(); }
