// Command-line driver: enumerate instances of a named pattern in a graph
// with any registered strategy. The kind of front-end a production
// deployment of this library would expose.
//
// Fully registry-driven: the strategy spec is parsed by ParseStrategySpec
// against the process-wide StrategyRegistry, dispatch is one
// StrategyRegistry::Run call (no per-strategy branching), and
// --list-strategies prints whatever is registered — a new strategy shows
// up here by registration alone. Run with --help for the flag reference.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "core/strategy.h"
#include "cq/cq_generation.h"
#include "directed/directed_graph.h"
#include "graph/generators.h"
#include "graph/intersect.h"
#include "graph/io.h"
#include "graph/statistics.h"
#include "labeled/labeled_graph.h"
#include "mapreduce/execution_policy.h"
#include "mapreduce/policy_spec.h"
#include "util/enum_registry.h"
#include "util/parse.h"

namespace {

constexpr const char kHelp[] = R"(usage:
  smr_cli --pattern <name> --input <spec> [--strategy <spec>] [--seed N]
          [--threads N] [--shuffle S] [--combine C]
          [--budget B] [--backend K] [--retries R] [--deadline-ms MS]
          [--on-exhausted E] [--stats] [--print N]
  smr_cli --list-strategies
  smr_cli --list-backends
  smr_cli --help

  --pattern   triangle | square | lollipop | path:<p> | star:<p> |
              cycle:<p> | clique:<p> | hypercube:<d>
  --input     er:<n>:<m>:<seed>   (Erdos-Renyi)
              pa:<n>:<deg>:<seed> (preferential attachment)
              file:<path>         (edge list, text or binary — sniffed)
  --strategy  any registered strategy spec (default bucket:8); see
              --list-strategies for names, tunables, and capabilities.
              Notables:
                bucket:<b>       one-round bucket-oriented (Sec. 4.5)
                variable:<s1>x<s2>x...  explicit per-variable shares
                variable-auto:<k>  optimizer shares at reducer budget k
                auto:<k>         PlanAdvisor picks the cheapest eligible
                                 strategy for reducer budget k (bucket,
                                 variable-auto, and on triangle patterns
                                 tworound / census)
                serial           reference enumeration, no engine
              A labeled-only strategy runs on a uniformly-labeled view of
              the input; a directed-only strategy on the canonical
              (low-id -> high-id) orientation.
  --list-strategies
              print every registered strategy: name, canonical spec with
              defaults, capabilities, tunables, description. Tab-separated;
              lines starting with '#' are comments.
  --threads   engine worker threads (0 = one per hardware context;
              default 1). Results are identical for every value.
  --shuffle   partition[:P]: key-range partitions of the shuffle (default
              auto: 1 at one thread, else 4 per thread, at most 256).
              Each partition is grouped by a counting scatter when its
              keys are dense and by a stable sort otherwise.
  --combine   on (default) | off: apply declared map-side combiners.
  --budget    shuffle memory budget in bytes; byte-size suffixes accepted
              (64K, 512M, 2G). 0 (default) = unbounded. With a budget the
              engine spills sorted runs to temp files and streams them
              back; results are identical, only spill counters change.
  --backend   thread (default) | process[:N]: where engine workers run.
              process forks N worker processes (default N = threads); map
              workers write sorted run files that reduce workers merge,
              so each pair makes one hop. The job table and metrics are
              identical, and ShuffleStats additionally reports the bytes
              each map worker shipped and the reducers' output bytes.
  --retries   extra attempts per failed process-backend worker (0-100,
              default 0 = fail fast). A crashed, hung, or corrupted-link
              worker is re-forked on the same input slice / key chunk and
              the failed attempt's partial output is discarded, so results
              are identical to a fault-free run.
  --deadline-ms
              per-worker liveness deadline in milliseconds for the process
              backend (0 = none; default 120000). A worker whose link
              makes no progress for this long is killed and counted as a
              failed attempt.
  --on-exhausted
              fail (default) | fallback: what the process backend does
              when a worker runs out of attempts — raise the error, or
              rerun the round on in-process threads (same results,
              reported in the fault summary).
  --list-backends
              print every execution backend with its capabilities.
  --seed      bucket-hash seed (default 1)
  --stats     print graph statistics first
  --print N   print the first N instances found

Engine knobs change only host scheduling, never results. Every map-reduce
run prints its JobMetrics round table: per-round communication (the
paper's cost model), physically shipped pairs (after combining), reducers
used, max reducer input, and outputs.

examples:
  smr_cli --pattern square --input er:2000:12000:1 --strategy bucket:6
  smr_cli --pattern cycle:5 --input pa:500:3:7 --strategy variable-auto:729
  smr_cli --pattern triangle --input er:2000:40000:1 --strategy auto:500
  smr_cli --pattern triangle --input er:2000:40000:1 --strategy census
          --threads 4 --combine off
  smr_cli --pattern triangle --input er:2000:40000:1 --strategy bucket:8
          --backend process:4 --retries 2 --deadline-ms 30000
)";

[[noreturn]] void Usage(const std::string& message) {
  std::fprintf(stderr, "error: %s\nrun smr_cli --help for usage\n",
               message.c_str());
  std::exit(2);
}

std::vector<std::string> SplitColons(const std::string& s) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (true) {
    const size_t colon = s.find(':', start);
    parts.push_back(s.substr(start, colon - start));
    if (colon == std::string::npos) break;
    start = colon + 1;
  }
  return parts;
}

/// Checked integer in [min, max]; dies with a flag-specific message on
/// garbage or overflow (never silently runs with 0, unlike std::atoi).
int64_t RequireInt(const std::string& text, int64_t min, int64_t max,
                   const std::string& what) {
  const auto value = smr::ParseInt64(text);
  if (!value || *value < min || *value > max) {
    Usage(what + " needs an integer in [" + std::to_string(min) + ", " +
          std::to_string(max) + "], got '" + text + "'");
  }
  return *value;
}

smr::SampleGraph ParsePattern(const std::string& spec) {
  const auto parts = SplitColons(spec);
  const std::string& name = parts[0];
  const bool parameterized = name == "path" || name == "star" ||
                             name == "cycle" || name == "clique" ||
                             name == "hypercube";
  if (!parameterized) {
    if (parts.size() != 1) Usage("pattern '" + name + "' takes no parameter");
    if (name == "triangle") return smr::SampleGraph::Triangle();
    if (name == "square") return smr::SampleGraph::Square();
    if (name == "lollipop") return smr::SampleGraph::Lollipop();
    Usage("unknown pattern '" + name + "'");
  }
  if (parts.size() != 2) {
    Usage("pattern '" + name + "' needs one parameter (" + name + ":<p>)");
  }
  const int arg = static_cast<int>(
      RequireInt(parts[1], 1, 1 << 20, "--pattern " + name));
  if (name == "path") return smr::SampleGraph::Path(arg);
  if (name == "star") return smr::SampleGraph::Star(arg);
  if (name == "cycle") return smr::SampleGraph::Cycle(arg);
  if (name == "clique") return smr::SampleGraph::Clique(arg);
  return smr::SampleGraph::Hypercube(arg);
}

smr::Graph ParseInput(const std::string& spec) {
  const auto parts = SplitColons(spec);
  if (parts[0] == "er" && parts.size() == 4) {
    return smr::ErdosRenyi(
        static_cast<smr::NodeId>(
            RequireInt(parts[1], 1, 1u << 31, "--input er n")),
        static_cast<size_t>(
            RequireInt(parts[2], 0, int64_t{1} << 40, "--input er m")),
        static_cast<uint64_t>(
            RequireInt(parts[3], 0, INT64_MAX, "--input er seed")));
  }
  if (parts[0] == "pa" && parts.size() == 4) {
    return smr::PreferentialAttachment(
        static_cast<smr::NodeId>(
            RequireInt(parts[1], 1, 1u << 31, "--input pa n")),
        static_cast<int>(RequireInt(parts[2], 1, 1 << 20, "--input pa deg")),
        static_cast<uint64_t>(
            RequireInt(parts[3], 0, INT64_MAX, "--input pa seed")));
  }
  if (parts[0] == "file" && parts.size() == 2) {
    return smr::LoadGraphFile(parts[1]);
  }
  Usage("bad --input spec '" + spec + "'");
}

void ListStrategies() {
  std::printf(
      "# name\tcanonical spec\tcapabilities\ttunables\tdescription\n");
  for (const smr::Strategy* strategy :
       smr::StrategyRegistry::Global().Strategies()) {
    smr::StrategySpec defaults;
    defaults.name = strategy->name();
    defaults = strategy->ResolveSpec(defaults);
    std::string tunables;
    for (const smr::TunableDecl& decl : strategy->tunables()) {
      if (!tunables.empty()) tunables += "; ";
      tunables += decl.name + " (" + decl.doc + ")";
    }
    std::printf("%s\t%s\t%s\t%s\t%s\n", strategy->name().c_str(),
                defaults.ToSpec().c_str(),
                strategy->capabilities().ToString().c_str(),
                tunables.empty() ? "-" : tunables.c_str(),
                strategy->description().c_str());
  }
}

void ListBackends() {
  // One row per registered BackendMode, in registry order; the name column
  // comes from the enum registry itself. The description table is sized by
  // kCount, so registering a new backend without describing its row here
  // fails to compile instead of silently vanishing from the matrix.
  struct BackendRow {
    const char* spec;
    const char* workers;
    const char* wire;
    const char* faults;
    const char* notes;
  };
  static constexpr BackendRow kRows[smr::EnumTraits<smr::BackendMode>::kCount] =
      {{"thread", "--threads N", "modeled only",
        "none (workers share this process's fate)",
        "in-process worker threads; the partitioned shuffle never "
        "serializes a pair unless a --budget makes it spill"},
       {"process[:N]", "N forked processes", "measured per link",
        "--retries / --deadline-ms / --on-exhausted: deterministic "
        "re-execution of failed workers, liveness deadlines, optional "
        "thread fallback",
        "one hop per pair: map run files merged by reduce workers; "
        "ShuffleStats reports map/reduce bytes"}};
  std::printf("# backend\tspec\tworkers\twire bytes\tfault tolerance\tnotes\n");
  for (size_t i = 0; i < smr::EnumTraits<smr::BackendMode>::kCount; ++i) {
    const BackendRow& row = kRows[i];
    std::printf("%s\t%s\t%s\t%s\t%s\t%s\n",
                smr::EnumTraits<smr::BackendMode>::kNames[i], row.spec,
                row.workers, row.wire, row.faults, row.notes);
  }
}

/// A uniformly-labeled view of an undirected pattern/graph pair: every
/// edge carries label 0, so labeled enumeration matches the unlabeled one.
smr::LabeledSampleGraph UniformlyLabeled(const smr::SampleGraph& pattern) {
  std::vector<std::tuple<int, int, smr::EdgeLabel>> edges;
  edges.reserve(pattern.edges().size());
  for (const auto& [a, b] : pattern.edges()) edges.emplace_back(a, b, 0);
  return smr::LabeledSampleGraph(pattern.num_vars(), std::move(edges));
}

smr::LabeledGraph UniformlyLabeled(const smr::Graph& graph) {
  std::vector<smr::LabeledEdge> edges;
  edges.reserve(graph.num_edges());
  for (const auto& [u, v] : graph.edges()) edges.push_back({u, v, 0});
  return smr::LabeledGraph(graph.num_nodes(), std::move(edges));
}

/// The canonical orientation (low endpoint -> high endpoint) of an
/// undirected pattern/graph pair, for directed-only strategies.
smr::DirectedSampleGraph CanonicallyOriented(const smr::SampleGraph& pattern) {
  return smr::DirectedSampleGraph(pattern.num_vars(), pattern.edges());
}

smr::DirectedGraph CanonicallyOriented(const smr::Graph& graph) {
  return smr::DirectedGraph(graph.num_nodes(), graph.edges());
}

int RunCli(int argc, char** argv) {
  std::optional<std::string> pattern_spec;
  std::optional<std::string> input_spec;
  std::string strategy = "bucket:8";
  std::string threads = "1";
  std::string shuffle = "partition";
  std::string combine = "on";
  std::string budget = "0";
  std::string backend = "thread";
  std::string retries = "0";
  std::string deadline_ms;
  std::string on_exhausted = "fail";
  uint64_t seed = 1;
  bool stats = false;
  size_t print_limit = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) Usage("missing value after " + arg);
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      std::fputs(kHelp, stdout);
      return 0;
    } else if (arg == "--list-strategies") {
      ListStrategies();
      return 0;
    } else if (arg == "--list-backends") {
      ListBackends();
      return 0;
    } else if (arg == "--pattern") {
      pattern_spec = next();
    } else if (arg == "--input") {
      input_spec = next();
    } else if (arg == "--strategy") {
      strategy = next();
    } else if (arg == "--seed") {
      seed = static_cast<uint64_t>(
          RequireInt(next(), 0, INT64_MAX, "--seed"));
    } else if (arg == "--threads") {
      threads = next();
    } else if (arg == "--shuffle") {
      shuffle = next();
    } else if (arg == "--combine") {
      combine = next();
    } else if (arg == "--budget") {
      budget = next();
    } else if (arg == "--backend") {
      backend = next();
    } else if (arg == "--retries") {
      retries = next();
    } else if (arg == "--deadline-ms") {
      deadline_ms = next();
    } else if (arg == "--on-exhausted") {
      on_exhausted = next();
    } else if (arg == "--stats") {
      stats = true;
    } else if (arg == "--print") {
      print_limit = static_cast<size_t>(
          RequireInt(next(), 0, INT64_MAX, "--print"));
    } else {
      Usage("unknown flag '" + arg + "'");
    }
  }
  if (!pattern_spec || !input_spec) Usage("--pattern and --input required");

  const smr::SampleGraph pattern = ParsePattern(*pattern_spec);
  const smr::Graph graph = ParseInput(*input_spec);
  std::printf("pattern: %s\n", pattern.ToString().c_str());
  std::printf("graph:   n=%u m=%zu\n", graph.num_nodes(), graph.num_edges());
  std::printf("kernels: %s\n",
              smr::SimdLevelName(smr::ActiveSimdLevel()));
  if (stats) {
    std::printf("stats:   %s\n",
                smr::ComputeStatistics(graph).ToString().c_str());
  }

  const smr::ExecutionPolicy policy =
      smr::PolicyFromSpecs(threads, shuffle, "auto", combine, budget, backend,
                           retries, deadline_ms, on_exhausted);
  const smr::StrategySpec spec = smr::ParseStrategySpec(strategy);
  const smr::Strategy& strat =
      smr::StrategyRegistry::Global().Require(spec.name);
  const smr::StrategyCapabilities& caps = strat.capabilities();

  smr::CollectingSink collecting;
  smr::CountingSink counting;
  const bool collect = print_limit > 0 && caps.emits_instances;
  smr::InstanceSink* sink =
      collect ? static_cast<smr::InstanceSink*>(&collecting)
              : static_cast<smr::InstanceSink*>(&counting);

  // The query family follows the strategy's capabilities: labeled-only and
  // directed-only strategies run on derived views of the undirected input.
  // These views must outlive the Run call.
  std::optional<smr::LabeledSampleGraph> labeled_pattern;
  std::optional<smr::LabeledGraph> labeled_graph;
  std::optional<smr::DirectedSampleGraph> directed_pattern;
  std::optional<smr::DirectedGraph> directed_graph;

  std::vector<smr::ConjunctiveQuery> cqs;
  smr::EnumerationQuery query =
      smr::EnumerationQuery::Undirected(pattern, graph);
  if (!caps.undirected && caps.labeled) {
    std::printf("note:    labeled-only strategy; edges carry uniform "
                "label 0\n");
    labeled_pattern.emplace(UniformlyLabeled(pattern));
    labeled_graph.emplace(UniformlyLabeled(graph));
    query = smr::EnumerationQuery::Labeled(*labeled_pattern, *labeled_graph);
  } else if (!caps.undirected && caps.directed) {
    std::printf("note:    directed-only strategy; edges oriented low id -> "
                "high id\n");
    directed_pattern.emplace(CanonicallyOriented(pattern));
    directed_graph.emplace(CanonicallyOriented(graph));
    query =
        smr::EnumerationQuery::Directed(*directed_pattern, *directed_graph);
  } else {
    cqs = smr::CqsForSample(pattern);
    query.cqs = &cqs;
    std::printf("CQ set:  %zu conjunctive queries\n", cqs.size());
  }
  query.WithSpec(spec).WithSeed(seed).WithPolicy(policy).WithSink(sink);

  const smr::EnumerationResult result =
      smr::StrategyRegistry::Global().Run(query);

  if (result.resolved_spec.ToSpec() == spec.ToSpec()) {
    std::printf("strategy: %s\n", result.resolved_spec.ToSpec().c_str());
  } else {
    std::printf("strategy: %s -> %s\n", spec.ToSpec().c_str(),
                result.resolved_spec.ToSpec().c_str());
  }
  if (!result.plan.empty()) {
    std::printf("plan:    %s\n", result.plan.c_str());
  }
  if (policy.num_threads > 1 ||
      policy.backend == smr::BackendMode::kProcess) {
    // Whether the engine ran is visible in the result itself — strategies
    // without rounds (serial) never touch it; don't claim otherwise.
    if (result.job.rounds.empty()) {
      std::printf(
          "engine:  not used by this strategy (engine knobs ignored)\n");
    } else {
      std::printf("engine:  %s\n", smr::DescribePolicy(policy).c_str());
    }
  }
  if (result.has_metrics) {
    std::printf("metrics: %s\n", result.metrics.ToString().c_str());
  }
  if (!result.job.rounds.empty()) {
    std::printf("job (combine %s):\n%s", policy.combine ? "on" : "off",
                result.job.RoundTable().c_str());
    // Fault summary across the job's rounds, printed only when the run
    // actually recovered from something (fault-free output is unchanged).
    uint64_t retried = 0, discarded = 0, deadline_kills = 0, fallbacks = 0;
    for (const smr::JobRoundMetrics& round : result.job.rounds) {
      retried += round.metrics.shuffle.worker_retries;
      discarded += round.metrics.shuffle.frames_discarded;
      deadline_kills += round.metrics.shuffle.deadline_kills;
      fallbacks += round.metrics.shuffle.thread_fallbacks;
    }
    if (retried + discarded + deadline_kills + fallbacks > 0) {
      std::printf(
          "faults:  %llu worker retr%s, %llu frame%s discarded, "
          "%llu deadline kill%s, %llu thread fallback%s\n",
          static_cast<unsigned long long>(retried),
          retried == 1 ? "y" : "ies",
          static_cast<unsigned long long>(discarded),
          discarded == 1 ? "" : "s",
          static_cast<unsigned long long>(deadline_kills),
          deadline_kills == 1 ? "" : "s",
          static_cast<unsigned long long>(fallbacks),
          fallbacks == 1 ? "" : "s");
    }
  }
  if (!result.per_node.empty()) {
    uint64_t max_count = 0;
    smr::NodeId argmax = 0;
    for (smr::NodeId v = 0; v < result.per_node.size(); ++v) {
      if (result.per_node[v] > max_count) {
        max_count = result.per_node[v];
        argmax = v;
      }
    }
    std::printf("census:  busiest node %u is in %llu triangles\n", argmax,
                static_cast<unsigned long long>(max_count));
  }

  if (collect) {
    const size_t show = std::min(print_limit, collecting.assignments().size());
    for (size_t i = 0; i < show; ++i) {
      std::printf("  instance:");
      for (smr::NodeId node : collecting.assignments()[i]) {
        std::printf(" %u", node);
      }
      std::printf("\n");
    }
  }
  std::printf("total: %llu\n",
              static_cast<unsigned long long>(result.instances));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return RunCli(argc, argv);
  } catch (const std::exception& error) {
    Usage(error.what());
  }
}
