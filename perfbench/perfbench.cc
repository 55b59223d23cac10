// End-to-end benchmark of enumeration jobs. One invocation is one
// workload in one fresh process, so ru_maxrss and RUSAGE_CHILDREN belong to
// that workload alone. Subcommands:
//
//   gen        --workload W --seed N --out PATH
//       generate the workload's data graph from the seed and write it as a
//       binary edge list (input generation; never timed);
//   run        --workload W --graph PATH --seconds S
//              [--trace-out PATH] [--metrics-out PATH]
//       set up (load + CQ generation), compute the serial reference, then run
//       jobs through StrategyRegistry::Run in a closed loop with one caller
//       for S seconds and at least kMinSamples timed jobs, checking every
//       job and re-timing set-up after each one. Without --trace-out it prints the end-to-end metrics; with it,
//       every other job is traced, the per-layer probes run, the spans are
//       written as Chrome trace-event JSON, and it prints the per-layer
//       metrics. The last stdout line is one JSON object;
//   crosscheck --workload W --graph PATH --expect PATH
//       run the same query once under each sibling ER workload's policy and
//       compare instances and JobMetrics with the text `run` wrote to
//       --metrics-out (the determinism contract across backends).
//
// Settings come only from arguments. SMR_FAULT_PLAN and SMR_FORCE_SCALAR
// change what the library does, so `run` refuses to start when either is set.

#include <sys/resource.h>
#include <sys/statfs.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/strategy.h"
#include "cq/cq_evaluator.h"
#include "cq/cq_generation.h"
#include "graph/generators.h"
#include "graph/intersect.h"
#include "graph/io.h"
#include "graph/node_order.h"
#include "graph/sample_graph.h"
#include "graph/subgraph.h"
#include "mapreduce/job.h"
#include "mapreduce/policy_spec.h"
#include "oracle.h"
#include "serial/triangles.h"
#include "tracer.h"
#include "util/hashing.h"
#include "util/parse.h"

namespace perfbench {
namespace {

using smr::Edge;
using smr::Graph;
using smr::NodeId;

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

enum class GraphKind { kErdosRenyi, kPreferentialAttachment };

/// One workload: the query (always triangles), its data graph family, and
/// the engine policy. Every workload uses 4 workers.
struct Workload {
  std::string_view name;
  GraphKind graph;
  std::string_view strategy;
  std::string_view budget;   // policy_spec budget ("0" = unbounded)
  std::string_view backend;  // policy_spec backend
};

// The three ER workloads run the same query on the same graph and differ
// only in the shuffle's host path: in-memory threads (reducer compute
// dominates), forked processes (wire + coordinator), and a 16 MiB budget
// (spill write + merge-read). The PA workload runs the two-round plan on a
// power-law graph: millions of sparse reducers doing trivial work, so the
// engine and the degree order dominate and the CQ evaluator does nothing.
constexpr Workload kWorkloads[] = {
    {"tri-er-bucket8", GraphKind::kErdosRenyi, "bucket:8", "0", "thread"},
    {"tri-er-bucket8-process", GraphKind::kErdosRenyi, "bucket:8", "0",
     "process:4"},
    {"tri-er-bucket8-spill", GraphKind::kErdosRenyi, "bucket:8", "16M",
     "thread"},
    {"tri-pa-tworound", GraphKind::kPreferentialAttachment, "tworound", "0",
     "thread"},
};

constexpr const char* kWorkers = "4";
constexpr uint64_t kQuerySeed = 1;  // the bucket hash seed of every query
constexpr int kBucketCount = 8;

const Workload* FindWorkload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

smr::ExecutionPolicy PolicyOf(const Workload& w) {
  return smr::PolicyFromSpecs(kWorkers, "partition", "auto", "on", w.budget,
                              w.backend);
}

bool IsProcessBackend(const Workload& w) {
  return w.backend.substr(0, 7) == "process";
}

Graph GenerateGraph(GraphKind kind, uint64_t seed) {
  switch (kind) {
    case GraphKind::kErdosRenyi:
      return smr::ErdosRenyi(50'000, 500'000, seed);
    case GraphKind::kPreferentialAttachment:
      return smr::PreferentialAttachment(100'000, 10, seed);
  }
  throw std::logic_error("unknown graph kind");
}

/// The global order the workload's strategy builds first.
smr::NodeOrder StrategyOrder(const Workload& w, const Graph& graph) {
  if (w.graph == GraphKind::kErdosRenyi) {
    return smr::NodeOrder::ByBucket(
        graph.num_nodes(), smr::BucketHasher(kBucketCount, kQuerySeed));
  }
  return smr::NodeOrder::ByDegree(graph);
}

// ---------------------------------------------------------------------------
// Arguments
// ---------------------------------------------------------------------------

struct Args {
  std::string mode;
  std::map<std::string, std::string, std::less<>> values;

  std::string Get(std::string_view key) const {
    const auto it = values.find(key);
    return it == values.end() ? "" : it->second;
  }

  std::string Require(std::string_view key) const {
    const auto it = values.find(key);
    if (it == values.end() || it->second.empty()) {
      throw std::invalid_argument("missing --" + std::string(key));
    }
    return it->second;
  }
};

Args ParseArgs(int argc, char** argv, std::vector<std::string_view> keys) {
  if (argc < 2) throw std::invalid_argument("missing subcommand");
  Args args;
  args.mode = argv[1];
  for (int i = 2; i < argc; i += 2) {
    const std::string_view flag = argv[i];
    if (flag.substr(0, 2) != "--" || i + 1 >= argc) {
      throw std::invalid_argument("expected --key value, got '" +
                                  std::string(flag) + "'");
    }
    const std::string_view key = flag.substr(2);
    if (std::find(keys.begin(), keys.end(), key) == keys.end()) {
      throw std::invalid_argument("unknown option --" + std::string(key));
    }
    args.values[std::string(key)] = argv[i + 1];
  }
  return args;
}

const Workload& RequireWorkload(const Args& args) {
  const std::string name = args.Require("workload");
  const Workload* w = FindWorkload(name);
  if (w == nullptr) throw std::invalid_argument("unknown workload " + name);
  return *w;
}

// ---------------------------------------------------------------------------
// Measurement helpers
// ---------------------------------------------------------------------------

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// The highest percentile with at least ten samples beyond it: the
/// ascending order statistic at index n - 11, reported as the nearest-rank
/// percentile 100 * (n - 10) / n.
struct Tail {
  double value = 0;
  double percentile = 0;
  size_t samples = 0;
};

Tail TailOf(std::vector<double> v) {
  Tail tail;
  tail.samples = v.size();
  if (v.size() < 11) return tail;
  std::sort(v.begin(), v.end());
  const size_t index = v.size() - 11;
  tail.value = v[index];
  tail.percentile = 100.0 * static_cast<double>(index + 1) /
                    static_cast<double>(v.size());
  return tail;
}

double TimevalSeconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}

/// User + sys CPU seconds of this process and of its reaped children.
struct CpuTimes {
  double self = 0;
  double children = 0;

  static CpuTimes Now() {
    rusage self{};
    rusage children{};
    getrusage(RUSAGE_SELF, &self);
    getrusage(RUSAGE_CHILDREN, &children);
    return CpuTimes{
        TimevalSeconds(self.ru_utime) + TimevalSeconds(self.ru_stime),
        TimevalSeconds(children.ru_utime) + TimevalSeconds(children.ru_stime)};
  }
};

double MaxRssMb(int who) {
  rusage usage{};
  getrusage(who, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---------------------------------------------------------------------------
// Host block
// ---------------------------------------------------------------------------

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = colon + 1;
        while (start < line.size() && line[start] == ' ') ++start;
        return line.substr(start);
      }
    }
  }
  return "unknown";
}

std::string FilesystemOf(const std::string& path) {
  struct statfs fs {};
  if (statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x6969: return "nfs";
    case 0x65735546: return "fuse";
    case 0x2FC12FC1: return "zfs";
    default: break;
  }
  char hex[32];
  std::snprintf(hex, sizeof(hex), "0x%lx",
                static_cast<unsigned long>(fs.f_type));
  return hex;
}

std::string JsonEscape(std::string_view text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

/// Name/value pairs describing where the numbers were taken.
std::vector<std::pair<std::string, std::string>> HostBlock() {
  const char* tmpdir = std::getenv("TMPDIR");
  const std::string spill_dir =
      tmpdir != nullptr && *tmpdir != '\0' ? tmpdir : "/tmp";
  return {
      {"cpus", std::to_string(std::thread::hardware_concurrency())},
      {"cpu_model", CpuModel()},
      {"isa", smr::SimdLevelName(smr::ActiveSimdLevel())},
      {"compiler", std::string("g++ ") + __VERSION__},
      {"build_type", PERFBENCH_BUILD_TYPE},
      {"tmpdir_fs", FilesystemOf(spill_dir)},
  };
}

std::string HostJson() {
  std::string json = "{";
  for (const auto& [key, value] : HostBlock()) {
    if (json.size() > 1) json += ',';
    json += "\"" + key + "\":\"" + JsonEscape(value) + "\"";
  }
  return json + "}";
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string FormatNumber(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(value) ? value : 0);
  return buf;
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-28s %18s %s\n", m.name.c_str(),
                FormatNumber(m.value).c_str(), m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            FormatNumber(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// Jobs
// ---------------------------------------------------------------------------

/// Serial reference: instances in degree order, with the op count and time.
struct Reference {
  Digest digest;
  std::vector<std::vector<NodeId>> instances;
  uint64_t ops = 0;
  double seconds = 0;
};

Reference SerialReference(const smr::SampleGraph& pattern,
                          const Graph& graph) {
  Reference ref;
  smr::CollectingSink collected;
  smr::CostCounter cost;
  const double t0 = NowSeconds();
  smr::EnumerateTriangles(graph, smr::NodeOrder::ByDegree(graph), &collected,
                          &cost);
  ref.seconds = NowSeconds() - t0;
  ref.ops = cost.Total();
  ref.instances = collected.assignments();
  DigestSink digest(pattern.edges());
  for (const auto& instance : ref.instances) digest.Emit(instance);
  ref.digest = digest.digest();
  return ref;
}

/// One job through the registry, checked against the reference digest.
struct JobOutcome {
  bool ok = false;
  std::string error;
  double wall = 0;
  CpuTimes cpu;
  smr::EnumerationResult result;
  Digest digest;
};

JobOutcome RunJob(const Workload& w, const smr::SampleGraph& pattern,
                  const Graph& graph,
                  const std::vector<smr::ConjunctiveQuery>& cqs,
                  const Digest& reference, Tracer& tracer, int64_t job_id) {
  JobOutcome out;
  DigestSink sink(pattern.edges());
  smr::EnumerationQuery query = smr::EnumerationQuery::Undirected(pattern, graph)
                                    .WithStrategy(w.strategy)
                                    .WithSeed(kQuerySeed)
                                    .WithPolicy(PolicyOf(w))
                                    .WithSink(&sink);
  query.cqs = &cqs;
  const CpuTimes cpu0 = CpuTimes::Now();
  const double t0 = NowSeconds();
  try {
    auto span = tracer.Open("job", job_id);
    out.result = smr::StrategyRegistry::Global().Run(query);
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  out.wall = NowSeconds() - t0;
  const CpuTimes cpu1 = CpuTimes::Now();
  out.cpu = CpuTimes{cpu1.self - cpu0.self, cpu1.children - cpu0.children};
  out.digest = sink.digest();
  if (out.error.empty()) {
    if (!(out.digest == reference)) {
      out.error = "instance multiset differs from the serial reference";
    } else if (out.result.instances != reference.count) {
      out.error = "reported instance count differs from the reference";
    }
  }
  out.ok = out.error.empty();
  return out;
}

// ---------------------------------------------------------------------------
// Per-layer probes (traced run only)
// ---------------------------------------------------------------------------

template <typename Fn>
double MedianSeconds(Tracer& tracer, const std::string& name, int reps,
                     Fn&& fn) {
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) {
    auto span = tracer.Open(name);
    const double t0 = NowSeconds();
    fn();
    times.push_back(NowSeconds() - t0);
  }
  return Median(times);
}

/// ContainsSorted probes over adjacency rows: alternately a real neighbor
/// (hit) and a random node (almost always a miss). Returns ns per probe.
double ContainsProbe(Tracer& tracer, const Graph& graph, uint64_t* hits) {
  constexpr size_t kProbes = 2'000'000;
  const auto& edges = graph.edges();
  std::vector<std::pair<NodeId, NodeId>> probes(kProbes);
  for (size_t i = 0; i < kProbes; ++i) {
    const uint64_t r = smr::SplitMix64(i);
    const Edge& e = edges[r % edges.size()];
    probes[i] = i % 2 == 0
                    ? std::pair<NodeId, NodeId>(e.first, e.second)
                    : std::pair<NodeId, NodeId>(
                          e.first, static_cast<NodeId>((r >> 32) %
                                                       graph.num_nodes()));
  }
  uint64_t found = 0;
  const double seconds =
      MedianSeconds(tracer, "probe.intersect.contains", 5, [&] {
        found = 0;
        for (const auto& [u, v] : probes) {
          found += smr::ContainsSorted(graph.Neighbors(u), v) ? 1 : 0;
        }
      });
  *hits = found;
  return seconds * 1e9 / static_cast<double>(kProbes);
}

/// One JobDriver::RunRound under the workload's policy that reproduces the
/// job's largest round's input count, pair count, reducer count and key
/// space; its reducer only counts. Isolates the engine (map emission,
/// scatter, group, reduce dispatch, and the backend's own path).
struct EngineProbe {
  double seconds = 0;
  double ns_per_pair = 0;
  bool ok = true;
};

EngineProbe RunEngineProbe(Tracer& tracer, const Workload& w,
                           const smr::JobMetrics& job) {
  EngineProbe probe;
  const smr::MapReduceMetrics* largest = nullptr;
  for (const auto& round : job.rounds) {
    if (largest == nullptr ||
        round.metrics.key_value_pairs > largest->key_value_pairs) {
      largest = &round.metrics;
    }
  }
  if (largest == nullptr || largest->input_records == 0 ||
      largest->distinct_keys == 0) {
    probe.ok = false;
    return probe;
  }
  const uint64_t inputs_n = largest->input_records;
  const uint64_t pairs = largest->key_value_pairs;
  const uint64_t reducers = largest->distinct_keys;
  const uint64_t key_space = std::max(largest->key_space, reducers);
  const uint64_t stride = key_space / reducers;
  // A prime above every reducer count here, so g -> g * kScramble mod
  // reducers permutes each block of `reducers` consecutive emissions: keys
  // arrive scrambled, as real reducer keys do, and exactly
  // min(pairs, reducers) distinct keys are hit.
  constexpr uint64_t kScramble = 2'654'435'761ULL;

  std::vector<uint64_t> inputs(inputs_n);
  for (uint64_t i = 0; i < inputs_n; ++i) inputs[i] = i;
  const smr::RoundSpec<uint64_t, Edge> spec{
      "engine-probe",
      [&](const uint64_t& i, smr::Emitter<Edge>* out) {
        const uint64_t first = i * pairs / inputs_n;
        const uint64_t last = (i + 1) * pairs / inputs_n;
        for (uint64_t g = first; g < last; ++g) {
          const uint64_t key = (g % reducers) * kScramble % reducers * stride;
          out->Emit(key, Edge(static_cast<NodeId>(g),
                              static_cast<NodeId>(g >> 32)));
        }
      },
      [](uint64_t, std::span<const Edge> values, smr::ReduceContext* ctx) {
        ctx->cost->edges_scanned += values.size();
      },
      key_space,
      {},
      static_cast<double>(pairs) / static_cast<double>(inputs_n)};
  const smr::ExecutionPolicy policy = PolicyOf(w);
  probe.seconds = MedianSeconds(tracer, "probe.engine.round", 3, [&] {
    smr::JobDriver runner(policy);
    const smr::MapReduceMetrics m = runner.RunRound(spec, inputs, nullptr);
    probe.ok = probe.ok && m.key_value_pairs == pairs &&
               m.distinct_keys == std::min(pairs, reducers) &&
               m.reduce_cost.edges_scanned == pairs;
  });
  probe.ns_per_pair = probe.seconds * 1e9 / static_cast<double>(pairs);
  return probe;
}

// ---------------------------------------------------------------------------
// Subcommands
// ---------------------------------------------------------------------------

int Gen(const Args& args) {
  const Workload& w = RequireWorkload(args);
  const std::optional<uint64_t> seed = smr::ParseUint64(args.Require("seed"));
  if (!seed) throw std::invalid_argument("--seed must be a whole number");
  smr::WriteBinaryEdgeListFile(GenerateGraph(w.graph, *seed),
                               args.Require("out"));
  return 0;
}

/// What a user pays before the first job: LoadGraphFile on the binary edge
/// list plus CqsForSample.
struct Setup {
  Graph graph;
  std::vector<smr::ConjunctiveQuery> cqs;
  double load_s = 0;
  double generate_s = 0;
};

Setup TimedSetup(Tracer& tracer, const std::string& path,
                 const smr::SampleGraph& pattern) {
  auto span = tracer.Open("setup");
  const double t0 = NowSeconds();
  std::optional<Graph> graph;
  {
    auto s = tracer.Open("graph.load");
    graph.emplace(smr::LoadGraphFile(path));
  }
  const double t1 = NowSeconds();
  std::vector<smr::ConjunctiveQuery> cqs;
  {
    auto s = tracer.Open("cq.generate");
    cqs = smr::CqsForSample(pattern);
  }
  const double t2 = NowSeconds();
  return Setup{std::move(*graph), std::move(cqs), t1 - t0, t2 - t1};
}

struct SetupTimes {
  std::vector<double> total, load, generate;

  void Add(const Setup& setup) {
    total.push_back(setup.load_s + setup.generate_s);
    load.push_back(setup.load_s);
    generate.push_back(setup.generate_s);
  }
};

/// Per-layer probes: each times the benchmark's calls into one module's public
/// functions over the workload's graph.
struct Probes {
  double order_s = 0;
  double subgraph_ns_per_edge = 0;
  double contains_ns = 0;
  double eval_s = 0;
  smr::CostCounter eval_cost;
  EngineProbe engine;
  bool ok = true;
};

Probes RunProbes(Tracer& tracer, const Workload& w, const Setup& setup,
                 const Reference& ref, const smr::JobMetrics& job) {
  auto span = tracer.Open("probes");
  const Graph& graph = setup.graph;
  Probes probes;
  probes.order_s = MedianSeconds(tracer, "probe.graph.order", 5, [&] {
    const smr::NodeOrder order = StrategyOrder(w, graph);
    (void)order.Rank(0);
  });
  const double subgraph_s =
      MedianSeconds(tracer, "probe.graph.subgraph", 3, [&] {
        const smr::Subgraph sub = smr::BuildSubgraph(graph.edges());
        (void)sub.graph.num_edges();
      });
  probes.subgraph_ns_per_edge =
      subgraph_s * 1e9 / static_cast<double>(graph.num_edges());
  uint64_t contains_hits = 0;
  probes.contains_ns = ContainsProbe(tracer, graph, &contains_hits);
  std::printf("intersect    %" PRIu64 " hits in the contains probe\n",
              contains_hits);

  const smr::CqEvaluator evaluator(graph, StrategyOrder(w, graph));
  uint64_t eval_count = 0;
  probes.eval_s = MedianSeconds(tracer, "probe.cq.eval", 3, [&] {
    probes.eval_cost.Reset();
    eval_count = evaluator.EvaluateAll(setup.cqs, nullptr, &probes.eval_cost);
  });
  if (eval_count != ref.digest.count) {
    std::printf("cq.eval found %" PRIu64 " instances, reference %" PRIu64
                "\n",
                eval_count, ref.digest.count);
    probes.ok = false;
  }
  probes.engine = RunEngineProbe(tracer, w, job);
  if (!probes.engine.ok) {
    std::printf("engine probe round miscounted its pairs or reducers\n");
    probes.ok = false;
  }
  return probes;
}

// The fewest samples for which job_s_tail exists (ten beyond it).
constexpr size_t kMinSamples = 11;
constexpr double kMaxLoopSeconds = 120;  // hard stop for the min-sample rule

int Run(const Args& args) {
  for (const char* var : {"SMR_FAULT_PLAN", "SMR_FORCE_SCALAR"}) {
    const char* value = std::getenv(var);
    if (value != nullptr && *value != '\0') {
      std::fprintf(stderr,
                   "perfbench: refusing to run with %s set: it changes what "
                   "the library does, so the numbers would not be comparable\n",
                   var);
      return 2;
    }
  }
  const Workload& w = RequireWorkload(args);
  const std::string graph_path = args.Require("graph");
  const std::optional<double> seconds = smr::ParseDouble(args.Require("seconds"));
  if (!seconds || *seconds <= 0) {
    throw std::invalid_argument("--seconds must be a positive number");
  }
  const std::string trace_out = args.Get("trace-out");
  const std::string metrics_out = args.Get("metrics-out");
  const bool traced = !trace_out.empty();

  Tracer tracer(traced);
  Tracer untraced(false);
  std::printf("workload %s (%s, %s)\n", std::string(w.name).c_str(),
              std::string(w.strategy).c_str(),
              smr::DescribePolicy(PolicyOf(w)).c_str());
  for (const auto& [key, value] : HostBlock()) {
    std::printf("host.%-10s %s\n", key.c_str(), value.c_str());
  }

  const smr::SampleGraph pattern = smr::SampleGraph::Triangle();
  SetupTimes setup_times;
  const Setup setup = TimedSetup(tracer, graph_path, pattern);
  setup_times.Add(setup);
  const Graph& graph = setup.graph;
  std::printf("graph        n=%u m=%zu\n", graph.num_nodes(),
              graph.num_edges());

  std::vector<double> serial_times;
  std::optional<Reference> ref;
  for (int i = 0; i < (traced ? 3 : 1); ++i) {
    auto span = tracer.Open("serial.reference");
    ref.emplace(SerialReference(pattern, graph));
    serial_times.push_back(ref->seconds);
  }
  bool correct = OracleSelfCheck(pattern.edges(), ref->instances, ref->digest);
  std::printf("oracle self-check (drop / duplicate / drop+duplicate): %s\n",
              correct ? "flagged all three" : "MISSED A CASE");

  // Closed loop, one caller. The first job warms the allocator and page
  // cache: it is checked and counted but not timed. In the traced run every
  // other job is traced, so the two halves give the tracing overhead.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::optional<smr::JobMetrics> first_job;
  smr::EnumerationResult last_result;
  uint64_t last_instances = 0;
  std::vector<double> wall, cpu, self_cpu, child_cpu, wall_traced,
      wall_untraced;
  auto one_job = [&](int64_t id, bool timed) {
    const bool trace_this = traced && id % 2 == 0;
    JobOutcome job = RunJob(w, pattern, graph, setup.cqs, ref->digest,
                            trace_this ? tracer : untraced, id);
    ++attempted;
    if (job.ok) {
      if (!first_job) {
        first_job = job.result.job;
      } else if (!(job.result.job == *first_job)) {
        job.ok = false;
        job.error = "JobMetrics differ from the first repetition";
      }
    }
    if (!job.ok) {
      ++failed;
      std::printf("job %" PRId64 " FAILED: %s\n", id, job.error.c_str());
      return;
    }
    last_instances = job.digest.count;
    last_result = std::move(job.result);
    if (!timed) return;
    wall.push_back(job.wall);
    cpu.push_back(job.cpu.self + job.cpu.children);
    self_cpu.push_back(job.cpu.self);
    child_cpu.push_back(job.cpu.children);
    (trace_this ? wall_traced : wall_untraced).push_back(job.wall);
    // Set-up is timed again after every timed job rather than in one
    // burst, so its median samples the same stretch of time as the jobs.
    setup_times.Add(TimedSetup(tracer, graph_path, pattern));
  };
  one_job(0, /*timed=*/false);
  const double loop_start = NowSeconds();
  for (int64_t id = 1;; ++id) {
    const double elapsed = NowSeconds() - loop_start;
    if (elapsed >= kMaxLoopSeconds) break;
    if (elapsed >= *seconds && wall.size() >= kMinSamples) break;
    if (elapsed >= *seconds && failed == attempted) break;
    one_job(id, /*timed=*/true);
  }
  if (wall.empty()) correct = false;
  if (first_job && !metrics_out.empty()) {
    std::ofstream(metrics_out) << SemanticText(*first_job);
  }

  const double failed_frac =
      static_cast<double>(failed) / static_cast<double>(attempted);
  const Tail tail = TailOf(wall);
  std::printf("jobs         %zu timed, %" PRIu64 " attempted, %" PRIu64
              " failed (failed_frac %s)\n",
              wall.size(), attempted, failed, FormatNumber(failed_frac).c_str());
  std::printf("job_s_tail   is p%.1f of %zu samples\n", tail.percentile,
              tail.samples);
  std::printf("job_s        samples");
  for (const double s : wall) std::printf(" %.4f", s);
  std::printf("\n");
  correct = correct && failed == 0;

  const smr::JobMetrics& job = last_result.job;
  const uint64_t comm = job.TotalCommunication();
  if (!traced) {
    const std::vector<Metric> metrics = {
        {"job_s", Median(wall), "s"},
        {"job_s_tail", tail.value, "s"},
        {"cpu_s", Median(cpu), "s"},
        {"peak_rss_mb", MaxRssMb(RUSAGE_SELF), "MB"},
        {"setup_s", Median(setup_times.total), "s"},
        {"comm_pairs", static_cast<double>(comm), "count"},
    };
    PrintResult(correct, attempted, failed, metrics);
    return correct ? 0 : 1;
  }

  const Probes probes = RunProbes(tracer, w, setup, *ref, job);
  correct = correct && probes.ok;

  uint64_t reduce_ops = 0, pairs_shipped = 0, shuffle_bytes = 0,
           counting = 0, sorted = 0, spawned = 0, reused = 0, pages = 0,
           spilled = 0, files = 0, map_wire = 0, reduce_wire = 0, retries = 0,
           deadline_kills = 0;
  double reducer_skew = 0, partition_skew = 0;
  for (const smr::JobRoundMetrics& round : job.rounds) {
    const smr::MapReduceMetrics& m = round.metrics;
    const smr::ShuffleStats& s = m.shuffle;
    reduce_ops += m.reduce_cost.Total();
    reducer_skew = std::max(reducer_skew, m.SkewRatio());
    partition_skew = std::max(partition_skew, s.PartitionSkew(s.pairs_shipped));
    pairs_shipped += s.pairs_shipped;
    shuffle_bytes += s.shuffle_bytes;
    counting += s.counting_partitions;
    sorted += s.sorted_partitions;
    spawned += s.pool_threads_spawned;
    reused += s.pool_tasks_reused;
    pages += s.pages_spilled;
    spilled += s.bytes_spilled;
    files += s.spill_files;
    map_wire += s.map_bytes_on_wire;
    reduce_wire += s.reduce_bytes_on_wire;
    retries += s.worker_retries;
    deadline_kills += s.deadline_kills;
  }
  const double m_edges = static_cast<double>(graph.num_edges());
  const bool process = IsProcessBackend(w);
  const std::vector<Metric> metrics = {
      {"graph.load_s", Median(setup_times.load), "s"},
      {"cq.generate_s", Median(setup_times.generate), "s"},
      {"graph.order_s", probes.order_s, "s"},
      {"graph.subgraph_ns_per_edge", probes.subgraph_ns_per_edge, "ns"},
      {"intersect.contains_ns", probes.contains_ns, "ns"},
      {"cq.eval_s", probes.eval_s, "s"},
      {"cq.eval_ops", static_cast<double>(probes.eval_cost.Total()), "count"},
      {"serial.s", Median(serial_times), "s"},
      {"serial.ops", static_cast<double>(ref->ops), "count"},
      {"core.rounds", static_cast<double>(job.rounds.size()), "count"},
      {"core.reduce_ops", static_cast<double>(reduce_ops), "count"},
      {"core.convertibility",
       static_cast<double>(reduce_ops) / static_cast<double>(ref->ops),
       "ratio"},
      {"core.replication", static_cast<double>(comm) / m_edges, "ratio"},
      {"core.reducers_used", static_cast<double>(job.MaxRoundReducers()),
       "count"},
      {"core.reducer_skew", reducer_skew, "ratio"},
      {"engine.probe_s", probes.engine.seconds, "s"},
      {"engine.ns_per_pair", probes.engine.ns_per_pair, "ns"},
      {"engine.pairs_shipped", static_cast<double>(pairs_shipped), "count"},
      {"engine.shuffle_bytes", static_cast<double>(shuffle_bytes), "bytes"},
      {"engine.partition_skew", partition_skew, "ratio"},
      {"engine.counting_partitions", static_cast<double>(counting), "count"},
      {"engine.sorted_partitions", static_cast<double>(sorted), "count"},
      {"pool.threads_spawned", static_cast<double>(spawned), "count"},
      {"pool.tasks_reused", static_cast<double>(reused), "count"},
      {"spill.pages", static_cast<double>(pages), "count"},
      {"spill.bytes", static_cast<double>(spilled), "bytes"},
      {"spill.files", static_cast<double>(files), "count"},
      {"process.map_wire_bytes", static_cast<double>(map_wire), "bytes"},
      {"process.reduce_wire_bytes", static_cast<double>(reduce_wire),
       "bytes"},
      {"process.wire_over_model",
       static_cast<double>(map_wire) / (static_cast<double>(comm) * 16.0),
       "ratio"},
      // Without a process backend this process coordinates nothing.
      {"process.parent_cpu_s", process ? Median(self_cpu) : 0.0, "s"},
      {"process.child_cpu_s", Median(child_cpu), "s"},
      {"process.child_rss_mb", MaxRssMb(RUSAGE_CHILDREN), "MB"},
      {"process.retries", static_cast<double>(retries), "count"},
      {"process.deadline_kills", static_cast<double>(deadline_kills),
       "count"},
      {"sink.instances", static_cast<double>(last_instances), "count"},
      {"trace.overhead_s", Median(wall_traced) - Median(wall_untraced), "s"},
  };
  tracer.WriteChromeJson(trace_out, HostJson());
  std::printf("trace        %zu spans written to %s\n", tracer.size(),
              trace_out.c_str());
  PrintResult(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

/// Runs the query once under each sibling ER workload's policy and compares
/// instances and semantic JobMetrics with what `run` recorded.
int Crosscheck(const Args& args) {
  const Workload& w = RequireWorkload(args);
  std::ifstream expect_in(args.Require("expect"));
  if (!expect_in) throw std::runtime_error("cannot read --expect file");
  std::stringstream expect;
  expect << expect_in.rdbuf();

  const smr::SampleGraph pattern = smr::SampleGraph::Triangle();
  const Graph graph = smr::LoadGraphFile(args.Require("graph"));
  const std::vector<smr::ConjunctiveQuery> cqs = smr::CqsForSample(pattern);
  const Reference ref = SerialReference(pattern, graph);
  Tracer untraced(false);
  uint64_t attempted = 0;
  uint64_t failed = 0;
  for (const Workload& sibling : kWorkloads) {
    if (&sibling == &w || sibling.graph != w.graph ||
        sibling.strategy != w.strategy) {
      continue;
    }
    ++attempted;
    JobOutcome job =
        RunJob(sibling, pattern, graph, cqs, ref.digest, untraced, 0);
    if (job.ok && SemanticText(job.result.job) != expect.str()) {
      job.ok = false;
      job.error = "JobMetrics differ from " + std::string(w.name) + "'s";
    }
    if (!job.ok) ++failed;
    std::printf("crosscheck %s vs %s: %s\n", std::string(sibling.name).c_str(),
                std::string(w.name).c_str(),
                job.ok ? "identical" : job.error.c_str());
  }
  std::printf("{\"attempted\": %" PRIu64 ", \"failed\": %" PRIu64 "}\n",
              attempted, failed);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    const perfbench::Args args = perfbench::ParseArgs(
        argc, argv,
        {"workload", "seed", "out", "graph", "seconds", "trace-out",
         "metrics-out", "expect"});
    if (args.mode == "gen") return perfbench::Gen(args);
    if (args.mode == "run") return perfbench::Run(args);
    if (args.mode == "crosscheck") return perfbench::Crosscheck(args);
    throw std::invalid_argument("unknown subcommand " + args.mode);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
