#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "mapreduce/instance_sink.h"
#include "mapreduce/job.h"
#include "mapreduce/metrics.h"
#include "util/hashing.h"

namespace perfbench {

/// Order-independent fingerprint of an instance multiset: the count plus
/// the wrapping sum of a 64-bit hash of each instance's canonical
/// MakeInstanceKey. Emission order does not matter; a duplicated or a
/// dropped instance changes the sum, so a duplicate that cancels a miss in
/// the count is still caught.
struct Digest {
  uint64_t count = 0;
  uint64_t sum = 0;

  bool operator==(const Digest&) const = default;
};

/// Folds every emitted assignment into a Digest. Not a CountsOnly sink:
/// the engine delivers each assignment, as a user collecting instances
/// would receive them.
class DigestSink : public smr::InstanceSink {
 public:
  explicit DigestSink(std::span<const std::pair<int, int>> pattern_edges)
      : pattern_edges_(pattern_edges.begin(), pattern_edges.end()) {}

  void Emit(std::span<const smr::NodeId> assignment) override {
    uint64_t h = 0x6a09e667f3bcc908ULL;
    for (const smr::Edge& e : smr::MakeInstanceKey(pattern_edges_, assignment)) {
      h = smr::SplitMix64(h ^ smr::PackPair(e.first, e.second));
    }
    ++digest_.count;
    digest_.sum += smr::SplitMix64(h);
  }

  const Digest& digest() const { return digest_; }

 private:
  std::vector<std::pair<int, int>> pattern_edges_;
  Digest digest_;
};

/// Shows that the oracle catches what it exists to catch: digests of the
/// reference stream with one instance dropped, one duplicated, and one
/// dropped while another is duplicated (same count) must all differ from
/// the reference, and the unchanged stream must match it. Returns false
/// when any case is missed. Needs at least two instances.
inline bool OracleSelfCheck(
    std::span<const std::pair<int, int>> pattern_edges,
    const std::vector<std::vector<smr::NodeId>>& instances,
    const Digest& reference) {
  if (instances.size() < 2) return false;
  const size_t drop = 0;
  const size_t dup = instances.size() - 1;
  auto digest_of = [&](bool dropping, bool duplicating) {
    DigestSink sink(pattern_edges);
    for (size_t i = 0; i < instances.size(); ++i) {
      if (dropping && i == drop) continue;
      sink.Emit(instances[i]);
      if (duplicating && i == dup) sink.Emit(instances[i]);
    }
    return sink.digest();
  };
  return digest_of(false, false) == reference &&
         !(digest_of(true, false) == reference) &&
         !(digest_of(false, true) == reference) &&
         !(digest_of(true, true) == reference) &&
         digest_of(true, true).count == reference.count;
}

/// Canonical text of a job's semantic metrics — the fields
/// JobMetrics::operator== compares, generated from the metrics registry —
/// so that jobs run in different processes (the ER workloads on the
/// thread, process and spill backends) can be compared for the engine's
/// determinism contract.
inline std::string SemanticText(const smr::JobMetrics& job) {
  std::string text;
  auto put = [&text](const char* label, uint64_t value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), " %s=%" PRIu64, label, value);
    text += buf;
  };
  auto put_field = [&](const char* label, const auto& value) {
    if constexpr (std::is_same_v<std::decay_t<decltype(value)>,
                                 smr::CostCounter>) {
      put("edges_scanned", value.edges_scanned);
      put("candidates", value.candidates);
      put("index_probes", value.index_probes);
      put("cost_outputs", value.outputs);
      (void)label;
    } else {
      put(label, value);
    }
  };
  for (const smr::JobRoundMetrics& round : job.rounds) {
    text += round.name;
    const smr::MapReduceMetrics& m = round.metrics;
#define PERFBENCH_PUT_SEMANTIC(type, name, label) put_field(label, m.name);
#define PERFBENCH_SKIP_DIAGNOSTIC(type, name, label)
    SMR_MAP_REDUCE_METRICS_FIELDS(PERFBENCH_PUT_SEMANTIC,
                                  PERFBENCH_SKIP_DIAGNOSTIC)
#undef PERFBENCH_PUT_SEMANTIC
#undef PERFBENCH_SKIP_DIAGNOSTIC
    text += '\n';
  }
  return text;
}

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
