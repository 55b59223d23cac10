#include "serial/decomposition.h"

#include <algorithm>
#include <sstream>

#include "serial/matcher.h"
#include "serial/odd_cycle.h"

namespace smr {

int Decomposition::IsolatedCount() const {
  int count = 0;
  for (const Part& part : parts) {
    if (part.kind == Kind::kIsolated) ++count;
  }
  return count;
}

std::string Decomposition::ToString() const {
  std::ostringstream os;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) os << " | ";
    switch (parts[i].kind) {
      case Kind::kIsolated:
        os << "node{";
        break;
      case Kind::kEdge:
        os << "edge{";
        break;
      case Kind::kOddHamiltonian:
        os << "oddham{";
        break;
    }
    for (size_t j = 0; j < parts[i].vars.size(); ++j) {
      if (j > 0) os << ",";
      os << parts[i].vars[j];
    }
    os << "}";
  }
  return os.str();
}

namespace {

/// Classifies a block of variables; returns the Part or nullopt if the block
/// is not an admissible part.
std::optional<Decomposition::Part> ClassifyBlock(const SampleGraph& pattern,
                                                 const std::vector<int>& block) {
  if (block.size() == 1) {
    return Decomposition::Part{Decomposition::Kind::kIsolated, block};
  }
  if (block.size() == 2) {
    if (pattern.HasEdge(block[0], block[1])) {
      return Decomposition::Part{Decomposition::Kind::kEdge, block};
    }
    return std::nullopt;
  }
  if (block.size() % 2 == 0) return std::nullopt;
  // Odd block of size >= 3: the induced subgraph must contain a Hamilton
  // cycle. Build the relabeled induced pattern and search.
  std::vector<std::pair<int, int>> induced;
  for (size_t i = 0; i < block.size(); ++i) {
    for (size_t j = i + 1; j < block.size(); ++j) {
      if (pattern.HasEdge(block[i], block[j])) {
        induced.emplace_back(static_cast<int>(i), static_cast<int>(j));
      }
    }
  }
  SampleGraph induced_pattern(static_cast<int>(block.size()),
                              std::move(induced));
  const std::vector<int> ham = FindHamiltonCycle(induced_pattern);
  if (ham.empty()) return std::nullopt;
  std::vector<int> vars_in_ham_order;
  vars_in_ham_order.reserve(block.size());
  for (int local : ham) vars_in_ham_order.push_back(block[local]);
  return Decomposition::Part{Decomposition::Kind::kOddHamiltonian,
                             vars_in_ham_order};
}

struct PartitionSearch {
  const SampleGraph* pattern;
  std::vector<std::vector<int>> blocks;
  std::optional<Decomposition> best;
  int best_isolated = 1 << 20;
  size_t best_parts = 1 << 20;

  void Consider() {
    Decomposition candidate;
    for (const auto& block : blocks) {
      auto part = ClassifyBlock(*pattern, block);
      if (!part.has_value()) return;
      candidate.parts.push_back(std::move(*part));
    }
    const int isolated = candidate.IsolatedCount();
    if (isolated < best_isolated ||
        (isolated == best_isolated && candidate.parts.size() < best_parts)) {
      best_isolated = isolated;
      best_parts = candidate.parts.size();
      best = std::move(candidate);
    }
  }

  void Recurse(int var) {
    if (var == pattern->num_vars()) {
      Consider();
      return;
    }
    // Index-based: deeper recursion appends to `blocks`, which would
    // invalidate range-for references.
    const size_t existing = blocks.size();
    for (size_t i = 0; i < existing; ++i) {
      blocks[i].push_back(var);
      Recurse(var + 1);
      blocks[i].pop_back();
    }
    blocks.push_back({var});
    Recurse(var + 1);
    blocks.pop_back();
  }
};

/// Enumerates all embeddings of one part into the data graph. Embeddings are
/// aligned with part.vars and NOT deduplicated across part automorphisms:
/// Lemma 6.1's lexicographic-first rule at combination time needs every
/// concrete assignment available.
std::vector<std::vector<NodeId>> PartEmbeddings(const SampleGraph& pattern,
                                                const Decomposition::Part& part,
                                                const Graph& graph,
                                                const NodeOrder& order,
                                                CostCounter* cost) {
  std::vector<std::vector<NodeId>> result;
  switch (part.kind) {
    case Decomposition::Kind::kIsolated: {
      for (NodeId u = 0; u < graph.num_nodes(); ++u) result.push_back({u});
      break;
    }
    case Decomposition::Kind::kEdge: {
      for (const Edge& e : graph.edges()) {
        if (cost != nullptr) ++cost->edges_scanned;
        result.push_back({e.first, e.second});
        result.push_back({e.second, e.first});
      }
      break;
    }
    case Decomposition::Kind::kOddHamiltonian: {
      const int len = static_cast<int>(part.vars.size());
      // Chords of the part: edges of S inside the part that are not on the
      // Hamilton cycle.
      std::vector<std::pair<int, int>> chords;  // positions in part.vars
      for (int i = 0; i < len; ++i) {
        for (int j = i + 1; j < len; ++j) {
          const bool on_cycle =
              (j == i + 1) || (i == 0 && j == len - 1);
          if (!on_cycle && pattern.HasEdge(part.vars[i], part.vars[j])) {
            chords.emplace_back(i, j);
          }
        }
      }
      EnumerateOddCycles(
          graph, order, (len - 1) / 2,
          [&](const std::vector<NodeId>& cycle) {
            // All 2*len wraps of the part's Hamilton cycle onto the data
            // cycle; keep those whose chords exist.
            std::vector<NodeId> embedding(len);
            for (int start = 0; start < len; ++start) {
              for (int direction : {1, -1}) {
                for (int i = 0; i < len; ++i) {
                  const int pos =
                      ((start + direction * i) % len + len) % len;
                  embedding[i] = cycle[pos];
                }
                bool ok = true;
                for (const auto& [i, j] : chords) {
                  if (cost != nullptr) ++cost->index_probes;
                  if (!graph.HasEdge(embedding[i], embedding[j])) {
                    ok = false;
                    break;
                  }
                }
                if (ok) result.push_back(embedding);
              }
            }
          },
          cost);
      break;
    }
  }
  return result;
}

}  // namespace

std::optional<Decomposition> DecomposeSample(const SampleGraph& pattern) {
  if (pattern.num_vars() == 0) return std::nullopt;
  PartitionSearch search;
  search.pattern = &pattern;
  search.Recurse(0);
  return search.best;
}

uint64_t EnumerateByDecomposition(const SampleGraph& pattern,
                                  const Decomposition& decomposition,
                                  const Graph& graph, InstanceSink* sink,
                                  CostCounter* cost) {
  const int p = pattern.num_vars();
  const NodeOrder order = NodeOrder::ByDegree(graph);
  const auto& automorphisms = pattern.Automorphisms();

  // Enumerate instances of every part up front (Lemma 6.1 pairs instances of
  // the two sides; we generalize to any number of parts).
  std::vector<std::vector<std::vector<NodeId>>> part_embeddings;
  part_embeddings.reserve(decomposition.parts.size());
  for (const auto& part : decomposition.parts) {
    part_embeddings.push_back(
        PartEmbeddings(pattern, part, graph, order, cost));
  }

  // Cross edges of S from part t back to parts < t, as variable pairs.
  std::vector<std::vector<std::pair<int, int>>> cross_edges(
      decomposition.parts.size());
  {
    std::vector<int> part_of(p, -1);
    for (size_t t = 0; t < decomposition.parts.size(); ++t) {
      for (int v : decomposition.parts[t].vars) part_of[v] = static_cast<int>(t);
    }
    for (const auto& [a, b] : pattern.edges()) {
      if (part_of[a] == part_of[b]) continue;
      const int later = std::max(part_of[a], part_of[b]);
      cross_edges[later].emplace_back(a, b);
    }
  }

  std::vector<NodeId> assignment(p, 0);
  std::vector<bool> used_any;  // per data node is too big; use a small list
  std::vector<NodeId> used_nodes;
  uint64_t found = 0;

  std::function<void(size_t)> combine = [&](size_t t) {
    if (t == decomposition.parts.size()) {
      // Lexicographic-first rule over the full automorphism group.
      if (!IsCanonicalEmbedding(assignment, automorphisms)) return;
      ++found;
      if (cost != nullptr) ++cost->outputs;
      if (sink != nullptr) sink->Emit(assignment);
      return;
    }
    const auto& part = decomposition.parts[t];
    for (const auto& embedding : part_embeddings[t]) {
      if (cost != nullptr) ++cost->candidates;
      // Step (1): node-disjointness against earlier parts.
      bool ok = true;
      for (NodeId node : embedding) {
        for (NodeId used : used_nodes) {
          if (node == used) {
            ok = false;
            break;
          }
        }
        if (!ok) break;
      }
      if (!ok) continue;
      for (size_t i = 0; i < part.vars.size(); ++i) {
        assignment[part.vars[i]] = embedding[i];
      }
      // Step (2): cross edges back to earlier parts must exist in G.
      for (const auto& [a, b] : cross_edges[t]) {
        if (cost != nullptr) ++cost->index_probes;
        if (!graph.HasEdge(assignment[a], assignment[b])) {
          ok = false;
          break;
        }
      }
      if (!ok) continue;
      const size_t used_before = used_nodes.size();
      used_nodes.insert(used_nodes.end(), embedding.begin(), embedding.end());
      combine(t + 1);
      used_nodes.resize(used_before);
    }
  };
  combine(0);
  return found;
}

}  // namespace smr
