#include "graph/io.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/parse.h"

namespace smr {

Graph ReadEdgeList(std::istream& in) {
  // num_nodes = max id + 1 must itself fit in a NodeId.
  constexpr uint64_t kMaxId = std::numeric_limits<NodeId>::max() - 1;
  std::vector<Edge> edges;
  NodeId max_id = 0;
  std::string line;
  for (uint64_t line_number = 1; std::getline(in, line); ++line_number) {
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream fields(line);
    std::string u_text;
    std::string v_text;
    std::string extra;
    if (!(fields >> u_text)) continue;  // blank or comment-only line
    fields >> v_text;
    const std::optional<uint64_t> u = ParseUint64(u_text);
    const std::optional<uint64_t> v = ParseUint64(v_text);
    if (!u || !v || *u > kMaxId || *v > kMaxId || fields >> extra) {
      throw std::runtime_error("edge list line " + std::to_string(line_number) +
                               ": expected two node ids in [0, " +
                               std::to_string(kMaxId) + "], got \"" + line +
                               "\"");
    }
    edges.emplace_back(static_cast<NodeId>(*u), static_cast<NodeId>(*v));
    max_id = std::max<NodeId>(max_id, static_cast<NodeId>(std::max(*u, *v)));
  }
  const NodeId num_nodes = edges.empty() ? 0 : max_id + 1;
  return Graph(num_nodes, std::move(edges));
}

Graph ReadEdgeListFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  return ReadEdgeList(in);
}

void WriteEdgeList(const Graph& graph, std::ostream& out) {
  for (const Edge& e : graph.edges()) {
    out << e.first << ' ' << e.second << '\n';
  }
}

namespace {

constexpr char kBinaryMagic[4] = {'S', 'M', 'R', 'B'};
constexpr uint32_t kBinaryVersion = 1;

[[noreturn]] void BinaryError(const std::string& what) {
  throw std::runtime_error("binary edge list: " + what);
}

void ReadExact(std::istream& in, void* out, size_t bytes,
               const char* what) {
  in.read(static_cast<char*>(out), static_cast<std::streamsize>(bytes));
  if (static_cast<size_t>(in.gcount()) != bytes) {
    BinaryError(std::string("truncated ") + what);
  }
}

}  // namespace

void WriteBinaryEdgeList(const Graph& graph, std::ostream& out) {
  out.write(kBinaryMagic, sizeof(kBinaryMagic));
  const uint32_t version = kBinaryVersion;
  out.write(reinterpret_cast<const char*>(&version), sizeof(version));
  const uint64_t num_nodes = graph.num_nodes();
  const uint64_t num_edges = graph.num_edges();
  out.write(reinterpret_cast<const char*>(&num_nodes), sizeof(num_nodes));
  out.write(reinterpret_cast<const char*>(&num_edges), sizeof(num_edges));
  // Edge is std::pair<NodeId, NodeId>; write endpoints explicitly rather
  // than the pair object so the on-disk layout is pinned to 2 x u32.
  for (const Edge& e : graph.edges()) {
    const NodeId endpoints[2] = {e.first, e.second};
    out.write(reinterpret_cast<const char*>(endpoints), sizeof(endpoints));
  }
  if (!out) BinaryError("write failed");
}

void WriteBinaryEdgeListFile(const Graph& graph, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot open " + path);
  try {
    WriteBinaryEdgeList(graph, out);
  } catch (const std::runtime_error& error) {
    throw std::runtime_error(path + ": " + error.what());
  }
  out.flush();
  if (!out) throw std::runtime_error(path + ": write failed");
}

Graph ReadBinaryEdgeList(std::istream& in) {
  char magic[4] = {};
  ReadExact(in, magic, sizeof(magic), "header");
  if (std::memcmp(magic, kBinaryMagic, sizeof(magic)) != 0) {
    BinaryError("bad magic (not an SMRB file)");
  }
  uint32_t version = 0;
  ReadExact(in, &version, sizeof(version), "header");
  if (version != kBinaryVersion) {
    BinaryError("unsupported version " + std::to_string(version));
  }
  uint64_t num_nodes = 0;
  uint64_t num_edges = 0;
  ReadExact(in, &num_nodes, sizeof(num_nodes), "header");
  ReadExact(in, &num_edges, sizeof(num_edges), "header");
  if (num_nodes > std::numeric_limits<NodeId>::max()) {
    BinaryError("num_nodes " + std::to_string(num_nodes) +
                " exceeds the 32-bit node id space");
  }
  std::vector<Edge> edges;
  edges.reserve(num_edges);
  // Bulk-read in chunks: one istream::read per edge would dominate load
  // time for the multi-hundred-MB graphs this format exists for.
  constexpr size_t kChunkEdges = 1 << 16;
  std::vector<NodeId> chunk;
  for (uint64_t remaining = num_edges; remaining > 0;) {
    const size_t n =
        static_cast<size_t>(std::min<uint64_t>(remaining, kChunkEdges));
    chunk.resize(n * 2);
    ReadExact(in, chunk.data(), chunk.size() * sizeof(NodeId), "edges");
    for (size_t i = 0; i < n; ++i) {
      const NodeId u = chunk[2 * i];
      const NodeId v = chunk[2 * i + 1];
      if (u >= num_nodes || v >= num_nodes) {
        BinaryError("edge (" + std::to_string(u) + ", " + std::to_string(v) +
                    ") out of range for num_nodes " +
                    std::to_string(num_nodes));
      }
      edges.emplace_back(u, v);
    }
    remaining -= n;
  }
  if (in.peek() != std::char_traits<char>::eof()) {
    BinaryError("trailing bytes after the declared edges");
  }
  return Graph(static_cast<NodeId>(num_nodes), std::move(edges));
}

Graph ReadBinaryEdgeListFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  try {
    return ReadBinaryEdgeList(in);
  } catch (const std::runtime_error& error) {
    throw std::runtime_error(path + ": " + error.what());
  }
}

Graph LoadGraphFile(const std::string& path) {
  std::ifstream probe(path, std::ios::binary);
  if (!probe) throw std::runtime_error("cannot open " + path);
  char magic[4] = {};
  probe.read(magic, sizeof(magic));
  const bool binary = probe.gcount() == sizeof(magic) &&
                      std::memcmp(magic, kBinaryMagic, sizeof(magic)) == 0;
  probe.close();
  return binary ? ReadBinaryEdgeListFile(path) : ReadEdgeListFile(path);
}

}  // namespace smr
