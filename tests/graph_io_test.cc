// The edge-list formats (graph/io): a text-loaded graph, written as
// binary and loaded back, must equal the text load exactly; every way a
// binary file can be malformed — wrong magic, unknown version, truncation
// at each boundary, trailing bytes, out-of-range endpoints — and every
// malformed text line must throw std::runtime_error, never yield a
// silently wrong graph; and LoadGraphFile must route both formats by
// sniffing, not by extension.

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "graph/io.h"

namespace smr {
namespace {

/// Temp file path that cleans up after the test.
class ScratchFile {
 public:
  explicit ScratchFile(const std::string& name)
      : path_(testing::TempDir() + name) {}
  ~ScratchFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

bool SameGraph(const Graph& a, const Graph& b) {
  return a.num_nodes() == b.num_nodes() && a.edges() == b.edges();
}

TEST(GraphIo, BinaryRoundTripEqualsTextLoad) {
  const Graph generated = ErdosRenyi(500, 2000, 99);

  // Text round trip first, as the baseline.
  ScratchFile text("graph_io_roundtrip.txt");
  {
    std::ofstream out(text.path());
    WriteEdgeList(generated, out);
  }
  const Graph from_text = ReadEdgeListFile(text.path());
  EXPECT_EQ(from_text.edges(), generated.edges());

  // Binary round trip must reproduce the text load bit for bit — including
  // num_nodes, which the text loader infers as max id + 1 but the binary
  // header carries explicitly.
  ScratchFile binary("graph_io_roundtrip.smrb");
  WriteBinaryEdgeListFile(from_text, binary.path());
  const Graph from_binary = ReadBinaryEdgeListFile(binary.path());
  EXPECT_TRUE(SameGraph(from_binary, from_text));
}

TEST(GraphIo, BinaryPreservesIsolatedTailNodes) {
  // num_nodes > max endpoint + 1 survives the round trip (the text format
  // cannot represent this; the binary header can).
  const Graph graph(10, {{0, 1}, {1, 2}});
  ScratchFile file("graph_io_tail.smrb");
  WriteBinaryEdgeListFile(graph, file.path());
  const Graph loaded = ReadBinaryEdgeListFile(file.path());
  EXPECT_EQ(loaded.num_nodes(), 10u);
  EXPECT_EQ(loaded.edges(), graph.edges());
}

TEST(GraphIo, EmptyGraphRoundTrips) {
  const Graph graph(0, {});
  ScratchFile file("graph_io_empty.smrb");
  WriteBinaryEdgeListFile(graph, file.path());
  const Graph loaded = ReadBinaryEdgeListFile(file.path());
  EXPECT_EQ(loaded.num_nodes(), 0u);
  EXPECT_TRUE(loaded.edges().empty());
}

TEST(GraphIo, LoadGraphFileSniffsBothFormats) {
  const Graph graph = ErdosRenyi(200, 800, 5);

  ScratchFile text("graph_io_sniff_text");  // Deliberately no extension.
  {
    std::ofstream out(text.path());
    WriteEdgeList(graph, out);
  }
  EXPECT_TRUE(SameGraph(LoadGraphFile(text.path()), graph));

  ScratchFile binary("graph_io_sniff_binary");
  WriteBinaryEdgeListFile(graph, binary.path());
  EXPECT_TRUE(SameGraph(LoadGraphFile(binary.path()), graph));

  EXPECT_THROW(LoadGraphFile("/nonexistent/graph/file"), std::runtime_error);
}

TEST(GraphIo, BadMagicThrows) {
  ScratchFile file("graph_io_bad_magic.smrb");
  WriteBytes(file.path(), "NOPE" + std::string(20, '\0'));
  EXPECT_THROW(ReadBinaryEdgeListFile(file.path()), std::runtime_error);
}

TEST(GraphIo, UnknownVersionThrows) {
  const Graph graph(3, {{0, 1}});
  ScratchFile file("graph_io_bad_version.smrb");
  WriteBinaryEdgeListFile(graph, file.path());
  std::string bytes = ReadBytes(file.path());
  bytes[4] = static_cast<char>(0x7f);  // Version field follows the magic.
  WriteBytes(file.path(), bytes);
  EXPECT_THROW(ReadBinaryEdgeListFile(file.path()), std::runtime_error);
}

TEST(GraphIo, TruncationAtEveryBoundaryThrows) {
  const Graph graph(6, {{0, 1}, {2, 3}, {4, 5}});
  ScratchFile file("graph_io_truncated.smrb");
  WriteBinaryEdgeListFile(graph, file.path());
  const std::string bytes = ReadBytes(file.path());
  // Mid-magic, mid-version, mid-counts, zero edges present, mid-edge, and
  // one edge short.
  const size_t cuts[] = {2, 6, 12, 24, 28, bytes.size() - 8};
  for (const size_t cut : cuts) {
    ASSERT_LT(cut, bytes.size());
    WriteBytes(file.path(), bytes.substr(0, cut));
    EXPECT_THROW(ReadBinaryEdgeListFile(file.path()), std::runtime_error)
        << "cut=" << cut;
  }
}

TEST(GraphIo, TrailingBytesThrow) {
  const Graph graph(4, {{0, 1}, {2, 3}});
  ScratchFile file("graph_io_trailing.smrb");
  WriteBinaryEdgeListFile(graph, file.path());
  WriteBytes(file.path(), ReadBytes(file.path()) + "junk");
  EXPECT_THROW(ReadBinaryEdgeListFile(file.path()), std::runtime_error);
}

TEST(GraphIo, OutOfRangeEndpointThrows) {
  const Graph graph(4, {{0, 1}, {2, 3}});
  ScratchFile file("graph_io_bad_edge.smrb");
  WriteBinaryEdgeListFile(graph, file.path());
  std::string bytes = ReadBytes(file.path());
  // Overwrite the last edge's second endpoint (final 4 bytes) with 4 —
  // equal to num_nodes, so one past the valid range.
  const uint32_t bad = 4;
  bytes.replace(bytes.size() - 4, 4, reinterpret_cast<const char*>(&bad), 4);
  WriteBytes(file.path(), bytes);
  EXPECT_THROW(ReadBinaryEdgeListFile(file.path()), std::runtime_error);
}

TEST(GraphIo, ErrorsNameTheFile) {
  ScratchFile file("graph_io_named.smrb");
  WriteBytes(file.path(), "garbage");
  try {
    ReadBinaryEdgeListFile(file.path());
    FAIL() << "garbage file did not throw";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find(file.path()), std::string::npos)
        << "got: " << error.what();
  }
}

TEST(GraphIo, MalformedTextLinesThrow) {
  // A negative id, an id beyond the 32-bit space, a non-numeric line, and
  // a line with a third id: each must be rejected by line number, not
  // crash, wrap to another node, or be skipped.
  const struct {
    const char* text;
    const char* where;
  } cases[] = {
      {"0 1\n1 -2\n", "line 2:"},
      {"0 1\n1 2\n4294967298 0\n", "line 3:"},
      {"hello\n0 1\n", "line 1:"},
      {"0 1 2\n", "line 1:"},
  };
  for (const auto& c : cases) {
    std::istringstream in(c.text);
    try {
      ReadEdgeList(in);
      ADD_FAILURE() << "no error for " << c.text;
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what()).find(c.where), std::string::npos)
          << "got: " << error.what();
    }
  }
}

}  // namespace
}  // namespace smr
