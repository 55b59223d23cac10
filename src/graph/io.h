#ifndef SMR_GRAPH_IO_H_
#define SMR_GRAPH_IO_H_

#include <iosfwd>
#include <string>

#include "graph/graph.h"

namespace smr {

/// Reads a whitespace-separated edge list ("u v" per line, '#' comments).
/// Node ids need not be contiguous; they are kept as given and num_nodes is
/// max id + 1. A line that is not blank or a comment must hold exactly two
/// ids in [0, 2^32 - 2]; anything else throws std::runtime_error naming
/// the line number.
Graph ReadEdgeList(std::istream& in);

/// Reads an edge-list file from disk. Throws std::runtime_error on failure.
Graph ReadEdgeListFile(const std::string& path);

/// Writes "u v" per line.
void WriteEdgeList(const Graph& graph, std::ostream& out);

/// Binary edge-list format, for graphs too large to re-parse as text
/// (bench_out_of_core generates and loads these): the 8-byte header
/// "SMRB" + version, then num_nodes and num_edges as u64, then num_edges
/// pairs of u32 endpoints, all native-endian. Readers validate
/// exhaustively — bad magic, unknown version, truncation mid-header or
/// mid-edges, trailing bytes, and endpoint ids >= num_nodes all throw
/// std::runtime_error (naming the file for the *File variants) rather
/// than yielding a silently wrong graph.
void WriteBinaryEdgeList(const Graph& graph, std::ostream& out);
void WriteBinaryEdgeListFile(const Graph& graph, const std::string& path);
Graph ReadBinaryEdgeList(std::istream& in);
Graph ReadBinaryEdgeListFile(const std::string& path);

/// Loads a graph file of either format, sniffing the binary magic.
Graph LoadGraphFile(const std::string& path);

}  // namespace smr

#endif  // SMR_GRAPH_IO_H_
