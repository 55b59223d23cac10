#ifndef SMR_MAPREDUCE_INSTANCE_SINK_H_
#define SMR_MAPREDUCE_INSTANCE_SINK_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "mapreduce/input_runs.h"
#include "util/arena.h"

namespace smr {

/// An instance of the sample graph inside the data graph, identified by its
/// edge set in the data graph, canonically sorted. Two embeddings that are
/// related by an automorphism of the sample graph map to the same
/// InstanceKey, so the "each instance exactly once" guarantee of the paper
/// is checkable by comparing multisets of InstanceKeys.
using InstanceKey = std::vector<Edge>;

/// Builds the canonical key from the image edges of an embedding.
/// `pattern_edges` are the sample-graph edges (pairs of variable indices);
/// `assignment[x]` is the data-graph node bound to variable x.
InstanceKey MakeInstanceKey(std::span<const std::pair<int, int>> pattern_edges,
                            std::span<const NodeId> assignment);

/// Receives instances emitted by reducers / serial kernels.
class InstanceSink {
 public:
  virtual ~InstanceSink() = default;

  /// `assignment[x]` = data-graph node bound to sample-graph variable x.
  virtual void Emit(std::span<const NodeId> assignment) = 0;

  /// True if this sink ignores assignment contents and emission order (a
  /// pure counter). The parallel engine then skips buffering assignments in
  /// per-worker sinks and reports shard totals via EmitCount, keeping sink
  /// memory O(1) instead of O(total instances).
  virtual bool CountsOnly() const { return false; }

  /// Bulk emission of `count` instances; only invoked by the engine on
  /// sinks that return CountsOnly() == true.
  virtual void EmitCount(uint64_t count) { (void)count; }
};

/// Counts instances without storing them (benchmark mode).
class CountingSink : public InstanceSink {
 public:
  void Emit(std::span<const NodeId>) override { ++count_; }
  bool CountsOnly() const override { return true; }
  void EmitCount(uint64_t count) override { count_ += count; }
  uint64_t count() const { return count_; }

 private:
  uint64_t count_ = 0;
};

/// Buffers emitted instances in flat storage for later replay. The
/// parallel engine hands one BufferingSink to each partition so reducers
/// never contend on the caller's sink; after the workers join, the buffers
/// are replayed into the real sink in partition (ascending-key) order,
/// reproducing the serial engine's emission order exactly. Records need
/// no replay: see RecordBuffer::Splice.
class BufferingSink : public InstanceSink {
 public:
  void Emit(std::span<const NodeId> assignment) override {
    const size_t n = assignment.size();
    if (n == 0) {  // nothing to store; keep the framing stream consistent
      sizes_.push_back(0);
      return;
    }
    if (chunk_left_ < n) Grow(n);
    std::copy(assignment.begin(), assignment.end(), chunk_cursor_);
    chunk_cursor_ += n;
    chunk_left_ -= n;
    chunks_.back().used += n;
    sizes_.push_back(static_cast<uint32_t>(n));
  }

  uint64_t count() const { return sizes_.size(); }

  /// Replays every buffered assignment, in emission order, into `sink`.
  void FlushTo(InstanceSink* sink) const;

 private:
  // Node payload lives in arena chunks that never move once written (a
  // growing flat vector would memcpy the entire backlog on every doubling;
  // per-worker arenas also keep workers off the shared heap). A record never
  // spans chunks; `used` counts the nodes actually written to a chunk, so
  // FlushTo can walk the chunks in order. The small per-record size stream
  // stays a plain vector.
  struct NodeChunk {
    NodeId* data;
    size_t used;
  };

  void Grow(size_t min_nodes);

  Arena arena_;
  std::vector<NodeChunk> chunks_;
  NodeId* chunk_cursor_ = nullptr;
  size_t chunk_left_ = 0;
  size_t chunk_capacity_ = 0;
  std::vector<uint32_t> sizes_;
};

/// Fixed-arity records held in chunks: the intermediate channel a JobDriver
/// pipeline threads between rounds. A round's reducers EmitRecord() into
/// one of these, and the next round maps over it where it lies — as flat
/// nodes() when each node of a record is an input in its own right, or as
/// records<Arity>() — one input run per chunk; the buffer is never copied.
///
/// A chunk holds a whole number of records (a record never straddles two
/// chunks), and once written a chunk never moves: the in-memory shuffle
/// gives each partition its own buffer and Splice()s them together in
/// partition order by moving chunk ownership.
class RecordBuffer final : public InstanceSink {
 public:
  /// Chunk size; a chunk holds kChunkBytes / (arity x 4) records.
  static constexpr size_t kChunkBytes = size_t{64} * 1024;

  /// Throws std::invalid_argument unless 1 <= arity <= kChunkBytes / 4.
  explicit RecordBuffer(size_t arity);

  /// Appends one record. Throws std::invalid_argument when the record's
  /// size is not the arity: it would shift every record after it.
  void Emit(std::span<const NodeId> record) override {
    if (record.size() != arity_) ThrowArity(record.size());
    if (room_ == 0) AddChunk();
    std::copy(record.begin(), record.end(), cursor_);
    cursor_ += arity_;
    --room_;
    ++chunks_.back().records;
    ++size_;
  }

  size_t size() const { return size_; }
  size_t arity() const { return arity_; }
  size_t records_per_chunk() const { return per_chunk_; }

  /// Moves every chunk of `other` (same arity) behind this buffer's
  /// records, copying none; `other` is left empty.
  void Splice(RecordBuffer&& other);

  /// All records' nodes, concatenated: one run per chunk.
  InputRuns<NodeId> nodes() const { return Runs<NodeId>(); }

  /// All records, one Record<Arity> per input: one run per chunk. Throws
  /// std::invalid_argument unless Arity == arity().
  template <size_t Arity>
  InputRuns<Record<Arity>> records() const {
    if (Arity != arity_) ThrowArity(Arity);
    return Runs<Record<Arity>>();
  }

 private:
  template <typename T>
  InputRuns<T> Runs() const {
    InputRuns<T> runs;
    for (const Chunk& chunk : chunks_) {
      runs.Append({chunk.nodes.get(), chunk.records * arity_});
    }
    return runs;
  }

  struct Chunk {
    std::unique_ptr<NodeId[]> nodes;
    size_t records = 0;
  };

  [[noreturn]] void ThrowArity(size_t got) const;
  void AddChunk();

  size_t arity_;
  size_t per_chunk_;
  std::vector<Chunk> chunks_;
  NodeId* cursor_ = nullptr;
  size_t room_ = 0;  // records that still fit in the last chunk
  size_t size_ = 0;
};

/// Stores every emitted assignment (test mode).
class CollectingSink : public InstanceSink {
 public:
  void Emit(std::span<const NodeId> assignment) override {
    assignments_.emplace_back(assignment.begin(), assignment.end());
  }

  const std::vector<std::vector<NodeId>>& assignments() const {
    return assignments_;
  }

  /// Canonical instance keys (sorted, duplicates preserved) for multiset
  /// comparison against a ground-truth enumeration.
  std::vector<InstanceKey> Keys(
      std::span<const std::pair<int, int>> pattern_edges) const;

 private:
  std::vector<std::vector<NodeId>> assignments_;
};

}  // namespace smr

#endif  // SMR_MAPREDUCE_INSTANCE_SINK_H_
