#include "mapreduce/instance_sink.h"

#include <stdexcept>
#include <string>

namespace smr {

InstanceKey MakeInstanceKey(std::span<const std::pair<int, int>> pattern_edges,
                            std::span<const NodeId> assignment) {
  InstanceKey key;
  key.reserve(pattern_edges.size());
  for (const auto& [a, b] : pattern_edges) {
    NodeId u = assignment[a];
    NodeId v = assignment[b];
    if (u > v) std::swap(u, v);
    key.emplace_back(u, v);
  }
  std::sort(key.begin(), key.end());
  return key;
}

void BufferingSink::Grow(size_t min_nodes) {
  constexpr size_t kFirstChunkNodes = 1024;
  size_t nodes = std::max(chunk_capacity_ * 2, kFirstChunkNodes);
  while (nodes < min_nodes) nodes *= 2;
  chunk_capacity_ = nodes;
  NodeId* data = arena_.AllocateArray<NodeId>(nodes);
  chunks_.push_back(NodeChunk{data, 0});
  chunk_cursor_ = data;
  chunk_left_ = nodes;
}

void BufferingSink::FlushTo(InstanceSink* sink) const {
  size_t chunk = 0;
  size_t offset = 0;
  for (const uint32_t size : sizes_) {
    if (size == 0) {
      sink->Emit(std::span<const NodeId>());
      continue;
    }
    // Records never span chunks: Emit opens a fresh chunk when one does not
    // fit, so a chunk's tail slack means "advance".
    while (offset + size > chunks_[chunk].used) {
      ++chunk;
      offset = 0;
    }
    sink->Emit(std::span<const NodeId>(chunks_[chunk].data + offset, size));
    offset += size;
  }
}

RecordBuffer::RecordBuffer(size_t arity)
    : arity_(arity),
      per_chunk_(arity == 0 ? 0 : kChunkBytes / (arity * sizeof(NodeId))) {
  if (per_chunk_ == 0) {
    throw std::invalid_argument("RecordBuffer: arity " + std::to_string(arity) +
                                " does not fit a chunk");
  }
}

void RecordBuffer::ThrowArity(size_t got) const {
  throw std::invalid_argument("RecordBuffer: a record of " +
                              std::to_string(got) +
                              " nodes on a channel of arity " +
                              std::to_string(arity_));
}

void RecordBuffer::AddChunk() {
  chunks_.push_back(
      Chunk{std::make_unique_for_overwrite<NodeId[]>(per_chunk_ * arity_), 0});
  cursor_ = chunks_.back().nodes.get();
  room_ = per_chunk_;
}

void RecordBuffer::Splice(RecordBuffer&& other) {
  if (other.arity_ != arity_) ThrowArity(other.arity_);
  if (other.size_ == 0) return;
  chunks_.insert(chunks_.end(), std::make_move_iterator(other.chunks_.begin()),
                 std::make_move_iterator(other.chunks_.end()));
  size_ += other.size_;
  // The next Emit opens a fresh chunk behind the spliced ones.
  cursor_ = nullptr;
  room_ = 0;
  other.chunks_.clear();
  other.cursor_ = nullptr;
  other.room_ = 0;
  other.size_ = 0;
}

std::vector<InstanceKey> CollectingSink::Keys(
    std::span<const std::pair<int, int>> pattern_edges) const {
  std::vector<InstanceKey> keys;
  keys.reserve(assignments_.size());
  for (const auto& assignment : assignments_) {
    keys.push_back(MakeInstanceKey(pattern_edges, assignment));
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

}  // namespace smr
