#ifndef SMR_MAPREDUCE_INPUT_RUNS_H_
#define SMR_MAPREDUCE_INPUT_RUNS_H_

#include <algorithm>
#include <array>
#include <concepts>
#include <cstddef>
#include <span>
#include <stdexcept>
#include <vector>

#include "graph/graph.h"

namespace smr {

/// One fixed-arity record of a RecordBuffer (mapreduce/instance_sink.h).
template <size_t Arity>
using Record = std::array<NodeId, Arity>;

namespace engine_internal {

/// How InputRuns<T> stores its elements: as themselves, or — for
/// Record<Arity> — as Arity consecutive NodeIds that Load copies into a
/// record, so the nodes are only ever read as the NodeIds they are.
template <typename T>
struct RunLayout {
  using Stored = T;
  static constexpr size_t kStride = 1;
  static const T& Load(const T* at) { return *at; }
};

template <size_t Arity>
struct RunLayout<Record<Arity>> {
  using Stored = NodeId;
  static constexpr size_t kStride = Arity;
  static Record<Arity> Load(const NodeId* at) {
    Record<Arity> record;
    std::copy_n(at, Arity, record.begin());
    return record;
  }
};

}  // namespace engine_internal

/// A round's input: the concatenation of contiguous runs of `T`. A span
/// or vector is the one-run case (it converts implicitly); a RecordBuffer
/// hands out one run per chunk, so the next round maps the previous
/// round's records where they lie, without a replay or a copy. The view
/// does not own the runs.
template <typename T>
class InputRuns {
  using Layout = engine_internal::RunLayout<T>;

 public:
  using Stored = typename Layout::Stored;

  InputRuns() = default;

  /// One run: anything a std::span<const Stored> binds to.
  template <typename Range>
    requires std::convertible_to<const Range&, std::span<const Stored>>
  InputRuns(const Range& run) {
    Append(std::span<const Stored>(run));
  }

  /// Appends a run of whole elements (kStride stored values each) at the
  /// end of the concatenation; empty runs are dropped. Throws
  /// std::invalid_argument on a run that ends inside an element.
  void Append(std::span<const Stored> run) {
    if (run.size() % Layout::kStride != 0) {
      throw std::invalid_argument("InputRuns: a run ends inside a record");
    }
    if (run.empty()) return;
    runs_.push_back(run);
    size_ += run.size() / Layout::kStride;
  }

  /// Elements, not stored values.
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::span<const std::span<const Stored>> runs() const { return runs_; }

  /// Calls fn(element) for elements [begin, end) of the concatenation, in
  /// order: a plain loop over each run, nested in a loop over the runs.
  template <typename Fn>
  void ForEach(size_t begin, size_t end, Fn&& fn) const {
    size_t run = 0;
    while (run < runs_.size() && begin >= Elements(run)) {
      begin -= Elements(run);
      end -= Elements(run);
      ++run;
    }
    for (; run < runs_.size() && end > 0; ++run) {
      const Stored* data = runs_[run].data();
      const size_t stop = std::min(end, Elements(run));
      for (size_t i = begin; i < stop; ++i) {
        fn(Layout::Load(data + i * Layout::kStride));
      }
      begin = 0;
      end -= stop;
    }
  }

  template <typename Fn>
  void ForEach(Fn&& fn) const {
    ForEach(0, size_, fn);
  }

 private:
  size_t Elements(size_t run) const {
    return runs_[run].size() / Layout::kStride;
  }

  std::vector<std::span<const Stored>> runs_;
  size_t size_ = 0;
};

}  // namespace smr

#endif  // SMR_MAPREDUCE_INPUT_RUNS_H_
