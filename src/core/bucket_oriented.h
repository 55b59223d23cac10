#ifndef SMR_CORE_BUCKET_ORIENTED_H_
#define SMR_CORE_BUCKET_ORIENTED_H_

#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "cq/conjunctive_query.h"
#include "graph/graph.h"
#include "graph/sample_graph.h"
#include "mapreduce/execution_policy.h"
#include "mapreduce/instance_sink.h"
#include "mapreduce/job.h"
#include "mapreduce/metrics.h"
#include "util/combinatorics.h"
#include "util/hashing.h"

namespace smr {

/// The bucket scheme of Section 4.5, shared by every bucket-oriented
/// enumerator: undirected patterns (BucketOrientedEnumerate), Section 2.3's
/// ordered-bucket triangles, and Section 8's labeled and directed patterns.
/// One hash function h with b buckets; one reducer per nondecreasing
/// sequence of p bucket numbers — C(b+p-1, p) of them (Theorem 4.2) — keyed
/// by its lexicographic rank; every edge shipped to the C(b+p-3, p-2)
/// reducers whose multiset holds both its endpoints' buckets. A reducer
/// keeps a result only when the sorted buckets of its nodes are the
/// reducer's own multiset, so each instance is emitted exactly once.
///
/// Reducer keys are combinatorial ranks, not base-b packings: ranks are
/// dense in [0, key_space), which the partitioned shuffle needs for
/// balanced key ranges, and cannot wrap a uint64_t while the key space
/// itself fits (the packing wrapped once b^p > 2^64 and fused reducers).
class BucketScheme {
 public:
  /// Throws std::invalid_argument unless b >= 1, p >= 2 and C(b+p-1, p)
  /// fits in 64 bits. Enumerators build the scheme before generating CQs or
  /// automorphisms, so bad parameters fail before any expensive work.
  BucketScheme(int buckets, int p, uint64_t seed);

  /// The constructor's checks alone, for callers that must reject bad
  /// parameters before preparing the enumerator's inputs.
  static void Validate(int buckets, int p);

  const BucketHasher& hasher() const { return hasher_; }
  uint64_t key_space() const { return key_space_; }

  /// Pairs shipped per edge, C(b+p-3, p-2): the round's sizing hint.
  double replication() const { return replication_; }

  /// Calls `emit(key)` for every reducer that needs the edge {u, v}: the
  /// multisets {h(u), h(v)} + P for every nondecreasing padding P of p-2
  /// buckets, in lexicographic order of P.
  template <typename Emit>
  void ForEachReducer(NodeId u, NodeId v, Emit&& emit) const {
    int i = hasher_.Bucket(u);
    int j = hasher_.Bucket(v);
    if (i > j) std::swap(i, j);
    if (p_ == 3) {
      // The triangle hot path: the one padding bucket w slots into the
      // sorted triple in closed form.
      for (int w = 0; w < buckets_; ++w) {
        emit(w < i   ? RankNondecreasing3(w, i, j, buckets_)
             : w < j ? RankNondecreasing3(i, w, j, buckets_)
                     : RankNondecreasing3(i, j, w, buckets_));
      }
      return;
    }
    std::vector<int> multiset;
    multiset.reserve(p_);
    for (const std::vector<int>& padding : paddings_) {
      emit(PaddedKey(padding, i, j, &multiset));
    }
  }

  /// Ownership test of reducer `key`, called on a result's global nodes:
  /// true iff their sorted buckets are the reducer's own multiset. Of all
  /// the reducers that receive an instance's edges, only that one keeps it.
  class Ownership {
   public:
    bool operator()(std::span<const NodeId> nodes);

   private:
    friend class BucketScheme;
    Ownership(const BucketHasher& hasher, std::vector<int> own)
        : hasher_(hasher), own_(std::move(own)) {}

    const BucketHasher& hasher_;
    std::vector<int> own_;
    std::vector<int> scratch_;  // reused across results
  };

  Ownership OwnershipOf(uint64_t key) const;

 private:
  // Key of the multiset padding + {i, j}; `multiset` is scratch.
  uint64_t PaddedKey(const std::vector<int>& padding, int i, int j,
                     std::vector<int>* multiset) const;

  int buckets_;
  int p_;
  BucketHasher hasher_;
  uint64_t key_space_;
  double replication_;
  // The p-2 bucket paddings of the generic fan-out (empty when p = 3).
  std::vector<std::vector<int>> paddings_;
};

/// ReducerSink's default extra predicate: keep everything.
struct KeepAll {
  bool operator()(std::span<const NodeId> /*global*/) const { return true; }
};

/// The sink a reducer wraps around its local kernel: maps the kernel's
/// local node ids through `local_to_global`, drops results that `keep`
/// rejects (the labeled enumerator's label check) or that the reducer does
/// not own (`owns`, e.g. BucketScheme::OwnershipOf(key)), and emits the
/// rest as job results.
template <typename Owns, typename Keep = KeepAll>
class ReducerSink final : public InstanceSink {
 public:
  ReducerSink(std::span<const NodeId> local_to_global, ReduceContext* context,
              Owns owns, Keep keep = {})
      : local_to_global_(local_to_global),
        context_(context),
        owns_(std::move(owns)),
        keep_(std::move(keep)) {}

  void Emit(std::span<const NodeId> assignment) override {
    global_.resize(assignment.size());
    for (size_t i = 0; i < assignment.size(); ++i) {
      global_[i] = local_to_global_[assignment[i]];
    }
    if (!keep_(std::span<const NodeId>(global_))) return;
    if (!owns_(std::span<const NodeId>(global_))) return;
    context_->EmitInstance(global_);
  }

 private:
  std::span<const NodeId> local_to_global_;
  ReduceContext* context_;
  Owns owns_;
  Keep keep_;
  std::vector<NodeId> global_;
};

/// Bucket-oriented processing (Section 4.5) for an arbitrary sample graph S
/// with p nodes on the BucketScheme above, with nodes ordered by
/// (bucket, id) as in Section 2.3. Each reducer evaluates the whole CQ set
/// for S (Section 3) on its local subgraph, through CqReducer.
///
/// `cqs` must be the CQ set for `pattern` (from CqsForSample); it is taken
/// as a parameter so callers can reuse it across runs. If `job` is
/// non-null it receives the JobMetrics of the (single-round) pipeline.
MapReduceMetrics BucketOrientedEnumerate(
    const SampleGraph& pattern, std::span<const ConjunctiveQuery> cqs,
    const Graph& graph, int buckets, uint64_t seed, InstanceSink* sink,
    const ExecutionPolicy& policy = ExecutionPolicy::Serial(),
    JobMetrics* job = nullptr);

/// The generalization of the Partition algorithm to p-node sample graphs
/// that Section 4.5 compares against: nodes are partitioned into b groups,
/// one reducer per p-subset of distinct groups, and every edge goes to all
/// subsets containing its (one or two) groups. Implemented as the baseline
/// for the 1 + 1/(p-1) replication-ratio experiment. Requires b >= p >= 3.
MapReduceMetrics GeneralizedPartitionEnumerate(
    const SampleGraph& pattern, std::span<const ConjunctiveQuery> cqs,
    const Graph& graph, int num_groups, uint64_t seed, InstanceSink* sink,
    const ExecutionPolicy& policy = ExecutionPolicy::Serial(),
    JobMetrics* job = nullptr);

/// Calls `fn` once for every strictly increasing p-subset of [0, b) that
/// contains all of `required` (sorted, distinct), in lexicographic order.
/// This is the generalized-Partition mapper's destination set: extending
/// only subsets of the b-|required| non-required groups, it does
/// C(b-|required|, p-|required|) work — the old mapper enumerated all
/// C(b, p) subsets and filtered, which dwarfs the useful emissions as soon
/// as b grows past p. Exposed for the equivalence regression test.
void ForEachGroupSubsetContaining(
    int b, int p, std::span<const int> required,
    const std::function<void(const std::vector<int>&)>& fn);

/// Ownership under the Partition schemes (p-subsets of the b groups
/// `groups` hashes to): the one subset that keeps a result on the global
/// `nodes` is their distinct groups padded with the smallest unused group
/// ids. Every subset containing those groups receives the result's edges.
std::vector<int> CanonicalGroupSubset(const BucketHasher& groups,
                                      std::span<const NodeId> nodes, int p);

}  // namespace smr

#endif  // SMR_CORE_BUCKET_ORIENTED_H_
