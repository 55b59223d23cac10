#ifndef SMR_MAPREDUCE_FAULT_INJECTION_H_
#define SMR_MAPREDUCE_FAULT_INJECTION_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "mapreduce/spill.h"
#include "util/enum_registry.h"

namespace smr {

/// Deterministic fault-injection harness for the process backend
/// (mapreduce/process_backend.h) — the generalization of PR 6's
/// SpillBackend faults to every failure mode a forked worker round has:
/// a child killed after N records or frames, a link that stalls, a
/// corrupted frame, a failed fork, a failed run-file append. A FaultPlan
/// is a list of (role, kind, worker, after, times) specs; the coordinator
/// consults the installed FaultInjector at every worker (re)spawn, so a
/// plan's effect is a pure function of the plan — each injected scenario
/// is exactly reproducible, which is what lets tests assert
/// byte-identical recovery.
///
/// Installation: ExecutionPolicy::fault_injector (test hook), or the
/// SMR_FAULT_PLAN environment variable for CI smoke runs (see
/// ParseFaultPlan for the grammar). The injector is consulted only by the
/// process backend's single-threaded coordinator; it is not thread-safe.

/// Which side of the round a fault targets. Registered names are the
/// SMR_FAULT_PLAN grammar tokens (see util/enum_registry.h).
#define SMR_WORKER_ROLES(X)                                                \
  X(kMap, 0, "map")                                                        \
  X(kReduce, 1, "reduce")

enum class WorkerRole { SMR_WORKER_ROLES(SMR_ENUM_DEFINE_ENTRY) };
SMR_DEFINE_ENUM_TRAITS(WorkerRole, SMR_WORKER_ROLES);

inline const char* WorkerRoleName(WorkerRole role) {
  return EnumTraits<WorkerRole>::Name(role);
}

/// What the armed fault does. Registered names are the SMR_FAULT_PLAN
/// grammar tokens; ParseFaultPlan and FaultKindName both read the
/// registry, so a new fault kind round-trips with zero parser edits.
#define SMR_FAULT_KINDS(X)                                                 \
  /* The child raises SIGKILL — a map child once `after_frames` pair      \
     records are in its run file, a reduce child after delivering          \
     `after_frames` output frames; either way before its end-of-stream     \
     frame (a map child's run-index frame) — the mid-stream crash. */      \
  X(kKillAfterFrames, 0, "kill")                                           \
  /* The child stops at the same point as kill and sleeps forever — only  \
     a liveness deadline can unwedge the coordinator. */                   \
  X(kStallLink, 1, "stall")                                                \
  /* The child overwrites a frame's kind byte with an invalid value and    \
     keeps going — a map child its run-index frame, a reduce child output  \
     frame `after_frames`. The coordinator's strict decode must reject     \
     the stream loudly, never decode around it. */                         \
  X(kCorruptFrame, 2, "corrupt")                                           \
  /* The coordinator's fork of this worker fails (as if EAGAIN). */        \
  X(kFailSpawn, 3, "spawnfail")                                            \
  /* The map child's own appends to its run file fail, so the attempt      \
     fails with the child's error and is retried (any map child that       \
     emits a pair appends, with or without a shuffle budget). */           \
  X(kFailSpillAppend, 4, "spillfail")

enum class FaultKind { SMR_FAULT_KINDS(SMR_ENUM_DEFINE_ENTRY) };
SMR_DEFINE_ENUM_TRAITS(FaultKind, SMR_FAULT_KINDS);

const char* FaultKindName(FaultKind kind);

struct FaultSpec {
  WorkerRole role = WorkerRole::kMap;
  FaultKind kind = FaultKind::kKillAfterFrames;
  /// Worker index within the role's crew.
  unsigned worker = 0;
  /// Records or frames the child delivers before the fault fires (kill/
  /// stall; see the kinds above) or the output frame it corrupts (a reduce
  /// corrupt). When the plan text omits `after=`, a deterministic value in
  /// [0, 8) is derived from the plan seed and the spec's position.
  uint64_t after_frames = 0;
  /// How many (re)spawns of this worker the fault hits before burning out.
  /// 1 (the default) fails the first attempt and lets the retry succeed;
  /// >= the policy's max_attempts exhausts the retry budget.
  unsigned times = 1;
};

struct FaultPlan {
  std::vector<FaultSpec> faults;
  uint64_t seed = 1;
};

/// Parses the SMR_FAULT_PLAN grammar; throws std::invalid_argument (with a
/// message starting "fault plan:") on anything malformed.
///
///   plan  := item (';' item)*
///   item  := spec | "seed=" N
///   spec  := role ':' kind ':' worker (':' opt)*
///   role  := "map" | "reduce"
///   kind  := "kill" | "stall" | "corrupt" | "spawnfail" | "spillfail"
///   opt   := "after=" N | "times=" N
///
/// Examples: "map:kill:0", "reduce:stall:1:after=3",
/// "map:corrupt:2:after=5:times=2;seed=7". spillfail targets a map
/// child's run-file appends, so its role must be map.
FaultPlan ParseFaultPlan(std::string_view text);

/// What one (re)spawned worker is armed with: the child-side kinds carry
/// it into the fork; the coordinator-side kinds act on it directly.
struct ArmedFault {
  FaultKind kind = FaultKind::kKillAfterFrames;
  uint64_t after_frames = 0;
};

/// Executes a FaultPlan deterministically against the process backend's
/// spawn/collect lifecycle. All bookkeeping lives in the coordinator: a spec
/// fires on a matching worker's spawn while its `times` budget lasts, so
/// the sequence of injected faults is identical on every run of the same
/// plan against the same job.
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);
  ~FaultInjector();
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Called by the coordinator for every worker (re)spawn; returns the
  /// fault this attempt is armed with (consuming one of the matching
  /// spec's `times`), or nullopt for a clean attempt.
  std::optional<ArmedFault> ArmSpawn(WorkerRole role, unsigned worker);

  /// Wraps `inner` (null = the process default) so that spill appends
  /// throw while a spill failure is armed. The wrapper is owned by the
  /// injector and stays valid for its lifetime.
  SpillBackend* WrapSpillBackend(SpillBackend* inner);

  /// Makes every append to a wrapped spill file throw. A map child armed
  /// with kFailSpillAppend calls it on its own copy of the injector, so
  /// only that child's run-file appends fail.
  void ArmSpillFailure() { spill_failure_armed_ = true; }
  bool spill_failure_armed() const { return spill_failure_armed_; }

  /// Records that an armed fault fired where ArmSpawn could not see it
  /// (the coordinator calls it when a spillfail-armed map attempt fails).
  void CountFire(FaultKind kind);

  /// Total faults armed/fired so far, overall and per kind — the counters
  /// tests check retry metrics against.
  uint64_t fires() const { return fires_; }
  uint64_t fires(FaultKind kind) const;

  const FaultPlan& plan() const { return plan_; }

 private:
  class FaultySpillBackend;

  FaultPlan plan_;
  std::vector<unsigned> remaining_;  // per-spec `times` budget left
  std::unique_ptr<FaultySpillBackend> spill_wrapper_;
  bool spill_failure_armed_ = false;
  uint64_t fires_ = 0;
  uint64_t kind_fires_[EnumTraits<FaultKind>::kCount] = {};
};

/// The process-wide injector parsed from $SMR_FAULT_PLAN; null when the
/// variable is unset or empty. Re-parsed when the variable's value changes
/// (so tests can swap plans), cached otherwise (so one plan's `times`
/// bookkeeping spans all rounds of a job). A malformed plan throws — CI
/// must never silently run fault-free. Not thread-safe; called only from
/// the coordinator thread.
FaultInjector* EnvFaultInjector();

}  // namespace smr

#endif  // SMR_MAPREDUCE_FAULT_INJECTION_H_
