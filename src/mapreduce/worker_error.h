#ifndef SMR_MAPREDUCE_WORKER_ERROR_H_
#define SMR_MAPREDUCE_WORKER_ERROR_H_

#include <stdexcept>
#include <string>

#include "util/enum_registry.h"

namespace smr {

/// Why a process-backend worker attempt failed — the structured taxonomy
/// behind every retry decision and every surfaced WorkerError. One enum for
/// both roles; the role travels separately.
///
/// Registry (see util/enum_registry.h): the list below is the single
/// source for the enum definition, kCount, and the diagnostic names; a new
/// failure mode added here is automatically named in every WorkerError
/// message and covered by the registry round-trip tests.
#define SMR_WORKER_ERROR_KINDS(X)                                          \
  /* The child exited nonzero or died on a signal. */                      \
  X(kCrash, 0, "worker-crash")                                             \
  /* The child reported an exception via a kError frame. */                \
  X(kChildError, 1, "child-error")                                         \
  /* The link made no progress within the policy deadline. */              \
  X(kDeadline, 2, "deadline")                                              \
  /* Undecodable bytes arrived on the link. */                             \
  X(kCorruptFrame, 3, "corrupt-frame")                                     \
  /* socketpair/fork for the worker failed. */                             \
  X(kSpawnFailure, 4, "spawn-failure")                                     \
  /* A map worker's run file could not be opened or written. */           \
  X(kSpillFailure, 5, "spill-failure")

enum class WorkerErrorKind { SMR_WORKER_ERROR_KINDS(SMR_ENUM_DEFINE_ENTRY) };
SMR_DEFINE_ENUM_TRAITS(WorkerErrorKind, SMR_WORKER_ERROR_KINDS);

inline const char* WorkerErrorKindName(WorkerErrorKind kind) {
  return EnumTraits<WorkerErrorKind>::Name(kind);
}

/// The process backend's terminal failure: one worker slot kept failing
/// until its RetryPolicy budget ran out (or the failure was not retryable).
/// Carries the structured fields tests and callers dispatch on; the what()
/// string names the worker, the fault kind, and the attempt count.
class WorkerError : public std::runtime_error {
 public:
  WorkerError(WorkerErrorKind kind, std::string role, unsigned worker,
              unsigned attempts, const std::string& detail)
      : std::runtime_error(
            "process backend: " + detail + " (fault: " +
            WorkerErrorKindName(kind) + "; gave up after " +
            std::to_string(attempts) +
            (attempts == 1 ? " attempt)" : " attempts)")),
        kind_(kind),
        role_(std::move(role)),
        worker_(worker),
        attempts_(attempts),
        detail_(detail) {}

  WorkerErrorKind kind() const { return kind_; }
  const std::string& role() const { return role_; }
  unsigned worker() const { return worker_; }
  unsigned attempts() const { return attempts_; }
  const std::string& detail() const { return detail_; }

 private:
  WorkerErrorKind kind_;
  std::string role_;
  unsigned worker_;
  unsigned attempts_;
  std::string detail_;
};

}  // namespace smr

#endif  // SMR_MAPREDUCE_WORKER_ERROR_H_
