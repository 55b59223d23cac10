#include "mapreduce/process_backend.h"

#include <errno.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>

namespace smr {
namespace process_internal {

namespace {

/// Largest frame legal on any link — anything larger is a corrupted length
/// prefix and rejected by the strict decoder.
constexpr uint64_t kLinkFrameLimit = kMaxFrameBytes;

/// Links are drained in reads of this size.
constexpr size_t kRecvBytes = 64 * 1024;

/// One worker attempt's failure, thrown inside the spawn and collect paths
/// and caught by RunCrew's per-slot retry loop — which either respawns the
/// worker or escalates to a WorkerError when the attempt budget is spent.
struct Fault {
  WorkerErrorKind kind = WorkerErrorKind::kCrash;
  std::string detail;
};

// ------------------------------------------------------------ link IO

/// Waits for readiness; true = ready, false = the deadline passed.
/// timeout_ms < 0 never polls (the subsequent send/recv blocks).
bool AwaitReady(int fd, short events, int timeout_ms) {
  if (timeout_ms < 0) return true;
  while (true) {
    struct pollfd entry;
    entry.fd = fd;
    entry.events = events;
    entry.revents = 0;
    const int rc = poll(&entry, 1, timeout_ms);
    if (rc > 0) return true;  // readable/writable — or HUP/ERR, which the
                              // following send/recv surfaces precisely
    if (rc == 0) return false;
    if (errno != EINTR) {
      throw std::runtime_error(std::string("process backend: poll failed: ") +
                               std::strerror(errno));
    }
  }
}

/// Sends all of [data, data+size), blocking: what children use — a
/// child's liveness is the coordinator's problem, not its own. Returns
/// false when the peer is gone. SIGPIPE is suppressed (MSG_NOSIGNAL).
bool SendAll(int fd, const unsigned char* data, size_t size) {
  size_t sent = 0;
  while (sent < size) {
    const ssize_t n = send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EPIPE || errno == ECONNRESET) return false;
      throw std::runtime_error(std::string("process backend: send failed: ") +
                               std::strerror(errno));
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

/// Reads up to `capacity` bytes into `out`. With timeout_ms >= 0 the wait
/// is a poll(POLLIN) bounded by the deadline — a *progress* deadline, so
/// a link that keeps delivering bytes never times out; timeout_ms < 0
/// blocks. Returns false when the deadline passed without a byte;
/// otherwise *received == 0 is end of stream.
bool RecvSome(int fd, unsigned char* out, size_t capacity, int timeout_ms,
              size_t* received) {
  *received = 0;
  while (true) {
    if (!AwaitReady(fd, POLLIN, timeout_ms)) return false;
    const ssize_t n =
        recv(fd, out, capacity, timeout_ms >= 0 ? MSG_DONTWAIT : 0);
    if (n >= 0) {  // n == 0 is end of stream; the caller's end-of-stream
                   // bookkeeping decides whether that is a crash
      *received = static_cast<size_t>(n);
      return true;
    }
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
    if (errno == ECONNRESET) return true;  // reads as EOF
    throw std::runtime_error(std::string("process backend: recv failed: ") +
                             std::strerror(errno));
  }
}

void SendOrExit(int fd, const std::vector<unsigned char>& wire) {
  // The coordinator is gone; there is nothing left to report to.
  if (!SendAll(fd, wire.data(), wire.size())) _exit(2);
}

/// Child-side failure path: ship the message as a kError frame (best
/// effort, truncated to fit any link's frame limit) and _exit(1).
[[noreturn]] void ChildFailAndExit(int fd, const char* what) {
  std::vector<unsigned char> wire;
  const size_t length = std::min<size_t>(std::strlen(what), 2048);
  AppendFrame(FrameKind::kError,
              reinterpret_cast<const unsigned char*>(what), length, &wire);
  SendAll(fd, wire.data(), wire.size());  // best effort: parent may be gone
  _exit(1);
}

/// Child-side injected-fault path: kStallLink sleeps forever with the
/// link open (only the coordinator's deadline clears it); every other
/// kind dies on the spot via SIGKILL.
[[noreturn]] void ChildFaultAndHang(FaultKind kind) {
  if (kind == FaultKind::kStallLink) {
    while (true) pause();
  }
  raise(SIGKILL);
  _exit(137);  // unreachable; keeps [[noreturn]] honest if SIGKILL races
}

/// Overwrites the kind byte of the frame starting at `frame_start` with a
/// value that is no FrameKind, so a strict decode of the stream throws at
/// exactly that frame. Used by children armed with kCorruptFrame.
void CorruptFrameKindByte(std::vector<unsigned char>* wire,
                          size_t frame_start) {
  // Skip the length varint's continuation bytes; the kind byte follows
  // the final varint byte.
  size_t i = frame_start;
  while (i < wire->size() && ((*wire)[i] & 0x80) != 0) ++i;
  const size_t kind_at = i + 1;
  if (kind_at < wire->size()) (*wire)[kind_at] = 0xee;
}

// ------------------------------------------------------------ workers

std::string Describe(const char* role, size_t index, pid_t pid, int status) {
  std::string message = std::string(role) + " worker " +
                        std::to_string(index) + " (pid " +
                        std::to_string(pid) + ") ";
  if (WIFSIGNALED(status)) {
    message += "was killed by signal " + std::to_string(WTERMSIG(status));
  } else if (WIFEXITED(status)) {
    message += "exited with status " + std::to_string(WEXITSTATUS(status));
  } else {
    message += "stopped abnormally (wait status " + std::to_string(status) +
               ")";
  }
  return message;
}

/// The round's forked workers of one role ("map" / "reduce"), a fixed
/// array of slots so a failed worker can be respawned into its own slot.
/// The destructor SIGKILLs and reaps every live worker — a throw anywhere
/// in the round tears the crew down instead of leaking children.
class WorkerCrew {
 public:
  WorkerCrew(const char* role, size_t count) : role_(role), workers_(count) {}

  ~WorkerCrew() {
    for (size_t i = 0; i < workers_.size(); ++i) KillAndReap(i);
  }

  WorkerCrew(const WorkerCrew&) = delete;
  WorkerCrew& operator=(const WorkerCrew&) = delete;

  const char* role() const { return role_; }
  size_t size() const { return workers_.size(); }
  int fd(size_t index) const { return workers_[index].fd; }
  bool spawned(size_t index) const { return workers_[index].pid > 0; }

  /// socketpair + fork into the empty slot `index`. The child runs
  /// body(child_fd) inside a catch-all that turns exceptions into a kError
  /// frame and a nonzero exit. A kernel refusal is a kSpawnFailure fault.
  void Spawn(size_t index, const std::function<void(int)>& body) {
    int sockets[2];
    if (socketpair(AF_UNIX, SOCK_STREAM, 0, sockets) != 0) {
      throw Fault{WorkerErrorKind::kSpawnFailure,
                  std::string("process backend: socketpair failed: ") +
                      std::strerror(errno)};
    }
    const pid_t pid = fork();
    if (pid < 0) {
      close(sockets[0]);
      close(sockets[1]);
      throw Fault{WorkerErrorKind::kSpawnFailure,
                  std::string("process backend: fork failed: ") +
                      std::strerror(errno)};
    }
    if (pid == 0) {
      // Child. Drop the parent ends of every link in this crew so a
      // sibling cannot hold a peer's socket open past its death. _exit
      // (not exit): the child shares the parent's atexit state and stdio
      // buffers, none of which it may flush or tear down.
      close(sockets[0]);
      for (const Worker& other : workers_) {
        if (other.fd >= 0) close(other.fd);
      }
      try {
        body(sockets[1]);
      } catch (const std::exception& error) {
        ChildFailAndExit(sockets[1], error.what());
      } catch (...) {
        ChildFailAndExit(sockets[1], "unknown exception in worker");
      }
      _exit(0);
    }
    close(sockets[1]);
    workers_[index] = Worker{pid, sockets[0]};
  }

  /// Closes the link and waits for the worker. Returns true for a clean
  /// exit(0); otherwise false with *how naming role, index, pid, and how
  /// it died. Reaping an already-empty slot is a clean no-op.
  bool Reap(size_t index, std::string* how) {
    Worker& worker = workers_[index];
    CloseLink(&worker);
    if (worker.pid <= 0) {
      how->clear();
      return true;
    }
    int status = 0;
    while (waitpid(worker.pid, &status, 0) < 0) {
      if (errno != EINTR) {
        worker.pid = -1;
        throw std::runtime_error(
            std::string("process backend: waitpid failed: ") +
            std::strerror(errno));
      }
    }
    const pid_t pid = worker.pid;
    worker.pid = -1;
    *how = Describe(role_, index, pid, status);
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

  /// SIGKILLs and reaps the worker (no-op on an empty slot, returning "").
  /// Returns how it died — its real exit status if it was already dead,
  /// the SIGKILL otherwise. Never blocks on a live child.
  std::string KillAndReap(size_t index) {
    Worker& worker = workers_[index];
    CloseLink(&worker);
    if (worker.pid <= 0) return std::string();
    kill(worker.pid, SIGKILL);  // a zombie still accepts the no-op kill
    int status = 0;
    while (waitpid(worker.pid, &status, 0) < 0 && errno == EINTR) {
    }
    const pid_t pid = worker.pid;
    worker.pid = -1;
    return Describe(role_, index, pid, status);
  }

 private:
  struct Worker {
    pid_t pid = -1;
    int fd = -1;
  };

  static void CloseLink(Worker* worker) {
    if (worker->fd >= 0) close(worker->fd);
    worker->fd = -1;
  }

  const char* role_;
  std::vector<Worker> workers_;
};

/// Sleep before retrying after `failed_attempts` failures:
/// base * multiplier^(failed_attempts - 1), capped at 10 s.
void Backoff(const RetryPolicy& retry, unsigned failed_attempts) {
  if (retry.base_backoff_ms == 0 || failed_attempts == 0) return;
  const double factor =
      std::pow(std::max(1.0, retry.backoff_multiplier),
               static_cast<double>(failed_attempts - 1));
  const double ms = std::min(
      static_cast<double>(retry.base_backoff_ms) * factor, 10'000.0);
  std::this_thread::sleep_for(
      std::chrono::milliseconds(static_cast<long>(ms)));
}

/// Drives every slot of `crew` to one successful attempt: spawns all
/// slots, then collects them in slot order. A Fault from spawn(i) or
/// collect(i) calls discard(i, &fault) (which drops the attempt's state
/// and may refine the fault), SIGKILLs and reaps the worker, and respawns
/// the slot after the policy's backoff — or throws WorkerError once the
/// slot has used retry.max_attempts attempts.
void RunCrew(WorkerCrew* crew, const RetryPolicy& retry,
             FaultCounters* counters,
             const std::function<void(size_t)>& spawn,
             const std::function<void(size_t)>& collect,
             const std::function<void(size_t, Fault*)>& discard) {
  std::vector<unsigned> attempts(crew->size(), 0);
  const auto fail = [&](size_t i, Fault fault) {
    discard(i, &fault);
    crew->KillAndReap(i);  // no-op when the failing path already reaped
    if (fault.kind == WorkerErrorKind::kDeadline) ++counters->deadline_kills;
    if (attempts[i] >= std::max(1u, retry.max_attempts)) {
      throw WorkerError(fault.kind, crew->role(), static_cast<unsigned>(i),
                        attempts[i], fault.detail);
    }
    ++counters->retries;
    Backoff(retry, attempts[i]);
  };
  const auto try_spawn = [&](size_t i) {
    ++attempts[i];
    try {
      spawn(i);
      return true;
    } catch (const Fault& fault) {
      fail(i, fault);
      return false;
    }
  };
  for (size_t i = 0; i < crew->size(); ++i) try_spawn(i);
  for (size_t i = 0; i < crew->size(); ++i) {
    while (true) {
      if (!crew->spawned(i) && !try_spawn(i)) continue;
      try {
        collect(i);
        break;
      } catch (const Fault& fault) {
        fail(i, fault);
      }
    }
  }
}

// ------------------------------------------------------------- frames

/// Rolling decode window over one link: append received bytes, pull
/// complete frames. Decoding is strict (DecodeFrameChecked): Next()
/// returns kOk or kNeedMore and THROWS std::runtime_error on structurally
/// corrupt bytes. A FrameView from Next() is valid until the next Append.
class FrameBuffer {
 public:
  void Append(const unsigned char* data, size_t size) {
    if (position_ > 0) {
      bytes_.erase(bytes_.begin(),
                   bytes_.begin() + static_cast<ptrdiff_t>(position_));
      position_ = 0;
    }
    bytes_.insert(bytes_.end(), data, data + size);
  }

  DecodeStatus Next(FrameView* frame) {
    size_t consumed = 0;
    const DecodeStatus status = DecodeFrameChecked(
        bytes_.data() + position_, bytes_.size() - position_,
        /*closed=*/false, kLinkFrameLimit, frame, &consumed);
    if (status == DecodeStatus::kOk) position_ += consumed;
    return status;
  }

  bool Drained() const { return position_ >= bytes_.size(); }

 private:
  std::vector<unsigned char> bytes_;
  size_t position_ = 0;
};

/// Sequential varint reader over one frame body; every read is checked.
class BodyReader {
 public:
  explicit BodyReader(const FrameView& frame)
      : data_(frame.body), size_(frame.body_bytes) {}

  bool Read(uint64_t* value) {
    size_t used = 0;
    if (GetVarint(data_ + position_, size_ - position_, value, &used) !=
        DecodeStatus::kOk) {
      return false;
    }
    position_ += used;
    return true;
  }

  size_t remaining() const { return size_ - position_; }
  bool Done() const { return position_ == size_; }

 private:
  const unsigned char* data_;
  size_t size_;
  size_t position_ = 0;
};


/// The reduce-shard counters a metrics frame carries, in wire order.
constexpr int kMetricsFields = 7;

void AppendMetricsFrame(const MapReduceMetrics& shard,
                        std::vector<unsigned char>* out) {
  const uint64_t fields[kMetricsFields] = {
      shard.distinct_keys,          shard.max_reducer_input,
      shard.outputs,                shard.reduce_cost.edges_scanned,
      shard.reduce_cost.candidates, shard.reduce_cost.index_probes,
      shard.reduce_cost.outputs};
  unsigned char body[kMetricsFields * kMaxVarintBytes];
  size_t used = 0;
  for (const uint64_t field : fields) used += PutVarint(field, body + used);
  AppendFrame(FrameKind::kMetrics, body, used, out);
}

bool DecodeMetrics(const FrameView& frame, MapReduceMetrics* shard) {
  BodyReader reader(frame);
  uint64_t fields[kMetricsFields] = {0};
  for (uint64_t& field : fields) {
    if (!reader.Read(&field)) return false;
  }
  shard->distinct_keys = fields[0];
  shard->max_reducer_input = fields[1];
  shard->outputs = fields[2];
  shard->reduce_cost.edges_scanned = fields[3];
  shard->reduce_cost.candidates = fields[4];
  shard->reduce_cost.index_probes = fields[5];
  shard->reduce_cost.outputs = fields[6];
  return reader.Done();
}

/// Run-index body: [pages][bytes][files][partitions]
/// then per partition [runs] and per run [offset][count], all varints.
void AppendRunIndexFrame(const MapReport& report,
                         std::vector<unsigned char>* out) {
  std::vector<unsigned char> body;
  AppendVarint(report.pages_spilled, &body);
  AppendVarint(report.bytes_spilled, &body);
  AppendVarint(report.spill_files, &body);
  AppendVarint(report.runs.size(), &body);
  for (const std::vector<RunExtent>& runs : report.runs) {
    AppendVarint(runs.size(), &body);
    for (const RunExtent& run : runs) {
      AppendVarint(run.offset, &body);
      AppendVarint(run.count, &body);
    }
  }
  AppendFrame(FrameKind::kHeader, body.data(), body.size(), out);
}

bool DecodeRunIndex(const FrameView& frame, unsigned partitions,
                    MapReport* report) {
  BodyReader reader(frame);
  uint64_t declared = 0;
  if (!reader.Read(&report->pages_spilled) ||
      !reader.Read(&report->bytes_spilled) ||
      !reader.Read(&report->spill_files) || !reader.Read(&declared) ||
      declared != partitions) {
    return false;
  }
  report->runs.assign(partitions, {});
  for (std::vector<RunExtent>& runs : report->runs) {
    uint64_t count = 0;
    // Each run takes at least two bytes, which bounds a corrupt count.
    if (!reader.Read(&count) || count > reader.remaining() / 2) return false;
    runs.resize(count);
    for (RunExtent& run : runs) {
      if (!reader.Read(&run.offset) || !reader.Read(&run.count)) return false;
    }
  }
  return reader.Done();
}

uint64_t DecodeCount(const FrameView& frame, bool* ok) {
  BodyReader reader(frame);
  uint64_t count = 0;
  *ok = reader.Read(&count) && reader.Done();
  return count;
}

/// Reads worker `index`'s frames under the progress deadline until its
/// kEnd frame, handing every frame but kError (kEnd included) to
/// on_frame, which throws Fault to reject one; then checks that nothing
/// trails kEnd and reaps the worker. Returns the bytes received. Throws
/// Fault on any failure of the attempt.
uint64_t ReadWorkerStream(
    WorkerCrew* crew, size_t index, int timeout_ms,
    const std::function<void(const FrameView&)>& on_frame) {
  const std::string who =
      std::string(crew->role()) + " worker " + std::to_string(index);
  FrameBuffer buffer;
  std::vector<unsigned char> scratch(kRecvBytes);
  uint64_t received = 0;
  bool ended = false;
  while (!ended) {
    size_t n = 0;
    if (!RecvSome(crew->fd(index), scratch.data(), scratch.size(), timeout_ms,
                  &n)) {
      const std::string how = crew->KillAndReap(index);
      throw Fault{WorkerErrorKind::kDeadline,
                  who + " made no progress for " +
                      std::to_string(timeout_ms) + " ms; killed (" + how +
                      ")"};
    }
    if (n == 0) {
      std::string how;
      crew->Reap(index, &how);
      throw Fault{WorkerErrorKind::kCrash,
                  how + " before finishing its stream"};
    }
    received += n;
    buffer.Append(scratch.data(), n);
    FrameView frame;
    while (!ended) {
      DecodeStatus status = DecodeStatus::kNeedMore;
      try {
        status = buffer.Next(&frame);
      } catch (const std::runtime_error& error) {
        throw Fault{WorkerErrorKind::kCorruptFrame,
                    "corrupt frame on " + who + "'s link: " + error.what()};
      }
      if (status != DecodeStatus::kOk) break;
      if (frame.kind == FrameKind::kError) {
        const std::string message(reinterpret_cast<const char*>(frame.body),
                                  frame.body_bytes);
        std::string how;
        crew->Reap(index, &how);
        throw Fault{WorkerErrorKind::kChildError, who + " failed: " + message};
      }
      on_frame(frame);
      ended = frame.kind == FrameKind::kEnd;
    }
  }
  if (!buffer.Drained()) {
    throw Fault{WorkerErrorKind::kCorruptFrame,
                "trailing bytes after " + who + "'s end-of-stream frame"};
  }
  std::string how;
  if (!crew->Reap(index, &how)) {
    throw Fault{WorkerErrorKind::kCrash, how + " after finishing its stream"};
  }
  return received;
}

Fault Corrupt(const std::string& what, size_t index, const char* role) {
  return Fault{WorkerErrorKind::kCorruptFrame,
               what + " from " + role + " worker " + std::to_string(index)};
}

/// Reads map worker t's report, decodes it strictly, checks that every
/// run lies inside `run_file`, and reaps the worker. *link_bytes counts
/// the control frames plus the run bytes the report covers; *frames
/// counts decoded frames. Throws Fault on any failure of the attempt.
void CollectMapWorker(WorkerCrew* crew, size_t t, int timeout_ms,
                      SpillFile* run_file, uint64_t record_bytes,
                      unsigned partitions, MapReport* report,
                      uint64_t* link_bytes, uint64_t* frames) {
  bool indexed = false;
  const uint64_t control =
      ReadWorkerStream(crew, t, timeout_ms, [&](const FrameView& frame) {
        ++*frames;
        bool ok = false;
        if (frame.kind == FrameKind::kHeader && !indexed) {
          ok = indexed = DecodeRunIndex(frame, partitions, report);
        } else if (frame.kind == FrameKind::kEnd && indexed) {
          report->logical_pairs = DecodeCount(frame, &ok);
        }
        if (!ok) throw Corrupt("malformed or unexpected frame", t, "map");
      });
  // The run file is the child's output; a truncated file or an extent
  // past its end must fail the attempt here, not a reducer's read.
  uint64_t end = 0;
  uint64_t run_bytes = 0;
  for (const std::vector<RunExtent>& runs : report->runs) {
    for (const RunExtent& run : runs) {
      if (run.offset % record_bytes != 0 ||
          run.count > (UINT64_MAX - run.offset) / record_bytes) {
        throw Corrupt("misaligned run extent", t, "map");
      }
      end = std::max(end, run.offset + run.count * record_bytes);
      run_bytes += run.count * record_bytes;
    }
  }
  if (end > 0) {
    unsigned char last = 0;
    try {
      run_file->ReadAt(end - 1, &last, 1);
    } catch (const std::runtime_error& error) {
      throw Corrupt(std::string("run extent past the end of the run file (") +
                        error.what() + ")",
                    t, "map");
    }
  }
  *link_bytes = control + run_bytes;
}

/// Reads reduce worker r's output, validating every frame and buffering
/// it into *replay, and reaps the worker. A record frame must carry
/// exactly `record_arity` nodes (0 = no record channel). Throws Fault on
/// any failure.
void CollectReduceWorker(WorkerCrew* crew, size_t r, int timeout_ms,
                         bool want_instances, size_t record_arity,
                         std::vector<unsigned char>* replay,
                         uint64_t* frames, uint64_t* recv_bytes) {
  std::vector<NodeId> nodes;
  MapReduceMetrics shard;
  *recv_bytes =
      ReadWorkerStream(crew, r, timeout_ms, [&](const FrameView& frame) {
        bool ok = false;
        switch (frame.kind) {
          case FrameKind::kInstance:
            ok = want_instances && DecodeNodeList(frame, 0, &nodes);
            break;
          case FrameKind::kRecord:
            ok = record_arity > 0 &&
                 DecodeNodeList(frame, record_arity, &nodes);
            break;
          case FrameKind::kMetrics:
            ok = DecodeMetrics(frame, &shard);
            break;
          case FrameKind::kEnd:
            return;
          default:
            break;
        }
        if (!ok) throw Corrupt("malformed or unexpected frame", r, "reduce");
        AppendFrame(frame.kind, frame.body, frame.body_bytes, replay);
        ++*frames;
      });
}

/// Replays one reduce worker's validated output: instances to `sink`,
/// records to `records`, the shard metrics into *metrics.
void ReplayReduceOutput(const std::vector<unsigned char>& replay,
                        InstanceSink* sink, RecordBuffer* records,
                        MapReduceMetrics* metrics) {
  std::vector<NodeId> nodes;
  size_t position = 0;
  while (position < replay.size()) {
    FrameView frame;
    size_t consumed = 0;
    DecodeFrameChecked(replay.data() + position, replay.size() - position,
                       /*closed=*/true, kLinkFrameLimit, &frame, &consumed);
    position += consumed;
    MapReduceMetrics shard;
    if (frame.kind == FrameKind::kMetrics && DecodeMetrics(frame, &shard)) {
      metrics->MergeReduceShard(shard);
    } else if (frame.kind == FrameKind::kInstance &&
               DecodeNodeList(frame, 0, &nodes)) {
      sink->Emit(nodes);
    } else if (frame.kind == FrameKind::kRecord &&
               DecodeNodeList(frame, records->arity(), &nodes)) {
      records->Emit(nodes);
    } else {
      // Unreachable: CollectReduceWorker validated every frame.
      throw std::runtime_error("process backend: malformed replay frame");
    }
  }
}

/// Splits partitions into `workers` contiguous ranges of about equal pair
/// counts; returns workers + 1 range starts. Range r starts at the first
/// partition whose predecessors hold r / workers of the pairs; a range
/// may be empty.
std::vector<unsigned> BalancedRanges(const std::vector<uint64_t>& pairs,
                                     unsigned workers) {
  const unsigned partitions = static_cast<unsigned>(pairs.size());
  uint64_t total = 0;
  for (const uint64_t n : pairs) total += n;
  std::vector<unsigned> starts(workers + 1, partitions);
  starts[0] = 0;
  unsigned p = 0;
  uint64_t before = 0;
  for (unsigned r = 1; r < workers; ++r) {
    while (p < partitions && static_cast<unsigned __int128>(before) * workers <
                                 static_cast<unsigned __int128>(total) * r) {
      before += pairs[p++];
    }
    starts[r] = p;
  }
  return starts;
}

/// Consults the injector for one (re)spawn; an injected spawn failure
/// fails the attempt on the spot.
std::optional<ArmedFault> Arm(FaultInjector* injector, WorkerRole role,
                              size_t index) {
  std::optional<ArmedFault> armed =
      injector != nullptr
          ? injector->ArmSpawn(role, static_cast<unsigned>(index))
          : std::nullopt;
  if (armed && armed->kind == FaultKind::kFailSpawn) {
    throw Fault{WorkerErrorKind::kSpawnFailure,
                std::string("injected spawn failure for ") +
                    WorkerRoleName(role) + " worker " +
                    std::to_string(index)};
  }
  return armed;
}

}  // namespace

bool DecodeNodeList(const FrameView& frame, size_t arity,
                    std::vector<NodeId>* out) {
  BodyReader reader(frame);
  uint64_t count = 0;
  out->clear();
  if (!reader.Read(&count) || count > reader.remaining()) return false;
  if (arity != 0 && count != arity) return false;
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t node = 0;
    // A wider node would alias a real id once narrowed.
    if (!reader.Read(&node) || node > std::numeric_limits<NodeId>::max()) {
      return false;
    }
    out->push_back(static_cast<NodeId>(node));
  }
  return reader.Done();
}

// ------------------------------------------------------ child side

class RunFileWriter::View final : public SpillFile {
 public:
  explicit View(RunFileWriter* owner) : owner_(owner) {}
  void Append(const void* data, size_t bytes) override {
    owner_->Append(data, bytes);
  }
  void ReadAt(uint64_t offset, void* out, size_t bytes) override {
    owner_->file_->ReadAt(offset, out, bytes);
  }
  const std::string& path() const override { return owner_->file_->path(); }

 private:
  RunFileWriter* owner_;
};

RunFileWriter::RunFileWriter(SpillFile* file, uint64_t record_bytes,
                             const std::optional<ArmedFault>& fault)
    : file_(file), record_bytes_(record_bytes) {
  if (fault && (fault->kind == FaultKind::kKillAfterFrames ||
                fault->kind == FaultKind::kStallLink)) {
    cut_ = fault;
  }
}

void RunFileWriter::Watch(unsigned partitions,
                          std::function<size_t(unsigned)> bucket_size) {
  bucket_size_ = std::move(bucket_size);
  runs_.assign(partitions, {});
}

std::unique_ptr<SpillFile> RunFileWriter::Create() {
  return std::make_unique<View>(this);
}

void RunFileWriter::Append(const void* data, size_t bytes) {
  const uint64_t records = bytes / record_bytes_;
  if (run_left_ == 0) {
    unsigned p = 0;
    while (p < runs_.size() && bucket_size_(p) == 0) ++p;
    if (p == runs_.size()) {
      throw std::logic_error("run file append with every bucket empty");
    }
    run_left_ = bucket_size_(p);
    runs_[p].push_back(RunExtent{written_ * record_bytes_, run_left_});
  }
  if (bytes % record_bytes_ != 0 || records > run_left_) {
    throw std::logic_error("run file append straddles two runs");
  }
  if (cut_ && written_ + records > cut_->after_frames) {
    file_->Append(data, (cut_->after_frames - written_) * record_bytes_);
    ChildFaultAndHang(cut_->kind);
  }
  file_->Append(data, bytes);
  written_ += records;
  run_left_ -= records;
}

void RunFileWriter::Finish(const std::vector<uint64_t>& pairs,
                           MapReport* report) const {
  for (size_t p = 0; p < runs_.size(); ++p) {
    uint64_t total = 0;
    for (const RunExtent& run : runs_[p]) total += run.count;
    if (total != pairs[p] || run_left_ != 0) {
      throw std::logic_error("run file index does not match the channel");
    }
  }
  if (cut_) ChildFaultAndHang(cut_->kind);
  report->runs = runs_;
}

void SendMapReport(int fd, const MapReport& report,
                   const std::optional<ArmedFault>& fault) {
  std::vector<unsigned char> wire;
  AppendRunIndexFrame(report, &wire);
  unsigned char body[kMaxVarintBytes];
  AppendFrame(FrameKind::kEnd, body, PutVarint(report.logical_pairs, body),
              &wire);
  if (fault && fault->kind == FaultKind::kCorruptFrame) {
    CorruptFrameKindByte(&wire, 0);  // the run-index frame
  }
  SendOrExit(fd, wire);
}

void FrameSink::Emit(std::span<const NodeId> assignment) {
  if (boundaries_ != nullptr) boundaries_->push_back(out_->size());
  scratch_.clear();
  AppendVarint(assignment.size(), &scratch_);
  for (const NodeId node : assignment) AppendVarint(node, &scratch_);
  AppendFrame(kind_, scratch_.data(), scratch_.size(), out_);
}

void SendReduceOutput(int fd, const MapReduceMetrics& shard,
                      std::vector<unsigned char>* out,
                      std::vector<size_t>* boundaries,
                      const std::optional<ArmedFault>& fault) {
  if (fault) boundaries->push_back(out->size());
  AppendMetricsFrame(shard, out);
  if (fault) boundaries->push_back(out->size());
  unsigned char end_body[kMaxVarintBytes];
  AppendFrame(FrameKind::kEnd, end_body, PutVarint(0, end_body), out);
  if (fault) {
    const size_t target =
        std::min<size_t>(fault->after_frames, boundaries->size() - 1);
    if (fault->kind == FaultKind::kCorruptFrame) {
      CorruptFrameKindByte(out, (*boundaries)[target]);
    } else {
      // boundaries->back() is the end-of-stream frame's start, so the cut
      // always withholds it — the fault is never silent.
      SendAll(fd, out->data(), (*boundaries)[target]);
      ChildFaultAndHang(fault->kind);
    }
  }
  SendOrExit(fd, *out);
}

// ------------------------------------------------------- coordinator

void Coordinate(const ExecutionPolicy& policy, unsigned map_workers,
                unsigned partitions, uint64_t record_bytes,
                const MapBody& map_body, const ReduceBody& reduce_body,
                InstanceSink* sink, RecordBuffer* records,
                MapReduceMetrics* metrics, uint64_t* logical_pairs,
                uint64_t* shipped_pairs, FaultCounters* counters) {
  FaultInjector* injector = policy.fault_injector != nullptr
                                ? policy.fault_injector
                                : EnvFaultInjector();
  const int timeout_ms = policy.worker_deadline_ms == 0
                             ? -1
                             : static_cast<int>(policy.worker_deadline_ms);
  SpillBackend* spill_backend =
      injector != nullptr ? injector->WrapSpillBackend(policy.spill_backend)
      : policy.spill_backend != nullptr ? policy.spill_backend
                                        : &DefaultSpillBackend();
  ShuffleStats& stats = metrics->shuffle;
  stats.partitions = partitions;
  stats.link_bytes_on_wire.assign(map_workers, 0);

  // ------------------------------------------------------------- map
  // One run file per attempt, opened here so the child writes it and every
  // reduce child inherits it; a failed attempt's file is dropped.
  RunFiles run_files(map_workers);
  std::vector<MapReport> reports(map_workers);
  std::vector<std::optional<ArmedFault>> armed(map_workers);
  std::vector<uint64_t> frames(map_workers, 0);
  WorkerCrew map_crew("map", map_workers);
  RunCrew(
      &map_crew, policy.retry, counters,
      [&](size_t t) {
        armed[t] = Arm(injector, WorkerRole::kMap, t);
        try {
          run_files[t] = spill_backend->Create();
        } catch (const std::runtime_error& error) {
          throw Fault{WorkerErrorKind::kSpillFailure, error.what()};
        }
        map_crew.Spawn(t, [&, t](int fd) {
          if (armed[t] && armed[t]->kind == FaultKind::kFailSpillAppend) {
            injector->ArmSpillFailure();  // this child's copy only
          }
          map_body(t, run_files[t].get(), armed[t], fd);
        });
      },
      [&](size_t t) {
        CollectMapWorker(&map_crew, t, timeout_ms, run_files[t].get(),
                         record_bytes, partitions, &reports[t],
                         &stats.link_bytes_on_wire[t], &frames[t]);
      },
      [&](size_t t, Fault* fault) {
        counters->discarded += frames[t];
        frames[t] = 0;
        run_files[t].reset();
        // The injected append failure surfaces as the child's exception.
        if (armed[t] && armed[t]->kind == FaultKind::kFailSpillAppend &&
            fault->kind == WorkerErrorKind::kChildError) {
          fault->kind = WorkerErrorKind::kSpillFailure;
          injector->CountFire(FaultKind::kFailSpillAppend);
        }
      });

  std::vector<uint64_t> partition_pairs(partitions, 0);
  for (unsigned t = 0; t < map_workers; ++t) {
    const MapReport& report = reports[t];
    for (unsigned p = 0; p < partitions; ++p) {
      for (const RunExtent& run : report.runs[p]) {
        partition_pairs[p] += run.count;
      }
    }
    *logical_pairs += report.logical_pairs;
    stats.pages_spilled += report.pages_spilled;
    stats.bytes_spilled += report.bytes_spilled;
    stats.spill_files += report.spill_files;
    stats.map_bytes_on_wire += stats.link_bytes_on_wire[t];
  }
  for (const uint64_t pairs : partition_pairs) {
    *shipped_pairs += pairs;
    stats.max_partition_pairs = std::max(stats.max_partition_pairs, pairs);
  }
  stats.process_workers = map_workers;
  if (*shipped_pairs == 0) return;

  // ---------------------------------------------------------- reduce
  const unsigned reduce_workers =
      std::min(policy.EffectiveProcessWorkers(*shipped_pairs), partitions);
  const std::vector<unsigned> ranges =
      BalancedRanges(partition_pairs, reduce_workers);
  stats.process_workers += reduce_workers;
  const bool counts_only = sink != nullptr && sink->CountsOnly();
  const bool want_instances = sink != nullptr && !counts_only;
  const bool want_records = records != nullptr;
  const size_t record_arity = want_records ? records->arity() : 0;

  std::vector<std::vector<unsigned char>> replay(reduce_workers);
  std::vector<uint64_t> out_frames(reduce_workers, 0);
  std::vector<uint64_t> out_bytes(reduce_workers, 0);
  WorkerCrew reduce_crew("reduce", reduce_workers);
  RunCrew(
      &reduce_crew, policy.retry, counters,
      [&](size_t r) {
        const std::optional<ArmedFault> fault =
            Arm(injector, WorkerRole::kReduce, r);
        reduce_crew.Spawn(r, [&, r, fault](int fd) {
          reduce_body(run_files, reports, ranges[r], ranges[r + 1],
                      want_instances, want_records, fault, fd);
        });
      },
      [&](size_t r) {
        CollectReduceWorker(&reduce_crew, r, timeout_ms, want_instances,
                            record_arity, &replay[r], &out_frames[r],
                            &out_bytes[r]);
      },
      [&](size_t r, Fault*) {
        counters->discarded += out_frames[r];
        out_frames[r] = 0;
        replay[r].clear();
      });

  // Replay in worker order: ranges are ascending and disjoint, and frames
  // within a range are in emission order — the serial order.
  for (unsigned r = 0; r < reduce_workers; ++r) {
    stats.reduce_bytes_on_wire += out_bytes[r];
    ReplayReduceOutput(replay[r], sink, records, metrics);
  }
  if (counts_only) sink->EmitCount(metrics->outputs);
}

}  // namespace process_internal
}  // namespace smr
