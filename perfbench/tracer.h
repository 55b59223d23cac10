#ifndef PERFBENCH_TRACER_H_
#define PERFBENCH_TRACER_H_

#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock since an arbitrary epoch.
inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// In-memory span recorder for the benchmark. The benchmark is single
/// threaded, so a span's parent is whatever span was open when it began.
/// Spans are kept in memory and written once, at exit, as Chrome
/// trace-event JSON (opens in Perfetto). A disabled tracer records nothing.
class Tracer {
 public:
  static constexpr int64_t kNoJob = -1;

  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(NowSeconds()) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Open span; closes (records its end) when destroyed.
  class Span {
   public:
    Span(Tracer* tracer, std::string name, int64_t job) : tracer_(tracer) {
      if (tracer_ != nullptr) index_ = tracer_->Begin(std::move(name), job);
    }
    ~Span() {
      if (tracer_ != nullptr) tracer_->End(index_);
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;
    size_t index_ = 0;
  };

  /// Opens a span named `name`, tagged with `job` (kNoJob outside jobs).
  Span Open(std::string name, int64_t job = kNoJob) {
    return Span(enabled_ ? this : nullptr, std::move(name), job);
  }

  size_t size() const { return spans_.size(); }

  /// Writes every recorded span as Chrome trace-event "X" events; `other`
  /// is a pre-rendered JSON object placed under "otherData" (the host
  /// block). Throws std::runtime_error when the file cannot be written.
  void WriteChromeJson(const std::string& path,
                       const std::string& other) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) throw std::runtime_error("cannot write " + path);
    const long pid = static_cast<long>(::getpid());
    std::fprintf(out, "{\"displayTimeUnit\":\"ms\",\"otherData\":%s,",
                 other.c_str());
    std::fprintf(out, "\"traceEvents\":[");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Record& s = spans_[i];
      std::fprintf(out,
                   "%s\n{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                   "\"pid\":%ld,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                   "\"args\":{\"span\":%zu,\"parent\":",
                   i == 0 ? "" : ",", s.name.c_str(), pid, s.start * 1e6,
                   (s.end - s.start) * 1e6, i);
      if (s.parent < 0) {
        std::fprintf(out, "null");
      } else {
        std::fprintf(out, "%lld", static_cast<long long>(s.parent));
      }
      std::fprintf(out, ",\"job\":");
      if (s.job == kNoJob) {
        std::fprintf(out, "null}}");
      } else {
        std::fprintf(out, "%lld}}", static_cast<long long>(s.job));
      }
    }
    std::fprintf(out, "\n]}\n");
    const bool failed = std::ferror(out) != 0;
    if (std::fclose(out) != 0 || failed) {
      throw std::runtime_error("cannot write " + path);
    }
  }

 private:
  struct Record {
    std::string name;
    double start = 0;
    double end = 0;
    int64_t parent = -1;
    int64_t job = kNoJob;
  };

  size_t Begin(std::string name, int64_t job) {
    const int64_t parent =
        open_.empty() ? -1 : static_cast<int64_t>(open_.back());
    spans_.push_back(
        Record{std::move(name), NowSeconds() - epoch_, 0, parent, job});
    open_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }

  void End(size_t index) {
    spans_[index].end = NowSeconds() - epoch_;
    open_.pop_back();
  }

  bool enabled_;
  double epoch_;
  std::vector<Record> spans_;
  std::vector<size_t> open_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACER_H_
