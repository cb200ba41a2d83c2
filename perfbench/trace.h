// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded from the benchmark's own code, around the calls it
// makes into the library's public API; nothing inside the library is
// instrumented. Each span carries a name, start and end (steady clock, ns),
// the index of its parent span, and a run or request id. Spans stay in
// memory and are written once, at exit, as Chrome trace-event JSON (load it
// in chrome://tracing or Perfetto). Self times are derived from the spans:
// a span's duration minus the part of it its child spans cover.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace cwbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  static constexpr int kNoParent = -1;

  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = kNoParent;
    std::uint64_t id = 0;  // run id, or request id for request spans
    std::uint32_t tid = 0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled), origin_ns_(now_ns()) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  // Opens a span and returns its index (kNoParent when tracing is off).
  int begin(std::string name, int parent = kNoParent, std::uint64_t id = 0) {
    if (!enabled_) return kNoParent;
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(Span{std::move(name), now_ns(), 0, parent, id, 0});
    return static_cast<int>(spans_.size() - 1);
  }

  void end(int index) {
    if (index < 0) return;
    const std::int64_t t = now_ns();
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(index)].end_ns = t;
  }

  // Records a span whose interval was measured elsewhere.
  int add(std::string name, std::int64_t start_ns, std::int64_t end_ns, int parent = kNoParent,
          std::uint64_t id = 0, std::uint32_t tid = 0) {
    if (!enabled_) return kNoParent;
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(Span{std::move(name), start_ns, end_ns, parent, id, tid});
    return static_cast<int>(spans_.size() - 1);
  }

  // Self time per span: duration minus the union of its children's
  // intervals (clipped to the parent).
  [[nodiscard]] std::vector<std::int64_t> self_times() const {
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(spans_.size());
    for (const Span& span : spans_) {
      if (span.parent >= 0) {
        children[static_cast<std::size_t>(span.parent)].emplace_back(span.start_ns, span.end_ns);
      }
    }
    std::vector<std::int64_t> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      auto& kids = children[i];
      std::sort(kids.begin(), kids.end());
      std::int64_t covered = 0;
      std::int64_t cursor = span.start_ns;
      for (auto [start, end] : kids) {
        start = std::max(start, cursor);
        end = std::min(end, span.end_ns);
        if (end > start) {
          covered += end - start;
          cursor = end;
        }
      }
      self[i] = (span.end_ns - span.start_ns) - covered;
    }
    return self;
  }

  // Summed self time (ms) per span name.
  [[nodiscard]] std::map<std::string, double> self_ms_by_name() const {
    const auto self = self_times();
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) out[spans_[i].name] += self[i] / 1e6;
    return out;
  }

  // Writes every span as a Chrome trace-event "complete" event (ph "X",
  // microsecond timestamps relative to tracer construction).
  bool write_chrome_json(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    std::fputs("{\"traceEvents\":[\n", out);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      std::fprintf(out,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                   "\"dur\":%.3f,\"args\":{\"span\":%zu,\"parent\":%d,\"id\":%llu}}\n",
                   i == 0 ? "" : ",", span.name.c_str(), span.tid,
                   (span.start_ns - origin_ns_) / 1e3, (span.end_ns - span.start_ns) / 1e3, i,
                   span.parent, static_cast<unsigned long long>(span.id));
    }
    std::fputs("],\"displayTimeUnit\":\"ms\"}\n", out);
    return std::fclose(out) == 0;
  }

 private:
  bool enabled_;
  std::int64_t origin_ns_;
  std::mutex mutex_;
  std::vector<Span> spans_;
};

// RAII span; a no-op when the tracer is off.
class Scope {
 public:
  Scope(Tracer& tracer, std::string name, int parent = Tracer::kNoParent, std::uint64_t id = 0)
      : tracer_(tracer), index_(tracer.begin(std::move(name), parent, id)) {}
  ~Scope() { tracer_.end(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  [[nodiscard]] int index() const noexcept { return index_; }

 private:
  Tracer& tracer_;
  int index_;
};

}  // namespace cwbench
