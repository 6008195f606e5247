#pragma once
// In-memory span recorder for the benchmark's traced runs.
//
// Spans are opened and closed by the benchmark around calls into the
// library's public API; the library itself is not instrumented. Each span
// keeps its name, start, end, the span that caused it and the request id
// shared by every span of one interactive request. Nothing is written
// while the benchmark runs: write_chrome_trace() dumps the spans at exit
// as Chrome trace-event JSON (loadable in Perfetto / chrome://tracing).
//
// Parenting: a span's parent is the innermost open span on its own
// thread. Spans opened on a thread with no open span (library worker
// threads running a decorated codec call, interactive client threads)
// take the innermost open span of the main thread instead, so work the
// library fans out nests under the call that caused it.
//
// Disarmed, a Span only reads the clock: the same object times the
// untraced runs, so traced and untraced runs measure the same interval.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct SpanRecord {
  std::string name;
  Clock::time_point start;
  Clock::time_point end;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< 0 = root
  std::uint64_t request = 0;  ///< 0 = not part of a request
  std::uint32_t thread = 0;
};

class Recorder {
 public:
  static Recorder& instance() {
    static Recorder r;
    return r;
  }

  /// Start recording; the calling thread becomes the main thread.
  void arm() {
    main_ = this_thread_index();
    armed_.store(true, std::memory_order_release);
  }
  [[nodiscard]] bool armed() const {
    return armed_.load(std::memory_order_acquire);
  }

  std::uint64_t open(std::uint64_t& parent_out) {
    const std::uint64_t id = next_id_.fetch_add(1) + 1;
    auto& stack = open_stack();
    parent_out = stack.empty() ? main_top_.load(std::memory_order_acquire)
                               : stack.back();
    stack.push_back(id);
    if (this_thread_index() == main_)
      main_top_.store(id, std::memory_order_release);
    return id;
  }

  void close(SpanRecord rec) {
    auto& stack = open_stack();
    const auto it = std::find(stack.rbegin(), stack.rend(), rec.id);
    if (it != stack.rend()) stack.erase(std::next(it).base());
    if (this_thread_index() == main_)
      main_top_.store(stack.empty() ? 0 : stack.back(),
                        std::memory_order_release);
    rec.thread = this_thread_index();
    const std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(rec));
  }

  /// Write every recorded span as Chrome trace-event JSON ("X" events,
  /// microseconds since the first span). Returns false on I/O failure.
  bool write_chrome_trace(const std::string& path) const {
    const std::lock_guard<std::mutex> lock(mu_);
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    Clock::time_point epoch = Clock::time_point::max();
    for (const auto& s : spans_) epoch = std::min(epoch, s.start);
    std::fputs("{\"traceEvents\": [\n", f);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& s = spans_[i];
      const double ts = ms_between(epoch, s.start) * 1e3;
      const double dur = ms_between(s.start, s.end) * 1e3;
      std::fprintf(f,
                   "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                   "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %u, "
                   "\"args\": {\"id\": %llu, \"parent\": %llu, "
                   "\"request\": %llu}}",
                   i == 0 ? "" : ",\n", s.name.c_str(),
                   layer_of(s.name).c_str(), ts, dur, s.thread,
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.request));
    }
    std::fputs("\n]}\n", f);
    return std::fclose(f) == 0;
  }

  /// Layer of a span name: its first two dot-separated components
  /// ("compress.codec.compress" -> "compress.codec").
  static std::string layer_of(const std::string& name) {
    const auto first = name.find('.');
    if (first == std::string::npos) return name;
    const auto second = name.find('.', first + 1);
    return second == std::string::npos ? name : name.substr(0, second);
  }

 private:
  Recorder() = default;

  static std::vector<std::uint64_t>& open_stack() {
    thread_local std::vector<std::uint64_t> stack;
    return stack;
  }
  static std::uint32_t this_thread_index() {
    static std::atomic<std::uint32_t> next{0};
    thread_local const std::uint32_t index = next.fetch_add(1) + 1;
    return index;
  }

  std::atomic<bool> armed_{false};
  std::uint32_t main_ = 0;
  std::atomic<std::uint64_t> main_top_{0};
  std::atomic<std::uint64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;  ///< guarded by mu_
};

/// Times one call; records it as a span when the recorder is armed.
class Span {
 public:
  explicit Span(const char* name, std::uint64_t request = 0)
      : armed_(Recorder::instance().armed()) {
    if (armed_) {
      rec_.name = name;
      rec_.request = request;
      rec_.id = Recorder::instance().open(rec_.parent);
    }
    rec_.start = Clock::now();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { stop_ms(); }

  [[nodiscard]] Clock::time_point start() const { return rec_.start; }
  /// End of the span; valid once stop_ms() has run.
  [[nodiscard]] Clock::time_point end() const { return rec_.end; }

  /// End the span (idempotent) and return its duration in milliseconds.
  double stop_ms() {
    if (!stopped_) {
      stopped_ = true;
      rec_.end = Clock::now();
      if (armed_) Recorder::instance().close(rec_);
    }
    return ms_between(rec_.start, rec_.end);
  }

 private:
  bool armed_;
  bool stopped_ = false;
  SpanRecord rec_;
};

}  // namespace perfbench
