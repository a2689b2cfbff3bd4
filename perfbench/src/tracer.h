// In-memory span recorder for the benchmark's traced runs.
//
// Every call the benchmark makes into a program layer is wrapped in a span:
// name, start, end, parent span and run id.  Spans are only recorded when the
// tracer is enabled (the traced run); an untraced run pays one branch per
// call.  Nothing here reaches inside src/ — spans sit around public calls.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Span names are "<bucket>/<call>": the bucket (e.g. "net.paths") is the
/// per-layer metric the span's self time is charged to; structural spans
/// ("rep", "setup", "run") carry no slash.
struct Span {
  const char* name = "";  // static string
  std::int32_t parent = -1;
  std::int32_t rep = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled = false) : enabled_(enabled) {}

  void set_enabled(bool enabled) { enabled_ = enabled; }
  void set_rep(int rep) { rep_ = rep; }

  /// Opens a span under the innermost open one; -1 when disabled.
  int open(const char* name) {
    if (!enabled_) return -1;
    const int index = static_cast<int>(spans_.size());
    spans_.push_back(Span{name, stack_.empty() ? -1 : stack_.back(), rep_,
                          now_ns(), 0});
    stack_.push_back(index);
    return index;
  }

  void close(int index) {
    if (index < 0) return;
    spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
    stack_.pop_back();
  }

  /// Renames a recorded span, e.g. once the call's outcome is known.
  void rename(int index, const char* name) {
    if (index >= 0) spans_[static_cast<std::size_t>(index)].name = name;
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  int rep_ = 0;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// A FlowSimEngine::step() call that re-solved the NUM problem.
inline constexpr const char* kResolveStepSpan = "flowsim.step/resolve_step";

class Scope {
 public:
  Scope(Tracer& tracer, const char* name)
      : tracer_(tracer), index_(tracer.open(name)) {}
  ~Scope() { tracer_.close(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  int index_;
};

/// Runs `call` inside a span named `name` and returns its result.
template <typename F>
decltype(auto) traced(Tracer& tracer, const char* name, F&& call) {
  Scope scope(tracer, name);
  return std::forward<F>(call)();
}

}  // namespace perfbench
