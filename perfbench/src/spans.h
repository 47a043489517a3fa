// spans.h -- the traced run's span recorder.
//
// A span is one timed call into a layer's public surface: its name, start,
// end, the span that caused it, and the request it belongs to. Spans are
// recorded by the benchmark around its own calls (nothing inside the
// library is instrumented), kept in memory, and written out when the run
// ends. A layer's self time is its span's duration minus the part of that
// interval its child spans cover.
//
// The recorder is single-threaded: every workload issues its calls from one
// thread. A disabled recorder turns begin()/end() into a branch, so the
// untraced and traced runs execute the same code.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

class SpanRecorder {
 public:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  /// Turn recording on or off; spans already recorded stay.
  void set_enabled(bool on) { enabled_ = on; }

  /// Stable id for a span name.
  std::uint32_t name_id(std::string_view name);

  /// Open a span starting now; kNone when disabled.
  std::uint32_t begin(std::uint32_t name, std::uint64_t request = 0,
                      std::uint32_t parent = kNone) {
    return enabled_ ? begin_at(name, now_ns(), request, parent) : kNone;
  }
  /// Open a span whose start is a recorded time (an open-loop consult starts
  /// when it was due, not when the generator got to it).
  std::uint32_t begin_at(std::uint32_t name, std::int64_t start_ns, std::uint64_t request = 0,
                         std::uint32_t parent = kNone) {
    if (!enabled_) return kNone;
    spans_.push_back(Span{name, parent, request, start_ns, start_ns});
    return static_cast<std::uint32_t>(spans_.size() - 1);
  }
  void end(std::uint32_t span) {
    if (span != kNone) end_at(span, now_ns());
  }
  void end_at(std::uint32_t span, std::int64_t end_ns) {
    if (span != kNone) spans_[span].end_ns = end_ns;
  }

  /// Make room for `more` spans beyond those recorded (no-op when disabled).
  void reserve(std::size_t more) {
    if (enabled_) spans_.reserve(spans_.size() + more);
  }

  /// Add every span of `other` (recorded by another thread) to this one.
  void append(const SpanRecorder& other);

  /// Durations (ns) of every span with this name.
  std::vector<double> durations_ns(std::string_view name) const;
  /// Self times (ns) of every span with this name.
  std::vector<double> self_ns(std::string_view name) const;
  std::size_t size() const { return spans_.size(); }

  /// Write every span as CSV (name,start_ns,end_ns,parent,request). Returns
  /// false if the file could not be written.
  bool write_csv(const std::string& path) const;

  /// now_ns() when recording, else 0: a timestamp only spans need.
  std::int64_t stamp() const { return enabled_ ? now_ns() : 0; }

  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

 private:
  struct Span {
    std::uint32_t name;
    std::uint32_t parent;
    std::uint64_t request;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };

  /// kNone if the name was never recorded.
  std::uint32_t find(std::string_view name) const;

  bool enabled_;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
};

/// RAII span around one call.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, std::uint32_t name, std::uint64_t request = 0,
             std::uint32_t parent = SpanRecorder::kNone)
      : rec_(rec), id_(rec.begin(name, request, parent)) {}
  ~ScopedSpan() { rec_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::uint32_t id() const { return id_; }

 private:
  SpanRecorder& rec_;
  std::uint32_t id_;
};

}  // namespace perfbench
