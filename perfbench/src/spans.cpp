#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <memory>

namespace perfbench {

std::uint32_t SpanRecorder::name_id(std::string_view name) {
  const std::uint32_t found = find(name);
  if (found != kNone) return found;
  names_.emplace_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::uint32_t SpanRecorder::find(std::string_view name) const {
  for (std::size_t i = 0; i < names_.size(); ++i)
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  return kNone;
}

void SpanRecorder::append(const SpanRecorder& other) {
  const auto offset = static_cast<std::uint32_t>(spans_.size());
  for (Span s : other.spans_) {
    s.name = name_id(other.names_[s.name]);
    if (s.parent != kNone) s.parent += offset;
    spans_.push_back(s);
  }
}

std::vector<double> SpanRecorder::durations_ns(std::string_view name) const {
  std::vector<double> out;
  const std::uint32_t id = find(name);
  if (id == kNone) return out;
  for (const Span& s : spans_)
    if (s.name == id) out.push_back(static_cast<double>(s.end_ns - s.start_ns));
  return out;
}

std::vector<double> SpanRecorder::self_ns(std::string_view name) const {
  std::vector<double> out;
  const std::uint32_t id = find(name);
  if (id == kNone) return out;
  // Children of one span never overlap each other (one recording thread
  // issues them in sequence), so the covered part of a parent's interval is
  // the sum of its children's durations clipped to that interval.
  std::vector<std::int64_t> covered(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent == kNone) continue;
    const Span& p = spans_[s.parent];
    const std::int64_t lo = std::max(s.start_ns, p.start_ns);
    const std::int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) covered[s.parent] += hi - lo;
  }
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (spans_[i].name == id)
      out.push_back(static_cast<double>(spans_[i].end_ns - spans_[i].start_ns - covered[i]));
  return out;
}

bool SpanRecorder::write_csv(const std::string& path) const {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(std::fopen(path.c_str(), "w"), &std::fclose);
  if (!f) return false;
  std::fprintf(f.get(), "name,start_ns,end_ns,parent,request\n");
  for (const Span& s : spans_) {
    const long long parent = s.parent == kNone ? -1 : static_cast<long long>(s.parent);
    std::fprintf(f.get(), "%s,%lld,%lld,%lld,%llu\n", names_[s.name].c_str(),
                 static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns), parent,
                 static_cast<unsigned long long>(s.request));
  }
  return std::fflush(f.get()) == 0;
}

}  // namespace perfbench
