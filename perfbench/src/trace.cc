#include "trace.h"

#include <cinttypes>
#include <cstdio>

namespace perfbench {

int Tracer::Begin(const char* name) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.start = Since(Clock::now());
  s.parent = open_.empty() ? -1 : open_.back();
  s.request = request_;
  spans_.push_back(s);
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

void Tracer::End(int id) {
  if (id < 0) return;
  spans_[static_cast<size_t>(id)].end = Since(Clock::now());
  // Spans close in LIFO order (ScopedSpan); tolerate an out-of-order close
  // by unwinding to the span being closed.
  while (!open_.empty()) {
    const int top = open_.back();
    open_.pop_back();
    if (top == id) break;
  }
}

void Tracer::Record(const char* name, Clock::time_point start,
                    Clock::time_point end) {
  if (!enabled_) return;
  Span s;
  s.name = name;
  s.start = Since(start);
  s.end = Since(end);
  s.parent = open_.empty() ? -1 : open_.back();
  s.request = request_;
  spans_.push_back(s);
}

void Tracer::Merge(const Tracer& other) {
  const int32_t base = static_cast<int32_t>(spans_.size());
  for (Span s : other.spans_) {
    if (s.parent >= 0) s.parent += base;
    spans_.push_back(s);
  }
}

bool Tracer::WriteCsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "request,id,parent,name,start_us,end_us\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%" PRIu64 ",%zu,%d,%s,%.3f,%.3f\n", s.request, i,
                 s.parent, s.name, s.start * 1e6, s.end * 1e6);
  }
  return std::fclose(f) == 0;
}

std::map<std::string, SpanStats> AggregateSpans(const Tracer& t) {
  const std::vector<Span>& spans = t.spans();
  std::vector<double> child_time(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      child_time[static_cast<size_t>(s.parent)] += s.end - s.start;
    }
  }
  std::map<std::string, SpanStats> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    const double d = spans[i].end - spans[i].start;
    SpanStats& st = out[spans[i].name];
    ++st.count;
    st.total_s += d;
    st.self_s += d - child_time[i];
    st.durations_s.push_back(d);
  }
  return out;
}

}  // namespace perfbench
