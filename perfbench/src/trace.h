// In-memory span tracing for the traced run.
//
// Spans are recorded only by the benchmark's own code, around its calls into
// a layer's public functions: name, start, end, parent span and request id.
// They stay in memory until the run ends, when they are written out and
// aggregated. A layer's self time is its span's duration minus the time its
// direct child spans cover. A disabled tracer records nothing, so the
// untraced run pays one branch per call site.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "report.h"

namespace perfbench {

struct Span {
  const char* name = "";
  double start = 0;  // seconds since the tracer's epoch
  double end = 0;
  int32_t parent = -1;  // index into the same tracer's spans, -1 for a root
  uint64_t request = 0;
};

/// One thread's spans. Not thread-safe: multi-threaded workloads give each
/// thread its own tracer and Merge() them at the end.
class Tracer {
 public:
  Tracer(bool enabled, Clock::time_point epoch)
      : enabled_(enabled), epoch_(epoch) {}

  /// Spans begun from now on belong to request `id`.
  void SetRequest(uint64_t id) { request_ = id; }

  /// Open a span as a child of the innermost open span; returns its index
  /// (-1 when disabled).
  int Begin(const char* name);
  void End(int id);

  /// Record an already measured interval as a child of the innermost open
  /// span (used where the interval's start is a schedule time).
  void Record(const char* name, Clock::time_point start,
              Clock::time_point end);

  /// Append `other`'s spans, re-basing their parent indices.
  void Merge(const Tracer& other);

  const std::vector<Span>& spans() const { return spans_; }

  /// Write one CSV line per span (request,id,parent,name,start_us,end_us).
  bool WriteCsv(const std::string& path) const;

 private:
  double Since(Clock::time_point t) const { return SecondsBetween(epoch_, t); }

  bool enabled_;
  Clock::time_point epoch_;
  uint64_t request_ = 0;
  std::vector<Span> spans_;
  std::vector<int> open_;  // stack of open span indices
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* t, const char* name) : t_(t), id_(t->Begin(name)) {}
  ~ScopedSpan() { t_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* t_;
  int id_;
};

struct SpanStats {
  size_t count = 0;
  double total_s = 0;  // sum of durations
  double self_s = 0;   // sum of durations minus direct children
  std::vector<double> durations_s;
};

/// Per-name totals over all spans of `t`.
std::map<std::string, SpanStats> AggregateSpans(const Tracer& t);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
