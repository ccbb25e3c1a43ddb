// Shared plumbing of the benchmark program: run options, percentiles with the
// "ten samples beyond" rule, metric naming, the result line, and the
// open-loop accounting used by serve_zipf.

#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// A wrong answer planted between the engine and the correctness checks
/// (the tests and `--plant` use it to prove that each check bites).
enum class Plant {
  kNone,
  kOrder,   // an answer ranks strictly better than the first of its pull:
            // the rank-order check must catch it
  kWeight,  // an answer takes its predecessor's (different) weight: rank
            // order holds, so only a comparison with a reference (Batch
            // digest, oracle top-k, the library's weights) can catch it
  kDrop,    // an answer goes missing: rank order holds; the count checks
};

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  Plant plant = Plant::kNone;
  // Tiny inputs and short phases: the benchmark's own tests run every
  // workload this way in a few seconds.
  bool tiny = false;
  // Scratch directory for generated CSV files (created, then removed).
  std::string work_dir = ".";
  // Traced runs write their spans here at the end (empty: not written).
  std::string spans_out;
};

// ---------------------------------------------------------------------------
// Percentiles
// ---------------------------------------------------------------------------

/// True when at least ten of `n` samples lie beyond percentile `pct`
/// (e.g. pct = 95 needs n >= 200). Integer arithmetic on tenths of a
/// percent, so 99.9 is exact.
bool HasTailSupport(size_t n, double pct);

/// The highest of {99.9, 99, 95, 90, 75, 50} with tail support for `n`
/// samples (0 when not even the median has ten samples beyond it).
double HighestSupportedPercentile(size_t n);

/// Nearest-rank percentile (pct in [0, 100]) of `samples`; 0 when empty.
double Percentile(std::vector<double> samples, double pct);

/// The percentile the end-to-end metrics report: the mean of the samples
/// ranked within a band around `pct` as wide as the tail beyond it, but at
/// most ten points either side — pct ± min(10, (100 - pct) / 2), so p50 is
/// the mean of p40..p60 and p95 of p92.5..p97.5. A nearest-rank percentile
/// is one sample; where the samples cluster (drains of a few queries, cache
/// hits and misses, sessions of 1 to 4 pages) it jumps from one cluster to
/// the next on a small change, and the band mean moves smoothly instead.
/// 0 when empty.
double BandPercentile(std::vector<double> samples, double pct);

// ---------------------------------------------------------------------------
// Metrics and the result line
// ---------------------------------------------------------------------------

/// Metric names: [A-Za-z0-9_.-]+, starting with a letter or digit, at most
/// 64 characters.
bool ValidMetricName(const std::string& name);

struct Metric {
  double value = 0;
  std::string unit;
};

/// Name -> value, kept sorted so the printed line is stable.
class MetricSet {
 public:
  /// Records a metric; aborts the run on an invalid or repeated name.
  void Set(const std::string& name, double value, const std::string& unit);
  const std::map<std::string, Metric>& all() const { return metrics_; }
  bool Has(const std::string& name) const { return metrics_.count(name) > 0; }
  double Get(const std::string& name) const;

 private:
  std::map<std::string, Metric> metrics_;
};

/// Outcome of one run, before it is printed.
struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // First few failure descriptions (printed to stderr).
  std::vector<std::string> failures;
  MetricSet end_to_end;
  MetricSet per_layer;

  void Fail(const std::string& what);
  bool correct() const { return failed == 0; }
};

/// The single JSON line a run ends with: correct / attempted / failed /
/// metrics (end-to-end metrics untraced, per-layer metrics traced).
std::string ResultLine(const RunResult& r, bool trace);

struct MetricDef {
  const char* name;
  const char* unit;
};

/// The end-to-end and per-layer metrics every run reports (the same lists
/// as BENCHMARK.json).
const std::vector<MetricDef>& EndToEndMetrics();
const std::vector<MetricDef>& PerLayerMetrics();

/// Make `r` report exactly the listed metrics of its mode: per-layer
/// metrics a workload does not exercise read 0 (no work in that layer); a
/// missing end-to-end metric or any unlisted metric fails the run.
void CompleteMetrics(RunResult* r, bool trace);

// ---------------------------------------------------------------------------
// Open-loop accounting
// ---------------------------------------------------------------------------

/// One request of an open loop. Times are seconds from the phase start.
struct OpenLoopSample {
  double due = 0;    // when the schedule said to send it
  double sent = 0;   // when the client actually sent it
  double done = 0;   // when the full response had arrived
  bool idle_wait = false;  // the client slept until `due` (was not behind)

  /// Latency as the user sees it: from when it was due, not when it left.
  double Latency() const { return done - due; }
  /// How late the sender ran; only meaningful for idle_wait samples, where
  /// it is the generator's own oversleep rather than queueing.
  double Lag() const { return sent - due; }
};

struct OpenLoopSummary {
  size_t n = 0;
  double p50_ms = 0;
  double p99_ms = 0;  // highest supported percentile up to p99
  double lag_p99_ms = 0;
  // Lateness of the last tenth of the schedule minus that of the first
  // tenth: a positive trend well above the latency limit is a growing
  // backlog.
  double backlog_growth_ms = 0;
};

OpenLoopSummary SummarizeOpenLoop(const std::vector<OpenLoopSample>& samples);

/// The rung test of the max-rate ladder: p99 within the limit and no
/// growing backlog.
bool MeetsLimit(const OpenLoopSummary& s, double limit_ms);

/// Linear interpolation of the sustainable rate between the last rung that
/// met the limit (rate_ok, p99_ok) and the first that did not (rate_bad,
/// p99_bad), so the reported capacity is continuous rather than a rung.
double InterpolateMaxRate(double rate_ok, double p99_ok, double rate_bad,
                          double p99_bad, double limit_ms);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
