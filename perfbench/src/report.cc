#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace perfbench {

bool HasTailSupport(size_t n, double pct) {
  if (pct < 0 || pct > 100) return false;
  // Samples beyond pct: n * (100 - pct) / 100 >= 10, in tenths of a percent.
  const auto tenths = static_cast<uint64_t>(std::llround(pct * 10));
  return static_cast<uint64_t>(n) * (1000 - tenths) >= 10 * 1000;
}

double HighestSupportedPercentile(size_t n) {
  for (double pct : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (HasTailSupport(n, pct)) return pct;
  }
  return 0;
}

double Percentile(std::vector<double> samples, double pct) {
  if (samples.empty()) return 0;
  // Nearest rank: the smallest value with at least pct% of samples <= it.
  const double rank = std::ceil(pct / 100.0 * static_cast<double>(samples.size()));
  size_t idx = rank <= 1 ? 0 : static_cast<size_t>(rank) - 1;
  idx = std::min(idx, samples.size() - 1);
  std::nth_element(samples.begin(), samples.begin() + static_cast<long>(idx),
                   samples.end());
  return samples[idx];
}

double BandPercentile(std::vector<double> samples, double pct) {
  if (samples.empty()) return 0;
  const double n = static_cast<double>(samples.size());
  const double half = std::min(10.0, (100 - pct) / 2);
  // Ranks [lo, hi): at least one sample, clamped to the range.
  auto lo = static_cast<size_t>(std::floor(std::max(0.0, pct - half) / 100 * n));
  auto hi = static_cast<size_t>(std::ceil(std::min(100.0, pct + half) / 100 * n));
  lo = std::min(lo, samples.size() - 1);
  hi = std::clamp(hi, lo + 1, samples.size());
  std::sort(samples.begin(), samples.end());
  double sum = 0;
  for (size_t i = lo; i < hi; ++i) sum += samples[i];
  return sum / static_cast<double>(hi - lo);
}

bool ValidMetricName(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name[0])) return false;
  for (char c : name) {
    if (!alnum(c) && c != '_' && c != '.' && c != '-') return false;
  }
  return true;
}

void MetricSet::Set(const std::string& name, double value,
                    const std::string& unit) {
  if (!ValidMetricName(name) || metrics_.count(name) > 0) {
    std::fprintf(stderr, "perfbench: invalid or repeated metric name '%s'\n",
                 name.c_str());
    std::abort();
  }
  metrics_[name] = {value, unit};
}

double MetricSet::Get(const std::string& name) const {
  const auto it = metrics_.find(name);
  return it == metrics_.end() ? 0 : it->second.value;
}

void RunResult::Fail(const std::string& what) {
  ++failed;
  if (failures.size() < 20) failures.push_back(what);
}

namespace {

void AppendNumber(std::string* out, double v) {
  char buf[40];
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
  }
  *out += buf;
}

}  // namespace

std::string ResultLine(const RunResult& r, bool trace) {
  const MetricSet& m = trace ? r.per_layer : r.end_to_end;
  std::string out = "{\"correct\": ";
  out += r.correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : m.all()) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": ";
    AppendNumber(&out, std::isfinite(metric.value) ? metric.value : 0);
    out += ", \"unit\": \"" + metric.unit + "\"}";
  }
  out += "}}";
  return out;
}

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},           {"ok_frac", "frac"},
      {"peak_rss_mb", "MB"},      {"ttf_p50_ms", "ms"},
      {"ttf_p95_ms", "ms"},       {"ttk_p50_ms", "ms"},
      {"ttk_p95_ms", "ms"},       {"queries_per_s", "1/s"},
      {"answers_per_s", "1/s"},   {"delay_p99_us", "us"},
  };
  return defs;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> defs = {
      {"query.parse_ms", "ms"},
      {"query.decompose_ms", "ms"},
      {"query.instance_ms", "ms"},
      {"storage.csv_load_s", "s"},
      {"storage.csv_rows_per_s", "1/s"},
      {"storage.shard_partition_ms.s4", "ms"},
      {"anyk.shard_prepare_ms.s1", "ms"},
      {"anyk.shard_prepare_ms.s4", "ms"},
      {"dp.build_ms", "ms"},
      {"dp.states", "count"},
      {"dp.connectors", "count"},
      {"plan.decide_ms", "ms"},
      {"plan.chose.Lazy", "count"},
      {"plan.chose.Take2", "count"},
      {"plan.chose.Eager", "count"},
      {"plan.chose.All", "count"},
      {"plan.chose.Recursive", "count"},
      {"plan.chose.Batch", "count"},
      {"anyk.open_ms", "ms"},
      {"anyk.first_ms", "ms"},
      {"anyk.topk_ms", "ms"},
      {"anyk.drain_s.Lazy", "s"},
      {"anyk.drain_s.Take2", "s"},
      {"anyk.drain_s.Eager", "s"},
      {"anyk.drain_s.All", "s"},
      {"anyk.drain_s.Recursive", "s"},
      {"anyk.drain_s.Batch", "s"},
      {"anyk.pops", "count"},
      {"anyk.pushes", "count"},
      {"anyk.max_cand", "count"},
      {"anyk.rec_heap_pops", "count"},
      {"anyk.enum_allocs", "count"},
      {"join.generic_join_ms", "ms"},
      {"join.output_rows", "count"},
      {"server.query_hit_ms.p50", "ms"},
      {"server.query_hit_ms.p99", "ms"},
      {"server.query_miss_ms.p50", "ms"},
      {"server.query_miss_ms.p90", "ms"},
      {"server.next_ms.p50", "ms"},
      {"server.next_ms.p99", "ms"},
      {"server.flush_ms", "ms"},
      {"server.cache_hit_ratio", "frac"},
      {"server.cache_lookups", "count"},
      {"server.coalesced", "count"},
      {"server.evictions", "count"},
      {"server.prepare_s", "s"},
      {"server.rejected", "count"},
      {"server.resp_bytes_per_answer", "B"},
      {"gen.lag_ms.p99", "ms"},
      {"req_p50_ms.mid", "ms"},
      {"req_p99_ms.mid", "ms"},
      {"req_p50_ms.high", "ms"},
      {"req_p99_ms.high", "ms"},
      {"max_rate_rps", "1/s"},
      {"trace.overhead_frac", "frac"},
      {"host.ref_us", "us"},
  };
  return defs;
}

void CompleteMetrics(RunResult* r, bool trace) {
  MetricSet* m = trace ? &r->per_layer : &r->end_to_end;
  const std::vector<MetricDef>& defs =
      trace ? PerLayerMetrics() : EndToEndMetrics();
  std::map<std::string, Metric> listed;
  for (const MetricDef& d : defs) {
    if (m->Has(d.name)) {
      listed[d.name] = m->all().at(d.name);
    } else if (trace) {
      listed[d.name] = {0, d.unit};
    } else {
      r->Fail(std::string("end-to-end metric not measured: ") + d.name);
      listed[d.name] = {0, d.unit};
    }
  }
  for (const auto& [name, metric] : m->all()) {
    if (listed.count(name) == 0) r->Fail("unlisted metric: " + name);
  }
  MetricSet out;
  for (const auto& [name, metric] : listed) out.Set(name, metric.value, metric.unit);
  *m = out;
}

OpenLoopSummary SummarizeOpenLoop(const std::vector<OpenLoopSample>& samples) {
  OpenLoopSummary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  std::vector<double> lat;
  std::vector<double> lag;
  lat.reserve(samples.size());
  for (const OpenLoopSample& x : samples) {
    lat.push_back(x.Latency() * 1e3);
    if (x.idle_wait) lag.push_back(x.Lag() * 1e3);
  }
  s.p50_ms = Percentile(lat, 50);
  s.p99_ms = Percentile(lat, std::min(99.0, std::max(50.0,
                                      HighestSupportedPercentile(lat.size()))));
  s.lag_p99_ms = Percentile(lag, std::min(99.0, std::max(50.0,
                                          HighestSupportedPercentile(lag.size()))));
  // Backlog trend: how late the sender ran at the end versus the start,
  // by due order.
  std::vector<const OpenLoopSample*> by_due;
  by_due.reserve(samples.size());
  for (const OpenLoopSample& x : samples) by_due.push_back(&x);
  std::sort(by_due.begin(), by_due.end(),
            [](const OpenLoopSample* a, const OpenLoopSample* b) {
              return a->due < b->due;
            });
  const size_t tenth = std::max<size_t>(1, by_due.size() / 10);
  double head = 0;
  double tail = 0;
  for (size_t i = 0; i < tenth; ++i) {
    head += by_due[i]->Lag();
    tail += by_due[by_due.size() - 1 - i]->Lag();
  }
  s.backlog_growth_ms = (tail - head) / static_cast<double>(tenth) * 1e3;
  return s;
}

bool MeetsLimit(const OpenLoopSummary& s, double limit_ms) {
  return s.n > 0 && s.p99_ms <= limit_ms && s.backlog_growth_ms <= limit_ms;
}

double InterpolateMaxRate(double rate_ok, double p99_ok, double rate_bad,
                          double p99_bad, double limit_ms) {
  if (p99_bad <= p99_ok) return rate_ok;
  const double frac = std::clamp((limit_ms - p99_ok) / (p99_bad - p99_ok),
                                 0.0, 1.0);
  return rate_ok + (rate_bad - rate_ok) * frac;
}

}  // namespace perfbench
