#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "host.h"
#include "util/alloc_stats.h"
#include "util/timer.h"
#include "workloads.h"

namespace perfbench {

SetupTimes RepeatCsvSetup(const std::vector<RelSpec>& specs, uint64_t seed,
                          const std::string& work_dir,
                          const std::function<void(anyk::Database)>& adopt) {
  std::vector<double> setup_s, load_s;
  size_t rows = 0;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const double sample_us = Host().Sample();
    anyk::Timer timer;
    anyk::Database gen;
    GenerateRelations(specs, seed, &gen);
    LoadStats ls;
    adopt(RoundTripCsv(gen, specs, work_dir, &ls));
    setup_s.push_back(SetupAtNominal(timer.Seconds(), sample_us));
    load_s.push_back(SetupAtNominal(ls.load_seconds, sample_us));
    rows = ls.rows;
  }
  return {Median(setup_s), Median(load_s), rows};
}

void SetCommonMetrics(double setup_s, RunResult* r) {
  MetricSet& m = r->end_to_end;
  m.Set("setup_s", setup_s, "s");
  m.Set("ok_frac",
        r->attempted == 0 ? 0
                          : 1.0 - static_cast<double>(r->failed) /
                                      static_cast<double>(r->attempted),
        "frac");
  m.Set("peak_rss_mb", static_cast<double>(anyk::PeakRssKb()) / 1024.0, "MB");
}

void SetSpanMean(const std::map<std::string, SpanStats>& spans,
                 const std::string& span, size_t ops, const std::string& metric,
                 double unit_scale, const std::string& unit, MetricSet* m) {
  const auto it = spans.find(span);
  const double v = it == spans.end() || ops == 0
                       ? 0
                       : it->second.self_s / static_cast<double>(ops);
  m->Set(metric, v * unit_scale, unit);
}

void SetSharedLayerMetrics(const std::map<std::string, SpanStats>& spans,
                           size_t ops, const SetupTimes& setup,
                           double untraced_s, double traced_s, MetricSet* m) {
  for (const char* layer : {"query.parse", "query.decompose", "query.instance",
                            "dp.build", "plan.decide"}) {
    SetSpanMean(spans, layer, ops, std::string(layer) + "_ms", 1e3, "ms", m);
  }
  m->Set("storage.csv_load_s", setup.load_s, "s");
  m->Set("storage.csv_rows_per_s",
         setup.load_s > 0 ? static_cast<double>(setup.rows) / setup.load_s : 0,
         "1/s");
  m->Set("trace.overhead_frac",
         untraced_s > 0 ? traced_s / untraced_s - 1 : 0, "frac");
}

void WriteSpans(const Tracer& t, const RunOptions& opt) {
  if (!opt.spans_out.empty() && !t.WriteCsv(opt.spans_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", opt.spans_out.c_str());
  }
}

bool RunPaired(uint64_t i, const std::function<bool()>& plain,
               const std::function<bool()>& traced) {
  return i % 2 == 0 ? plain() && traced() : traced() && plain();
}

void RepeatedDelays::Add(size_t key, const std::vector<double>& us) {
  pulls_[key].emplace_back(us.begin(), us.end());
}

std::vector<double> RepeatedDelays::PerPosition() const {
  std::vector<double> out;
  std::vector<double> at;
  for (const auto& [key, pulls] : pulls_) {
    for (size_t pos = 0;; ++pos) {
      at.clear();
      for (const std::vector<float>& p : pulls) {
        if (pos < p.size()) at.push_back(p[pos]);
      }
      if (at.empty()) break;
      out.push_back(Median(at));
    }
  }
  return out;
}

void SetClosedLoopMetrics(const ClosedLoopTally& t, double setup_s,
                          bool require_support, RunResult* r) {
  SetCommonMetrics(setup_s, r);
  MetricSet& m = r->end_to_end;
  m.Set("ttf_p50_ms", BandPercentile(t.ttf_ms, 50), "ms");
  m.Set("ttf_p95_ms", BandPercentile(t.ttf_ms, 95), "ms");
  m.Set("ttk_p50_ms", BandPercentile(t.ttk_ms, 50), "ms");
  m.Set("ttk_p95_ms", BandPercentile(t.ttk_ms, 95), "ms");
  m.Set("queries_per_s", t.busy_s > 0 ? static_cast<double>(t.ops) / t.busy_s : 0,
        "1/s");
  m.Set("answers_per_s",
        t.busy_s > 0 ? static_cast<double>(t.answers) / t.busy_s : 0, "1/s");
  m.Set("delay_p99_us", BandPercentile(t.delays_us, 99), "us");
  if (require_support && !t.Supported()) {
    r->Fail("too few samples for the reported percentiles (" +
            std::to_string(t.ttf_ms.size()) + " operations, " +
            std::to_string(t.delays_us.size()) + " batches)");
  }
}

void RunClosedLoop(const RunOptions& opt, const ClosedLoopTally& tally,
                   const std::function<void()>& step) {
  const auto start = Clock::now();
  for (;;) {
    const double elapsed = SecondsBetween(start, Clock::now());
    if (elapsed >= 4 * opt.seconds) break;
    if (elapsed >= opt.seconds &&
        (opt.trace || opt.tiny || tally.Supported())) {
      break;
    }
    Host().MaybeSample();
    step();
  }
}

}  // namespace perfbench
