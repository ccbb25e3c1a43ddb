// Tests of the benchmark itself: the percentile rule, metric naming, the
// open-loop accounting, span self times, the replica-vs-library comparison,
// and a tiny run of every workload — clean, traced, and with each kind of
// planted wrong answer, which the check meant for it must catch.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "engine.h"
#include "host.h"
#include "report.h"
#include "trace.h"
#include "util/logging.h"
#include "workloads.h"

namespace perfbench {
namespace {

std::vector<double> OneToN(size_t n) {
  std::vector<double> v;
  for (size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(Percentile, NearestRank) {
  EXPECT_EQ(Percentile({}, 50), 0);
  EXPECT_EQ(Percentile({7}, 99), 7);
  const std::vector<double> v = OneToN(100);
  EXPECT_EQ(Percentile(v, 50), 50);
  EXPECT_EQ(Percentile(v, 95), 95);
  EXPECT_EQ(Percentile(v, 99), 99);
  EXPECT_EQ(Percentile(v, 100), 100);
  EXPECT_EQ(Percentile(v, 0), 1);
}

TEST(Percentile, BandMeanAroundThePercentile) {
  EXPECT_EQ(BandPercentile({}, 50), 0);
  EXPECT_EQ(BandPercentile({7}, 99), 7);
  const std::vector<double> v = OneToN(100);
  // p50: ranks 41..60; p90: ranks 86..95.
  EXPECT_DOUBLE_EQ(BandPercentile(v, 50), 50.5);
  EXPECT_DOUBLE_EQ(BandPercentile(v, 90), 90.5);
  EXPECT_DOUBLE_EQ(BandPercentile(v, 99), 99.5);  // ranks 99..100
  // Two clusters split near the median: the nearest-rank median jumps from
  // one cluster to the other when a single sample crosses, the band mean
  // moves by a twentieth of the gap.
  std::vector<double> a(49, 10.0), b(51, 20.0);
  std::vector<double> lo = a, hi = a;
  lo.insert(lo.end(), b.begin(), b.end());
  hi.push_back(10.0);
  hi.insert(hi.end(), b.begin() + 1, b.end());
  EXPECT_EQ(Percentile(lo, 50) - Percentile(hi, 50), 10);
  EXPECT_NEAR(BandPercentile(lo, 50) - BandPercentile(hi, 50), 0.5, 1e-9);
}

TEST(Percentile, TenSamplesBeyond) {
  EXPECT_FALSE(HasTailSupport(199, 95));
  EXPECT_TRUE(HasTailSupport(200, 95));
  EXPECT_FALSE(HasTailSupport(999, 99));
  EXPECT_TRUE(HasTailSupport(1000, 99));
  EXPECT_FALSE(HasTailSupport(9999, 99.9));
  EXPECT_TRUE(HasTailSupport(10000, 99.9));
  EXPECT_FALSE(HasTailSupport(19, 50));
  EXPECT_TRUE(HasTailSupport(20, 50));

  EXPECT_EQ(HighestSupportedPercentile(19), 0);
  EXPECT_EQ(HighestSupportedPercentile(20), 50);
  EXPECT_EQ(HighestSupportedPercentile(100), 90);
  EXPECT_EQ(HighestSupportedPercentile(200), 95);
  EXPECT_EQ(HighestSupportedPercentile(999), 95);
  EXPECT_EQ(HighestSupportedPercentile(1000), 99);
  EXPECT_EQ(HighestSupportedPercentile(10000), 99.9);
}

TEST(Percentile, ClosedLoopNeedsSupportForEveryReportedTail) {
  ClosedLoopTally t;
  t.ttf_ms = OneToN(199);
  t.delays_us = OneToN(1000);
  EXPECT_FALSE(t.Supported());  // p95 of 199 samples has 9 beyond it
  t.ttf_ms = OneToN(200);
  EXPECT_TRUE(t.Supported());
  t.delays_us = OneToN(999);
  EXPECT_FALSE(t.Supported());  // p99 needs 1000

  RunResult r;
  r.attempted = 1;
  SetClosedLoopMetrics(t, 1.0, true, &r);
  EXPECT_EQ(r.failed, 1u);
}

TEST(Percentile, RepeatedDelaysTakeEachPositionsMedian) {
  RepeatedDelays d;
  d.Add(0, {1, 2, 3});
  d.Add(0, {1, 90, 3});  // the second batch was preempted once
  d.Add(0, {1, 2, 3});
  d.Add(7, {5});
  std::vector<double> v = d.PerPosition();
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, (std::vector<double>{1, 2, 3, 5}));
}

TEST(Metrics, ScaleToNominalScalesTimesAndRatesOnly) {
  MetricSet m;
  m.Set("a_ms", 10, "ms");
  m.Set("b_s", 2, "s");
  m.Set("c_us", 4, "us");
  m.Set("d_per_s", 100, "1/s");
  m.Set("e_count", 7, "count");
  m.Set("f_mb", 50, "MB");
  m.Set("setup_s", 3, "s");  // scaled rep by rep as it is measured
  ScaleToNominal(0.5, &m);
  EXPECT_EQ(m.Get("a_ms"), 5);
  EXPECT_EQ(m.Get("b_s"), 1);
  EXPECT_EQ(m.Get("c_us"), 2);
  EXPECT_EQ(m.Get("d_per_s"), 200);
  EXPECT_EQ(m.Get("e_count"), 7);
  EXPECT_EQ(m.Get("f_mb"), 50);
  EXPECT_EQ(m.Get("setup_s"), 3);
  EXPECT_DOUBLE_EQ(SetupAtNominal(2, HostSpeed::kNominalUs * 2), 1);
}

TEST(Metrics, HostSpeedFactorIsNominalOverMedianSample) {
  HostSpeed h;
  EXPECT_EQ(h.Factor(), 1);
  for (int i = 0; i < 3; ++i) h.Sample();
  EXPECT_EQ(h.samples(), 3u);
  EXPECT_GT(h.ReferenceUs(), 0);
  EXPECT_DOUBLE_EQ(h.Factor(), HostSpeed::kNominalUs / h.ReferenceUs());
}

TEST(Metrics, NamePattern) {
  for (const char* ok : {"ttf_p95_ms", "req_p99_ms.mid", "a-b", "0x",
                         "plan.chose.Take2"}) {
    EXPECT_TRUE(ValidMetricName(ok)) << ok;
  }
  for (const char* bad : {"", "_x", ".x", "a b", "a/b", "ms%", "é"}) {
    EXPECT_FALSE(ValidMetricName(bad)) << bad;
  }
  EXPECT_TRUE(ValidMetricName(std::string(64, 'a')));
  EXPECT_FALSE(ValidMetricName(std::string(65, 'a')));
}

TEST(Metrics, ListedNamesAreValidAndUnique) {
  std::set<std::string> seen;
  for (const auto* defs : {&EndToEndMetrics(), &PerLayerMetrics()}) {
    for (const MetricDef& d : *defs) {
      EXPECT_TRUE(ValidMetricName(d.name)) << d.name;
      EXPECT_TRUE(seen.insert(d.name).second) << d.name;
    }
  }
  EXPECT_TRUE(seen.count("setup_s"));
}

TEST(Metrics, CompleteMetricsFillsLayersAndFailsMissingEndToEnd) {
  RunResult traced;
  traced.attempted = 1;
  traced.per_layer.Set("dp.states", 5, "count");
  CompleteMetrics(&traced, true);
  EXPECT_TRUE(traced.correct());
  EXPECT_EQ(traced.per_layer.all().size(), PerLayerMetrics().size());
  EXPECT_EQ(traced.per_layer.Get("dp.states"), 5);
  EXPECT_EQ(traced.per_layer.Get("server.flush_ms"), 0);

  RunResult plain;
  plain.attempted = 1;
  plain.end_to_end.Set("setup_s", 1, "s");
  plain.end_to_end.Set("not_listed", 1, "s");
  CompleteMetrics(&plain, false);
  EXPECT_EQ(plain.failed, EndToEndMetrics().size());  // 9 missing + 1 extra
}

TEST(Metrics, ResultLineShape) {
  RunResult r;
  r.attempted = 3;
  r.end_to_end.Set("setup_s", 0.5, "s");
  EXPECT_EQ(ResultLine(r, false),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
            "\"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}");
}

TEST(OpenLoop, LatencyCountsFromDueNotFromSend) {
  OpenLoopSample s;
  s.due = 1.0;
  s.sent = 1.5;  // the client was stuck behind an earlier request
  s.done = 1.6;
  EXPECT_DOUBLE_EQ(s.Latency(), 0.6);
  EXPECT_DOUBLE_EQ(s.Lag(), 0.5);
}

TEST(OpenLoop, SummaryReportsLagAndBacklog) {
  // A steady schedule: 1000 requests, each sent 0.1 ms late after an idle
  // wait, each served in 1 ms.
  std::vector<OpenLoopSample> steady;
  for (int i = 0; i < 1000; ++i) {
    OpenLoopSample s;
    s.due = i * 0.01;
    s.sent = s.due + 0.0001;
    s.done = s.sent + 0.001;
    s.idle_wait = true;
    steady.push_back(s);
  }
  const OpenLoopSummary a = SummarizeOpenLoop(steady);
  EXPECT_EQ(a.n, 1000u);
  EXPECT_NEAR(a.p50_ms, 1.1, 1e-9);
  EXPECT_NEAR(a.lag_p99_ms, 0.1, 1e-9);
  EXPECT_NEAR(a.backlog_growth_ms, 0, 1e-9);
  EXPECT_TRUE(MeetsLimit(a, 5));

  // An overloaded schedule: each request waits for the one before, so the
  // lateness grows without bound even though service stays at 1 ms.
  std::vector<OpenLoopSample> overloaded;
  double free_at = 0;
  for (int i = 0; i < 1000; ++i) {
    OpenLoopSample s;
    s.due = i * 0.0005;
    s.idle_wait = free_at <= s.due;
    s.sent = std::max(s.due, free_at);
    s.done = s.sent + 0.001;
    free_at = s.done;
    overloaded.push_back(s);
  }
  const OpenLoopSummary b = SummarizeOpenLoop(overloaded);
  EXPECT_GT(b.backlog_growth_ms, 400);
  EXPECT_GT(b.p99_ms, 400);  // timed from due, the queueing shows
  EXPECT_FALSE(MeetsLimit(b, 5));
}

TEST(OpenLoop, InterpolatedMaxRate) {
  EXPECT_DOUBLE_EQ(InterpolateMaxRate(100, 10, 200, 30, 20), 150);
  EXPECT_DOUBLE_EQ(InterpolateMaxRate(100, 10, 200, 1000, 10), 100);
  EXPECT_DOUBLE_EQ(InterpolateMaxRate(100, 10, 200, 5, 20), 100);
}

TEST(Trace, SelfTimeExcludesChildren) {
  const auto epoch = Clock::now();
  Tracer t(true, epoch);
  t.SetRequest(7);
  const auto at = [&](double s) {
    return epoch + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(s));
  };
  {
    ScopedSpan op(&t, "op");
    t.Record("child", at(0), at(0.25));
    t.Record("child", at(0.25), at(0.5));
  }
  ASSERT_EQ(t.spans().size(), 3u);
  EXPECT_EQ(t.spans()[1].parent, 0);
  EXPECT_EQ(t.spans()[1].request, 7u);
  const auto agg = AggregateSpans(t);
  EXPECT_EQ(agg.at("child").count, 2u);
  EXPECT_NEAR(agg.at("child").total_s, 0.5, 1e-9);
  const SpanStats& op = agg.at("op");
  EXPECT_NEAR(op.self_s, op.total_s - 0.5, 1e-9);

  Tracer other(true, epoch);
  {
    ScopedSpan a(&other, "a");
    ScopedSpan b(&other, "b");
  }
  t.Merge(other);
  EXPECT_EQ(t.spans()[4].parent, 3);

  Tracer off(false, epoch);
  { ScopedSpan s(&off, "x"); }
  EXPECT_TRUE(off.spans().empty());
}

TEST(Replica, ShapeDifferenceNamesWhatDiffers) {
  PrepareShape lib;
  lib.algorithm = anyk::Algorithm::kTake2;
  lib.heap_arity = 4;
  lib.stage_states = {10, 20};
  lib.stage_conns = {5, 6};
  EXPECT_EQ(ShapeDifference(lib, lib), "");
  EXPECT_EQ(lib.States(), 30u);
  EXPECT_EQ(lib.Connectors(), 11u);

  PrepareShape other = lib;
  other.heap_arity = 8;
  EXPECT_NE(ShapeDifference(other, lib).find("decision"), std::string::npos);
  other = lib;
  other.plan = anyk::QueryPlan::kCycleUnion;
  EXPECT_EQ(ShapeDifference(other, lib), "plan");
  other = lib;
  other.stage_states = {20, 10};  // same total, other stages
  EXPECT_EQ(ShapeDifference(other, lib), "stage states / connectors");
}

// ---------------------------------------------------------------------------
// Tiny runs of every workload
// ---------------------------------------------------------------------------

RunResult RunTiny(const std::string& workload, bool trace, Plant plant) {
  anyk::SetCheckFailureHandler(&anyk::ThrowingCheckHandler);
  RunOptions opt;
  opt.workload = workload;
  opt.seed = 3;
  opt.seconds = 1;
  opt.trace = trace;
  opt.tiny = true;
  opt.plant = plant;
  opt.work_dir = (std::filesystem::current_path() /
                  ("perfbench_test_" + opt.workload))
                     .string();
  std::filesystem::create_directories(opt.work_dir);
  RunResult r;
  if (opt.workload == "topk_fresh") RunTopkFresh(opt, &r);
  if (opt.workload == "drain_full") RunDrainFull(opt, &r);
  if (opt.workload == "serve_zipf") RunServeZipf(opt, &r);
  CompleteMetrics(&r, trace);
  std::filesystem::remove_all(opt.work_dir);
  return r;
}

class WorkloadTest : public ::testing::TestWithParam<std::string> {};

TEST_P(WorkloadTest, CleanRunIsCorrectAndComplete) {
  const RunResult r = RunTiny(GetParam(), false, Plant::kNone);
  for (const std::string& f : r.failures) ADD_FAILURE() << f;
  EXPECT_GT(r.attempted, 0u);
  EXPECT_EQ(r.end_to_end.all().size(), EndToEndMetrics().size());
  EXPECT_EQ(r.end_to_end.Get("ok_frac"), 1);
  EXPECT_GT(r.end_to_end.Get("setup_s"), 0);
  EXPECT_GT(r.end_to_end.Get("ttf_p50_ms"), 0);
}

TEST_P(WorkloadTest, TracedRunIsCorrect) {
  const RunResult r = RunTiny(GetParam(), true, Plant::kNone);
  for (const std::string& f : r.failures) ADD_FAILURE() << f;
  EXPECT_EQ(r.per_layer.all().size(), PerLayerMetrics().size());
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadTest,
                         ::testing::Values("topk_fresh", "drain_full",
                                           "serve_zipf"));

/// A planted wrong answer, and the check that must report it first.
struct PlantCase {
  std::string workload;
  Plant plant;
  std::string caught_by;  // part of the first failure's description

  friend void PrintTo(const PlantCase& c, std::ostream* os) {
    *os << c.workload << " / " << static_cast<int>(c.plant);
  }
};

class PlantTest : public ::testing::TestWithParam<PlantCase> {};

TEST_P(PlantTest, CaughtByTheCheckMeantForIt) {
  const PlantCase& c = GetParam();
  const RunResult r = RunTiny(c.workload, false, c.plant);
  EXPECT_FALSE(r.correct());
  EXPECT_LT(r.end_to_end.Get("ok_frac"), 1);
  ASSERT_FALSE(r.failures.empty());
  EXPECT_NE(r.failures[0].find(c.caught_by), std::string::npos)
      << r.failures[0];
  if (c.plant != Plant::kOrder) {
    // Rank order holds, so the order check must stay silent: the failure
    // shows that the reference comparison can fail on its own.
    for (const std::string& f : r.failures) {
      EXPECT_EQ(f.find("rank order"), std::string::npos) << f;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    EveryCheck, PlantTest,
    ::testing::Values(
        PlantCase{"topk_fresh", Plant::kOrder, "out of rank order"},
        PlantCase{"topk_fresh", Plant::kWeight, "oracle"},
        PlantCase{"topk_fresh", Plant::kDrop, "oracle"},
        PlantCase{"drain_full", Plant::kOrder, "out of rank order"},
        PlantCase{"drain_full", Plant::kWeight, "weight digest differ"},
        PlantCase{"drain_full", Plant::kDrop, "answers, the join"},
        PlantCase{"serve_zipf", Plant::kOrder, "the library's is"},
        PlantCase{"serve_zipf", Plant::kWeight, "the library's is"},
        PlantCase{"serve_zipf", Plant::kDrop, "do not join up"}),
    [](const ::testing::TestParamInfo<PlantCase>& info) {
      const char* kind = info.param.plant == Plant::kOrder    ? "order"
                         : info.param.plant == Plant::kWeight ? "weight"
                                                              : "drop";
      return info.param.workload + "_" + kind;
    });

}  // namespace
}  // namespace perfbench
