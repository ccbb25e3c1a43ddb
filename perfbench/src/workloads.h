// The three workloads. Each one generates its inputs from the run's seed,
// sets up (timed, several times, median reported), measures for the run's
// seconds, checks every answer stream, and fills the run's end-to-end
// metrics (untraced run) or per-layer metrics (traced run).
//
// README.md maps every metric to its layer, its end-to-end counterpart and
// the workload it moves on.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "data.h"
#include "report.h"
#include "storage/database.h"
#include "trace.h"

namespace perfbench {

void RunTopkFresh(const RunOptions& opt, RunResult* r);
void RunDrainFull(const RunOptions& opt, RunResult* r);
void RunServeZipf(const RunOptions& opt, RunResult* r);

/// Set-up repetitions per run; setup_s is their median.
inline constexpr int kSetupReps = 5;

inline double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

/// Set-up figures of one run: medians over the kSetupReps repetitions.
struct SetupTimes {
  double setup_s = 0;
  double load_s = 0;  // the LoadRelationCsv calls alone
  size_t rows = 0;    // rows loaded per repetition
};

/// The closed-loop workloads' set-up, repeated kSetupReps times and timed:
/// generate `specs` from `seed`, write them to CSV under `work_dir`, load
/// them back through LoadRelationCsv, and hand the loaded database to
/// `adopt` (timed too; the last repetition's database is the one kept).
SetupTimes RepeatCsvSetup(const std::vector<RelSpec>& specs, uint64_t seed,
                          const std::string& work_dir,
                          const std::function<void(anyk::Database)>& adopt);

/// setup_s, ok_frac and peak_rss_mb (the whole process, set-up included):
/// the end-to-end metrics every workload reports the same way.
void SetCommonMetrics(double setup_s, RunResult* r);

/// Per-layer time metric from the traced spans: the self time of all spans
/// named `span` per operation (`ops` of them), in `unit_scale` units (1e3
/// for ms); 0 when there were none.
void SetSpanMean(const std::map<std::string, SpanStats>& spans,
                 const std::string& span, size_t ops, const std::string& metric,
                 double unit_scale, const std::string& unit, MetricSet* m);

/// The per-layer metrics of the two closed-loop workloads' traced runs
/// beyond their own: the prepare spans per operation (query.parse,
/// query.decompose, query.instance, dp.build, plan.decide), the CSV load,
/// and trace.overhead_frac from the paired operations' summed times.
void SetSharedLayerMetrics(const std::map<std::string, SpanStats>& spans,
                           size_t ops, const SetupTimes& setup,
                           double untraced_s, double traced_s, MetricSet* m);

/// Write a traced run's spans to `opt.spans_out` (when it names a file).
void WriteSpans(const Tracer& t, const RunOptions& opt);

/// Run one operation untraced and traced, the order alternating with the
/// parity of `i`; false as soon as one of them fails.
bool RunPaired(uint64_t i, const std::function<bool()>& plain,
               const std::function<bool()>& traced);

/// The end-to-end metrics shared by the two closed-loop workloads.
struct ClosedLoopTally {
  std::vector<double> ttf_ms;
  std::vector<double> ttk_ms;
  std::vector<double> delays_us;
  double busy_s = 0;  // sum of operation times
  size_t answers = 0;
  size_t ops = 0;

  /// True once every reported percentile has ten samples beyond it.
  bool Supported() const {
    return HasTailSupport(ttf_ms.size(), 95) &&
           HasTailSupport(delays_us.size(), 99);
  }
};

/// Per-answer delays of streams that repeat: stream `key` is pulled several
/// times and yields the same batches in the same order each time. A batch
/// position counts with its median over the pulls, so a batch the host
/// preempted once does not move a percentile, and percentiles are taken
/// over the distinct positions of every stream rather than resting on the
/// few slowest positions.
class RepeatedDelays {
 public:
  /// One pull of stream `key`: the delay of each of its batches, in order.
  void Add(size_t key, const std::vector<double>& us);
  /// The median delay of every (stream, position) pulled at least once.
  std::vector<double> PerPosition() const;

 private:
  std::map<size_t, std::vector<std::vector<float>>> pulls_;  // key -> pulls
};

/// Fill the end-to-end metrics; with `require_support`, a tally whose
/// percentiles lack ten samples beyond them fails the run.
void SetClosedLoopMetrics(const ClosedLoopTally& t, double setup_s,
                          bool require_support, RunResult* r);

/// The measured window of a closed-loop workload: `step()` (one operation,
/// or one pass over a list) runs until `opt.seconds` have passed and, in a
/// full-size untraced run, until every percentile of `tally` has ten
/// samples beyond it; for 4 x `opt.seconds` at most.
void RunClosedLoop(const RunOptions& opt, const ClosedLoopTally& tally,
                   const std::function<void()>& step);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
