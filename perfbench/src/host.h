// Host-speed calibration.
//
// The benchmark runs on shared VMs whose speed drifts by 20-40% over
// minutes (other tenants' load on the same cores, caches and memory). A
// run measures the engine at whatever speed the host has at the time, so
// ten runs of the same code spread that much too. To take the drift out,
// every run also times a fixed reference kernel — the benchmark's own code,
// independent of the engine: a sort and a hash-table fill over a few
// megabytes — at regular points on the main thread while nothing else runs,
// and reports its times scaled to a nominal host speed:
//
//   reported time = measured time * kNominalUs / (median kernel time)
//
// (rates are divided by the same factor; set-up times are scaled by the
// sample taken just before each set-up repetition). The kernel's median
// over the run is reported too (host.ref_us, traced runs) and printed to
// stderr with the factor, so the raw times can always be recovered. A
// change to the engine does not move the kernel; a change to the host
// moves both.

#ifndef PERFBENCH_HOST_H_
#define PERFBENCH_HOST_H_

#include <cstdint>
#include <vector>

#include "report.h"

namespace perfbench {

class HostSpeed {
 public:
  /// Reference-kernel time on the host the constants were set on (4-vCPU
  /// VM, calm spell), in microseconds.
  static constexpr double kNominalUs = 1200;

  HostSpeed();

  /// Time the reference kernel (the median of a few calls), keep the time
  /// and return it in microseconds.
  double Sample();
  /// Sample() when the last sample is at least kEverySeconds old.
  void MaybeSample();

  /// Median of the samples so far, in microseconds; 0 before the first.
  double ReferenceUs() const;
  /// kNominalUs / ReferenceUs(): multiply a measured time by it (divide a
  /// rate) to get the value at the nominal host speed; 1 without samples.
  double Factor() const;
  size_t samples() const { return samples_us_.size(); }

 private:
  static constexpr double kEverySeconds = 0.2;
  uint64_t RunKernel();

  std::vector<uint32_t> keys_;
  std::vector<uint32_t> sorted_;
  std::vector<uint32_t> table_;
  std::vector<double> samples_us_;
  Clock::time_point last_;
  uint64_t sink_ = 0;
};

/// The process's calibration. Main thread only: workloads sample it
/// between operations, never while their own threads are busy.
HostSpeed& Host();

/// Set-up takes a few seconds and the host's speed moves on that scale, so
/// set-up times are scaled repetition by repetition, each by the sample
/// taken just before it, when they are measured: `seconds` of set-up that
/// followed a sample of `sample_us`, at the nominal host speed.
double SetupAtNominal(double seconds, double sample_us);

/// Rescale every time metric of `m` (unit s, ms or us: times `factor`) and
/// every rate (unit 1/s: divided by `factor`) except the set-up metrics
/// (setup_s, storage.csv_load_s, storage.csv_rows_per_s), which are scaled
/// as they are measured; other units are left alone.
void ScaleToNominal(double factor, MetricSet* m);

}  // namespace perfbench

#endif  // PERFBENCH_HOST_H_
