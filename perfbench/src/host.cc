#include "host.h"

#include <algorithm>

namespace perfbench {
namespace {

constexpr size_t kKeys = size_t{1} << 14;
constexpr size_t kTableSlots = size_t{1} << 19;  // 2 MB of uint32
constexpr int kRepsPerSample = 5;

}  // namespace

HostSpeed::HostSpeed() : keys_(kKeys), sorted_(kKeys), table_(kTableSlots) {
  uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (uint32_t& k : keys_) {
    x ^= x >> 31;
    x *= 0xBF58476D1CE4E5B9ULL;
    x ^= x >> 29;
    k = static_cast<uint32_t>(x) | 1;  // 0 marks an empty slot
  }
}

uint64_t HostSpeed::RunKernel() {
  std::copy(keys_.begin(), keys_.end(), sorted_.begin());
  std::sort(sorted_.begin(), sorted_.end());
  std::fill(table_.begin(), table_.end(), 0);
  uint64_t probes = 0;
  for (const uint32_t k : sorted_) {
    // Multiplicative hash, linear probing: scattered accesses over 2 MB.
    size_t slot = (k * 2654435769U) & (kTableSlots - 1);
    while (table_[slot] != 0 && table_[slot] != k) {
      slot = (slot + 1) & (kTableSlots - 1);
      ++probes;
    }
    table_[slot] = k;
  }
  return probes + sorted_[kKeys / 2];
}

double HostSpeed::Sample() {
  double us[kRepsPerSample];
  for (double& t : us) {
    const auto t0 = Clock::now();
    sink_ += RunKernel();
    t = SecondsBetween(t0, Clock::now()) * 1e6;
  }
  std::nth_element(us, us + kRepsPerSample / 2, us + kRepsPerSample);
  samples_us_.push_back(us[kRepsPerSample / 2]);
  last_ = Clock::now();
  return samples_us_.back();
}

void HostSpeed::MaybeSample() {
  if (samples_us_.empty() ||
      SecondsBetween(last_, Clock::now()) >= kEverySeconds) {
    Sample();
  }
}

double HostSpeed::ReferenceUs() const { return Percentile(samples_us_, 50); }

double HostSpeed::Factor() const {
  const double ref = ReferenceUs();
  return ref > 0 ? kNominalUs / ref : 1;
}

HostSpeed& Host() {
  static HostSpeed host;
  return host;
}

double SetupAtNominal(double seconds, double sample_us) {
  return sample_us > 0 ? seconds * HostSpeed::kNominalUs / sample_us : seconds;
}

void ScaleToNominal(double factor, MetricSet* m) {
  MetricSet scaled;
  for (const auto& [name, metric] : m->all()) {
    double v = metric.value;
    if (name == "setup_s" || name.rfind("storage.csv_", 0) == 0) {
      // scaled as measured
    } else if (metric.unit == "s" || metric.unit == "ms" ||
               metric.unit == "us") {
      v *= factor;
    } else if (metric.unit == "1/s") {
      v /= factor;
    }
    scaled.Set(name, v, metric.unit);
  }
  *m = scaled;
}

}  // namespace perfbench
