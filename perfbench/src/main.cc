// perfbench: the repository's end-to-end benchmark program.
//
//   perfbench --workload topk_fresh|drain_full|serve_zipf --seed N
//             --seconds S --trace 0|1 [--work-dir DIR] [--spans-out FILE]
//             [--tiny] [--plant order|weight|drop]
//
// Prints progress and failures to stderr and, as the last line of stdout,
// one JSON object: {"correct", "attempted", "failed", "metrics"} — the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// Exits 0 when every answer checked out, 1 when any check failed (a planted
// wrong answer included), 2 on a usage error.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <malloc.h>
#include <string>

#include "host.h"
#include "report.h"
#include "util/logging.h"
#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "topk_fresh|drain_full|serve_zipf --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR] [--spans-out FILE] [--tiny] "
               "[--plant order|weight|drop]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (a == "--tiny") {
      opt.tiny = true;
    } else if (a == "--workload" || a == "--seed" || a == "--seconds" ||
               a == "--trace" || a == "--work-dir" || a == "--spans-out" ||
               a == "--plant") {
      const char* v = value();
      if (v == nullptr) return Usage(("missing value for " + a).c_str());
      char* end = nullptr;
      if (a == "--workload") {
        opt.workload = v;
      } else if (a == "--seed") {
        opt.seed = std::strtoull(v, &end, 10);
      } else if (a == "--seconds") {
        opt.seconds = std::strtod(v, &end);
      } else if (a == "--trace") {
        opt.trace = std::string(v) == "1";
      } else if (a == "--plant") {
        const std::string kind = v;
        if (kind == "order") {
          opt.plant = perfbench::Plant::kOrder;
        } else if (kind == "weight") {
          opt.plant = perfbench::Plant::kWeight;
        } else if (kind == "drop") {
          opt.plant = perfbench::Plant::kDrop;
        } else {
          return Usage("--plant takes order, weight or drop");
        }
      } else if (a == "--work-dir") {
        opt.work_dir = v;
      } else {
        opt.spans_out = v;
      }
      if (end != nullptr && *end != '\0') {
        return Usage(("bad value for " + a).c_str());
      }
    } else {
      return Usage(("unknown argument " + a).c_str());
    }
  }
  if (opt.seconds <= 0) return Usage("--seconds must be positive");

  // A fixed mmap threshold: glibc's default threshold adapts to the sizes
  // freed so far, so whether a drain's large buffers came from the heap or
  // from fresh, page-faulted mappings depended on the run's history, and
  // drain times and the peak RSS moved by 10-40% between runs of the same
  // code. With a fixed threshold every buffer of 1 MB or more is a mapping
  // of its own, every time.
  mallopt(M_MMAP_THRESHOLD, 1 << 20);
  anyk::SetCheckFailureHandler(&anyk::ThrowingCheckHandler);
  std::error_code ec;
  std::filesystem::create_directories(opt.work_dir, ec);

  perfbench::RunResult r;
  perfbench::HostSpeed& host = perfbench::Host();
  host.Sample();
  try {
    if (opt.workload == "topk_fresh") {
      perfbench::RunTopkFresh(opt, &r);
    } else if (opt.workload == "drain_full") {
      perfbench::RunDrainFull(opt, &r);
    } else if (opt.workload == "serve_zipf") {
      perfbench::RunServeZipf(opt, &r);
    } else {
      return Usage("unknown workload");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }
  if (r.attempted == 0) r.Fail("no operation ran");
  host.Sample();
  const double factor = host.Factor();
  std::fprintf(stderr,
               "perfbench: reference kernel median %.1f us over %zu samples; "
               "times scaled by %.4f to the nominal host speed\n",
               host.ReferenceUs(), host.samples(), factor);
  perfbench::ScaleToNominal(factor, &r.end_to_end);
  perfbench::ScaleToNominal(factor, &r.per_layer);
  r.per_layer.Set("host.ref_us", host.ReferenceUs(), "us");
  perfbench::CompleteMetrics(&r, opt.trace);
  for (const std::string& f : r.failures) {
    std::fprintf(stderr, "perfbench: FAIL %s\n", f.c_str());
  }
  std::printf("%s\n", perfbench::ResultLine(r, opt.trace).c_str());
  std::fflush(stdout);
  return r.correct() ? 0 : 1;
}
