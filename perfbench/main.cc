// perfbench: the repository's benchmark. Runs one workload from a seed and
// prints the environment, phase counts and the result of every output
// check, and as its last line the whole record as JSON (metric values by
// name; run.py attaches the units from BENCHMARK.json):
//
//   perfbench --workload <train|iterate|serve> --seed <n>
//             --seconds <s> --trace <0|1> [--out-dir <dir>] [--git-sha <sha>]
//
// --trace 0 sets the end-to-end metrics; --trace 1 is a separate run that
// records spans around every call and probe and sets the per-layer metrics
// of the layers the workload runs. Normally started through run.py, which
// builds it first.

#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "core/csr_kernels.h"
#include "harness.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload train|iterate|serve "
               "--seed N --seconds S --trace 0|1 [--out-dir DIR] "
               "[--git-sha SHA]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions options;
  std::string git_sha = "unknown";
  options.out_dir = ".bench_out";
  bool have_seed = false;
  for (int a = 1; a + 1 < argc; a += 2) {
    std::string key = argv[a];
    std::string value = argv[a + 1];
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (key == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      options.trace = value == "1";
    } else if (key == "--out-dir") {
      options.out_dir = value;
    } else if (key == "--git-sha") {
      git_sha = value;
    } else {
      return Usage();
    }
  }
  if (!have_seed || !(options.seconds > 0.0) ||
      (options.workload != "train" && options.workload != "iterate" &&
       options.workload != "serve")) {
    return Usage();
  }
  mkdir(options.out_dir.c_str(), 0755);
  unsigned nproc = std::thread::hardware_concurrency();

  Report report(options.workload, options.seed, options.trace);
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  report.Note("env.nproc", std::to_string(nproc));
  report.Note("env.csr_kernel_isa", snorkel::CsrKernelIsa());
  report.Note("env.build_type", build_type == "Release"
                                    ? build_type
                                    : build_type + " (WARNING: not Release)");
  report.Note("env.compiler", __VERSION__);
  report.Note("env.git_sha", git_sha);
  report.Note("env.seed", std::to_string(options.seed));
  report.Note("env.seconds", JsonNumber(options.seconds));
  try {
    if (options.workload == "train") {
      RunTrain(options, &report);
    } else if (options.workload == "iterate") {
      RunIterate(options, &report);
    } else {
      RunServe(options, &report);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  if (options.trace) {
    std::string spans = options.out_dir + "/spans-" + options.workload +
                        "-seed" + std::to_string(options.seed) + ".json";
    if (!SpanRecorder::Get().WriteJson(spans)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", spans.c_str());
      return 1;
    }
    report.Note("trace.spans", std::to_string(SpanRecorder::Get().spans().size()) +
                                   " spans in " + spans);
  } else {
    report.Set("peak_rss_mb", PeakRssMb());
  }

  report.PrintHuman();
  std::printf("%s\n", report.RecordJson().c_str());
  return 0;
}
