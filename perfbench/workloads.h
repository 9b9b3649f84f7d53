#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "eval/metrics.h"
#include "harness.h"
#include "pipeline/export_snapshot.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Directory (inside the checkout) for the span file and snapshots.
  std::string out_dir;
};

/// Set-up runs this many times in an untraced run; setup_s is the median.
/// Traced runs report no setup_s and set up once. The serve workload, whose
/// set-up trains a snapshot (~2.5 s serial), sets up kServeSetupRepeats
/// times.
inline constexpr int kSetupRepeats = 5;
inline constexpr int kServeSetupRepeats = 3;

/// Worker threads of every pool the benchmark asks the program for (LF
/// appliers, GM fit, structure learning, label services). On a few shared
/// vCPUs a parallel loop waits for its slowest worker, so one slowed vCPU
/// stalls the whole call: in a 4-CPU container, an iterate edit on the
/// shared pools went from 85 ms to 217 ms when other tenants loaded the
/// host, a serial edit from 66 ms to 95 ms at worst. Serial pools keep the
/// figures closer to a property of the code than of the host.
inline constexpr int kProgramThreads = 1;

/// The Figure 2 training configuration every workload that trains uses (the
/// settings of the paper-reproduction benches): Algorithm 1 decides the
/// correlation set, then GM and disc model fit.
inline snorkel::ExportSnapshotOptions TrainingOptions() {
  snorkel::ExportSnapshotOptions options;
  options.gen.epochs = 150;
  options.disc.epochs = 20;
  options.use_optimizer = true;
  options.optimizer.eta = 0.05;
  options.optimizer.structure.epochs = 25;
  options.optimizer.structure.sweep_epochs = 10;
  options.optimizer.structure.max_rows = 4000;
  options.optimizer.structure.num_threads = kProgramThreads;
  options.gen.num_threads = kProgramThreads;
  options.num_threads = kProgramThreads;
  return options;
}

/// Class balance estimated from the dev split, as TrainSnapshot does.
double DevClassBalance(const snorkel::RelationTask& task);

/// Seconds from `start` (a NowSeconds() value) to now.
inline double Since(double start) { return NowSeconds() - start; }

void RunTrain(const RunOptions& options, Report* report);
void RunIterate(const RunOptions& options, Report* report);
void RunServe(const RunOptions& options, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
