// Performance microbenchmarks (google-benchmark) for the §3.1-3.2 speed
// claims: the MV shortcut vs generative-model training (up to 1.8x per
// pipeline execution), the linear cost of correlations in the Gibbs
// sampler, structure-learning sweep cost, and LF application throughput.
//
// Benchmarks whose body runs on worker-pool threads are timed by wall clock
// (UseRealTime): the main thread's CPU time is near zero while it waits,
// which would both misreport them and inflate their iteration counts.

#include <benchmark/benchmark.h>

#include <cstdlib>

#include "core/advantage.h"
#include "core/generative_model.h"
#include "core/majority_vote.h"
#include "core/optimizer.h"
#include "core/structure_learner.h"
#include "lf/applier.h"
#include "synth/relation_task.h"
#include "synth/synthetic_matrix.h"

namespace snorkel {
namespace {

const SyntheticDataset& SharedMatrix() {
  static const SyntheticDataset* data = [] {
    auto result = SyntheticMatrixGenerator::GenerateIid(
        /*num_points=*/5000, /*num_lfs=*/50, /*accuracy=*/0.75,
        /*propensity=*/0.2, /*seed=*/11);
    return new SyntheticDataset(std::move(result).value());
  }();
  return *data;
}

/// §3.1: the majority-vote shortcut the optimizer can select.
void BM_MajorityVote(benchmark::State& state) {
  const auto& data = SharedMatrix();
  for (auto _ : state) {
    benchmark::DoNotOptimize(MajorityVotePredictions(data.matrix));
  }
}
BENCHMARK(BM_MajorityVote);

/// §3.1: the generative model training the shortcut skips.
void BM_GenerativeModelFitExact(benchmark::State& state) {
  const auto& data = SharedMatrix();
  GenerativeModelOptions options;
  options.epochs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    GenerativeModel gen(options);
    benchmark::DoNotOptimize(gen.Fit(data.matrix).ok());
  }
}
BENCHMARK(BM_GenerativeModelFitExact)->Arg(50)->Arg(150)->UseRealTime();

/// §3.2: Gibbs-sampled training cost grows with the number of modeled
/// correlations (linear overhead per correlation).
void BM_GenerativeModelFitCorrelated(benchmark::State& state) {
  const auto& data = SharedMatrix();
  std::vector<CorrelationPair> correlations;
  for (int c = 0; c < state.range(0); ++c) {
    size_t j = static_cast<size_t>(c) % 49;
    correlations.push_back({j, j + 1});
  }
  GenerativeModelOptions options;
  options.epochs = 30;
  for (auto _ : state) {
    GenerativeModel gen(options);
    benchmark::DoNotOptimize(gen.Fit(data.matrix, correlations).ok());
  }
}
BENCHMARK(BM_GenerativeModelFitCorrelated)
    ->Arg(0)
    ->Arg(10)
    ->Arg(40)
    ->UseRealTime();

/// Same correlated fit at explicit worker-pool sizes. Fitted weights are
/// bitwise-identical across these arms (fixed shard grain + per-chain RNG
/// streams); the arms measure pure scaling.
void BM_GenerativeModelFitCorrelatedThreads(benchmark::State& state) {
  const auto& data = SharedMatrix();
  std::vector<CorrelationPair> correlations;
  for (int c = 0; c < 40; ++c) {
    size_t j = static_cast<size_t>(c) % 49;
    correlations.push_back({j, j + 1});
  }
  GenerativeModelOptions options;
  options.epochs = 30;
  options.num_threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    GenerativeModel gen(options);
    benchmark::DoNotOptimize(gen.Fit(data.matrix, correlations).ok());
  }
}
BENCHMARK(BM_GenerativeModelFitCorrelatedThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(8)
    ->UseRealTime();

/// Posterior inference p(y | Λ) over the full matrix — the serving hot path
/// behind LabelService.
void BM_PredictProba(benchmark::State& state) {
  const auto& data = SharedMatrix();
  static const GenerativeModel* model = [] {
    GenerativeModelOptions options;
    options.epochs = 50;
    auto* gen = new GenerativeModel(options);
    if (!gen->Fit(SharedMatrix().matrix).ok()) std::abort();
    return gen;
  }();
  for (auto _ : state) {
    benchmark::DoNotOptimize(model->PredictProba(data.matrix));
  }
}
BENCHMARK(BM_PredictProba);

/// §3.2: one structure-learning pass (pseudolikelihood, exact gradients).
void BM_StructureLearning(benchmark::State& state) {
  const auto& data = SharedMatrix();
  StructureLearnerOptions options;
  options.epochs = 15;
  options.max_rows = static_cast<size_t>(state.range(0));
  StructureLearner learner(options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(learner.LearnStructure(data.matrix, 0.2).ok());
  }
}
BENCHMARK(BM_StructureLearning)->Arg(1000)->Arg(4000)->UseRealTime();

/// Algorithm 1 end to end (Ã*, the warm-started ε sweep and the cold re-fit
/// at ε*) on the CDR analog's train split, at the structure settings of the
/// `train` benchmark workload. Unlike SharedMatrix(), whose rows are nearly
/// all distinct, CDR's 4,000 sampled rows fold into a few hundred vote
/// patterns, so this tracks the duplicate-heavy path. The fit runs on a
/// worker thread, so iterations are timed by wall clock.
void BM_OptimizerChooseCdr(benchmark::State& state) {
  static const LabelMatrix* train = [] {
    auto task = MakeCdrTask(42, 1.0);
    auto matrix = LFApplier(LFApplier::Options{1, 2})
                      .Apply(task->lfs, task->corpus, task->candidates);
    return new LabelMatrix(matrix->SelectRows(task->train_idx));
  }();
  OptimizerOptions options;
  options.eta = 0.05;
  options.structure.epochs = 25;
  options.structure.sweep_epochs = 10;
  options.structure.max_rows = 4000;
  options.structure.num_threads = 1;
  ModelingStrategyOptimizer optimizer(options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(optimizer.Choose(*train).ok());
  }
}
BENCHMARK(BM_OptimizerChooseCdr)->UseRealTime();

/// The optimizer's Ã* heuristic is a single cheap pass over Λ.
void BM_PredictedAdvantage(benchmark::State& state) {
  const auto& data = SharedMatrix();
  for (auto _ : state) {
    benchmark::DoNotOptimize(PredictedAdvantage(data.matrix));
  }
}
BENCHMARK(BM_PredictedAdvantage);

/// Appendix C: LF application is embarrassingly parallel over candidates.
void BM_LfApplication(benchmark::State& state) {
  static const RelationTask* task = [] {
    auto result = MakeCdrTask(42, 0.25);
    return new RelationTask(std::move(result).value());
  }();
  LFApplier applier(
      LFApplier::Options{static_cast<size_t>(state.range(0)), 2});
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        applier.Apply(task->lfs, task->corpus, task->candidates).ok());
  }
}
BENCHMARK(BM_LfApplication)->Arg(1)->Arg(2)->UseRealTime();

/// The interpreted baseline for BM_LfApplication (which, like production
/// serving, dispatches compilable LFs through lf/compiled/): same task, same
/// thread counts, per-row lambda execution only. The ratio between the two
/// is the compiled engine's speedup on the trajectory.
void BM_LfApplicationInterpreted(benchmark::State& state) {
  static const RelationTask* task = [] {
    auto result = MakeCdrTask(42, 0.25);
    return new RelationTask(std::move(result).value());
  }();
  LFApplier applier(
      LFApplier::Options{.num_threads = static_cast<size_t>(state.range(0)),
                         .cardinality = 2,
                         .use_compiled = false});
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        applier.Apply(task->lfs, task->corpus, task->candidates).ok());
  }
}
BENCHMARK(BM_LfApplicationInterpreted)->Arg(1)->Arg(2)->UseRealTime();

}  // namespace
}  // namespace snorkel

BENCHMARK_MAIN();
