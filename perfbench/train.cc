// Workload `train`: the cold Figure 2 pipeline (TrainSnapshot with the
// Algorithm 1 optimizer on) over the four §4.1.1 task analogs at scale 1.0.

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "core/generative_model.h"
#include "core/optimizer.h"
#include "disc/features.h"
#include "disc/linear_model.h"
#include "inputs.h"
#include "lf/applier.h"
#include "lf/compiled/engine.h"
#include "lf/compiled/program.h"
#include "serve/label_service.h"
#include "workloads.h"

namespace perfbench {

using snorkel::ModelSnapshot;
using snorkel::RelationTask;

double DevClassBalance(const RelationTask& task) {
  double pos = 0.0;
  for (size_t i : task.dev_idx) pos += task.gold[i] > 0 ? 1.0 : 0.0;
  return task.dev_idx.empty()
             ? 0.5
             : std::clamp(pos / static_cast<double>(task.dev_idx.size()),
                          0.02, 0.98);
}

namespace {

constexpr size_t kMinPipelines = 3;
constexpr uint64_t kTrainStream = 1;

std::vector<RelationTask> MakeTasks(uint64_t seed) {
  uint64_t s = SubSeed(seed, kTrainStream);
  std::vector<snorkel::Result<RelationTask>> made;
  made.push_back(snorkel::MakeChemTask(SubSeed(s, 0), 1.0));
  made.push_back(snorkel::MakeEhrTask(SubSeed(s, 1), 1.0));
  made.push_back(snorkel::MakeCdrTask(SubSeed(s, 2), 1.0));
  made.push_back(snorkel::MakeSpousesTask(SubSeed(s, 3), 1.0));
  std::vector<RelationTask> tasks;
  for (auto& t : made) {
    if (!t.ok()) throw std::runtime_error("task generation: " + t.status().ToString());
    tasks.push_back(std::move(t).value());
  }
  return tasks;
}

/// Gives the task's corpus a fresh identity, so nothing cached for an
/// earlier pipeline can answer for it.
void MakeCold(RelationTask& task) { task.corpus = snorkel::Corpus(task.corpus); }

struct PipelineRun {
  double seconds = 0.0;
  std::vector<ModelSnapshot> snapshots;
  uint64_t failed = 0;
};

PipelineRun RunPipeline(std::vector<RelationTask>& tasks, uint64_t pipeline) {
  for (RelationTask& t : tasks) MakeCold(t);
  PipelineRun run;
  ScopedSpan span("pipeline", 1000 + pipeline);
  for (size_t k = 0; k < tasks.size(); ++k) {
    ScopedSpan call("TrainSnapshot", k + 1);
    auto snapshot = snorkel::TrainSnapshot(tasks[k], TrainingOptions());
    call.End();
    if (!snapshot.ok()) {
      ++run.failed;
      continue;
    }
    run.snapshots.push_back(std::move(snapshot).value());
  }
  run.seconds = span.End() / 1e3;
  return run;
}

/// Passes of the per-task probes: five passes over the four tasks give the
/// 20 samples a p50 needs (ten beyond it).
constexpr size_t kProbePasses = 5;

/// Re-runs TrainSnapshot's stages from outside, each timed through the
/// layer's public call. Every pass gives every task a cold corpus copy and
/// re-times LF application, GM fit and prediction; the optimizer, the LF
/// compiler and the disc model, which give no percentile, run in the first
/// pass only.
void ProbeLayers(std::vector<RelationTask>& tasks, Report* report) {
  std::vector<double> apply_ms, compile_ms, optimizer_ms, fit_ms, predict_ms,
      disc_ms;
  const snorkel::ExportSnapshotOptions options = TrainingOptions();
  std::vector<std::vector<snorkel::CorrelationPair>> correlations(tasks.size());
  for (size_t pass = 0; pass < kProbePasses; ++pass) {
    for (size_t k = 0; k < tasks.size(); ++k) {
      RelationTask& task = tasks[k];
      const uint64_t id = pass * tasks.size() + k + 1;
      MakeCold(task);
      snorkel::LFApplier applier(snorkel::LFApplier::Options{kProgramThreads, 2});
      ScopedSpan apply("probe.LFApplier::Apply", id);
      auto matrix = applier.Apply(task.lfs, task.corpus, task.candidates);
      apply_ms.push_back(apply.End());
      if (!matrix.ok()) throw std::runtime_error("probe apply failed");
      snorkel::LabelMatrix train = matrix->SelectRows(task.train_idx);

      if (pass == 0) {
        ScopedSpan compile("probe.CompileLfSet", id);
        auto program = snorkel::CompileLfSet(task.lfs);
        compile_ms.push_back(compile.End());

        ScopedSpan choose("probe.ModelingStrategyOptimizer::Choose", id);
        auto decision =
            snorkel::ModelingStrategyOptimizer(options.optimizer).Choose(train);
        optimizer_ms.push_back(choose.End());
        if (!decision.ok()) throw std::runtime_error("probe optimizer failed");
        if (decision->strategy == snorkel::ModelingStrategy::kGenerativeModel) {
          correlations[k] = decision->correlations;
        }
      }

      snorkel::GenerativeModelOptions gen_options = options.gen;
      gen_options.class_balance = DevClassBalance(task);
      snorkel::GenerativeModel gen(gen_options);
      ScopedSpan fit("probe.GenerativeModel::Fit", id);
      snorkel::Status fitted = gen.Fit(train, correlations[k]);
      fit_ms.push_back(fit.End());
      if (!fitted.ok()) throw std::runtime_error("probe GM fit failed");

      ScopedSpan predict("probe.GenerativeModel::PredictProba", id);
      std::vector<double> probs = gen.PredictProba(train, false);
      predict_ms.push_back(predict.End());
      if (pass != 0) continue;

      // Featurize + fit, over the same rows TrainSnapshot keeps.
      ScopedSpan disc("probe.disc.FeaturizeAndFit", id);
      snorkel::TextFeaturizer featurizer(options.features);
      std::vector<snorkel::FeatureVector> features;
      std::vector<double> soft;
      for (size_t r = 0; r < task.train_idx.size(); ++r) {
        if (train.row(r).empty() || std::fabs(probs[r] - 0.5) <= 0.02) continue;
        size_t i = task.train_idx[r];
        snorkel::CandidateView view(&task.corpus, &task.candidates[i], i);
        features.push_back(featurizer.Featurize(view));
        soft.push_back(probs[r]);
      }
      snorkel::LogisticRegressionClassifier classifier(options.disc);
      snorkel::Status disc_fit =
          classifier.Fit(features, featurizer.num_buckets(), soft);
      disc_ms.push_back(disc.End());
      if (!disc_fit.ok()) throw std::runtime_error("probe disc fit failed");
    }
  }
  // The *_s totals are per pass over the four tasks.
  report->Set("lf.apply_s", Sum(apply_ms) / kProbePasses / 1e3);
  report->SetPercentile("lf.apply_ms_p50", apply_ms, 0.5);
  report->Set("lf.compile_ms", Median(compile_ms));
  report->Set("core.optimizer_s", Sum(optimizer_ms) / 1e3);
  report->Set("core.gm_fit_s", Sum(fit_ms) / kProbePasses / 1e3);
  report->SetPercentile("core.gm_fit_ms_p50", fit_ms, 0.5);
  report->SetPercentile("core.predict_ms_p50", predict_ms, 0.5);
  report->Set("disc.fit_s", Sum(disc_ms) / 1e3);
}

}  // namespace

void RunTrain(const RunOptions& options, Report* report) {
  std::vector<double> setup_s;
  std::vector<RelationTask> tasks;
  for (int r = 0; r < (options.trace ? 1 : kSetupRepeats); ++r) {
    tasks.clear();
    double start = NowSeconds();
    tasks = MakeTasks(options.seed);
    setup_s.push_back(Since(start));
  }
  size_t candidates = 0;
  for (const RelationTask& t : tasks) candidates += t.candidates.size();
  report->Note("train.candidates", std::to_string(candidates));

  PhaseCount phase{"train.TrainSnapshot"};
  std::vector<PipelineRun> runs;
  uint64_t scan_hits = 0, scan_lookups = 0;
  double untraced_s = 0.0, traced_s = 0.0;
  // A fixed number of pipelines per --seconds (about 7 s each here). Traced
  // runs make four, untraced, traced, traced, untraced, so drift cancels
  // out of the overhead estimate.
  size_t pipelines = options.trace
                         ? 4
                         : std::max<size_t>(kMinPipelines,
                                            std::lround(options.seconds / 7.0));
  for (size_t p = 0; p < pipelines; ++p) {
    bool traced = options.trace && (p == 1 || p == 2);
    SpanRecorder::Get().set_enabled(traced);
    auto before = snorkel::GetCompiledScanCacheStats();
    runs.push_back(RunPipeline(tasks, p));
    SpanRecorder::Get().set_enabled(false);
    if (traced) {
      auto after = snorkel::GetCompiledScanCacheStats();
      scan_hits += after.hits - before.hits;
      scan_lookups += after.hits - before.hits + after.misses - before.misses;
    }
    (traced ? traced_s : untraced_s) += runs.back().seconds;
    phase.attempted += tasks.size();
    phase.failed += runs.back().failed;
    phase.succeeded += tasks.size() - runs.back().failed;
  }
  std::vector<double> pipeline_s;
  for (const PipelineRun& run : runs) pipeline_s.push_back(run.seconds);
  report->AddPhase(phase);

  // Determinism: every cold pipeline must produce the same artifacts.
  bool same = true;
  uint64_t combined = 0;
  size_t correlations = 0;
  for (const PipelineRun& run : runs) {
    if (run.snapshots.size() != tasks.size()) same = false;
  }
  if (same) {
    for (size_t k = 0; k < tasks.size(); ++k) {
      const ModelSnapshot& first = runs[0].snapshots[k];
      for (const PipelineRun& run : runs) {
        same = same &&
               run.snapshots[k].CanonicalChecksum() == first.CanonicalChecksum() &&
               run.snapshots[k].correlations == first.correlations;
      }
      combined = combined * 0x100000001b3ULL ^ first.CanonicalChecksum();
      correlations += first.correlations.size();
    }
  }
  char hex[32];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(combined));
  report->Check("train.snapshots_repeat", same,
                std::to_string(runs.size()) +
                    " cold pipelines; combined CanonicalChecksum " + hex +
                    ", correlations " + std::to_string(correlations));
  report->Note("train.canonical_checksum", hex);
  report->Note("train.correlations", std::to_string(correlations));
  report->Note("train.pipelines", std::to_string(runs.size()));

  if (options.trace) {
    SpanRecorder::Get().set_enabled(true);
    ProbeLayers(tasks, report);
    SpanRecorder::Get().set_enabled(false);
    report->Set("lf.compiled.scan_hit_ratio",
                scan_lookups == 0 ? 0.0
                                  : static_cast<double>(scan_hits) / scan_lookups);
    report->Set("core.correlations", static_cast<double>(correlations));
    report->Set("trace.overhead_pct", 100.0 * (traced_s / untraced_s - 1.0));
    return;
  }

  // Label quality, after timing: each snapshot's generative-model labels on
  // its task's test split.
  std::vector<double> f1;
  for (size_t k = 0; k < tasks.size() && same; ++k) {
    const RelationTask& task = tasks[k];
    auto service =
        snorkel::LabelService::Create(runs.back().snapshots[k], task.lfs);
    std::vector<snorkel::Candidate> test;
    std::vector<snorkel::Label> gold;
    for (size_t i : task.test_idx) {
      test.push_back(task.candidates[i]);
      gold.push_back(task.gold[i]);
    }
    // Class-symmetric posteriors at 0.5, as the pipeline scores Gen. on test.
    snorkel::LabelRequest request;
    request.corpus = &task.corpus;
    request.candidates = &test;
    request.apply_class_balance = false;
    auto response = service.ok() ? service->Label(request)
                                 : snorkel::Result<snorkel::LabelResponse>(
                                       service.status());
    report->Check("train.serve_test_split." + task.name, response.ok(),
                  response.ok() ? std::to_string(test.size()) + " rows"
                                : response.status().ToString());
    if (response.ok()) {
      f1.push_back(snorkel::ScoreProbabilistic(response->posteriors, gold).F1());
    }
    report->Note("train.f1." + task.name,
                 f1.empty() ? "n/a" : JsonNumber(f1.back()));
  }
  double median_s = Median(pipeline_s);
  report->Set("setup_s", Median(setup_s));
  report->Set("throughput_cps", static_cast<double>(candidates) / median_s);
  report->Set("op_p50_ms", median_s * 1e3);
  report->Set("label_f1", f1.empty() ? 0.0 : Sum(f1) / f1.size());
  report->Note("train_s", JsonNumber(median_s) + " (median of " +
                              std::to_string(pipeline_s.size()) + " pipelines)");
}

}  // namespace perfbench
