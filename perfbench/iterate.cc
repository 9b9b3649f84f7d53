// Workload `iterate`: the §4.1 edit-one-LF loop on a CDR task. Each edit
// replaces one LF, re-applies the whole set through a warm
// IncrementalApplier, refits the generative model and computes posteriors.

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <stdexcept>

#include "core/generative_model.h"
#include "inputs.h"
#include "lf/applier.h"
#include "lf/compiled/engine.h"
#include "lf/compiled/program.h"
#include "serve/incremental_applier.h"
#include "workloads.h"

namespace perfbench {

using snorkel::LabelingFunction;
using snorkel::LabelingFunctionSet;
using snorkel::LabelMatrix;
using snorkel::RelationTask;

namespace {

/// p90 needs 100 samples with ten beyond it; label_f1 is read at this edit.
constexpr size_t kMinEdits = 100;
constexpr size_t kMaxEdits = 1000;
/// Edits per throughput block: four blocks of the opaque-edit plan.
constexpr size_t kEditsPerBlock = 4 * kOpaqueEvery;
constexpr uint64_t kTaskStream = 2;
constexpr uint64_t kEditStream = 3;

struct IterateState {
  RelationTask task;
  snorkel::IncrementalApplier applier{
      snorkel::IncrementalApplier::Options{.num_threads = kProgramThreads,
                                           .cardinality = 2}};
  std::vector<Edit> plan;
};

std::unique_ptr<IterateState> Setup(uint64_t seed) {
  auto task = snorkel::MakeCdrTask(SubSeed(seed, kTaskStream), 1.0);
  if (!task.ok()) throw std::runtime_error(task.status().ToString());
  auto state = std::make_unique<IterateState>(
      IterateState{std::move(task).value(), {}, {}});
  // Warm the column cache with the initial LF set, as a user who has been
  // working on the task would have before the first edit.
  auto warm = state->applier.Apply(state->task.lfs, state->task.corpus,
                                   state->task.candidates);
  if (!warm.ok()) throw std::runtime_error(warm.status().ToString());
  state->plan = PlanEdits(SubSeed(seed, kEditStream),
                          FindEditableLfs(state->task.lfs), kMaxEdits);
  if (state->plan.empty()) throw std::runtime_error("no editable LFs");
  return state;
}

bool SameMatrix(const LabelMatrix& a, const LabelMatrix& b) {
  return a.num_lfs() == b.num_lfs() && a.row_offsets() == b.row_offsets() &&
         a.entries() == b.entries();
}

}  // namespace

void RunIterate(const RunOptions& options, Report* report) {
  std::vector<double> setup_s;
  std::unique_ptr<IterateState> state;
  for (int r = 0; r < (options.trace ? 1 : kSetupRepeats); ++r) {
    state.reset();
    double start = NowSeconds();
    state = Setup(options.seed);
    setup_s.push_back(Since(start));
  }
  RelationTask& task = state->task;
  snorkel::GenerativeModelOptions gen_options = TrainingOptions().gen;
  gen_options.class_balance = DevClassBalance(task);

  std::vector<LabelingFunction> current;
  for (size_t j = 0; j < task.lfs.size(); ++j) current.push_back(task.lfs.at(j));

  PhaseCount phase{"iterate.edit"};
  // Untraced runs time every edit; traced runs trace edits in the pattern
  // untraced, traced, traced, untraced, so drift cancels out of the
  // overhead estimate.
  std::vector<double> edit_ms, untraced_ms, traced_ms, inc_apply_ms, fit_ms,
      predict_ms, probe_apply_ms, probe_compile_ms;
  std::vector<double> declarative_apply_ms, opaque_apply_ms;
  double label_f1 = 0.0;
  LabelMatrix last_matrix;
  LabelingFunctionSet last_set;
  const auto cache_before = state->applier.stats();
  const auto scan_before = snorkel::GetCompiledScanCacheStats();
  // A fixed number of edits per --seconds (about 95 ms each here), so every
  // run of a seed makes the same edits and ends in the same state.
  const size_t edits = std::min(
      kMaxEdits, std::max<size_t>(kMinEdits, std::lround(options.seconds * 10)));
  double start = NowSeconds();
  for (size_t e = 0; e < edits; ++e) {
    const Edit& edit = state->plan[e];
    current[edit.column] =
        MakeEditedLf(edit, current[edit.column].name(), e);
    LabelingFunctionSet lfs;
    for (const LabelingFunction& lf : current) lfs.Add(lf);

    bool traced = options.trace && (e % 4 == 1 || e % 4 == 2);
    SpanRecorder::Get().set_enabled(traced);
    ++phase.attempted;
    ScopedSpan edit_span("edit", e + 1);
    ScopedSpan apply_span("IncrementalApplier::Apply");
    auto matrix = state->applier.Apply(lfs, task.corpus, task.candidates);
    double apply_ms = apply_span.End();
    if (!matrix.ok()) {
      ++phase.failed;
      continue;
    }
    LabelMatrix train = matrix->SelectRows(task.train_idx);
    snorkel::GenerativeModel gen(gen_options);
    ScopedSpan fit_span("GenerativeModel::Fit");
    snorkel::Status fitted = gen.Fit(train);
    double this_fit_ms = fit_span.End();
    if (!fitted.ok()) {
      ++phase.failed;
      continue;
    }
    ScopedSpan predict_span("GenerativeModel::PredictProba");
    std::vector<double> probs = gen.PredictProba(*matrix);
    double this_predict_ms = predict_span.End();
    double ms = edit_span.End();
    ++phase.succeeded;

    edit_ms.push_back(ms);
    (edit.opaque ? opaque_apply_ms : declarative_apply_ms).push_back(apply_ms);
    if (options.trace) {
      (traced ? traced_ms : untraced_ms).push_back(ms);
    }
    if (traced) {
      inc_apply_ms.push_back(apply_ms);
      fit_ms.push_back(this_fit_ms);
      predict_ms.push_back(this_predict_ms);
      // Probes: a cold full apply and a compile of the same LF set, on a
      // fresh copy of the corpus so no cached scan answers.
      snorkel::Corpus cold(task.corpus);
      snorkel::LFApplier applier(snorkel::LFApplier::Options{kProgramThreads, 2});
      ScopedSpan probe("probe.LFApplier::Apply", e + 1);
      auto full = applier.Apply(lfs, cold, task.candidates);
      probe_apply_ms.push_back(probe.End());
      if (!full.ok()) throw std::runtime_error("probe apply failed");
      ScopedSpan compile("probe.CompileLfSet", e + 1);
      auto program = snorkel::CompileLfSet(lfs);
      probe_compile_ms.push_back(compile.End());
    }
    SpanRecorder::Get().set_enabled(false);

    if (e + 1 == kMinEdits) {
      // Untimed: the model as it stands after a fixed number of edits,
      // scored like the pipeline scores Gen. (class-symmetric posteriors at
      // 0.5), over every candidate: the GM never sees gold, and the whole
      // task varies less from seed to seed than its 10% test split.
      label_f1 = snorkel::ScoreProbabilistic(gen.PredictProba(*matrix, false),
                                             task.gold)
                     .F1();
    }
    last_matrix = std::move(matrix).value();
    last_set = std::move(lfs);
  }
  double loop_s = Since(start);
  report->AddPhase(phase);
  const auto cache_after = state->applier.stats();
  const auto scan_after = snorkel::GetCompiledScanCacheStats();

  // The applier's final matrix must equal a fresh apply of the final set.
  snorkel::Corpus cold(task.corpus);
  auto fresh = snorkel::LFApplier(snorkel::LFApplier::Options{kProgramThreads, 2})
                   .Apply(last_set, cold, task.candidates);
  bool equal = fresh.ok() && SameMatrix(*fresh, last_matrix);
  report->Check("iterate.final_matrix_equals_fresh_apply", equal,
                std::to_string(edit_ms.size()) + " edits, " +
                    std::to_string(task.candidates.size()) + " rows x " +
                    std::to_string(last_set.size()) + " LFs");
  report->Note("iterate.edits", std::to_string(edit_ms.size()) + " (" +
                                    std::to_string(opaque_apply_ms.size()) +
                                    " opaque) in " + JsonNumber(loop_s) + " s");
  report->Note("iterate.declarative_reapply_ms_p50",
               JsonNumber(Median(declarative_apply_ms)));
  report->Note("iterate.opaque_reapply_ms_p50",
               JsonNumber(Median(opaque_apply_ms)));

  uint64_t reused = cache_after.columns_reused - cache_before.columns_reused;
  uint64_t computed =
      cache_after.columns_computed - cache_before.columns_computed;
  uint64_t set_hits = cache_after.set_hits - cache_before.set_hits;
  uint64_t set_misses = cache_after.set_misses - cache_before.set_misses;
  report->Note("iterate.ideal_column_reuse",
               JsonNumber(1.0 - 1.0 / static_cast<double>(task.lfs.size())));

  if (options.trace) {
    uint64_t scan_hits = scan_after.hits - scan_before.hits;
    uint64_t lookups = scan_hits + scan_after.misses - scan_before.misses;
    report->Set("lf.apply_s", Sum(probe_apply_ms) / 1e3);
    report->SetPercentile("lf.apply_ms_p50", probe_apply_ms, 0.5);
    report->Set("lf.compile_ms", Median(probe_compile_ms));
    report->Set("lf.compiled.scan_hit_ratio",
                lookups == 0 ? 0.0 : static_cast<double>(scan_hits) / lookups);
    report->Set("core.gm_fit_s", Sum(fit_ms) / 1e3);
    report->SetPercentile("core.gm_fit_ms_p50", fit_ms, 0.5);
    report->SetPercentile("core.predict_ms_p50", predict_ms, 0.5);
    report->SetPercentile("serve.inc_apply_ms_p50", inc_apply_ms, 0.5);
    report->Set("serve.cache.column_reuse",
                reused + computed == 0
                    ? 0.0
                    : static_cast<double>(reused) / (reused + computed));
    report->Set("serve.cache.set_hit_ratio",
                set_hits + set_misses == 0
                    ? 0.0
                    : static_cast<double>(set_hits) / (set_hits + set_misses));
    report->Set("serve.cache_bytes",
                static_cast<double>(cache_after.bytes_cached));
    report->Set("trace.overhead_pct",
                100.0 * (Median(traced_ms) / Median(untraced_ms) - 1.0));
    return;
  }

  std::optional<double> p50 = Percentile(edit_ms, 0.5);
  std::optional<double> p90 = Percentile(edit_ms, 0.9);
  report->Set("setup_s", Median(setup_s));
  // Throughput is the median over blocks of consecutive edits, each block
  // holding the same share of opaque edits, so a passing stall of the host
  // moves one block, not the figure.
  std::vector<double> block_cps;
  for (size_t b = 0; b + kEditsPerBlock <= edit_ms.size(); b += kEditsPerBlock) {
    std::vector<double> block(edit_ms.begin() + b,
                              edit_ms.begin() + b + kEditsPerBlock);
    block_cps.push_back(static_cast<double>(task.candidates.size()) *
                        kEditsPerBlock / (Sum(block) / 1e3));
  }
  report->Set("throughput_cps", Median(block_cps));
  std::string block_list;
  for (double c : block_cps) {
    if (!block_list.empty()) block_list += ' ';
    block_list += JsonNumber(std::round(c));
  }
  report->Note("iterate.block_cps", block_list);
  report->Set("op_p50_ms", p50.value_or(0.0));
  report->Set("label_f1", label_f1);
  report->Note("edit_p50_ms", p50 ? JsonNumber(*p50) : "n/a");
  report->Note("edit_p90_ms", p90 ? JsonNumber(*p90) : "n/a");
  report->Note("iterate.column_reuse",
               JsonNumber(reused + computed == 0
                              ? 0.0
                              : static_cast<double>(reused) / (reused + computed)));
}

}  // namespace perfbench
