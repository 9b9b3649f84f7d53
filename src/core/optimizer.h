#ifndef SNORKEL_CORE_OPTIMIZER_H_
#define SNORKEL_CORE_OPTIMIZER_H_

#include <string>
#include <vector>

#include "core/advantage.h"
#include "core/label_matrix.h"
#include "core/structure_learner.h"
#include "core/types.h"
#include "util/status.h"

namespace snorkel {

/// Which labeling model to use for a pipeline execution (§3.1.2).
enum class ModelingStrategy {
  kMajorityVote,
  kGenerativeModel,
};

std::string ModelingStrategyToString(ModelingStrategy strategy);

/// Hyper-parameters for ModelingStrategyOptimizer (Algorithm 1 inputs).
struct OptimizerOptions {
  /// Advantage tolerance γ: when the predicted advantage Ã*(Λ) is below γ,
  /// the optimizer skips generative-model training in favor of majority
  /// vote. 0.01 = one accuracy point.
  double gamma = 0.01;
  /// Structure search resolution η: the ε grid is {η, 2η, ..., 1/2}.
  double eta = 0.02;
  /// Weight-range prior (w_min, w̄, w_max) for Ã*.
  AdvantageOptions advantage;
  /// Structure-learning configuration used during the ε sweep.
  StructureLearnerOptions structure;
  /// When false, the GM decision skips the correlation search entirely and
  /// returns an accuracy-only model configuration.
  bool search_structure = true;
};

/// The optimizer's output: the chosen strategy and — when the generative
/// model is selected — the elbow-point ε and its correlation set.
struct OptimizerDecision {
  ModelingStrategy strategy = ModelingStrategy::kMajorityVote;
  /// Ã*(Λ), the predicted modeling advantage (Proposition 2).
  double predicted_advantage = 0.0;
  /// Selected ε (0 when strategy is MV or structure search is disabled).
  double chosen_epsilon = 0.0;
  /// Correlation pairs to model at chosen_epsilon, from a cold re-fit at
  /// that ε for StructureLearnerOptions::epochs. This set can be larger
  /// than the sweep's count at the elbow (see `sweep`).
  std::vector<CorrelationPair> correlations;
  /// The full (ε, #correlations) sweep, ordered by descending ε. It is
  /// warm-started with only sweep_epochs per ε step, so its counts are
  /// under-converged and used only to place the elbow: with the `train`
  /// benchmark's settings (eta 0.05, epochs 25, sweep_epochs 10) the elbow
  /// point can count 0 while `correlations` holds 7 pairs (an EHR task,
  /// ε* = 0.20) or 15 (a CDR task, ε* = 0.15).
  std::vector<StructureSweepPoint> sweep;
};

/// The two-stage, rule-based modeling-strategy optimizer of Algorithm 1:
///
///   if Ã*(Λ) < γ: return MV
///   for i in 1 .. 1/(2η): ε = i·η; C = LearnStructure(Λ, ε)
///   ε* = SelectElbowPoint(counts); return GM at ε*
///
/// Stage one decides whether learning LF accuracies is worth the training
/// time at all; stage two picks how many correlations to model.
class ModelingStrategyOptimizer {
 public:
  explicit ModelingStrategyOptimizer(OptimizerOptions options = {});

  /// Runs Algorithm 1 on a binary label matrix.
  Result<OptimizerDecision> Choose(const LabelMatrix& matrix) const;

  const OptimizerOptions& options() const { return options_; }

 private:
  OptimizerOptions options_;
};

}  // namespace snorkel

#endif  // SNORKEL_CORE_OPTIMIZER_H_
