#include "core/structure_learner.h"

#include <gtest/gtest.h>

#include <set>

#include "core/optimizer.h"
#include "lf/applier.h"
#include "synth/relation_task.h"
#include "synth/synthetic_matrix.h"

namespace snorkel {
namespace {

std::set<std::pair<size_t, size_t>> AsSet(
    const std::vector<CorrelationPair>& pairs) {
  std::set<std::pair<size_t, size_t>> out;
  for (const auto& p : pairs) out.insert({p.j, p.k});
  return out;
}

TEST(StructureLearnerTest, RejectsMulticlassMatrix) {
  auto m = LabelMatrix::FromDense({{1, 3}}, 3);
  ASSERT_TRUE(m.ok());
  StructureLearner learner;
  EXPECT_FALSE(learner.LearnStructure(*m).ok());
}

TEST(StructureLearnerTest, RejectsNonPositiveEpsilon) {
  auto data = SyntheticMatrixGenerator::GenerateIid(100, 3, 0.8, 0.5, 1);
  ASSERT_TRUE(data.ok());
  StructureLearner learner;
  EXPECT_FALSE(learner.LearnStructure(data->matrix, 0.0).ok());
  EXPECT_FALSE(learner.LearnStructure(data->matrix, -0.1).ok());
}

TEST(StructureLearnerTest, SingleLfYieldsNoPairs) {
  auto data = SyntheticMatrixGenerator::GenerateIid(100, 1, 0.8, 0.5, 2);
  ASSERT_TRUE(data.ok());
  StructureLearner learner;
  auto pairs = learner.LearnStructure(data->matrix);
  ASSERT_TRUE(pairs.ok());
  EXPECT_TRUE(pairs->empty());
}

TEST(StructureLearnerTest, FindsPlantedCorrelatedBlock) {
  // 4 perfect copies (indices 0-3) + 6 independents: every selected pair
  // should be inside the block, and the block should be found.
  auto data = SyntheticMatrixGenerator::GenerateExample31(
      3000, /*num_correlated=*/4, /*num_independent=*/6,
      /*corr_accuracy=*/0.6, /*indep_accuracy=*/0.8, /*seed=*/3);
  ASSERT_TRUE(data.ok());
  StructureLearner learner;
  auto pairs = learner.LearnStructure(data->matrix, 0.2);
  ASSERT_TRUE(pairs.ok());
  ASSERT_FALSE(pairs->empty());
  size_t in_block = 0;
  for (const auto& p : *pairs) {
    if (p.j < 4 && p.k < 4) ++in_block;
  }
  // The block dominates the selection and most block pairs are recovered.
  EXPECT_GE(in_block * 2, pairs->size() * 2 - pairs->size());
  EXPECT_GE(in_block, 3u);
  EXPECT_LE(pairs->size() - in_block, 2u);
}

TEST(StructureLearnerTest, IndependentLfsYieldFewPairs) {
  auto data = SyntheticMatrixGenerator::GenerateIid(3000, 8, 0.75, 0.4, 4);
  ASSERT_TRUE(data.ok());
  StructureLearner learner;
  auto pairs = learner.LearnStructure(data->matrix, 0.2);
  ASSERT_TRUE(pairs.ok());
  EXPECT_LE(pairs->size(), 2u);  // 28 possible pairs; nearly all rejected.
}

TEST(StructureLearnerTest, PartialCopiesStillDetected) {
  // Copies with 70% copy probability are still strongly dependent.
  auto data = SyntheticMatrixGenerator::GenerateClustered(
      4000, /*num_clusters=*/1, /*cluster_size=*/3, /*num_independent=*/5,
      /*accuracy=*/0.75, /*propensity=*/0.5, /*copy_prob=*/0.7, /*seed=*/5);
  ASSERT_TRUE(data.ok());
  StructureLearner learner;
  auto pairs = learner.LearnStructure(data->matrix, 0.15);
  ASSERT_TRUE(pairs.ok());
  auto set = AsSet(*pairs);
  // At least the head-copy pairs (0,1) or (0,2) or the sibling pair (1,2).
  bool found_cluster_pair = set.count({0, 1}) || set.count({0, 2}) ||
                            set.count({1, 2});
  EXPECT_TRUE(found_cluster_pair);
}

TEST(StructureLearnerTest, SweepCountsAreMonotoneInEpsilon) {
  auto data = SyntheticMatrixGenerator::GenerateClustered(
      2000, 2, 3, 4, 0.75, 0.5, 0.9, 6);
  ASSERT_TRUE(data.ok());
  StructureLearner learner;
  auto sweep = learner.Sweep(data->matrix, {0.4, 0.3, 0.2, 0.1, 0.05});
  ASSERT_TRUE(sweep.ok());
  ASSERT_EQ(sweep->size(), 5u);
  for (size_t i = 0; i + 1 < sweep->size(); ++i) {
    EXPECT_GT((*sweep)[i].epsilon, (*sweep)[i + 1].epsilon);
    // Lower ε keeps at least as many correlations (warm-started path).
    EXPECT_LE((*sweep)[i].num_correlations, (*sweep)[i + 1].num_correlations);
  }
}

TEST(StructureLearnerTest, SweepDeduplicatesAndSortsEpsilons) {
  auto data = SyntheticMatrixGenerator::GenerateIid(500, 4, 0.8, 0.5, 7);
  ASSERT_TRUE(data.ok());
  StructureLearner learner;
  auto sweep = learner.Sweep(data->matrix, {0.1, 0.3, 0.1, 0.2});
  ASSERT_TRUE(sweep.ok());
  ASSERT_EQ(sweep->size(), 3u);
  EXPECT_DOUBLE_EQ((*sweep)[0].epsilon, 0.3);
  EXPECT_DOUBLE_EQ((*sweep)[2].epsilon, 0.1);
}

TEST(ElbowTest, PicksKneeBeforeExplosion) {
  std::vector<StructureSweepPoint> sweep = {
      {0.30, 0}, {0.25, 2}, {0.20, 4}, {0.15, 6}, {0.10, 80}, {0.05, 400}};
  size_t elbow = StructureLearner::SelectElbowIndex(sweep);
  // The knee is at count 6 (index 3): past it the count explodes.
  EXPECT_EQ(elbow, 3u);
}

TEST(ElbowTest, HandlesShortSweeps) {
  EXPECT_EQ(StructureLearner::SelectElbowIndex({}), 0u);
  EXPECT_EQ(StructureLearner::SelectElbowIndex({{0.1, 5}}), 0u);
  EXPECT_EQ(StructureLearner::SelectElbowIndex({{0.2, 1}, {0.1, 9}}), 0u);
}

TEST(ElbowTest, FlatSweepPicksInterior) {
  std::vector<StructureSweepPoint> sweep = {{0.3, 5}, {0.2, 5}, {0.1, 5}};
  size_t elbow = StructureLearner::SelectElbowIndex(sweep);
  EXPECT_GE(elbow, 1u);
  EXPECT_LE(elbow, 1u);
}

TEST(StructureLearnerTest, DeterministicGivenSeed) {
  auto data = SyntheticMatrixGenerator::GenerateClustered(
      1500, 1, 4, 3, 0.7, 0.5, 0.9, 8);
  ASSERT_TRUE(data.ok());
  StructureLearner learner;
  auto a = learner.LearnStructure(data->matrix, 0.15);
  auto b = learner.LearnStructure(data->matrix, 0.15);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(AsSet(*a), AsSet(*b));
}

TEST(StructureLearnerTest, ThreadCountInvariant) {
  // Each LF's conditional writes only its own slice of the optimization
  // state, so the worker count cannot change a single bit of the result.
  auto data = SyntheticMatrixGenerator::GenerateClustered(
      1500, 2, 3, 4, 0.75, 0.5, 0.85, 9);
  ASSERT_TRUE(data.ok());
  const std::vector<double> epsilons = {0.3, 0.2, 0.15, 0.1, 0.05};
  std::vector<std::vector<size_t>> counts;
  std::vector<std::set<std::pair<size_t, size_t>>> pairs;
  for (int threads : {1, 2, 8}) {
    StructureLearnerOptions options;
    options.num_threads = threads;
    StructureLearner learner(options);
    auto sweep = learner.Sweep(data->matrix, epsilons);
    auto learned = learner.LearnStructure(data->matrix, 0.15);
    ASSERT_TRUE(sweep.ok() && learned.ok());
    std::vector<size_t> c;
    for (const auto& p : *sweep) c.push_back(p.num_correlations);
    counts.push_back(c);
    pairs.push_back(AsSet(*learned));
  }
  EXPECT_FALSE(pairs[0].empty());
  for (size_t t = 1; t < counts.size(); ++t) {
    EXPECT_EQ(counts[t], counts[0]);
    EXPECT_EQ(pairs[t], pairs[0]);
  }
}

TEST(StructureLearnerTest, RepeatedRowsLearnSameStructure) {
  // Repeating every row 4x changes each vote pattern's multiplicity, not
  // the per-row average the conditionals fit, so the structure must not
  // move.
  auto data = SyntheticMatrixGenerator::GenerateClustered(
      500, 2, 3, 4, 0.75, 0.5, 0.9, 10);
  ASSERT_TRUE(data.ok());
  const LabelMatrix& once = data->matrix;
  std::vector<size_t> tiled;
  for (int copy = 0; copy < 4; ++copy) {
    for (size_t i = 0; i < once.num_rows(); ++i) tiled.push_back(i);
  }
  LabelMatrix repeated = once.SelectRows(tiled);
  ASSERT_EQ(repeated.num_rows(), 2000u);

  StructureLearnerOptions options;
  options.max_rows = 2000;  // No subsampling: every copy is fitted.
  StructureLearner learner(options);
  size_t total = 0;
  for (double eps : {0.1, 0.15, 0.2}) {
    auto a = learner.LearnStructure(once, eps);
    auto b = learner.LearnStructure(repeated, eps);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(AsSet(*a), AsSet(*b)) << "epsilon " << eps;
    total += a->size();
  }
  EXPECT_GT(total, 0u);
}

TEST(StructureLearnerTest, SweepMatchesPinnedCdrDecision) {
  // Algorithm 1 on the CDR analog at the benchmark's structure settings.
  // The expected sweep, ε* and correlation set were recorded from the
  // row-at-a-time learner, before duplicate vote patterns were folded.
  auto task = MakeCdrTask(42, 0.5);
  ASSERT_TRUE(task.ok());
  LFApplier applier(LFApplier::Options{1, 2});
  auto matrix = applier.Apply(task->lfs, task->corpus, task->candidates);
  ASSERT_TRUE(matrix.ok());
  LabelMatrix train = matrix->SelectRows(task->train_idx);

  OptimizerOptions options;
  options.eta = 0.05;
  options.structure.epochs = 25;
  options.structure.sweep_epochs = 10;
  options.structure.max_rows = 4000;
  options.structure.num_threads = 1;
  auto decision = ModelingStrategyOptimizer(options).Choose(train);
  ASSERT_TRUE(decision.ok());
  ASSERT_EQ(decision->strategy, ModelingStrategy::kGenerativeModel);

  const std::vector<size_t> expected_counts = {0, 0, 0, 0, 0,
                                               0, 0, 0, 2, 18};
  ASSERT_EQ(decision->sweep.size(), expected_counts.size());
  for (size_t i = 0; i < expected_counts.size(); ++i) {
    EXPECT_DOUBLE_EQ(decision->sweep[i].epsilon, 0.05 * (10 - i));
    EXPECT_EQ(decision->sweep[i].num_correlations, expected_counts[i])
        << "sweep point " << i;
  }
  EXPECT_DOUBLE_EQ(decision->chosen_epsilon, 0.15);
  const std::set<std::pair<size_t, size_t>> expected_pairs = {
      {0, 1},  {0, 2},  {0, 9},   {0, 30},  {1, 2},
      {1, 9},  {1, 30}, {2, 9},   {2, 30},  {3, 4},
      {9, 30}, {13, 20}, {14, 20}, {20, 21}, {23, 31}};
  EXPECT_EQ(AsSet(decision->correlations), expected_pairs);
}

}  // namespace
}  // namespace snorkel
