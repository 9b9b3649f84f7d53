#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>

#include "lf/applier.h"
#include "lf/compiled/program.h"
#include "lf/declarative.h"
#include "pipeline/export_snapshot.h"
#include "serve/incremental_applier.h"
#include "serve/label_service.h"
#include "serve/snapshot.h"
#include "synth/crossmodal.h"
#include "synth/synthetic_matrix.h"
#include "util/binary_io.h"
#include "util/hash.h"

namespace snorkel {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

GenerativeModelOptions FastGenOptions() {
  GenerativeModelOptions options;
  options.epochs = 60;
  return options;
}

/// A small synthetic Λ plus a generative model fit on it (independent
/// factors, so training is fast and deterministic).
struct FittedModel {
  LabelMatrix matrix;
  GenerativeModel model{FastGenOptions()};

  FittedModel() {
    auto synth = SyntheticMatrixGenerator::GenerateIid(
        /*num_points=*/400, /*num_lfs=*/6, /*accuracy=*/0.75,
        /*propensity=*/0.5, /*seed=*/7);
    EXPECT_TRUE(synth.ok()) << synth.status().ToString();
    matrix = synth->matrix;
    Status status = model.Fit(matrix);
    EXPECT_TRUE(status.ok()) << status.ToString();
  }

  std::vector<std::string> Names() const {
    std::vector<std::string> names;
    for (size_t j = 0; j < matrix.num_lfs(); ++j) {
      names.push_back("lf_" + std::to_string(j));
    }
    return names;
  }
  std::vector<uint64_t> Fingerprints() const {
    std::vector<uint64_t> fps;
    for (const auto& name : Names()) fps.push_back(Fnv1a64(name));
    return fps;
  }
};

// ------------------------------------------------------------- snapshots --

TEST(SnapshotTest, InMemoryRoundTripIsBitwiseIdentical) {
  FittedModel fx;
  auto snapshot = ModelSnapshot::Capture(fx.model, fx.Names(),
                                         fx.Fingerprints());
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();

  std::string bytes = SerializeSnapshot(*snapshot);
  auto loaded = DeserializeSnapshot(bytes);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  // Bitwise-equal weights...
  EXPECT_EQ(loaded->acc_weights, fx.model.accuracy_weights());
  EXPECT_EQ(loaded->lab_weights, fx.model.propensity_weights());
  EXPECT_EQ(loaded->lf_names, fx.Names());
  EXPECT_EQ(loaded->class_balance, fx.model.class_balance());

  // ...and identical posteriors on a held-out batch.
  auto restored = loaded->RestoreGenerativeModel();
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  std::vector<double> expected = fx.model.PredictProba(fx.matrix);
  std::vector<double> actual = restored->PredictProba(fx.matrix);
  ASSERT_EQ(expected.size(), actual.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i], actual[i]) << "posterior drift at row " << i;
  }
}

TEST(SnapshotTest, FileRoundTrip) {
  FittedModel fx;
  auto snapshot =
      ModelSnapshot::Capture(fx.model, fx.Names(), fx.Fingerprints());
  ASSERT_TRUE(snapshot.ok());
  std::string path = TempPath("roundtrip.snk");
  ASSERT_TRUE(SaveSnapshot(*snapshot, path).ok());
  auto loaded = LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->acc_weights, snapshot->acc_weights);
  std::remove(path.c_str());
}

TEST(SnapshotTest, CorrelatedModelRoundTripsStructure) {
  auto synth = SyntheticMatrixGenerator::GenerateExample31(
      /*num_points=*/300, /*num_correlated=*/2, /*num_independent=*/3,
      /*corr_accuracy=*/0.7, /*indep_accuracy=*/0.75, /*seed=*/11);
  ASSERT_TRUE(synth.ok());
  GenerativeModelOptions options;
  options.epochs = 30;
  options.num_chains = 8;
  GenerativeModel model(options);
  ASSERT_TRUE(model.Fit(synth->matrix, {{0, 1}}).ok());

  std::vector<std::string> names;
  std::vector<uint64_t> fps;
  for (size_t j = 0; j < synth->matrix.num_lfs(); ++j) {
    names.push_back("lf_" + std::to_string(j));
    fps.push_back(j);
  }
  auto snapshot = ModelSnapshot::Capture(model, names, fps);
  ASSERT_TRUE(snapshot.ok());
  auto loaded = DeserializeSnapshot(SerializeSnapshot(*snapshot));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->correlations.size(), 1u);
  EXPECT_EQ(loaded->correlations[0].j, 0u);
  EXPECT_EQ(loaded->correlations[0].k, 1u);
  EXPECT_EQ(loaded->corr_weights, model.correlation_weights());
}

TEST(SnapshotTest, DiscModelRoundTrip) {
  FittedModel fx;
  auto snapshot =
      ModelSnapshot::Capture(fx.model, fx.Names(), fx.Fingerprints());
  ASSERT_TRUE(snapshot.ok());

  // Tiny classifier over 8 buckets.
  std::vector<FeatureVector> features(50);
  std::vector<double> soft(50);
  for (size_t i = 0; i < 50; ++i) {
    features[i].Add(static_cast<uint32_t>(i % 8), 1.0f);
    soft[i] = (i % 8) < 4 ? 0.9 : 0.1;
  }
  LogisticRegressionClassifier disc;
  ASSERT_TRUE(disc.Fit(features, 8, soft).ok());
  ASSERT_TRUE(snapshot->AttachDiscModel(disc, 8).ok());

  auto loaded = DeserializeSnapshot(SerializeSnapshot(*snapshot));
  ASSERT_TRUE(loaded.ok());
  ASSERT_TRUE(loaded->has_disc_model);
  auto restored = loaded->RestoreDiscModel();
  ASSERT_TRUE(restored.ok());
  std::vector<double> expected = disc.PredictProba(features);
  std::vector<double> actual = restored->PredictProba(features);
  EXPECT_EQ(expected, actual);
}

TEST(SnapshotTest, BadMagicRejected) {
  FittedModel fx;
  auto snapshot =
      ModelSnapshot::Capture(fx.model, fx.Names(), fx.Fingerprints());
  ASSERT_TRUE(snapshot.ok());
  std::string bytes = SerializeSnapshot(*snapshot);
  bytes[0] = 'X';
  auto loaded = DeserializeSnapshot(bytes);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST(SnapshotTest, WrongVersionRejected) {
  FittedModel fx;
  auto snapshot =
      ModelSnapshot::Capture(fx.model, fx.Names(), fx.Fingerprints());
  ASSERT_TRUE(snapshot.ok());
  std::string bytes = SerializeSnapshot(*snapshot);
  bytes[4] = static_cast<char>(kSnapshotVersion + 1);  // Version field.
  auto loaded = DeserializeSnapshot(bytes);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kFailedPrecondition);
}

TEST(SnapshotTest, TruncationAndCorruptionAreIOErrors) {
  FittedModel fx;
  auto snapshot =
      ModelSnapshot::Capture(fx.model, fx.Names(), fx.Fingerprints());
  ASSERT_TRUE(snapshot.ok());
  std::string bytes = SerializeSnapshot(*snapshot);

  // Truncation at every prefix length must error, never crash.
  for (size_t len : {size_t{0}, size_t{3}, size_t{15}, bytes.size() / 2,
                     bytes.size() - 1}) {
    auto loaded = DeserializeSnapshot(std::string_view(bytes).substr(0, len));
    ASSERT_FALSE(loaded.ok()) << "prefix length " << len;
    EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
  }

  // A flipped payload byte fails the checksum.
  std::string corrupted = bytes;
  corrupted[bytes.size() / 2] ^= 0x40;
  auto loaded = DeserializeSnapshot(corrupted);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
}

TEST(SnapshotTest, RestoreWeightsValidatesShapes) {
  GenerativeModel model;
  EXPECT_EQ(model.RestoreWeights(0, {}, {}, {}, {}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(model.RestoreWeights(2, {1.0}, {1.0, 1.0}, {}, {}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      model.RestoreWeights(2, {1.0, 1.0}, {1.0, 1.0}, {0.5}, {}).code(),
      StatusCode::kInvalidArgument);
  // Unnormalized pair (j >= k).
  EXPECT_EQ(model
                .RestoreWeights(2, {1.0, 1.0}, {1.0, 1.0}, {0.5},
                                {CorrelationPair{1, 0}})
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(model
                  .RestoreWeights(2, {1.0, 1.0}, {1.0, 1.0}, {0.5},
                                  {CorrelationPair{0, 1}})
                  .ok());
  EXPECT_TRUE(model.is_fit());
}

// -------------------------------------------------- incremental applier --

/// Corpus of `n` sentences, half "causes", half "treats".
struct ServeFixture {
  Corpus corpus;
  std::vector<Candidate> candidates;

  explicit ServeFixture(int num_docs = 100) {
    for (int d = 0; d < num_docs; ++d) {
      Document doc;
      Sentence s;
      if (d % 2 == 0) {
        s.words = {"magnesium", "causes", "quadriplegia"};
      } else {
        s.words = {"aspirin", "treats", "headache"};
      }
      const std::string id = std::to_string(d);
      s.mentions = {Mention{0, 1, "chemical", "C" + id},
                    Mention{2, 3, "disease", "D" + id}};
      doc.sentences = {s};
      corpus.AddDocument(std::move(doc));
    }
    candidates = CandidateExtractor("chemical", "disease").Extract(corpus);
  }

  LabelingFunctionSet MakeLfs() const {
    LabelingFunctionSet lfs;
    lfs.Add(MakeKeywordBetweenLF("lf_causes", {"cause"}, 1));
    lfs.Add(MakeKeywordBetweenLF("lf_treats", {"treat"}, -1));
    lfs.Add(MakeDistanceLF("lf_far", 4, -1));
    return lfs;
  }
};

TEST(IncrementalApplierTest, MatchesPlainApplier) {
  ServeFixture fx;
  LabelingFunctionSet lfs = fx.MakeLfs();
  auto expected = LFApplier().Apply(lfs, fx.corpus, fx.candidates);
  ASSERT_TRUE(expected.ok());
  IncrementalApplier applier;
  auto actual = applier.Apply(lfs, fx.corpus, fx.candidates);
  ASSERT_TRUE(actual.ok()) << actual.status().ToString();
  ASSERT_EQ(actual->num_rows(), expected->num_rows());
  ASSERT_EQ(actual->num_lfs(), expected->num_lfs());
  for (size_t i = 0; i < expected->num_rows(); ++i) {
    for (size_t j = 0; j < expected->num_lfs(); ++j) {
      EXPECT_EQ(actual->At(i, j), expected->At(i, j));
    }
  }
}

TEST(IncrementalApplierTest, EditingOneLfRecomputesOneColumn) {
  ServeFixture fx;
  LabelingFunctionSet lfs = fx.MakeLfs();
  IncrementalApplier applier;
  ASSERT_TRUE(applier.Apply(lfs, fx.corpus, fx.candidates).ok());
  EXPECT_EQ(applier.stats().columns_computed, 3u);
  EXPECT_EQ(applier.stats().columns_reused, 0u);

  // Unchanged LF set: all columns reused.
  ASSERT_TRUE(applier.Apply(lfs, fx.corpus, fx.candidates).ok());
  EXPECT_EQ(applier.stats().columns_computed, 3u);
  EXPECT_EQ(applier.stats().columns_reused, 3u);

  // The §4.1 iterate loop: edit ONE LF (same name, new version ⇒ new
  // fingerprint); exactly one column recomputes.
  LabelingFunctionSet edited;
  edited.Add(MakeKeywordBetweenLF("lf_causes", {"cause"}, 1));
  edited.Add(LabelingFunction("lf_treats", "v2",
                              [](const CandidateView& view) -> Label {
                                for (const auto& w : view.WordsBetween()) {
                                  if (w == "treats") return -1;
                                }
                                return kAbstain;
                              }));
  edited.Add(MakeDistanceLF("lf_far", 4, -1));
  auto matrix = applier.Apply(edited, fx.corpus, fx.candidates);
  ASSERT_TRUE(matrix.ok());
  EXPECT_EQ(applier.stats().columns_computed, 4u);  // +1, not +3.
  EXPECT_EQ(applier.stats().columns_reused, 5u);    // +2 untouched columns.
  EXPECT_EQ(matrix->At(1, 1), -1);                  // New column is live.
}

TEST(IncrementalApplierTest, AlternatingSetsBothStayCached) {
  // The pre-PR-5 cache remembered ONE candidate set, so alternating batches
  // (A/B/A/B) invalidated each other and got zero reuse. The multi-set
  // cache keeps a column map per set: after the first A and B, every later
  // request of either set reuses all of its columns.
  ServeFixture fx;
  LabelingFunctionSet lfs = fx.MakeLfs();
  std::vector<Candidate> a(fx.candidates.begin(), fx.candidates.begin() + 50);
  std::vector<Candidate> b(fx.candidates.begin() + 50, fx.candidates.end());
  auto expected_a = LFApplier().Apply(lfs, fx.corpus, a);
  auto expected_b = LFApplier().Apply(lfs, fx.corpus, b);
  ASSERT_TRUE(expected_a.ok() && expected_b.ok());

  IncrementalApplier applier;
  for (int cycle = 0; cycle < 3; ++cycle) {
    for (const auto* batch : {&a, &b}) {
      auto matrix = applier.Apply(lfs, fx.corpus, *batch);
      ASSERT_TRUE(matrix.ok()) << matrix.status().ToString();
      const LabelMatrix& expected =
          batch == &a ? *expected_a : *expected_b;
      for (size_t i = 0; i < expected.num_rows(); ++i) {
        for (size_t j = 0; j < expected.num_lfs(); ++j) {
          EXPECT_EQ(matrix->At(i, j), expected.At(i, j));
        }
      }
    }
  }
  EXPECT_EQ(applier.stats().columns_computed, 6u);   // 3 per set, once.
  EXPECT_EQ(applier.stats().columns_reused, 12u);    // 2 cycles × 2 sets × 3.
  EXPECT_EQ(applier.stats().set_misses, 2u);
  EXPECT_EQ(applier.stats().set_hits, 4u);
  EXPECT_EQ(applier.cached_sets(), 2u);
  EXPECT_GT(applier.stats().bytes_cached, 0u);
}

TEST(IncrementalApplierTest, AppendOnlyStreamComputesOnlyTailRows) {
  // The "candidates arrive in a growing log" serving shape: a request whose
  // prefix is a cached set extends the cached columns instead of
  // recomputing all rows.
  ServeFixture fx(120);
  LabelingFunctionSet lfs = fx.MakeLfs();
  std::vector<Candidate> prefix(fx.candidates.begin(),
                                fx.candidates.begin() + 80);

  IncrementalApplier applier;
  ASSERT_TRUE(applier.Apply(lfs, fx.corpus, prefix).ok());
  EXPECT_EQ(applier.stats().appended_rows, 0u);

  auto matrix = applier.Apply(lfs, fx.corpus, fx.candidates);
  ASSERT_TRUE(matrix.ok()) << matrix.status().ToString();
  // The extended set's columns count as computed, but only the 40-row tails
  // actually ran the LFs.
  EXPECT_EQ(applier.stats().columns_computed, 6u);
  EXPECT_EQ(applier.stats().appended_rows, 3u * 40u);
  EXPECT_EQ(applier.stats().set_misses, 2u);

  // Bitwise-identical to a fresh stateless apply of the full set.
  auto expected = LFApplier().Apply(lfs, fx.corpus, fx.candidates);
  ASSERT_TRUE(expected.ok());
  for (size_t i = 0; i < expected->num_rows(); ++i) {
    for (size_t j = 0; j < expected->num_lfs(); ++j) {
      EXPECT_EQ(matrix->At(i, j), expected->At(i, j));
    }
  }

  // The grown set is now cached whole: serving it again reuses everything.
  uint64_t computed_before = applier.stats().columns_computed;
  ASSERT_TRUE(applier.Apply(lfs, fx.corpus, fx.candidates).ok());
  EXPECT_EQ(applier.stats().columns_computed, computed_before);
}

TEST(IncrementalApplierTest, ByteBudgetEvictsLeastRecentlyUsedSet) {
  ServeFixture fx;
  LabelingFunctionSet lfs = fx.MakeLfs();
  std::vector<Candidate> a(fx.candidates.begin(), fx.candidates.begin() + 50);
  std::vector<Candidate> b(fx.candidates.begin() + 50, fx.candidates.end());
  const size_t set_bytes = 3 * 50 * sizeof(Label);  // 3 columns × 50 rows.

  // Budget fits ONE set's columns: the in-use set always survives (it is
  // pinned during Apply), the other is evicted.
  IncrementalApplier applier(IncrementalApplier::Options{
      .num_threads = 1, .cardinality = 2, .max_cached_bytes = set_bytes});
  ASSERT_TRUE(applier.Apply(lfs, fx.corpus, a).ok());
  EXPECT_EQ(applier.stats().bytes_cached, set_bytes);
  ASSERT_TRUE(applier.Apply(lfs, fx.corpus, b).ok());
  EXPECT_EQ(applier.cached_sets(), 1u);  // A evicted under pressure from B.
  EXPECT_EQ(applier.stats().evicted_sets, 1u);
  EXPECT_EQ(applier.stats().bytes_cached, set_bytes);

  // A comes back as a fresh miss (and evicts B in turn).
  ASSERT_TRUE(applier.Apply(lfs, fx.corpus, a).ok());
  EXPECT_EQ(applier.stats().columns_computed, 9u);
  EXPECT_EQ(applier.stats().evicted_sets, 2u);
}

TEST(IncrementalApplierTest, OwnedAndRefRequestsShareCachedColumns) {
  // An identity ref view fingerprints like the owned vector (content +
  // reported index), so the sharded tier's ref path and the owned path
  // share one set of cached columns.
  ServeFixture fx;
  LabelingFunctionSet lfs = fx.MakeLfs();
  IncrementalApplier applier;
  auto owned = applier.Apply(lfs, fx.corpus, fx.candidates);
  ASSERT_TRUE(owned.ok());
  EXPECT_EQ(applier.stats().columns_computed, 3u);

  std::vector<CandidateRef> refs = MakeCandidateRefs(fx.candidates);
  auto by_ref = applier.ApplyRefs(lfs, fx.corpus, refs);
  ASSERT_TRUE(by_ref.ok()) << by_ref.status().ToString();
  EXPECT_EQ(applier.stats().columns_computed, 3u);  // All reused.
  EXPECT_EQ(applier.stats().set_hits, 1u);
  for (size_t i = 0; i < owned->num_rows(); ++i) {
    for (size_t j = 0; j < owned->num_lfs(); ++j) {
      EXPECT_EQ(by_ref->At(i, j), owned->At(i, j));
    }
  }

  // A ref batch with DIFFERENT reported indices is a different set: an
  // index-dependent LF would label it differently, so it must not reuse.
  std::vector<CandidateRef> shifted = refs;
  for (auto& row : shifted) row.index += 1000;
  ASSERT_TRUE(applier.ApplyRefs(lfs, fx.corpus, shifted).ok());
  EXPECT_EQ(applier.stats().set_misses, 2u);
  EXPECT_EQ(applier.stats().columns_computed, 6u);
}

TEST(IncrementalApplierTest, BuggyLfSurfacesErrorWithoutPoisoningCache) {
  ServeFixture fx;
  LabelingFunctionSet lfs;
  lfs.Add(LabelingFunction("lf_buggy",
                           [](const CandidateView&) -> Label { return 7; }));
  IncrementalApplier applier;
  auto matrix = applier.Apply(lfs, fx.corpus, fx.candidates);
  ASSERT_FALSE(matrix.ok());
  EXPECT_EQ(matrix.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(applier.cached_columns(), 0u);
  // The failed request's set entry is reclaimed too: a stream of failing
  // requests over fresh sets must not grow the set map without bound
  // (zero-byte entries are invisible to the byte-budget eviction).
  EXPECT_EQ(applier.cached_sets(), 0u);
  for (int d = 0; d < 5; ++d) {
    ServeFixture other(20 + d);
    ASSERT_FALSE(applier.Apply(lfs, other.corpus, other.candidates).ok());
  }
  EXPECT_EQ(applier.cached_sets(), 0u);
}

TEST(IncrementalApplierTest, SameShapedSetsFromDifferentCorporaDoNotCollide) {
  // LFs read corpus TEXT, which the candidate-row hash does not cover: two
  // corpora whose candidates have identical span coordinates, entity types,
  // and canonical ids but different words must not share cached columns
  // (the fingerprint is salted with the corpus identity).
  ServeFixture fx;
  Corpus flipped;  // Same shape as fx.corpus, "causes"/"treats" swapped.
  for (int d = 0; d < 100; ++d) {
    Document doc;
    Sentence s;
    if (d % 2 == 0) {
      s.words = {"aspirin", "treats", "headache"};
    } else {
      s.words = {"magnesium", "causes", "quadriplegia"};
    }
    const std::string id = std::to_string(d);
    s.mentions = {Mention{0, 1, "chemical", "C" + id},
                  Mention{2, 3, "disease", "D" + id}};
    doc.sentences = {s};
    flipped.AddDocument(std::move(doc));
  }

  LabelingFunctionSet lfs = fx.MakeLfs();
  IncrementalApplier applier;
  auto original = applier.Apply(lfs, fx.corpus, fx.candidates);
  auto swapped = applier.Apply(lfs, flipped, fx.candidates);
  ASSERT_TRUE(original.ok() && swapped.ok());
  EXPECT_EQ(applier.stats().set_misses, 2u) << "corpora shared a cache set";
  // Row 0 reads "causes" in fx.corpus and "treats" in the flipped corpus.
  EXPECT_EQ(original->At(0, 0), 1);
  EXPECT_EQ(swapped->At(0, 0), kAbstain);
  EXPECT_EQ(swapped->At(0, 1), -1);
}

TEST(IncrementalApplierTest, CorpusReallocatedAtSameAddressGetsFreshColumns) {
  // A corpus freed and a new one built in the same storage (the ShardServer
  // intern table frees decoded corpora all the time) must not inherit the
  // old corpus's columns: the fingerprint is salted with Corpus::identity(),
  // not with the address, so the same candidate rows over the new text are
  // a fresh set.
  auto build = [](const std::string& verb) {
    Corpus corpus;
    Document doc;
    Sentence s;
    s.words = {"aspirin", verb, "headache"};
    s.mentions = {Mention{0, 1, "chemical", "C_asp"},
                  Mention{2, 3, "disease", "D_ha"}};
    doc.sentences = {s};
    corpus.AddDocument(std::move(doc));
    return corpus;
  };
  LabelingFunctionSet lfs;
  lfs.Add(MakeKeywordBetweenLF("kw_cause", {"cause"}, 1));
  IncrementalApplier applier;

  std::optional<Corpus> slot;
  slot.emplace(build("causes"));
  const Corpus* address = &*slot;
  auto candidates = CandidateExtractor("chemical", "disease").Extract(*slot);
  ASSERT_EQ(candidates.size(), 1u);
  auto first = applier.Apply(lfs, *slot, candidates);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->At(0, 0), 1);

  slot.reset();
  slot.emplace(build("prevents"));
  ASSERT_EQ(&*slot, address);
  ASSERT_EQ(CandidateExtractor("chemical", "disease").Extract(*slot).size(),
            1u);
  auto second = applier.Apply(lfs, *slot, candidates);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  auto expected = LFApplier().Apply(lfs, *slot, candidates);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(expected->At(0, 0), kAbstain);
  EXPECT_EQ(second->At(0, 0), kAbstain) << "served the freed corpus's column";
  EXPECT_EQ(applier.stats().set_misses, 2u);
}

TEST(IncrementalApplierTest, ThrowingLfFailsClaimsWithoutWedgingTheSet) {
  // An LF that THROWS (user code) unwinds out of Apply. The claimed
  // columns must not be left in a computing state — that would block every
  // later request for this candidate set forever.
  ServeFixture fx;
  LabelingFunctionSet throwing;
  throwing.Add(LabelingFunction("lf_throws",
                                [](const CandidateView&) -> Label {
                                  throw std::runtime_error("LF bug");
                                }));
  IncrementalApplier applier;
  EXPECT_THROW(applier.Apply(throwing, fx.corpus, fx.candidates),
               std::runtime_error);
  EXPECT_EQ(applier.cached_columns(), 0u);
  EXPECT_EQ(applier.cached_sets(), 0u);

  // The same set is not wedged: it throws again (no silent cache), and a
  // healthy LF set over the same candidates serves normally.
  EXPECT_THROW(applier.Apply(throwing, fx.corpus, fx.candidates),
               std::runtime_error);
  auto matrix = applier.Apply(fx.MakeLfs(), fx.corpus, fx.candidates);
  ASSERT_TRUE(matrix.ok()) << matrix.status().ToString();
}

TEST(IncrementalApplierTest, InvalidateDropsOneColumnEverywhere) {
  ServeFixture fx;
  LabelingFunctionSet lfs = fx.MakeLfs();
  std::vector<Candidate> a(fx.candidates.begin(), fx.candidates.begin() + 50);
  std::vector<Candidate> b(fx.candidates.begin() + 50, fx.candidates.end());
  IncrementalApplier applier;
  ASSERT_TRUE(applier.Apply(lfs, fx.corpus, a).ok());
  ASSERT_TRUE(applier.Apply(lfs, fx.corpus, b).ok());
  ASSERT_EQ(applier.cached_columns(), 6u);
  uint64_t bytes_before = applier.stats().bytes_cached;

  applier.Invalidate(lfs.at(1).fingerprint());
  EXPECT_EQ(applier.cached_columns(), 4u);  // Dropped from BOTH sets.
  EXPECT_EQ(applier.stats().bytes_cached,
            bytes_before - 2 * 50 * sizeof(Label));

  // Re-serving recomputes exactly the invalidated column per set.
  ASSERT_TRUE(applier.Apply(lfs, fx.corpus, a).ok());
  ASSERT_TRUE(applier.Apply(lfs, fx.corpus, b).ok());
  EXPECT_EQ(applier.stats().columns_computed, 8u);
  EXPECT_EQ(applier.cached_columns(), 6u);

  applier.InvalidateAll();
  EXPECT_EQ(applier.cached_sets(), 0u);
  EXPECT_EQ(applier.stats().bytes_cached, 0u);
}

TEST(IncrementalApplierTest, SerialAndParallelAgree) {
  ServeFixture fx(200);
  LabelingFunctionSet lfs = fx.MakeLfs();
  IncrementalApplier serial(
      IncrementalApplier::Options{.num_threads = 1, .cardinality = 2});
  IncrementalApplier parallel(
      IncrementalApplier::Options{.num_threads = 4, .cardinality = 2});
  auto a = serial.Apply(lfs, fx.corpus, fx.candidates);
  auto b = parallel.Apply(lfs, fx.corpus, fx.candidates);
  ASSERT_TRUE(a.ok() && b.ok());
  for (size_t i = 0; i < a->num_rows(); ++i) {
    for (size_t j = 0; j < a->num_lfs(); ++j) {
      EXPECT_EQ(a->At(i, j), b->At(i, j));
    }
  }
}

// ------------------------------------ concurrent column cache (TSan'd) --

/// Cell-for-cell equality against a reference matrix (bitwise: labels are
/// integers, so equality IS bit equality).
bool MatrixEquals(const LabelMatrix& actual, const LabelMatrix& expected) {
  if (actual.num_rows() != expected.num_rows() ||
      actual.num_lfs() != expected.num_lfs()) {
    return false;
  }
  for (size_t i = 0; i < expected.num_rows(); ++i) {
    for (size_t j = 0; j < expected.num_lfs(); ++j) {
      if (actual.At(i, j) != expected.At(i, j)) return false;
    }
  }
  return true;
}

TEST(ConcurrentCacheTest, HitStormSharesColumnsWithoutRecomputation) {
  ServeFixture fx(200);
  LabelingFunctionSet lfs = fx.MakeLfs();
  auto expected = LFApplier().Apply(lfs, fx.corpus, fx.candidates);
  ASSERT_TRUE(expected.ok());

  IncrementalApplier applier(
      IncrementalApplier::Options{.num_threads = 1, .cardinality = 2});
  ASSERT_TRUE(applier.Apply(lfs, fx.corpus, fx.candidates).ok());  // Warm.

  constexpr int kThreads = 8;
  constexpr int kIterations = 20;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int it = 0; it < kIterations; ++it) {
        auto matrix = applier.Apply(lfs, fx.corpus, fx.candidates);
        if (!matrix.ok() || !MatrixEquals(*matrix, *expected)) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  // Every concurrent call was answered from cache: the columns were
  // computed exactly once, by the warming call.
  EXPECT_EQ(applier.stats().columns_computed, 3u);
  EXPECT_EQ(applier.stats().columns_reused,
            3u * static_cast<uint64_t>(kThreads) * kIterations);
}

TEST(ConcurrentCacheTest, DuplicateMissesCollapseToOneComputation) {
  // All threads miss the same cold (LF, set) keys simultaneously: exactly
  // one computation may run per column; losers wait for the winner and
  // still return the correct matrix.
  ServeFixture fx(200);
  LabelingFunctionSet lfs = fx.MakeLfs();
  auto expected = LFApplier().Apply(lfs, fx.corpus, fx.candidates);
  ASSERT_TRUE(expected.ok());

  for (int round = 0; round < 5; ++round) {
    IncrementalApplier applier(
        IncrementalApplier::Options{.num_threads = 1, .cardinality = 2});
    constexpr int kThreads = 8;
    std::atomic<int> mismatches{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] {
        auto matrix = applier.Apply(lfs, fx.corpus, fx.candidates);
        if (!matrix.ok() || !MatrixEquals(*matrix, *expected)) {
          mismatches.fetch_add(1);
        }
      });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(mismatches.load(), 0);
    EXPECT_EQ(applier.stats().columns_computed, 3u)
        << "a duplicate miss escaped the collapse in round " << round;
    EXPECT_EQ(applier.stats().set_misses, 1u);
  }
}

TEST(ConcurrentCacheTest, EvictionUnderBytePressureRacesReadersSafely) {
  // Four alternating sets under a budget that fits roughly one: every Apply
  // triggers eviction while other threads read the entries being evicted.
  // Entries are shared_ptr-held and pinned while in use, so readers must
  // always see complete, correct columns.
  ServeFixture fx(160);
  LabelingFunctionSet lfs = fx.MakeLfs();
  constexpr size_t kSets = 4;
  std::vector<std::vector<Candidate>> sets;
  std::vector<LabelMatrix> expected;
  for (size_t s = 0; s < kSets; ++s) {
    sets.emplace_back(fx.candidates.begin() + s * 40,
                      fx.candidates.begin() + (s + 1) * 40);
    auto fresh = LFApplier().Apply(lfs, fx.corpus, sets.back());
    ASSERT_TRUE(fresh.ok());
    expected.push_back(std::move(*fresh));
  }

  IncrementalApplier applier(IncrementalApplier::Options{
      .num_threads = 1,
      .cardinality = 2,
      .max_cached_bytes = 3 * 40 * sizeof(Label)});
  constexpr int kThreads = 4;
  constexpr int kIterations = 25;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int it = 0; it < kIterations; ++it) {
        size_t s = static_cast<size_t>(t + it) % kSets;
        auto matrix = applier.Apply(lfs, fx.corpus, sets[s]);
        if (!matrix.ok() || !MatrixEquals(*matrix, expected[s])) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(applier.stats().evicted_sets, 0u);
  // Quiescent: nothing pinned, so the budget holds (= one resident set).
  EXPECT_LE(applier.stats().bytes_cached, 3u * 40u * sizeof(Label));
}

TEST(ConcurrentCacheTest, ConcurrentAppendExtensionsStayBitwise) {
  // Growing-log shape under concurrency: callers serve different prefixes
  // of one stream; extensions must reuse cached prefixes and stay bitwise.
  ServeFixture fx(160);
  LabelingFunctionSet lfs = fx.MakeLfs();
  constexpr size_t kSteps = 4;
  std::vector<std::vector<Candidate>> prefixes;
  std::vector<LabelMatrix> expected;
  for (size_t s = 1; s <= kSteps; ++s) {
    prefixes.emplace_back(fx.candidates.begin(),
                          fx.candidates.begin() + s * 40);
    auto fresh = LFApplier().Apply(lfs, fx.corpus, prefixes.back());
    ASSERT_TRUE(fresh.ok());
    expected.push_back(std::move(*fresh));
  }

  IncrementalApplier applier(
      IncrementalApplier::Options{.num_threads = 1, .cardinality = 2});
  constexpr int kThreads = 4;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (size_t s = 0; s < kSteps; ++s) {
        auto matrix = applier.Apply(lfs, fx.corpus, prefixes[s]);
        if (!matrix.ok() || !MatrixEquals(*matrix, expected[s])) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// ------------------------------------------------------- label service --

/// Fits a model over the fixture's LF votes and captures a snapshot.
ModelSnapshot MakeServableSnapshot(const ServeFixture& fx,
                                   const LabelingFunctionSet& lfs) {
  auto matrix = LFApplier().Apply(lfs, fx.corpus, fx.candidates);
  EXPECT_TRUE(matrix.ok());
  GenerativeModelOptions options;
  options.epochs = 60;
  GenerativeModel model(options);
  EXPECT_TRUE(model.Fit(*matrix).ok());
  auto snapshot =
      ModelSnapshot::Capture(model, lfs.Names(), lfs.Fingerprints());
  EXPECT_TRUE(snapshot.ok());
  return *snapshot;
}

TEST(LabelServiceTest, ServesPosteriorsMatchingDirectModel) {
  ServeFixture fx;
  LabelingFunctionSet lfs = fx.MakeLfs();
  ModelSnapshot snapshot = MakeServableSnapshot(fx, lfs);

  auto service = LabelService::Create(snapshot, fx.MakeLfs());
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  LabelRequest request;
  request.corpus = &fx.corpus;
  request.candidates = &fx.candidates;
  request.include_votes = true;
  auto response = service->Label(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_EQ(response->posteriors.size(), fx.candidates.size());

  // Must equal the direct (offline) computation exactly.
  auto matrix = LFApplier().Apply(lfs, fx.corpus, fx.candidates);
  auto model = snapshot.RestoreGenerativeModel();
  ASSERT_TRUE(model.ok());
  std::vector<double> expected = model->PredictProba(*matrix);
  EXPECT_EQ(response->posteriors, expected);
  EXPECT_EQ(response->votes.num_lfs(), lfs.size());
  EXPECT_GT(response->latency_ms, 0.0);

  // "causes" rows serve positive, "treats" rows negative.
  EXPECT_EQ(response->hard_labels[0], 1);
  EXPECT_EQ(response->hard_labels[1], -1);
}

TEST(LabelServiceTest, RepeatBatchesHitTheColumnCache) {
  ServeFixture fx;
  ModelSnapshot snapshot = MakeServableSnapshot(fx, fx.MakeLfs());
  auto service = LabelService::Create(snapshot, fx.MakeLfs());
  ASSERT_TRUE(service.ok());

  LabelRequest request;
  request.corpus = &fx.corpus;
  request.candidates = &fx.candidates;
  for (int r = 0; r < 5; ++r) {
    ASSERT_TRUE(service->Label(request).ok());
  }
  ServiceStats stats = service->stats();
  EXPECT_EQ(stats.num_requests, 5u);
  EXPECT_EQ(stats.num_candidates, 5 * fx.candidates.size());
  // Artifact identity rides along in the stats so operators can tell WHICH
  // snapshot answered: version 0 for a non-store snapshot, canonical
  // checksum always.
  EXPECT_EQ(stats.snapshot_version, 0u);
  EXPECT_EQ(stats.snapshot_checksum, snapshot.CanonicalChecksum());
  EXPECT_EQ(service->snapshot_version(), stats.snapshot_version);
  EXPECT_EQ(service->snapshot_checksum(), stats.snapshot_checksum);
  EXPECT_EQ(stats.lf_columns_computed, 3u);
  EXPECT_EQ(stats.lf_columns_reused, 12u);
  // Set-level cache counters surface through the service stats chain.
  EXPECT_EQ(stats.cache_set_misses, 1u);
  EXPECT_EQ(stats.cache_set_hits, 4u);
  EXPECT_EQ(stats.cache_bytes, 3 * fx.candidates.size() * sizeof(Label));
  EXPECT_EQ(stats.cache_appended_rows, 0u);
  EXPECT_GT(stats.throughput_cps, 0.0);
  EXPECT_GE(stats.p99_latency_ms, stats.p50_latency_ms);

  // The serving-layer escape hatch for corpus reuse the fingerprint cannot
  // observe: dropping the cache forces recomputation on the next request.
  service->InvalidateCache();
  EXPECT_EQ(service->stats().cache_bytes, 0u);
  ASSERT_TRUE(service->Label(request).ok());
  EXPECT_EQ(service->stats().lf_columns_computed, 6u);
}

TEST(LabelServiceTest, RegistryExportsMatchServiceStatsExactly) {
  // Every ServiceStats serving metric is also visible through the unified
  // registry, with equal values. The Default registry is process-global and
  // same-name instruments sum, so compare DELTAS around this service's
  // traffic rather than absolute exports.
  auto sample = [](const char* name,
                   obs::MetricType type) -> obs::MetricSample {
    for (auto& s : obs::MetricsRegistry::Default().Collect()) {
      if (s.name == name && s.type == type) return s;
    }
    return {};
  };
  const obs::MetricSample req_before =
      sample("snorkel_serve_requests_total", obs::MetricType::kCounter);
  const obs::MetricSample cand_before =
      sample("snorkel_serve_candidates_total", obs::MetricType::kCounter);
  const obs::MetricSample lat_before =
      sample("snorkel_serve_latency_ms", obs::MetricType::kHistogram);

  ServeFixture fx;
  ModelSnapshot snapshot = MakeServableSnapshot(fx, fx.MakeLfs());
  auto service = std::make_unique<Result<LabelService>>(
      LabelService::Create(snapshot, fx.MakeLfs()));
  ASSERT_TRUE(service->ok());
  LabelRequest request;
  request.corpus = &fx.corpus;
  request.candidates = &fx.candidates;
  for (int r = 0; r < 3; ++r) ASSERT_TRUE((*service)->Label(request).ok());

  const ServiceStats stats = (*service)->stats();
  EXPECT_EQ(sample("snorkel_serve_requests_total", obs::MetricType::kCounter)
                    .value -
                req_before.value,
            static_cast<double>(stats.num_requests));
  EXPECT_EQ(sample("snorkel_serve_candidates_total",
                   obs::MetricType::kCounter)
                    .value -
                cand_before.value,
            static_cast<double>(stats.num_candidates));
  const obs::MetricSample lat_after =
      sample("snorkel_serve_latency_ms", obs::MetricType::kHistogram);
  EXPECT_EQ(lat_after.histogram.count - lat_before.histogram.count,
            stats.latency.count);
  EXPECT_EQ(stats.latency.count, stats.num_requests);

  // The stats-side quantiles are computed from the SAME histogram the
  // registry exports — the service keeps no second latency store.
  EXPECT_DOUBLE_EQ(stats.p50_latency_ms, stats.latency.Quantile(0.5));
  EXPECT_DOUBLE_EQ(stats.p99_latency_ms, stats.latency.Quantile(0.99));

  // And once the service dies, its weak-registered instruments drop out of
  // the next Collect() instead of exporting stale values.
  service.reset();
  const obs::MetricSample req_after_death =
      sample("snorkel_serve_requests_total", obs::MetricType::kCounter);
  EXPECT_EQ(req_after_death.value, req_before.value);
}

TEST(LabelServiceTest, RefRequestsMatchOwnedRequestsBitwise) {
  ServeFixture fx;
  ModelSnapshot snapshot = MakeServableSnapshot(fx, fx.MakeLfs());
  auto service = LabelService::Create(snapshot, fx.MakeLfs());
  ASSERT_TRUE(service.ok());

  LabelRequest owned;
  owned.corpus = &fx.corpus;
  owned.candidates = &fx.candidates;
  auto expected = service->Label(owned);
  ASSERT_TRUE(expected.ok());

  // The zero-copy ref form of the same request: identical response.
  std::vector<CandidateRef> refs = MakeCandidateRefs(fx.candidates);
  LabelRequest by_ref;
  by_ref.corpus = &fx.corpus;
  by_ref.candidate_refs = &refs;
  auto actual = service->Label(by_ref);
  ASSERT_TRUE(actual.ok()) << actual.status().ToString();
  EXPECT_EQ(actual->posteriors, expected->posteriors);
  EXPECT_EQ(actual->hard_labels, expected->hard_labels);
  // The identity ref view shares the owned request's cached columns.
  EXPECT_EQ(service->stats().lf_columns_computed, 3u);
  EXPECT_EQ(service->stats().cache_set_hits, 1u);

  // Setting both forms (or neither) is a typed misuse.
  LabelRequest both;
  both.corpus = &fx.corpus;
  both.candidates = &fx.candidates;
  both.candidate_refs = &refs;
  EXPECT_EQ(service->Label(both).status().code(),
            StatusCode::kInvalidArgument);
  LabelRequest neither;
  neither.corpus = &fx.corpus;
  EXPECT_EQ(service->Label(neither).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(LabelServiceTest, ConcurrentCachedCallersServeIdenticalResponses) {
  // The cached path no longer serializes callers behind an apply mutex:
  // concurrent requests over alternating sets must all hit the concurrent
  // cache and return exactly the single-threaded responses.
  ServeFixture fx;
  ModelSnapshot snapshot = MakeServableSnapshot(fx, fx.MakeLfs());
  LabelService::Options options;
  options.num_threads = 1;  // Callers provide the concurrency.
  auto service = LabelService::Create(snapshot, fx.MakeLfs(), options);
  ASSERT_TRUE(service.ok());

  std::vector<Candidate> a(fx.candidates.begin(), fx.candidates.begin() + 50);
  std::vector<Candidate> b(fx.candidates.begin() + 50, fx.candidates.end());
  std::vector<std::vector<double>> expected;
  for (const auto* batch : {&a, &b}) {
    LabelRequest request;
    request.corpus = &fx.corpus;
    request.candidates = batch;
    auto response = service->Label(request);
    ASSERT_TRUE(response.ok());
    expected.push_back(response->posteriors);
  }

  constexpr int kThreads = 8;
  constexpr int kIterations = 15;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int it = 0; it < kIterations; ++it) {
        size_t which = static_cast<size_t>(t + it) % 2;
        LabelRequest request;
        request.corpus = &fx.corpus;
        request.candidates = which == 0 ? &a : &b;
        auto response = service->Label(request);
        if (!response.ok() || response->posteriors != expected[which]) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  // Both sets stayed cached throughout: nothing recomputed after warmup.
  ServiceStats stats = service->stats();
  EXPECT_EQ(stats.lf_columns_computed, 6u);
  EXPECT_EQ(stats.cache_set_misses, 2u);
  EXPECT_EQ(stats.num_requests,
            2u + static_cast<uint64_t>(kThreads) * kIterations);
}

TEST(LabelServiceTest, ThroughputIsWallClockNotSummedLatency) {
  ServeFixture fx;
  ModelSnapshot snapshot = MakeServableSnapshot(fx, fx.MakeLfs());
  auto service = LabelService::Create(snapshot, fx.MakeLfs());
  ASSERT_TRUE(service.ok());

  LabelRequest request;
  request.corpus = &fx.corpus;
  request.candidates = &fx.candidates;
  ASSERT_TRUE(service->Label(request).ok());
  // Idle gap between requests. The old definition divided by SUMMED request
  // latencies, which excludes this gap (and double-counts overlapped time
  // under concurrent callers); wall-clock throughput must include it.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ASSERT_TRUE(service->Label(request).ok());

  ServiceStats stats = service->stats();
  EXPECT_GE(stats.busy_span_s, 0.09);
  EXPECT_LE(stats.throughput_cps,
            static_cast<double>(stats.num_candidates) / 0.09);
  EXPECT_GT(stats.throughput_cps, 0.0);
}

TEST(LabelServiceTest, RejectsMisalignedLfSet) {
  ServeFixture fx;
  ModelSnapshot snapshot = MakeServableSnapshot(fx, fx.MakeLfs());

  // Wrong count.
  LabelingFunctionSet too_few;
  too_few.Add(MakeKeywordBetweenLF("lf_causes", {"cause"}, 1));
  EXPECT_EQ(LabelService::Create(snapshot, std::move(too_few)).status().code(),
            StatusCode::kInvalidArgument);

  // Wrong name in one column.
  LabelingFunctionSet renamed;
  renamed.Add(MakeKeywordBetweenLF("lf_causes", {"cause"}, 1));
  renamed.Add(MakeKeywordBetweenLF("lf_cures", {"treat"}, -1));
  renamed.Add(MakeDistanceLF("lf_far", 4, -1));
  EXPECT_EQ(LabelService::Create(snapshot, std::move(renamed)).status().code(),
            StatusCode::kInvalidArgument);

  // Same name, changed behaviour (bumped version ⇒ new fingerprint).
  LabelingFunctionSet rebehaved;
  rebehaved.Add(MakeKeywordBetweenLF("lf_causes", {"cause"}, 1));
  rebehaved.Add(LabelingFunction(
      "lf_treats", "v2", [](const CandidateView&) -> Label { return -1; }));
  rebehaved.Add(MakeDistanceLF("lf_far", 4, -1));
  EXPECT_EQ(
      LabelService::Create(snapshot, std::move(rebehaved)).status().code(),
      StatusCode::kInvalidArgument);
}

TEST(LabelServiceTest, FromFileEndToEnd) {
  ServeFixture fx;
  ModelSnapshot snapshot = MakeServableSnapshot(fx, fx.MakeLfs());
  std::string path = TempPath("service.snk");
  ASSERT_TRUE(SaveSnapshot(snapshot, path).ok());
  auto service = LabelService::FromFile(path, fx.MakeLfs());
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  LabelRequest request;
  request.corpus = &fx.corpus;
  request.candidates = &fx.candidates;
  EXPECT_TRUE(service->Label(request).ok());
  std::remove(path.c_str());
}

// ------------------------------------------------- pipeline export step --

TEST(ExportSnapshotTest, TrainedTaskProducesServableArtifact) {
  auto task = MakeCdrTask(/*seed=*/3, /*scale=*/0.1);
  ASSERT_TRUE(task.ok()) << task.status().ToString();
  ExportSnapshotOptions options;
  options.gen.epochs = 40;
  options.disc.epochs = 5;
  std::string path = TempPath("cdr.snk");
  ASSERT_TRUE(ExportSnapshot(*task, options, path).ok());

  auto service = LabelService::FromFile(path, task->lfs);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  LabelRequest request;
  request.corpus = &task->corpus;
  request.candidates = &task->candidates;
  auto response = service->Label(request);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->posteriors.size(), task->candidates.size());

  // The embedded disc model restores too.
  auto snapshot = LoadSnapshot(path);
  ASSERT_TRUE(snapshot.ok());
  EXPECT_TRUE(snapshot->has_disc_model);
  EXPECT_TRUE(snapshot->RestoreDiscModel().ok());
  std::remove(path.c_str());
}

// ------------------------------------- snapshot format v2 + evolution --

std::string TestDataPath(const std::string& name) {
  return std::string(SNORKEL_TEST_DATA_DIR) + "/" + name;
}

/// A fitted Dawid-Skene model over a small K-class crowd fixture, plus the
/// captured DAWD snapshot.
struct KClassFixture {
  CrowdServingTask task;
  ModelSnapshot snapshot;

  explicit KClassFixture(size_t num_items = 80, size_t num_workers = 8) {
    CrowdServingOptions options;
    options.num_items = num_items;
    options.num_workers = num_workers;
    auto made = MakeCrowdServingTask(options);
    EXPECT_TRUE(made.ok()) << made.status().ToString();
    task = std::move(*made);
    auto captured = TrainKClassSnapshot(task.lfs, task.corpus,
                                        task.candidates, task.cardinality);
    EXPECT_TRUE(captured.ok()) << captured.status().ToString();
    snapshot = std::move(*captured);
  }
};

/// Appends one extra section with an unrecognized tag (simulating a file
/// written by a FUTURE build) and bumps the section count.
std::string WithUnknownSection(std::string bytes, const std::string& payload) {
  uint32_t count = 0;
  std::memcpy(&count, bytes.data() + 8, sizeof(count));
  ++count;
  std::memcpy(bytes.data() + 8, &count, sizeof(count));
  bytes.append("XTRA", 4);
  BinaryWriter framing;
  framing.WriteU64(payload.size());
  bytes += framing.buffer();
  bytes += payload;
  BinaryWriter checksum;
  checksum.WriteU64(Fnv1a64(payload));
  bytes += checksum.buffer();
  return bytes;
}

/// Byte offset of section `index`'s payload within a v2 file.
size_t SectionPayloadOffset(const std::string& bytes, size_t index) {
  auto sections = ListSnapshotSections(bytes);
  EXPECT_TRUE(sections.ok());
  size_t pos = 4 + 4 + 4;  // magic | version | section count.
  for (size_t s = 0; s < index; ++s) {
    pos += 4 + 8 + (*sections)[s].payload_size + 8;
  }
  return pos + 4 + 8;  // This section's tag + size prefix.
}

TEST(SnapshotFormatTest, V2SectionedRoundTripWithDawidSkene) {
  KClassFixture fx;
  EXPECT_TRUE(fx.snapshot.has_ds_model);
  EXPECT_FALSE(fx.snapshot.has_gen_model);
  EXPECT_EQ(fx.snapshot.cardinality, 5);

  std::string bytes = SerializeSnapshot(fx.snapshot);
  auto loaded = DeserializeSnapshot(bytes);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->lf_names, fx.snapshot.lf_names);
  EXPECT_EQ(loaded->lf_fingerprints, fx.snapshot.lf_fingerprints);
  EXPECT_EQ(loaded->cardinality, 5);
  EXPECT_EQ(loaded->ds_class_priors, fx.snapshot.ds_class_priors);
  EXPECT_EQ(loaded->ds_confusions, fx.snapshot.ds_confusions);
  EXPECT_EQ(loaded->skipped_sections, 0u);

  // Restored posteriors are bitwise the captured model's.
  auto restored = loaded->RestoreDawidSkeneModel();
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  LFApplier applier(LFApplier::Options{0, fx.task.cardinality});
  auto matrix =
      applier.Apply(fx.task.lfs, fx.task.corpus, fx.task.candidates);
  ASSERT_TRUE(matrix.ok());
  auto original = fx.snapshot.RestoreDawidSkeneModel();
  ASSERT_TRUE(original.ok());
  EXPECT_EQ(restored->PredictProbaFlat(*matrix),
            original->PredictProbaFlat(*matrix));

  // Model-kind mismatches are typed.
  EXPECT_EQ(loaded->RestoreGenerativeModel().status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(SnapshotFormatTest, V2SectionTableListsTagsInOrder) {
  FittedModel fx;
  auto snapshot =
      ModelSnapshot::Capture(fx.model, fx.Names(), fx.Fingerprints());
  ASSERT_TRUE(snapshot.ok());
  std::string bytes = SerializeSnapshot(*snapshot);
  auto sections = ListSnapshotSections(bytes);
  ASSERT_TRUE(sections.ok()) << sections.status().ToString();
  ASSERT_EQ(sections->size(), 2u);
  EXPECT_EQ((*sections)[0].tag, "LFMD");
  EXPECT_EQ((*sections)[1].tag, "GENM");
  for (const auto& section : *sections) {
    EXPECT_TRUE(section.known);
    EXPECT_TRUE(section.checksum_ok);
    EXPECT_GT(section.payload_size, 0u);
  }
}

TEST(SnapshotFormatTest, GoldenV1FixtureStillLoadsOnThisBinary) {
  // Committed bytes written by the v1 writer: the compatibility contract.
  auto loaded = LoadSnapshot(TestDataPath("golden_v1.snk"));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->lf_names,
            (std::vector<std::string>{"lf_a", "lf_b", "lf_c"}));
  EXPECT_EQ(loaded->lf_fingerprints, (std::vector<uint64_t>{11, 22, 33}));
  EXPECT_EQ(loaded->cardinality, 2);
  EXPECT_TRUE(loaded->has_gen_model);
  EXPECT_EQ(loaded->class_balance, 0.625);
  EXPECT_EQ(loaded->acc_weights, (std::vector<double>{0.5, -0.25, 1.5}));
  EXPECT_EQ(loaded->lab_weights, (std::vector<double>{0.125, 0.25, 0.375}));
  EXPECT_EQ(loaded->corr_weights, (std::vector<double>{0.75}));
  ASSERT_EQ(loaded->correlations.size(), 1u);
  EXPECT_EQ(loaded->correlations[0], (CorrelationPair{0, 1}));
  ASSERT_TRUE(loaded->has_disc_model);
  EXPECT_EQ(loaded->disc_weights,
            (std::vector<double>{0.5, -0.5, 0.25, 0.0}));
  EXPECT_EQ(loaded->disc_bias, -0.125);
  EXPECT_TRUE(loaded->RestoreGenerativeModel().ok());
  EXPECT_TRUE(loaded->RestoreDiscModel().ok());
  // V1 predates the DAWD section.
  EXPECT_FALSE(loaded->has_ds_model);
  EXPECT_EQ(loaded->RestoreDawidSkeneModel().status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(SnapshotFormatTest, GoldenV2FixtureLoadsExactly) {
  auto loaded = LoadSnapshot(TestDataPath("golden_v2.snk"));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->lf_names,
            (std::vector<std::string>{"worker_0", "worker_1"}));
  EXPECT_EQ(loaded->cardinality, 3);
  EXPECT_TRUE(loaded->has_ds_model);
  EXPECT_FALSE(loaded->has_gen_model);
  EXPECT_EQ(loaded->ds_class_priors, (std::vector<double>{0.25, 0.25, 0.5}));
  ASSERT_EQ(loaded->ds_confusions.size(), 18u);
  EXPECT_EQ(loaded->ds_confusions[0], 0.75);

  auto model = loaded->RestoreDawidSkeneModel();
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  // Prior-weighted diagonals of the exactly-representable fixtures.
  EXPECT_EQ(model->WorkerAccuracy(0), 0.75);
  EXPECT_EQ(model->WorkerAccuracy(1), 0.5);
  // Unanimous class-2 votes decode to the MAP label 2.
  auto matrix = LabelMatrix::FromDense({{2, 2}}, 3);
  ASSERT_TRUE(matrix.ok());
  EXPECT_EQ(model->PredictLabels(*matrix), (std::vector<Label>{2}));
}

TEST(SnapshotFormatTest, FreshV1BytesLoadOnThisBinary) {
  FittedModel fx;
  auto snapshot =
      ModelSnapshot::Capture(fx.model, fx.Names(), fx.Fingerprints());
  ASSERT_TRUE(snapshot.ok());
  auto v1_bytes = SerializeSnapshotV1(*snapshot);
  ASSERT_TRUE(v1_bytes.ok()) << v1_bytes.status().ToString();
  auto loaded = DeserializeSnapshot(*v1_bytes);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->acc_weights, snapshot->acc_weights);
  EXPECT_EQ(loaded->lab_weights, snapshot->lab_weights);
  EXPECT_EQ(loaded->class_balance, snapshot->class_balance);
  EXPECT_TRUE(loaded->has_gen_model);

  // The legacy writer cannot express sections v1 never had.
  KClassFixture kclass(40, 4);
  EXPECT_EQ(SerializeSnapshotV1(kclass.snapshot).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SnapshotFormatTest, V1ArtifactServesBitwiseIdenticalToV2) {
  // The binary-snapshot regression contract: the same captured model,
  // shipped as v1 bytes and as v2 bytes, must serve byte-identical
  // responses through the refactored stack.
  ServeFixture fx;
  ModelSnapshot snapshot = MakeServableSnapshot(fx, fx.MakeLfs());
  auto v1_bytes = SerializeSnapshotV1(snapshot);
  ASSERT_TRUE(v1_bytes.ok());
  auto from_v1 = DeserializeSnapshot(*v1_bytes);
  auto from_v2 = DeserializeSnapshot(SerializeSnapshot(snapshot));
  ASSERT_TRUE(from_v1.ok() && from_v2.ok());

  auto service_v1 = LabelService::Create(*from_v1, fx.MakeLfs());
  auto service_v2 = LabelService::Create(*from_v2, fx.MakeLfs());
  ASSERT_TRUE(service_v1.ok() && service_v2.ok());
  LabelRequest request;
  request.corpus = &fx.corpus;
  request.candidates = &fx.candidates;
  request.include_votes = true;
  auto response_v1 = service_v1->Label(request);
  auto response_v2 = service_v2->Label(request);
  ASSERT_TRUE(response_v1.ok() && response_v2.ok());
  EXPECT_EQ(response_v1->posteriors, response_v2->posteriors);
  EXPECT_EQ(response_v1->hard_labels, response_v2->hard_labels);
  EXPECT_EQ(response_v1->cardinality, 2);
  EXPECT_TRUE(response_v1->class_posteriors.empty());
  for (size_t i = 0; i < response_v2->votes.num_rows(); ++i) {
    for (size_t j = 0; j < response_v2->votes.num_lfs(); ++j) {
      EXPECT_EQ(response_v1->votes.At(i, j), response_v2->votes.At(i, j));
    }
  }
}

TEST(SnapshotFormatTest, UnknownSectionIsSkippedNotFatal) {
  KClassFixture fx(40, 4);
  std::string bytes = SerializeSnapshot(fx.snapshot);
  std::string future =
      WithUnknownSection(bytes, "payload from a future format revision");
  auto loaded = DeserializeSnapshot(future);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->skipped_sections, 1u);
  EXPECT_EQ(loaded->ds_confusions, fx.snapshot.ds_confusions);

  // The section lister reports it as present-but-unknown.
  auto sections = ListSnapshotSections(future);
  ASSERT_TRUE(sections.ok());
  EXPECT_EQ(sections->back().tag, "XTRA");
  EXPECT_FALSE(sections->back().known);
  EXPECT_TRUE(sections->back().checksum_ok);

  // But a CORRUPT unknown section is still fatal: skip-unknown skips
  // meaning, not integrity.
  std::string corrupt_future = future;
  corrupt_future[corrupt_future.size() - 12] ^= 0x01;  // Inside payload.
  auto rejected = DeserializeSnapshot(corrupt_future);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kIOError);
}

TEST(SnapshotFormatTest, PerSectionCorruptionIsTypedAndNamesTheSection) {
  KClassFixture fx(40, 4);
  std::string bytes = SerializeSnapshot(fx.snapshot);
  auto sections = ListSnapshotSections(bytes);
  ASSERT_TRUE(sections.ok());
  ASSERT_EQ((*sections)[1].tag, "DAWD");

  // Flip one byte inside the DAWD payload: IOError naming the section.
  std::string corrupted = bytes;
  size_t offset = SectionPayloadOffset(bytes, 1);
  corrupted[offset + (*sections)[1].payload_size / 2] ^= 0x10;
  auto loaded = DeserializeSnapshot(corrupted);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
  EXPECT_NE(loaded.status().message().find("DAWD"), std::string::npos)
      << "error lacks section context: " << loaded.status().ToString();

  // LFMD corruption names LFMD.
  corrupted = bytes;
  corrupted[SectionPayloadOffset(bytes, 0) + 2] ^= 0x10;
  loaded = DeserializeSnapshot(corrupted);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
  EXPECT_NE(loaded.status().message().find("LFMD"), std::string::npos);
}

TEST(SnapshotFormatTest, HugeSectionLengthIsTruncationNotOverflow) {
  KClassFixture fx(40, 4);
  std::string bytes = SerializeSnapshot(fx.snapshot);
  // Overwrite the first section's u64 payload_size with a near-2^64 value:
  // a naive `size + 8 > remaining` check would wrap and pass. Must be a
  // typed truncation error, never a hang or OOB read.
  uint64_t huge = ~uint64_t{0} - 7;
  std::memcpy(bytes.data() + 12 + 4, &huge, sizeof(huge));
  auto loaded = DeserializeSnapshot(bytes);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
  auto sections = ListSnapshotSections(bytes);
  ASSERT_FALSE(sections.ok());
  EXPECT_EQ(sections.status().code(), StatusCode::kIOError);
}

TEST(SnapshotFormatTest, V2TruncationAtEveryBoundaryIsIOError) {
  KClassFixture fx(40, 4);
  std::string bytes = SerializeSnapshot(fx.snapshot);
  // Mid-header, mid-section-table, mid-payload, mid-checksum, one short.
  for (size_t len : {size_t{0}, size_t{6}, size_t{13},
                     SectionPayloadOffset(bytes, 1) + 4, bytes.size() - 1}) {
    auto loaded = DeserializeSnapshot(std::string_view(bytes).substr(0, len));
    ASSERT_FALSE(loaded.ok()) << "prefix length " << len;
    EXPECT_EQ(loaded.status().code(), StatusCode::kIOError)
        << "prefix length " << len;
  }
  // Trailing garbage after the declared sections is also detected.
  auto loaded = DeserializeSnapshot(bytes + "junk");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
}

// ------------------------------------ LFCP (compiled LF) format evolution --

/// Mirrors GoldenLfcpLfs() in tools/make_golden_snapshots.cc EXACTLY —
/// fingerprints hash (name, version), so these calls reproduce the
/// committed fixture's columns. Keep the two in sync.
LabelingFunctionSet GoldenLfcpLfs() {
  LabelingFunctionSet lfs;
  lfs.Add(MakeKeywordBetweenLF("kw_causes", {"causes", "induced"}, 1));
  lfs.Add(MakeDirectionalKeywordLF("dir_treats", {"treats"}, 1, -1));
  lfs.Add(MakeRegexBetweenLF("rx_severe", "severe|acute", 1));
  lfs.Add(MakeContextKeywordLF("ctx_negated", {"no", "without"}, 3, -1));
  lfs.Add(MakeDistanceLF("dist_far", 8, -1));
  lfs.Add(MakeSentenceKeywordLF("sent_normal", {"normal"}, -1));
  lfs.Add(MakeDocumentKeywordLF("doc_history", {"history"}, -1));
  lfs.Add(LabelingFunction("opaque_short", "v1",
                           [](const CandidateView& view) -> Label {
                             return view.TokenDistance() <= 2 ? 1 : kAbstain;
                           }));
  return lfs;
}

/// A corpus exercising every compiled family: keyword/regex between,
/// directional (both orders), context window, sentence scope, and document
/// scope through a mention-free second sentence.
struct LfcpServeFixture {
  Corpus corpus;
  std::vector<Candidate> candidates;

  explicit LfcpServeFixture(int num_docs = 40) {
    for (int d = 0; d < num_docs; ++d) {
      Document doc;
      Sentence s;
      switch (d % 4) {
        case 0:
          s.words = {"magnesium", "causes", "severe", "quadriplegia"};
          s.mentions = {Mention{0, 1, "chemical", "C"},
                        Mention{3, 4, "disease", "D"}};
          break;
        case 1:
          s.words = {"aspirin", "treats", "headache"};
          s.mentions = {Mention{0, 1, "chemical", "C"},
                        Mention{2, 3, "disease", "D"}};
          break;
        case 2:
          // Disease precedes chemical: the directional LF's reverse arm.
          s.words = {"headache", "treats", "aspirin"};
          s.mentions = {Mention{2, 3, "chemical", "C"},
                        Mention{0, 1, "disease", "D"}};
          break;
        default:
          s.words = {"without", "magnesium", "history", "of", "quadriplegia",
                     "normal"};
          s.mentions = {Mention{1, 2, "chemical", "C"},
                        Mention{4, 5, "disease", "D"}};
          break;
      }
      doc.sentences = {s};
      if (d % 2 == 1) {
        // Mention-free sentence reachable only through document scope.
        Sentence extra;
        extra.words = {"prior", "history", "of", "migraine"};
        doc.sentences.push_back(extra);
      }
      corpus.AddDocument(std::move(doc));
    }
    candidates = CandidateExtractor("chemical", "disease").Extract(corpus);
  }
};

TEST(SnapshotFormatTest, GoldenLfcpFixtureMatchesLiveCompileBitwise) {
  auto loaded = LoadSnapshot(TestDataPath("golden_v2_lfcp.snk"));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_NE(loaded->compiled_lfs, nullptr);
  EXPECT_EQ(loaded->skipped_sections, 0u);
  EXPECT_EQ(loaded->compiled_lfs->num_lfs, 8u);
  // Every declarative family compiles; the opaque lambda stays interpreted.
  EXPECT_EQ(loaded->compiled_lfs->num_compiled(), 7u);
  ASSERT_EQ(loaded->compiled_lfs->slot_of_lf.size(), 8u);
  EXPECT_EQ(loaded->compiled_lfs->slot_of_lf[7], -1);

  LabelingFunctionSet lfs = GoldenLfcpLfs();
  EXPECT_TRUE(ProgramMatchesLfSet(*loaded->compiled_lfs, lfs));
  // The compiler is deterministic, so the committed LFCP bytes are exactly
  // what a live compile of the same LF set produces today.
  EXPECT_EQ(loaded->compiled_lfs->Encode(), CompileLfSet(lfs)->Encode());

  // The section lister knows the tag.
  auto bytes = ReadFileBytes(TestDataPath("golden_v2_lfcp.snk"));
  ASSERT_TRUE(bytes.ok());
  auto sections = ListSnapshotSections(*bytes);
  ASSERT_TRUE(sections.ok());
  bool found = false;
  for (const auto& section : *sections) {
    if (section.tag == "LFCP") {
      found = true;
      EXPECT_TRUE(section.known);
      EXPECT_TRUE(section.checksum_ok);
    }
  }
  EXPECT_TRUE(found);
}

TEST(SnapshotFormatTest, GoldenLfcpServesCompiledIdenticalToInterpreted) {
  auto loaded = LoadSnapshot(TestDataPath("golden_v2_lfcp.snk"));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  LfcpServeFixture fx;
  ASSERT_FALSE(fx.candidates.empty());

  LabelService::Options interpreted_options;
  interpreted_options.use_compiled_lfs = false;
  auto compiled = LabelService::Create(*loaded, GoldenLfcpLfs());
  auto interpreted =
      LabelService::Create(*loaded, GoldenLfcpLfs(), interpreted_options);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  ASSERT_TRUE(interpreted.ok()) << interpreted.status().ToString();

  LabelRequest request;
  request.corpus = &fx.corpus;
  request.candidates = &fx.candidates;
  request.include_votes = true;
  auto a = compiled->Label(request);
  auto b = interpreted->Label(request);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(a->posteriors, b->posteriors);
  EXPECT_EQ(a->hard_labels, b->hard_labels);
  EXPECT_EQ(a->votes.entries(), b->votes.entries());
  EXPECT_EQ(a->votes.row_offsets(), b->votes.row_offsets());
  EXPECT_GT(a->votes.entries().size(), 0u);
}

TEST(SnapshotFormatTest, LfcpSectionSkipsOnReadersThatDontKnowIt) {
  // Simulates an OLD binary reading a NEW snapshot: rewriting the LFCP tag
  // to one no build recognizes exercises the identical skip-unknown path an
  // LFCP-unaware reader takes. The checksum still verifies (it covers the
  // payload, not the tag), the model sections load, and serving falls back
  // to the interpreted LF path with identical output.
  auto bytes_read = ReadFileBytes(TestDataPath("golden_v2_lfcp.snk"));
  ASSERT_TRUE(bytes_read.ok());
  std::string bytes = *bytes_read;
  auto sections = ListSnapshotSections(bytes);
  ASSERT_TRUE(sections.ok());
  size_t lfcp_index = sections->size();
  for (size_t s = 0; s < sections->size(); ++s) {
    if ((*sections)[s].tag == "LFCP") lfcp_index = s;
  }
  ASSERT_LT(lfcp_index, sections->size());
  size_t tag_offset = SectionPayloadOffset(bytes, lfcp_index) - 12;
  std::memcpy(bytes.data() + tag_offset, "ZZZZ", 4);

  auto skipped = DeserializeSnapshot(bytes);
  ASSERT_TRUE(skipped.ok()) << skipped.status().ToString();
  EXPECT_EQ(skipped->skipped_sections, 1u);
  EXPECT_EQ(skipped->compiled_lfs, nullptr);

  auto full = LoadSnapshot(TestDataPath("golden_v2_lfcp.snk"));
  ASSERT_TRUE(full.ok());
  LfcpServeFixture fx;
  auto service_skipped = LabelService::Create(*skipped, GoldenLfcpLfs());
  auto service_full = LabelService::Create(*full, GoldenLfcpLfs());
  ASSERT_TRUE(service_skipped.ok() && service_full.ok());
  LabelRequest request;
  request.corpus = &fx.corpus;
  request.candidates = &fx.candidates;
  auto a = service_skipped->Label(request);
  auto b = service_full->Label(request);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->posteriors, b->posteriors);
  EXPECT_EQ(a->hard_labels, b->hard_labels);
}

TEST(SnapshotFormatTest, LfcpCorruptionIsTypedAndNamesTheSection) {
  auto bytes_read = ReadFileBytes(TestDataPath("golden_v2_lfcp.snk"));
  ASSERT_TRUE(bytes_read.ok());
  const std::string& bytes = *bytes_read;
  auto sections = ListSnapshotSections(bytes);
  ASSERT_TRUE(sections.ok());
  size_t lfcp_index = sections->size();
  for (size_t s = 0; s < sections->size(); ++s) {
    if ((*sections)[s].tag == "LFCP") lfcp_index = s;
  }
  ASSERT_LT(lfcp_index, sections->size());
  const size_t payload_offset = SectionPayloadOffset(bytes, lfcp_index);
  const size_t payload_size = (*sections)[lfcp_index].payload_size;

  // A flipped payload byte fails the section checksum, naming LFCP.
  std::string corrupted = bytes;
  corrupted[payload_offset + payload_size / 2] ^= 0x04;
  auto loaded = DeserializeSnapshot(corrupted);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
  EXPECT_NE(loaded.status().message().find("LFCP"), std::string::npos)
      << loaded.status().ToString();

  // A checksum-consistent but malformed program payload fails in the
  // program decoder — still a typed IOError naming the section.
  std::string bad_version = bytes;
  uint32_t version = 99;
  std::memcpy(bad_version.data() + payload_offset, &version,
              sizeof(version));
  uint64_t checksum = Fnv1a64(std::string_view(bad_version)
                                  .substr(payload_offset, payload_size));
  std::memcpy(bad_version.data() + payload_offset + payload_size, &checksum,
              sizeof(checksum));
  loaded = DeserializeSnapshot(bad_version);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
  EXPECT_NE(loaded.status().message().find("LFCP"), std::string::npos)
      << loaded.status().ToString();

  // Truncation inside the LFCP payload is framing-level truncation.
  loaded = DeserializeSnapshot(
      std::string_view(bytes).substr(0, payload_offset + payload_size / 2));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
}

TEST(SnapshotFormatTest, LfcpMisalignedWithLfmdIsRejected) {
  ServeFixture fx;
  LabelingFunctionSet lfs = fx.MakeLfs();
  ModelSnapshot snapshot = MakeServableSnapshot(fx, lfs);

  // Wrong column count: a program compiled for a different LF set.
  snapshot.compiled_lfs = CompileLfSet(GoldenLfcpLfs());
  auto loaded = DeserializeSnapshot(SerializeSnapshot(snapshot));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
  EXPECT_NE(loaded.status().message().find("LFCP"), std::string::npos);

  // Same column count, different behaviour (fingerprint drift).
  LabelingFunctionSet renamed;
  renamed.Add(MakeKeywordBetweenLF("lf_causes_v2", {"cause"}, 1));
  renamed.Add(MakeKeywordBetweenLF("lf_treats", {"treat"}, -1));
  renamed.Add(MakeDistanceLF("lf_far", 4, -1));
  snapshot.compiled_lfs = CompileLfSet(renamed);
  loaded = DeserializeSnapshot(SerializeSnapshot(snapshot));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
  EXPECT_NE(loaded.status().message().find("LFCP"), std::string::npos);

  // The matching program round-trips fine.
  snapshot.compiled_lfs = CompileLfSet(lfs);
  loaded = DeserializeSnapshot(SerializeSnapshot(snapshot));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_NE(loaded->compiled_lfs, nullptr);
  EXPECT_EQ(loaded->compiled_lfs->Encode(), snapshot.compiled_lfs->Encode());
}

// ------------------------------------------------- K-class label service --

TEST(KClassServiceTest, ServesClassPosteriorsMatchingDirectModel) {
  KClassFixture fx;
  auto service = LabelService::Create(fx.snapshot, fx.task.lfs);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  EXPECT_EQ(service->cardinality(), 5);

  LabelRequest request;
  request.corpus = &fx.task.corpus;
  request.candidates = &fx.task.candidates;
  request.include_votes = true;
  auto response = service->Label(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();

  const size_t n = fx.task.candidates.size();
  const size_t k = 5;
  EXPECT_EQ(response->cardinality, 5);
  EXPECT_TRUE(response->posteriors.empty()) << "binary field on a K-class "
                                               "response";
  ASSERT_EQ(response->class_posteriors.size(), n * k);
  ASSERT_EQ(response->hard_labels.size(), n);

  // Must equal the direct (offline) Dawid-Skene computation bitwise.
  LFApplier applier(LFApplier::Options{0, 5});
  auto matrix =
      applier.Apply(fx.task.lfs, fx.task.corpus, fx.task.candidates);
  ASSERT_TRUE(matrix.ok());
  auto model = fx.snapshot.RestoreDawidSkeneModel();
  ASSERT_TRUE(model.ok());
  auto expected = model->PredictProba(*matrix);
  for (size_t i = 0; i < n; ++i) {
    double row_sum = 0.0;
    for (size_t c = 0; c < k; ++c) {
      EXPECT_EQ(response->class_posteriors[i * k + c], expected[i][c])
          << "posterior drift at (" << i << ", " << c << ")";
      row_sum += response->class_posteriors[i * k + c];
    }
    EXPECT_NEAR(row_sum, 1.0, 1e-9);
  }
  EXPECT_EQ(response->hard_labels, model->PredictLabels(*matrix));
  for (Label y : response->hard_labels) {
    EXPECT_GE(y, 1);
    EXPECT_LE(y, 5);
  }

  // The vote matrix is the K-class Λ.
  EXPECT_EQ(response->votes.cardinality(), 5);
  EXPECT_EQ(response->votes.num_lfs(), fx.task.lfs.size());
}

TEST(KClassServiceTest, ColumnCacheServesIdenticalKClassResponses) {
  KClassFixture fx(60, 6);
  LabelService::Options options;
  options.use_incremental_cache = true;
  auto service = LabelService::Create(fx.snapshot, fx.task.lfs, options);
  ASSERT_TRUE(service.ok());

  LabelRequest request;
  request.corpus = &fx.task.corpus;
  request.candidates = &fx.task.candidates;
  auto first = service->Label(request);
  auto second = service->Label(request);
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_EQ(first->class_posteriors, second->class_posteriors);
  EXPECT_EQ(first->hard_labels, second->hard_labels);
  ServiceStats stats = service->stats();
  EXPECT_EQ(stats.lf_columns_computed, 6u);
  EXPECT_EQ(stats.lf_columns_reused, 6u);
}

TEST(KClassServiceTest, KClassSnapshotThroughV2FileAndMmap) {
  KClassFixture fx(60, 6);
  std::string path = TempPath("kclass.snk");
  ASSERT_TRUE(SaveSnapshot(fx.snapshot, path).ok());

  auto in_memory = LabelService::Create(fx.snapshot, fx.task.lfs);
  auto from_file = LabelService::FromFile(path, fx.task.lfs);
  ASSERT_TRUE(in_memory.ok() && from_file.ok())
      << from_file.status().ToString();
  LabelRequest request;
  request.corpus = &fx.task.corpus;
  request.candidates = &fx.task.candidates;
  auto expected = in_memory->Label(request);
  auto actual = from_file->Label(request);
  ASSERT_TRUE(expected.ok() && actual.ok());
  EXPECT_EQ(actual->class_posteriors, expected->class_posteriors);
  EXPECT_EQ(actual->hard_labels, expected->hard_labels);
  std::remove(path.c_str());
}

TEST(KClassServiceTest, BinaryDawidSkeneSnapshotServesScalarPosterior) {
  // A cardinality-2 Dawid-Skene snapshot (no GENM section) is a valid
  // artifact and serves the scalar posterior P(class 0) = P(y = +1).
  CrowdServingOptions options;
  options.num_items = 60;
  options.num_workers = 6;
  options.cardinality = 2;
  auto task = MakeCrowdServingTask(options);
  ASSERT_TRUE(task.ok()) << task.status().ToString();
  for (Label y : task->gold) {
    EXPECT_TRUE(y == 1 || y == -1) << "binary crowd gold must be ±1";
  }
  auto snapshot =
      TrainKClassSnapshot(task->lfs, task->corpus, task->candidates, 2);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  EXPECT_TRUE(snapshot->has_ds_model);
  EXPECT_FALSE(snapshot->has_gen_model);
  EXPECT_EQ(snapshot->cardinality, 2);

  auto service = LabelService::Create(*snapshot, task->lfs);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  EXPECT_EQ(service->cardinality(), 2);
  LabelRequest request;
  request.corpus = &task->corpus;
  request.candidates = &task->candidates;
  auto response = service->Label(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->cardinality, 2);
  EXPECT_TRUE(response->class_posteriors.empty());
  ASSERT_EQ(response->posteriors.size(), task->candidates.size());

  // Scalar = the DS model's class-0 column, bitwise.
  LFApplier applier(LFApplier::Options{0, 2});
  auto matrix = applier.Apply(task->lfs, task->corpus, task->candidates);
  ASSERT_TRUE(matrix.ok());
  auto model = snapshot->RestoreDawidSkeneModel();
  ASSERT_TRUE(model.ok());
  std::vector<double> flat = model->PredictProbaFlat(*matrix);
  for (size_t i = 0; i < response->posteriors.size(); ++i) {
    EXPECT_EQ(response->posteriors[i], flat[i * 2]) << "row " << i;
    EXPECT_TRUE(response->hard_labels[i] == 1 ||
                response->hard_labels[i] == -1 ||
                response->hard_labels[i] == kAbstain);
  }
}

TEST(KClassServiceTest, KClassSnapshotWithoutDawdSectionRejected) {
  KClassFixture fx(40, 4);
  ModelSnapshot stripped = fx.snapshot;
  stripped.has_ds_model = false;
  stripped.ds_class_priors.clear();
  stripped.ds_confusions.clear();
  auto service = LabelService::Create(stripped, fx.task.lfs);
  ASSERT_FALSE(service.ok());
  EXPECT_EQ(service.status().code(), StatusCode::kInvalidArgument);
}

TEST(KClassServiceTest, OutOfRangeWorkerVoteFailsTypedWithLfName) {
  KClassFixture fx(40, 4);
  // Same (name, version) fingerprints as the snapshot — the replicas accept
  // the set — but worker_0 now votes outside {1..5}.
  LabelingFunctionSet bad;
  bad.Add(LabelingFunction("worker_0", "v1",
                           [](const CandidateView&) -> Label { return 9; }));
  for (size_t j = 1; j < fx.task.lfs.size(); ++j) {
    bad.Add(fx.task.lfs.at(j));
  }
  auto service = LabelService::Create(fx.snapshot, std::move(bad));
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  LabelRequest request;
  request.corpus = &fx.task.corpus;
  request.candidates = &fx.task.candidates;
  auto response = service->Label(request);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(response.status().message().find("worker_0"), std::string::npos)
      << "error lacks the offending LF's name: "
      << response.status().ToString();
}

// ------------------------------------------------------------ binary io --

TEST(BinaryIoTest, ScalarAndVectorRoundTrip) {
  BinaryWriter writer;
  writer.WriteU32(7);
  writer.WriteF64(-1.5);
  writer.WriteString("hello");
  writer.WriteF64Vector({1.0, 2.0});
  writer.WriteStringVector({"a", "bb"});
  BinaryReader reader(writer.buffer());
  EXPECT_EQ(reader.ReadU32(), 7u);
  EXPECT_EQ(reader.ReadF64(), -1.5);
  EXPECT_EQ(reader.ReadString(), "hello");
  EXPECT_EQ(reader.ReadF64Vector(), (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(reader.ReadStringVector(), (std::vector<std::string>{"a", "bb"}));
  EXPECT_TRUE(reader.ok());
  EXPECT_EQ(reader.remaining(), 0u);
}

TEST(BinaryIoTest, TruncatedReadLatchesError) {
  BinaryWriter writer;
  writer.WriteU32(7);
  BinaryReader reader(writer.buffer());
  EXPECT_EQ(reader.ReadU64(), 0u);  // 8 bytes requested, 4 available.
  EXPECT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kIOError);
  EXPECT_EQ(reader.ReadU32(), 0u);  // Still latched.
}

}  // namespace
}  // namespace snorkel
