// Tier-1 suite for the compiled LF execution engine (src/lf/compiled/).
//
// The engine's contract is BITWISE parity: dispatching compilable LFs
// through the shared Aho-Corasick batch scan must produce a label matrix
// whose CSR arrays (entries + row offsets) are identical to the interpreted
// per-row path, at any thread count, for every synthetic workload in the
// repo. These tests pin that contract over all four §4.1.1 relation tasks,
// the unary radiology task, hand-built degenerate-token corpora, the
// snapshot-loaded (Decode'd) program path, the IncrementalApplier cache
// (including append extension, where a batch scans only the appended rows),
// and a many-threads shared-applier hammer (run under TSan in CI).

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "data/candidate.h"
#include "data/context.h"
#include "data/knowledge_base.h"
#include "lf/applier.h"
#include "lf/compiled/program.h"
#include "lf/declarative.h"
#include "lf/labeling_function.h"
#include "pipeline/export_snapshot.h"
#include "serve/incremental_applier.h"
#include "serve/label_service.h"
#include "shard/shard_router.h"
#include "synth/crossmodal.h"
#include "synth/relation_task.h"
#include "util/status.h"

namespace snorkel {
namespace {

/// Applies `lfs` with a fresh applier under `options`; fails the calling
/// test (and returns an empty matrix) on error.
LabelMatrix MustApply(const LFApplier::Options& options,
                      const LabelingFunctionSet& lfs, const Corpus& corpus,
                      const std::vector<Candidate>& candidates) {
  LFApplier applier(options);
  auto matrix = applier.Apply(lfs, corpus, candidates);
  EXPECT_TRUE(matrix.ok()) << matrix.status().ToString();
  return matrix.ok() ? std::move(*matrix) : LabelMatrix();
}

/// The parity check: identical CSR arrays, not just equal summaries.
void ExpectSameMatrix(const LabelMatrix& compiled,
                      const LabelMatrix& interpreted) {
  ASSERT_EQ(compiled.row_offsets(), interpreted.row_offsets());
  ASSERT_TRUE(compiled.entries() == interpreted.entries());
  EXPECT_EQ(compiled.num_lfs(), interpreted.num_lfs());
  EXPECT_EQ(compiled.cardinality(), interpreted.cardinality());
}

/// Compiled-vs-interpreted parity at 1 / 2 / 8 threads, then through an
/// IncrementalApplier that extends a cached first half, so its compiled
/// batch scans only the appended rows (begin > 0). The interpreted baseline
/// runs serial so any divergence is attributable to the engine, not the
/// sharding.
void CheckParityAcrossThreadCounts(const LabelingFunctionSet& lfs,
                                   const Corpus& corpus,
                                   const std::vector<Candidate>& candidates) {
  ASSERT_GE(candidates.size(), 2u);
  LabelMatrix interpreted = MustApply(
      {.num_threads = 1, .use_compiled = false}, lfs, corpus, candidates);
  ASSERT_FALSE(interpreted.entries().empty());
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    SCOPED_TRACE("num_threads=" + std::to_string(threads));
    LabelMatrix compiled = MustApply(
        {.num_threads = threads, .use_compiled = true}, lfs, corpus,
        candidates);
    ExpectSameMatrix(compiled, interpreted);
  }

  SCOPED_TRACE("append extension");
  IncrementalApplier applier(
      IncrementalApplier::Options{.num_threads = 2, .use_compiled = true});
  std::vector<Candidate> prefix(candidates.begin(),
                                candidates.begin() + candidates.size() / 2);
  ASSERT_TRUE(applier.Apply(lfs, corpus, prefix).ok());
  auto grown = applier.Apply(lfs, corpus, candidates);
  ASSERT_TRUE(grown.ok()) << grown.status().ToString();
  EXPECT_GT(applier.stats().appended_rows, 0u);
  ExpectSameMatrix(*grown, interpreted);
}

// ---------------------------------------------------------------------------
// Compilability partition: which LFs the compiler takes, which fall back.
// ---------------------------------------------------------------------------

TEST(CompiledProgramTest, CompilesEveryDeclarativeFamilyAndOnlyThose) {
  KnowledgeBase kb;
  kb.Add("causes", "C_mg", "D_quad");

  LabelingFunctionSet lfs;
  // The seven compilable families.
  lfs.Add(MakeKeywordBetweenLF("kw", {"causes", "induced"}, 1));
  lfs.Add(MakeDirectionalKeywordLF("dir", {"treats"}, 1, -1));
  lfs.Add(MakeContextKeywordLF("ctx", {"no"}, 3, -1));
  lfs.Add(MakeSentenceKeywordLF("sent", {"normal"}, -1));
  lfs.Add(MakeDocumentKeywordLF("doc", {"history"}, -1));
  lfs.Add(MakeRegexBetweenLF("rx_literal", "severe|acute", 1));
  lfs.Add(MakeDistanceLF("dist", 8, -1));
  size_t compilable = lfs.size();
  // Everything else must stay interpreted: a regex beyond literal
  // alternations, distant supervision, a weak classifier, a crowd worker,
  // the combinators, and a raw lambda.
  lfs.Add(MakeRegexBetweenLF("rx_general", "caus\\w+\\s+severe", 1));
  lfs.Add(MakeOntologyLF("onto", &kb, "causes", 1));
  lfs.Add(MakeWeakClassifierLF(
      "weak", [](const CandidateView&) { return 0.9; }));
  lfs.Add(MakeCrowdWorkerLF("crowd", {{0, 1}}));
  lfs.Add(MakeGuardedLF("guarded", MakeKeywordBetweenLF("g", {"causes"}, 1),
                        [](const CandidateView&) { return true; }));
  lfs.Add(MakeFirstVoteLF(
      "first", {MakeKeywordBetweenLF("f", {"causes"}, 1)}));
  lfs.Add(LabelingFunction(
      "lambda", [](const CandidateView&) -> Label { return kAbstain; }));

  auto program = CompileLfSet(lfs);
  ASSERT_NE(program, nullptr);
  EXPECT_EQ(program->num_lfs, lfs.size());
  EXPECT_EQ(program->num_compiled(), compilable);
  ASSERT_EQ(program->slot_of_lf.size(), lfs.size());
  for (size_t j = 0; j < lfs.size(); ++j) {
    if (j < compilable) {
      EXPECT_GE(program->slot_of_lf[j], 0) << lfs.Names()[j];
    } else {
      EXPECT_EQ(program->slot_of_lf[j], -1) << lfs.Names()[j];
    }
  }
  EXPECT_TRUE(ProgramMatchesLfSet(*program, lfs));
}

// ---------------------------------------------------------------------------
// Parity over every synthetic workload in the repo.
// ---------------------------------------------------------------------------

TEST(CompiledParityTest, CdrTaskBitwiseAt1_2_8Threads) {
  auto task = MakeCdrTask(42, 0.08);
  ASSERT_TRUE(task.ok()) << task.status().ToString();
  // The relation suites mix compilable pattern LFs with interpreted
  // distant-supervision LFs, so this exercises the fused dispatch path.
  auto program = CompileLfSet(task->lfs);
  EXPECT_GT(program->num_compiled(), 0u);
  EXPECT_LT(program->num_compiled(), task->lfs.size());
  CheckParityAcrossThreadCounts(task->lfs, task->corpus, task->candidates);
}

TEST(CompiledParityTest, SpousesTaskBitwiseAt1_2_8Threads) {
  auto task = MakeSpousesTask(7, 0.08);
  ASSERT_TRUE(task.ok()) << task.status().ToString();
  CheckParityAcrossThreadCounts(task->lfs, task->corpus, task->candidates);
}

TEST(CompiledParityTest, EhrTaskBitwiseAt1_2_8Threads) {
  auto task = MakeEhrTask(11, 0.08);
  ASSERT_TRUE(task.ok()) << task.status().ToString();
  CheckParityAcrossThreadCounts(task->lfs, task->corpus, task->candidates);
}

TEST(CompiledParityTest, ChemTaskBitwiseAt1_2_8Threads) {
  auto task = MakeChemTask(23, 0.08);
  ASSERT_TRUE(task.ok()) << task.status().ToString();
  CheckParityAcrossThreadCounts(task->lfs, task->corpus, task->candidates);
}

TEST(CompiledParityTest, RadiologyUnaryCandidatesBitwise) {
  RadiologyOptions options;
  options.num_reports = 250;
  auto task = MakeRadiologyTask(options);
  ASSERT_TRUE(task.ok()) << task.status().ToString();
  // Unary candidates (span1 == span2): the sentence/document-scope families
  // and the degenerate between-range (empty) both get exercised, also on
  // the append-extension path.
  CheckParityAcrossThreadCounts(task->lfs, task->corpus, task->candidates);
}

TEST(CompiledParityTest, DegenerateTokensBitwise) {
  // Hand-built corpus hitting the engine's edge cases: empty tokens (incl.
  // one LEADING the between-range, where byte offsets alone would misplace
  // a regex hit), embedded whitespace, uppercase, punctuation, and a
  // candidate pair spanning sentences-with-context keywords.
  Corpus corpus;
  Document doc;
  Sentence s0;
  s0.words = {"magnesium", "", "severe", "quadriplegia"};
  s0.mentions = {Mention{0, 1, "chemical", "C_mg"},
                 Mention{3, 4, "disease", "D_q"}};
  Sentence s1;
  s1.words = {"", "Aspirin", "TREATS", "odd token", "headache", ""};
  s1.mentions = {Mention{1, 2, "chemical", "C_asp"},
                 Mention{4, 5, "disease", "D_ha"}};
  Sentence s2;
  s2.words = {"no", "history", "of", "quadriplegia", ",", "normal", "exam"};
  s2.mentions = {Mention{3, 4, "disease", "D_q"},
                 Mention{3, 4, "disease", "D_q2"}};
  doc.sentences = {s0, s1, s2};
  corpus.AddDocument(std::move(doc));
  auto candidates = CandidateExtractor("chemical", "disease").Extract(corpus);
  ASSERT_FALSE(candidates.empty());

  LabelingFunctionSet lfs;
  lfs.Add(MakeKeywordBetweenLF("kw", {"treats"}, 1));
  lfs.Add(MakeDirectionalKeywordLF("dir", {"treats"}, 1, -1));
  lfs.Add(MakeRegexBetweenLF("rx", "severe|acute", 1));
  lfs.Add(MakeContextKeywordLF("ctx", {"no", "exam"}, 3, -1));
  lfs.Add(MakeDistanceLF("dist", 2, -1));
  lfs.Add(MakeSentenceKeywordLF("sent", {"normal"}, -1));
  lfs.Add(MakeDocumentKeywordLF("dockw", {"history"}, -1));
  CheckParityAcrossThreadCounts(lfs, corpus, candidates);
}

TEST(CompiledParityTest, RefPathPreservesIndicesBitwise) {
  auto task = MakeCdrTask(42, 0.05);
  ASSERT_TRUE(task.ok()) << task.status().ToString();
  // A strided sub-batch with original indices — the sharded tier's fan-out
  // shape. Index-dependent behaviour must match the interpreted refs path.
  std::vector<CandidateRef> rows;
  for (size_t i = 0; i < task->candidates.size(); i += 3) {
    rows.push_back(CandidateRef{&task->candidates[i], i});
  }
  ASSERT_FALSE(rows.empty());
  LFApplier interpreted({.num_threads = 1, .use_compiled = false});
  LFApplier compiled({.num_threads = 2, .use_compiled = true});
  auto base = interpreted.ApplyRefs(task->lfs, task->corpus, rows);
  auto fast = compiled.ApplyRefs(task->lfs, task->corpus, rows);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  ASSERT_TRUE(fast.ok()) << fast.status().ToString();
  ExpectSameMatrix(*fast, *base);
}

// ---------------------------------------------------------------------------
// Error semantics under compiled dispatch.
// ---------------------------------------------------------------------------

TEST(CompiledParityTest, InterpretedOutOfRangeVoteStillSurfacesTyped) {
  Corpus corpus;
  Document doc;
  Sentence s;
  s.words = {"magnesium", "causes", "quadriplegia"};
  s.mentions = {Mention{0, 1, "chemical", "C"}, Mention{2, 3, "disease", "D"}};
  doc.sentences = {s};
  corpus.AddDocument(std::move(doc));
  auto candidates = CandidateExtractor("chemical", "disease").Extract(corpus);
  ASSERT_EQ(candidates.size(), 1u);

  // A compilable LF rides along; the buggy interpreted lambda must still
  // fail the request loudly instead of corrupting the matrix.
  LabelingFunctionSet lfs;
  lfs.Add(MakeKeywordBetweenLF("kw", {"causes"}, 1));
  lfs.Add(LabelingFunction(
      "buggy", [](const CandidateView&) -> Label { return 7; }));
  LFApplier applier({.num_threads = 1, .use_compiled = true});
  auto result = applier.Apply(lfs, corpus, candidates);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Wire format: Encode/Decode round trip and rejection of malformed input.
// ---------------------------------------------------------------------------

TEST(CompiledProgramTest, EncodeDecodeRoundTripsByteEqual) {
  auto task = MakeCdrTask(42, 0.05);
  ASSERT_TRUE(task.ok()) << task.status().ToString();
  auto program = CompileLfSet(task->lfs);
  ASSERT_GT(program->num_compiled(), 0u);

  std::string encoded = program->Encode();
  // Determinism: recompiling the same set encodes byte-identically.
  EXPECT_EQ(CompileLfSet(task->lfs)->Encode(), encoded);

  auto decoded = CompiledLfProgram::Decode(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ((*decoded)->Encode(), encoded);
  EXPECT_EQ((*decoded)->num_lfs, program->num_lfs);
  EXPECT_EQ((*decoded)->slot_of_lf, program->slot_of_lf);
  EXPECT_TRUE(ProgramMatchesLfSet(**decoded, task->lfs));
}

TEST(CompiledProgramTest, DecodeRejectsTruncationWithIOError) {
  auto task = MakeCdrTask(42, 0.05);
  ASSERT_TRUE(task.ok()) << task.status().ToString();
  std::string encoded = CompileLfSet(task->lfs)->Encode();
  for (size_t keep : {size_t{1}, encoded.size() / 2, encoded.size() - 1}) {
    SCOPED_TRACE("keep=" + std::to_string(keep));
    auto decoded = CompiledLfProgram::Decode(encoded.substr(0, keep));
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kIOError);
  }
}

TEST(CompiledProgramTest, ProgramMembershipMismatchDetected) {
  auto cdr = MakeCdrTask(42, 0.05);
  auto ehr = MakeEhrTask(11, 0.05);
  ASSERT_TRUE(cdr.ok() && ehr.ok());
  auto program = CompileLfSet(cdr->lfs);
  EXPECT_FALSE(ProgramMatchesLfSet(*program, ehr->lfs));
}

// ---------------------------------------------------------------------------
// Snapshot-provided programs: the applier uses a matching Decode'd program
// and falls back to a live compile on mismatch — same bytes either way.
// ---------------------------------------------------------------------------

TEST(CompiledProgramTest, DecodedProgramServesBitwiseIdentical) {
  auto task = MakeEhrTask(11, 0.06);
  ASSERT_TRUE(task.ok()) << task.status().ToString();
  auto decoded = CompiledLfProgram::Decode(CompileLfSet(task->lfs)->Encode());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();

  LabelMatrix interpreted =
      MustApply({.num_threads = 1, .use_compiled = false}, task->lfs,
                task->corpus, task->candidates);
  LabelMatrix via_snapshot = MustApply(
      {.num_threads = 2, .use_compiled = true, .compiled_program = *decoded},
      task->lfs, task->corpus, task->candidates);
  ExpectSameMatrix(via_snapshot, interpreted);
}

TEST(CompiledProgramTest, ForeignProgramFallsBackToCorrectOutput) {
  auto cdr = MakeCdrTask(42, 0.05);
  auto chem = MakeChemTask(23, 0.05);
  ASSERT_TRUE(cdr.ok() && chem.ok());
  // A program for a DIFFERENT LF set must never be consulted: output stays
  // bitwise-correct for the set actually applied.
  LabelMatrix interpreted =
      MustApply({.num_threads = 1, .use_compiled = false}, chem->lfs,
                chem->corpus, chem->candidates);
  LabelMatrix mismatched = MustApply(
      {.num_threads = 2,
       .use_compiled = true,
       .compiled_program = CompileLfSet(cdr->lfs)},
      chem->lfs, chem->corpus, chem->candidates);
  ExpectSameMatrix(mismatched, interpreted);
}

// ---------------------------------------------------------------------------
// IncrementalApplier: compiled miss computation fills the same cache.
// ---------------------------------------------------------------------------

TEST(CompiledIncrementalTest, CachedColumnsInterchangeableWithInterpreted) {
  auto task = MakeEhrTask(11, 0.06);
  ASSERT_TRUE(task.ok()) << task.status().ToString();
  LabelMatrix interpreted =
      MustApply({.num_threads = 1, .use_compiled = false}, task->lfs,
                task->corpus, task->candidates);

  IncrementalApplier applier(
      IncrementalApplier::Options{.num_threads = 1, .use_compiled = true});
  auto cold = applier.Apply(task->lfs, task->corpus, task->candidates);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  ExpectSameMatrix(*cold, interpreted);

  auto warm = applier.Apply(task->lfs, task->corpus, task->candidates);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  ExpectSameMatrix(*warm, interpreted);
  EXPECT_GT(applier.stats().columns_reused, 0u);
}

// ---------------------------------------------------------------------------
// Through the router: a trained snapshot (carrying its LFCP program) served
// by ShardRouter with compiled dispatch must answer bitwise-identically to
// interpreted serving, at any shard count.
// ---------------------------------------------------------------------------

TEST(CompiledServingTest, RouterServesCompiledIdenticalToInterpreted) {
  auto task = MakeCdrTask(42, 0.05);
  ASSERT_TRUE(task.ok()) << task.status().ToString();
  ExportSnapshotOptions export_options;
  export_options.gen.epochs = 20;
  export_options.include_disc_model = false;
  auto snapshot = TrainSnapshot(*task, export_options);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  ASSERT_NE(snapshot->compiled_lfs, nullptr);

  LabelRequest request;
  request.corpus = &task->corpus;
  request.candidates = &task->candidates;
  request.include_votes = true;

  LabelService::Options interpreted_options;
  interpreted_options.use_compiled_lfs = false;
  auto interpreted =
      LabelService::Create(*snapshot, task->lfs, interpreted_options);
  ASSERT_TRUE(interpreted.ok()) << interpreted.status().ToString();
  auto expected = interpreted->Label(request);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  for (size_t shards : {size_t{1}, size_t{3}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ShardRouter::Options options;
    options.num_shards = shards;
    auto router = ShardRouter::Create(*snapshot, task->lfs, options);
    ASSERT_TRUE(router.ok()) << router.status().ToString();
    auto actual = router->Label(request);
    ASSERT_TRUE(actual.ok()) << actual.status().ToString();
    EXPECT_EQ(actual->posteriors, expected->posteriors);
    EXPECT_EQ(actual->hard_labels, expected->hard_labels);
    EXPECT_EQ(actual->votes.row_offsets(), expected->votes.row_offsets());
    EXPECT_TRUE(actual->votes.entries() == expected->votes.entries());
    router->Shutdown();
  }
}

// ---------------------------------------------------------------------------
// Concurrency: one applier, one shared program, many requester threads.
// Run under TSan in CI (the compiled engine shares the immutable program
// across requests and each batch's scans across the pool's workers).
// ---------------------------------------------------------------------------

TEST(CompiledConcurrencyTest, SharedApplierHammerStaysBitwise) {
  auto task = MakeChemTask(23, 0.05);
  ASSERT_TRUE(task.ok()) << task.status().ToString();
  LabelMatrix baseline =
      MustApply({.num_threads = 1, .use_compiled = false}, task->lfs,
                task->corpus, task->candidates);

  LFApplier shared({.num_threads = 4, .use_compiled = true});
  IncrementalApplier incremental(
      IncrementalApplier::Options{.num_threads = 4, .use_compiled = true});
  std::atomic<int> mismatches{0};
  std::vector<std::thread> requesters;
  for (int t = 0; t < 8; ++t) {
    requesters.emplace_back([&] {
      for (int iter = 0; iter < 3; ++iter) {
        auto direct = shared.Apply(task->lfs, task->corpus, task->candidates);
        auto cached =
            incremental.Apply(task->lfs, task->corpus, task->candidates);
        for (const auto* result : {&direct, &cached}) {
          if (!result->ok() ||
              !((**result).entries() == baseline.entries()) ||
              (**result).row_offsets() != baseline.row_offsets()) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (std::thread& t : requesters) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// ---------------------------------------------------------------------------
// Corpus edits: compiled scans are per batch, and the column cache keys on
// Corpus::identity(), so an in-place edit is never served the old text.
// ---------------------------------------------------------------------------

TEST(CompiledScanCacheTest, MutatedCorpusGetsFreshScans) {
  Corpus corpus;
  Document doc;
  Sentence s;
  s.words = {"aspirin", "causes", "headache"};
  s.mentions = {Mention{0, 1, "chemical", "C_asp"},
                Mention{2, 3, "disease", "D_ha"}};
  doc.sentences = {s};
  corpus.AddDocument(std::move(doc));
  auto candidates = CandidateExtractor("chemical", "disease").Extract(corpus);
  ASSERT_EQ(candidates.size(), 1u);

  LabelingFunctionSet lfs;
  lfs.Add(MakeKeywordBetweenLF("kw_cause", {"cause"}, 1));

  LFApplier compiled({.num_threads = 1, .use_compiled = true});
  IncrementalApplier cached(
      IncrementalApplier::Options{.num_threads = 1, .use_compiled = true});
  auto before = compiled.Apply(lfs, corpus, candidates);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  ASSERT_EQ(before->entries().size(), 1u);  // "causes" matched
  auto cached_before = cached.Apply(lfs, corpus, candidates);
  ASSERT_TRUE(cached_before.ok()) << cached_before.status().ToString();
  ExpectSameMatrix(*cached_before, *before);

  // In-place edit through the mutable accessor bumps the corpus identity,
  // so the column cached for the old text is never served again — with no
  // InvalidateAll().
  corpus.mutable_document(0)->sentences[0].words[1] = "prevents";
  auto after = compiled.Apply(lfs, corpus, candidates);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_TRUE(after->entries().empty());
  LabelMatrix interpreted = MustApply({.num_threads = 1, .use_compiled = false},
                                      lfs, corpus, candidates);
  ExpectSameMatrix(*after, interpreted);
  auto cached_after = cached.Apply(lfs, corpus, candidates);
  ASSERT_TRUE(cached_after.ok()) << cached_after.status().ToString();
  ExpectSameMatrix(*cached_after, interpreted);
  EXPECT_EQ(cached.stats().set_misses, 2u);
}

TEST(CompiledScanCacheTest, CorpusIdentityFreshOnCopyStableAcrossMove) {
  Corpus a;
  uint64_t id_a = a.identity();
  Corpus b = a;
  EXPECT_NE(b.identity(), id_a);  // copies never alias cached columns
  uint64_t id_b = b.identity();
  Corpus c = std::move(b);
  EXPECT_EQ(c.identity(), id_b);  // moves keep the contents' cached columns
  EXPECT_NE(b.identity(), id_b);  // moved-from is a fresh (empty) corpus
  a.AddDocument(Document{});
  EXPECT_NE(a.identity(), id_a);  // mutation retires the cached columns
}

}  // namespace
}  // namespace snorkel
