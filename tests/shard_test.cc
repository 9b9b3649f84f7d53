// Tests for the sharded serving tier (src/shard/): the hash partitioner,
// the ShardRouter's bitwise equivalence with an unsharded LabelService,
// cancellation + shutdown semantics, typed per-shard failure propagation,
// and mmap-vs-copy snapshot loading.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "lf/applier.h"
#include "lf/declarative.h"
#include "obs/trace.h"
#include "pipeline/export_snapshot.h"
#include "serve/snapshot.h"
#include "shard/partitioner.h"
#include "shard/shard_router.h"
#include "synth/crossmodal.h"
#include "util/cancellation.h"

namespace snorkel {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

/// Corpus of `n` one-sentence documents, alternating "causes" / "treats"
/// (same shape as serve_test's fixture, with per-document canonical ids so
/// every candidate has a distinct stable shard key).
struct ShardFixture {
  Corpus corpus;
  std::vector<Candidate> candidates;

  explicit ShardFixture(int num_docs = 120) {
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

  ModelSnapshot MakeSnapshot(const LabelingFunctionSet& lfs) const {
    auto matrix = LFApplier().Apply(lfs, corpus, candidates);
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
};

// ------------------------------------------------------------ partitioner --

TEST(PartitionerTest, PartitionCoversEveryCandidateExactlyOnce) {
  ShardFixture fx;
  for (size_t shards : {1u, 2u, 3u, 4u}) {
    CandidatePartitioner partitioner(shards);
    ShardedRefBatch batch =
        partitioner.PartitionRefs(MakeCandidateRefs(fx.candidates));
    ASSERT_EQ(batch.num_shards(), shards);
    EXPECT_EQ(batch.total, fx.candidates.size());
    std::set<size_t> seen;
    size_t placed = 0;
    for (size_t s = 0; s < shards; ++s) {
      ASSERT_EQ(batch.shard_rows[s].size(),
                batch.shard_to_request[s].size());
      placed += batch.shard_rows[s].size();
      for (size_t t = 0; t < batch.shard_to_request[s].size(); ++t) {
        size_t original = batch.shard_to_request[s][t];
        EXPECT_TRUE(seen.insert(original).second)
            << "candidate " << original << " routed twice";
        // The sub-batch row really is that candidate.
        EXPECT_EQ(CandidateShardKey(*batch.shard_rows[s][t].candidate),
                  CandidateShardKey(fx.candidates[original]));
      }
    }
    EXPECT_EQ(placed, fx.candidates.size());
  }
}

TEST(PartitionerTest, PlacementIsContentStableAcrossBatchCompositions) {
  ShardFixture fx;
  CandidatePartitioner partitioner(4);
  // Shard assignment must be a pure function of the candidate — slicing the
  // request differently cannot move a candidate to another shard.
  std::vector<Candidate> half(fx.candidates.begin(),
                              fx.candidates.begin() + fx.candidates.size() / 2);
  for (const Candidate& c : half) {
    EXPECT_EQ(partitioner.ShardOf(c), CandidateShardKey(c) % 4);
  }
  ShardedRefBatch full =
      partitioner.PartitionRefs(MakeCandidateRefs(fx.candidates));
  ShardedRefBatch sub = partitioner.PartitionRefs(MakeCandidateRefs(half));
  for (size_t s = 0; s < 4; ++s) {
    for (size_t t = 0; t < sub.shard_to_request[s].size(); ++t) {
      EXPECT_EQ(partitioner.ShardOf(*sub.shard_rows[s][t].candidate), s);
    }
  }
  // With >=2 shards and this many distinct candidates, traffic must spread.
  size_t nonempty = 0;
  for (size_t s = 0; s < 4; ++s) {
    nonempty += full.shard_rows[s].empty() ? 0 : 1;
  }
  EXPECT_GE(nonempty, 2u);
}

// ----------------------------------------------------- bitwise equivalence --

TEST(ShardRouterTest, BitwiseIdenticalToUnshardedService) {
  ShardFixture fx;
  LabelingFunctionSet lfs = fx.MakeLfs();
  ModelSnapshot snapshot = fx.MakeSnapshot(lfs);

  // Ground truth: ONE unsharded service answering the whole request.
  auto unsharded = LabelService::Create(snapshot, fx.MakeLfs());
  ASSERT_TRUE(unsharded.ok()) << unsharded.status().ToString();
  LabelRequest request;
  request.corpus = &fx.corpus;
  request.candidates = &fx.candidates;
  request.include_votes = true;
  auto expected = unsharded->Label(request);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  for (size_t shards : {2u, 3u, 4u}) {
    ShardRouter::Options options;
    options.num_shards = shards;
    auto router = ShardRouter::Create(snapshot, fx.MakeLfs(), options);
    ASSERT_TRUE(router.ok()) << router.status().ToString();
    ASSERT_EQ(router->num_shards(), shards);

    auto actual = router->Label(request);
    ASSERT_TRUE(actual.ok()) << actual.status().ToString();

    // Posteriors must match BITWISE (exact double equality), in request
    // order.
    ASSERT_EQ(actual->posteriors.size(), expected->posteriors.size());
    for (size_t i = 0; i < expected->posteriors.size(); ++i) {
      EXPECT_EQ(actual->posteriors[i], expected->posteriors[i])
          << "posterior bits drifted at row " << i << " with " << shards
          << " shards";
    }
    EXPECT_EQ(actual->hard_labels, expected->hard_labels);

    // include_votes: the reassembled Λ matches cell for cell.
    ASSERT_EQ(actual->votes.num_rows(), expected->votes.num_rows());
    ASSERT_EQ(actual->votes.num_lfs(), expected->votes.num_lfs());
    for (size_t i = 0; i < expected->votes.num_rows(); ++i) {
      for (size_t j = 0; j < expected->votes.num_lfs(); ++j) {
        EXPECT_EQ(actual->votes.At(i, j), expected->votes.At(i, j))
            << "vote mismatch at (" << i << ", " << j << ")";
      }
    }
  }
}

TEST(ShardRouterTest, RepeatRequestsHitEveryReplicaCacheAndAggregate) {
  // The shard workers serve index-preserving ref sub-batches; the
  // concurrent column cache fingerprints them by content + index, so a
  // repeated request hits on every shard — and the per-replica cache
  // counters aggregate through RouterStats.
  ShardFixture fx;
  LabelingFunctionSet lfs = fx.MakeLfs();
  ModelSnapshot snapshot = fx.MakeSnapshot(lfs);

  ShardRouter::Options options;
  options.num_shards = 2;
  auto router = ShardRouter::Create(snapshot, fx.MakeLfs(), options);
  ASSERT_TRUE(router.ok());
  LabelRequest request;
  request.corpus = &fx.corpus;
  request.candidates = &fx.candidates;
  auto first = router->Label(request);
  auto second = router->Label(request);
  auto third = router->Label(request);
  ASSERT_TRUE(first.ok() && second.ok() && third.ok());
  EXPECT_EQ(second->posteriors, first->posteriors);
  EXPECT_EQ(third->posteriors, first->posteriors);

  RouterStats stats = router->stats();
  // The router reports WHICH artifact the whole tier serves: every replica
  // was created from the same snapshot, so the tier-level identity is that
  // snapshot's (version 0 outside a store) and matches each replica's.
  EXPECT_EQ(stats.snapshot_version, 0u);
  EXPECT_EQ(stats.snapshot_checksum, snapshot.CanonicalChecksum());
  for (const auto& shard : stats.per_shard) {
    EXPECT_EQ(shard.snapshot_checksum, stats.snapshot_checksum);
  }
  // Request 1 computed 3 columns per shard; requests 2 and 3 reused them.
  EXPECT_EQ(stats.lf_columns_computed, 2u * 3u);
  EXPECT_EQ(stats.lf_columns_reused, 2u * 2u * 3u);
  EXPECT_EQ(stats.cache_set_misses, 2u);
  EXPECT_EQ(stats.cache_set_hits, 2u * 2u);
  EXPECT_EQ(stats.cache_bytes, 3u * fx.candidates.size() * sizeof(Label));
  // The aggregates are exactly the per-shard sums.
  uint64_t reused = 0;
  for (const auto& shard : stats.per_shard) reused += shard.lf_columns_reused;
  EXPECT_EQ(stats.lf_columns_reused, reused);

  // Tier-wide cache invalidation reaches every replica.
  router->InvalidateCache();
  EXPECT_EQ(router->stats().cache_bytes, 0u);
  ASSERT_TRUE(router->Label(request).ok());
  EXPECT_EQ(router->stats().lf_columns_computed, 2u * 2u * 3u);
}

TEST(ShardRouterTest, ServeSpansReachRingBeforeLabelReturns) {
  // Every shard call closes its shard.serve span and flushes before the
  // fan-out joins, so a drain issued right after Label() returns must
  // already see every serve-side span — no "moments later" race.
  ShardFixture fx;
  LabelingFunctionSet lfs = fx.MakeLfs();
  ModelSnapshot snapshot = fx.MakeSnapshot(lfs);
  ShardRouter::Options options;
  options.num_shards = 2;
  auto router = ShardRouter::Create(snapshot, fx.MakeLfs(), options);
  ASSERT_TRUE(router.ok());
  LabelRequest request;
  request.corpus = &fx.corpus;
  request.candidates = &fx.candidates;

  obs::SetSpanRingCapacityForTest(1024);  // Clears the ring.
  obs::SetTracingEnabled(true);
  uint64_t trace_id = obs::MintId();
  {
    obs::ScopedTraceContext ctx(obs::TraceContext{trace_id, 0});
    ASSERT_TRUE(router->Label(request).ok());
    std::vector<obs::Span> spans =
        obs::CollectSpans(trace_id, /*drain=*/true);
    size_t serve_spans = 0;
    for (const obs::Span& span : spans) {
      if (span.name == "shard.serve") ++serve_spans;
    }
    // One serve span per shard touched by the request.
    EXPECT_EQ(serve_spans, 2u) << "drain after Label() missed serve spans";
  }
  obs::SetTracingEnabled(false);
  obs::SetSpanRingCapacityForTest(16384);
}

TEST(ShardRouterTest, FleetLatencyHistogramIsExactPerShardSum) {
  // Every replica observes model-pass latencies into a histogram with the
  // shared obs::LatencyBucketsMs bounds; RouterStats.latency must be the
  // bucket-by-bucket sum, and tier quantiles must come from that merged
  // population (not from averaging per-shard quantiles).
  ShardFixture fx;
  LabelingFunctionSet lfs = fx.MakeLfs();
  ModelSnapshot snapshot = fx.MakeSnapshot(lfs);

  ShardRouter::Options options;
  options.num_shards = 3;
  auto router = ShardRouter::Create(snapshot, fx.MakeLfs(), options);
  ASSERT_TRUE(router.ok());
  LabelRequest request;
  request.corpus = &fx.corpus;
  request.candidates = &fx.candidates;
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(router->Label(request).ok());

  RouterStats stats = router->stats();
  ASSERT_EQ(stats.per_shard.size(), 3u);

  // The fleet snapshot carries the shared bounds and a non-empty population.
  EXPECT_EQ(stats.latency.bounds, obs::LatencyBucketsMs());
  EXPECT_GT(stats.latency.count, 0u);

  // Sum the per-shard histograms by hand; the router's merge must agree
  // exactly — counts, per-bucket populations, sum, and max.
  obs::HistogramSnapshot manual;
  uint64_t total_passes = 0;
  for (const auto& shard : stats.per_shard) {
    EXPECT_EQ(shard.latency.bounds, obs::LatencyBucketsMs());
    EXPECT_EQ(shard.latency.count, shard.num_requests);
    total_passes += shard.latency.count;
    manual.Merge(shard.latency);
  }
  EXPECT_EQ(stats.latency.count, total_passes);
  EXPECT_EQ(stats.latency.counts, manual.counts);
  EXPECT_DOUBLE_EQ(stats.latency.sum, manual.sum);
  EXPECT_DOUBLE_EQ(stats.latency.max, manual.max);

  // Quantiles over the merged population are sane: ordered and bounded by
  // the observed extremes.
  const double p50 = stats.latency.Quantile(0.5);
  const double p99 = stats.latency.Quantile(0.99);
  EXPECT_GE(p50, 0.0);
  EXPECT_LE(p50, p99);
  EXPECT_LE(p99, stats.latency.max);

  // The legacy per-shard quantile fields are derived from the same
  // histogram the router merges.
  for (const auto& shard : stats.per_shard) {
    EXPECT_DOUBLE_EQ(shard.p50_latency_ms, shard.latency.Quantile(0.5));
    EXPECT_DOUBLE_EQ(shard.p99_latency_ms, shard.latency.Quantile(0.99));
    EXPECT_DOUBLE_EQ(shard.max_latency_ms, shard.latency.max);
  }
}

TEST(ShardRouterTest, ConcurrentCallersStayBitwiseCorrect) {
  ShardFixture fx(160);
  LabelingFunctionSet lfs = fx.MakeLfs();
  ModelSnapshot snapshot = fx.MakeSnapshot(lfs);

  // Batches of 32; expected posteriors per batch from an unsharded service.
  constexpr size_t kBatch = 32;
  std::vector<std::vector<Candidate>> batches;
  for (size_t b = 0; b < fx.candidates.size(); b += kBatch) {
    size_t e = std::min(b + kBatch, fx.candidates.size());
    batches.emplace_back(fx.candidates.begin() + b, fx.candidates.begin() + e);
  }
  auto unsharded = LabelService::Create(snapshot, fx.MakeLfs());
  ASSERT_TRUE(unsharded.ok());
  std::vector<std::vector<double>> expected;
  for (const auto& batch : batches) {
    LabelRequest request;
    request.corpus = &fx.corpus;
    request.candidates = &batch;
    auto response = unsharded->Label(request);
    ASSERT_TRUE(response.ok());
    expected.push_back(response->posteriors);
  }

  // Hammer the router from 4 threads; every response must still be exact.
  ShardRouter::Options options;
  options.num_shards = 2;
  auto router = ShardRouter::Create(snapshot, fx.MakeLfs(), options);
  ASSERT_TRUE(router.ok());
  constexpr int kThreads = 4;
  constexpr int kRounds = 5;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRounds; ++r) {
        for (size_t b = static_cast<size_t>(t); b < batches.size();
             b += kThreads) {
          LabelRequest request;
          request.corpus = &fx.corpus;
          request.candidates = &batches[b];
          auto response = router->Label(request);
          if (!response.ok() || response->posteriors != expected[b]) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);

  RouterStats stats = router->stats();
  EXPECT_EQ(stats.num_requests,
            static_cast<uint64_t>(kRounds) * batches.size());
  EXPECT_EQ(stats.failed_requests, 0u);
  EXPECT_EQ(stats.per_shard.size(), 2u);
  // Every candidate went somewhere, and both shards saw traffic.
  uint64_t shard_candidates = 0;
  for (const auto& shard : stats.per_shard) {
    EXPECT_GT(shard.num_candidates, 0u);
    shard_candidates += shard.num_candidates;
  }
  EXPECT_EQ(shard_candidates, stats.num_candidates);
  EXPECT_GT(stats.throughput_cps, 0.0);
}

TEST(ShardRouterTest, IndexDependentLfsSeeOriginalRequestIndices) {
  // Sub-batches are fanned out as index-preserving refs, so an LF keyed on
  // CandidateView::index() — e.g. a crowd-vote LF reading stored votes by
  // row — votes identically under sharding. (A partition that renumbered
  // rows 0..n_s-1 per shard would silently corrupt such LFs' votes.)
  ShardFixture fx(96);
  LabelingFunctionSet lfs;
  lfs.Add(LabelingFunction("lf_crowd", [](const CandidateView& view) -> Label {
    return view.index() % 3 == 0 ? 1 : (view.index() % 3 == 1 ? -1 : kAbstain);
  }));
  lfs.Add(MakeKeywordBetweenLF("lf_treats", {"treat"}, -1));
  ModelSnapshot snapshot = fx.MakeSnapshot(lfs);

  auto unsharded = LabelService::Create(snapshot, lfs);
  ASSERT_TRUE(unsharded.ok());
  ShardRouter::Options options;
  options.num_shards = 3;
  auto router = ShardRouter::Create(snapshot, lfs, options);
  ASSERT_TRUE(router.ok());

  LabelRequest request;
  request.corpus = &fx.corpus;
  request.candidates = &fx.candidates;
  request.include_votes = true;
  auto expected = unsharded->Label(request);
  auto actual = router->Label(request);
  ASSERT_TRUE(expected.ok() && actual.ok());
  EXPECT_EQ(actual->posteriors, expected->posteriors);
  for (size_t i = 0; i < expected->votes.num_rows(); ++i) {
    EXPECT_EQ(actual->votes.At(i, 0), expected->votes.At(i, 0))
        << "index-dependent vote drifted at row " << i;
  }
}

TEST(ShardRouterTest, MoveAssignmentShutsDownTheReplacedTier) {
  ShardFixture fx(48);
  LabelingFunctionSet lfs = fx.MakeLfs();
  ModelSnapshot snapshot = fx.MakeSnapshot(lfs);
  auto first = ShardRouter::Create(snapshot, fx.MakeLfs(), {});
  auto second = ShardRouter::Create(snapshot, fx.MakeLfs(), {});
  ASSERT_TRUE(first.ok() && second.ok());
  LabelRequest request;
  request.corpus = &fx.corpus;
  request.candidates = &fx.candidates;
  ASSERT_TRUE(first->Label(request).ok());
  // Assigning over a live router drops its replicas and adopts the other
  // tier, which keeps serving.
  *first = std::move(*second);
  auto response = first->Label(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->posteriors.size(), fx.candidates.size());
}

TEST(ShardRouterTest, EmptyRequestYieldsEmptyResponse) {
  ShardFixture fx;
  LabelingFunctionSet lfs = fx.MakeLfs();
  ModelSnapshot snapshot = fx.MakeSnapshot(lfs);
  auto router = ShardRouter::Create(snapshot, fx.MakeLfs(), {});
  ASSERT_TRUE(router.ok());
  std::vector<Candidate> none;
  LabelRequest request;
  request.corpus = &fx.corpus;
  request.candidates = &none;
  auto response = router->Label(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(response->posteriors.empty());
  EXPECT_TRUE(response->hard_labels.empty());
}

// ------------------------------------------------- K-class (Crowd) tier --

/// Crowd-shaped K-class serving fixture: 5 classes, one LF per simulated
/// worker (index-dependent votes), snapshot carrying the fitted Dawid-Skene
/// model in a DAWD section.
struct KClassShardFixture {
  CrowdServingTask task;
  ModelSnapshot snapshot;

  explicit KClassShardFixture(size_t num_items = 120,
                              size_t num_workers = 10) {
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

TEST(KClassShardRouterTest, MergedClassPosteriorsBitwiseIdenticalToUnsharded) {
  KClassShardFixture fx;
  const size_t k = 5;

  // Ground truth twice over: ONE unsharded service, and the direct
  // DawidSkeneModel::PredictProba on the same K-class matrix.
  auto unsharded = LabelService::Create(fx.snapshot, fx.task.lfs);
  ASSERT_TRUE(unsharded.ok()) << unsharded.status().ToString();
  LabelRequest request;
  request.corpus = &fx.task.corpus;
  request.candidates = &fx.task.candidates;
  request.include_votes = true;
  auto expected = unsharded->Label(request);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  LFApplier applier(LFApplier::Options{0, fx.task.cardinality});
  auto matrix =
      applier.Apply(fx.task.lfs, fx.task.corpus, fx.task.candidates);
  ASSERT_TRUE(matrix.ok());
  auto model = fx.snapshot.RestoreDawidSkeneModel();
  ASSERT_TRUE(model.ok());
  auto direct = model->PredictProba(*matrix);
  ASSERT_EQ(expected->class_posteriors.size(), direct.size() * k);
  for (size_t i = 0; i < direct.size(); ++i) {
    for (size_t c = 0; c < k; ++c) {
      ASSERT_EQ(expected->class_posteriors[i * k + c], direct[i][c])
          << "service drifted from the direct model at (" << i << ", " << c
          << ")";
    }
  }

  for (size_t shards : {2u, 3u, 4u}) {
    ShardRouter::Options options;
    options.num_shards = shards;
    auto router = ShardRouter::Create(fx.snapshot, fx.task.lfs, options);
    ASSERT_TRUE(router.ok()) << router.status().ToString();

    auto actual = router->Label(request);
    ASSERT_TRUE(actual.ok()) << actual.status().ToString();
    EXPECT_EQ(actual->cardinality, 5);
    EXPECT_TRUE(actual->posteriors.empty());

    // The merged K-vector posteriors must match BITWISE, index-preserving.
    ASSERT_EQ(actual->class_posteriors.size(),
              expected->class_posteriors.size());
    for (size_t t = 0; t < expected->class_posteriors.size(); ++t) {
      EXPECT_EQ(actual->class_posteriors[t], expected->class_posteriors[t])
          << "class-posterior bits drifted at flat index " << t << " with "
          << shards << " shards";
    }
    EXPECT_EQ(actual->hard_labels, expected->hard_labels);

    // include_votes: the reassembled K-class Λ matches cell for cell.
    ASSERT_EQ(actual->votes.num_rows(), expected->votes.num_rows());
    ASSERT_EQ(actual->votes.num_lfs(), expected->votes.num_lfs());
    for (size_t i = 0; i < expected->votes.num_rows(); ++i) {
      for (size_t j = 0; j < expected->votes.num_lfs(); ++j) {
        EXPECT_EQ(actual->votes.At(i, j), expected->votes.At(i, j))
            << "vote mismatch at (" << i << ", " << j << ")";
      }
    }
  }
}

TEST(KClassShardRouterTest, ConcurrentCallersStayBitwise) {
  KClassShardFixture fx(160, 8);

  // Batches of 24; expected K-vectors per batch from an unsharded service.
  constexpr size_t kBatch = 24;
  std::vector<std::vector<Candidate>> batches;
  for (size_t b = 0; b < fx.task.candidates.size(); b += kBatch) {
    size_t e = std::min(b + kBatch, fx.task.candidates.size());
    batches.emplace_back(fx.task.candidates.begin() + b,
                         fx.task.candidates.begin() + e);
  }
  auto unsharded = LabelService::Create(fx.snapshot, fx.task.lfs);
  ASSERT_TRUE(unsharded.ok());
  std::vector<std::vector<double>> expected;
  for (const auto& batch : batches) {
    LabelRequest request;
    request.corpus = &fx.task.corpus;
    request.candidates = &batch;
    auto response = unsharded->Label(request);
    ASSERT_TRUE(response.ok());
    expected.push_back(response->class_posteriors);
  }

  // Hammer the router from 4 threads; every K-vector response must still
  // be exact.
  ShardRouter::Options options;
  options.num_shards = 2;
  auto router = ShardRouter::Create(fx.snapshot, fx.task.lfs, options);
  ASSERT_TRUE(router.ok());
  constexpr int kThreads = 4;
  constexpr int kRounds = 5;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRounds; ++r) {
        for (size_t b = static_cast<size_t>(t); b < batches.size();
             b += kThreads) {
          LabelRequest request;
          request.corpus = &fx.task.corpus;
          request.candidates = &batches[b];
          auto response = router->Label(request);
          if (!response.ok() ||
              response->class_posteriors != expected[b]) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  RouterStats stats = router->stats();
  EXPECT_EQ(stats.failed_requests, 0u);
  EXPECT_EQ(stats.num_requests,
            static_cast<uint64_t>(kRounds) * batches.size());
}

// ----------------------------------------- cancellation and shutdown --

/// Base LF set with an explicitly versioned lf_causes, so behaviour
/// variants below (slow, poisoned) can share its (name, version)
/// fingerprint and pass the replicas' snapshot validation.
LabelingFunctionSet MakeSwappableLfs(LabelingFunction::Fn causes_fn) {
  LabelingFunctionSet lfs;
  lfs.Add(LabelingFunction("lf_causes", "v1", std::move(causes_fn)));
  lfs.Add(MakeKeywordBetweenLF("lf_treats", {"treat"}, -1));
  lfs.Add(MakeDistanceLF("lf_far", 4, -1));
  return lfs;
}

Label NormalCauses(const CandidateView& view) {
  for (const auto& w : view.WordsBetween()) {
    if (w.rfind("cause", 0) == 0) return 1;
  }
  return kAbstain;
}

/// Same fingerprint as MakeSwappableLfs(NormalCauses) but stalls per
/// sub-batch — keeps requests in flight while the router shuts down.
LabelingFunctionSet MakeSlowLfs() {
  return MakeSwappableLfs([](const CandidateView& view) -> Label {
    if (view.index() == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
    }
    return NormalCauses(view);
  });
}

TEST(ShardRouterTest, ShutdownDrainsInFlightAndRejectsNewRequests) {
  ShardFixture fx(64);
  ModelSnapshot snapshot = fx.MakeSnapshot(MakeSwappableLfs(NormalCauses));
  ShardRouter::Options options;
  options.num_shards = 2;
  auto router = ShardRouter::Create(snapshot, MakeSlowLfs(), options);
  ASSERT_TRUE(router.ok());

  // Concurrent producers keep submitting while the main thread shuts down:
  // every call must resolve as either a full response or a typed shutdown
  // rejection — never a hang, a crash, or partial garbage.
  std::atomic<int> ok_count{0};
  std::atomic<int> closed_count{0};
  std::atomic<int> other_count{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int r = 0; r < 4; ++r) {
        LabelRequest request;
        request.corpus = &fx.corpus;
        request.candidates = &fx.candidates;
        auto response = router->Label(request);
        if (response.ok()) {
          if (response->posteriors.size() == fx.candidates.size()) {
            ok_count.fetch_add(1);
          } else {
            other_count.fetch_add(1);  // Partial response = bug.
          }
        } else if (response.status().code() ==
                   StatusCode::kFailedPrecondition) {
          closed_count.fetch_add(1);
        } else {
          other_count.fetch_add(1);
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  router->Shutdown();
  router->Shutdown();  // Idempotent.
  for (auto& th : threads) th.join();

  EXPECT_GE(ok_count.load(), 1);
  EXPECT_EQ(other_count.load(), 0);

  LabelRequest request;
  request.corpus = &fx.corpus;
  request.candidates = &fx.candidates;
  auto after = router->Label(request);
  ASSERT_FALSE(after.ok());
  EXPECT_EQ(after.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ShardRouterTest, CancelledRequestFailsDeadlineExceeded) {
  ShardFixture fx(64);
  LabelingFunctionSet lfs = fx.MakeLfs();
  ModelSnapshot snapshot = fx.MakeSnapshot(lfs);
  ShardRouter::Options options;
  options.num_shards = 2;
  auto router = ShardRouter::Create(snapshot, fx.MakeLfs(), options);
  ASSERT_TRUE(router.ok());

  // The caller gave up before the request arrived: no replica may serve it
  // to completion, and the failure is the typed deadline code.
  CancelToken cancel;
  cancel.Cancel();
  LabelRequest request;
  request.corpus = &fx.corpus;
  request.candidates = &fx.candidates;
  request.cancel = &cancel;
  auto response = router->Label(request);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kDeadlineExceeded)
      << response.status().ToString();
  EXPECT_EQ(router->stats().failed_requests, 1u);
}

// -------------------------------------------------- failure propagation --

TEST(ShardRouterTest, ShardFailureFailsWholeRequestWithShardContext) {
  ShardFixture fx(64);
  ModelSnapshot snapshot = fx.MakeSnapshot(MakeSwappableLfs(NormalCauses));

  constexpr size_t kShards = 4;
  // Poison exactly one candidate: its owning shard's replica rejects the
  // out-of-range vote, every other shard serves fine — and the router must
  // fail the WHOLE request, typed, naming the shard.
  const Candidate& poisoned = fx.candidates[5];
  const std::string poisoned_id = poisoned.span1.canonical_id;
  size_t poisoned_shard = CandidateShardKey(poisoned) % kShards;

  LabelingFunctionSet bad = MakeSwappableLfs(
      [poisoned_id](const CandidateView& view) -> Label {
        if (view.candidate().span1.canonical_id == poisoned_id) {
          return 7;  // Out of range for a binary task.
        }
        return NormalCauses(view);
      });

  ShardRouter::Options options;
  options.num_shards = kShards;
  auto router = ShardRouter::Create(snapshot, std::move(bad), options);
  ASSERT_TRUE(router.ok()) << router.status().ToString();

  LabelRequest request;
  request.corpus = &fx.corpus;
  request.candidates = &fx.candidates;
  auto response = router->Label(request);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(response.status().message().find(
                "shard " + std::to_string(poisoned_shard)),
            std::string::npos)
      << "error lacks shard context: " << response.status().ToString();
  EXPECT_EQ(router->stats().failed_requests, 1u);

  // The tier is not poisoned: a request avoiding the bad candidate serves.
  std::vector<Candidate> clean;
  for (const Candidate& c : fx.candidates) {
    if (c.span1.canonical_id != poisoned_id) clean.push_back(c);
  }
  LabelRequest clean_request;
  clean_request.corpus = &fx.corpus;
  clean_request.candidates = &clean;
  auto clean_response = router->Label(clean_request);
  ASSERT_TRUE(clean_response.ok()) << clean_response.status().ToString();
  EXPECT_EQ(clean_response->posteriors.size(), clean.size());
}

TEST(ShardRouterTest, AllowPartialDegradesTypedInsteadOfFailingWhole) {
  ShardFixture fx(64);
  ModelSnapshot snapshot = fx.MakeSnapshot(MakeSwappableLfs(NormalCauses));

  constexpr size_t kShards = 4;
  const Candidate& poisoned = fx.candidates[5];
  const std::string poisoned_id = poisoned.span1.canonical_id;
  size_t poisoned_shard = CandidateShardKey(poisoned) % kShards;

  LabelingFunctionSet bad = MakeSwappableLfs(
      [poisoned_id](const CandidateView& view) -> Label {
        if (view.candidate().span1.canonical_id == poisoned_id) {
          return 7;  // Out of range for a binary task.
        }
        return NormalCauses(view);
      });

  ShardRouter::Options options;
  options.num_shards = kShards;
  auto reference =
      ShardRouter::Create(snapshot, MakeSwappableLfs(NormalCauses), options);
  ASSERT_TRUE(reference.ok());
  auto router = ShardRouter::Create(snapshot, std::move(bad), options);
  ASSERT_TRUE(router.ok()) << router.status().ToString();

  LabelRequest request;
  request.corpus = &fx.corpus;
  request.candidates = &fx.candidates;
  auto expected = reference->Label(request);
  ASSERT_TRUE(expected.ok());

  // Same poisoned tier as the whole-failure test above, but the caller opts
  // into degraded service: the response arrives ok, flagged partial, with
  // the healthy shards' rows bit-identical and the poisoned shard's rows
  // marked uncovered.
  request.allow_partial = true;
  auto response = router->Label(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(response->is_partial);

  size_t covered_rows = 0;
  for (size_t i = 0; i < fx.candidates.size(); ++i) {
    bool on_poisoned_shard =
        CandidateShardKey(fx.candidates[i]) % kShards == poisoned_shard;
    EXPECT_EQ(response->RowCovered(i), !on_poisoned_shard) << "row " << i;
    if (on_poisoned_shard) {
      EXPECT_EQ(response->posteriors[i], 0.0);
      EXPECT_EQ(response->hard_labels[i], kAbstain);
    } else {
      EXPECT_EQ(response->posteriors[i], expected->posteriors[i]) << i;
      ++covered_rows;
    }
  }
  EXPECT_GT(covered_rows, 0u);
  EXPECT_LT(covered_rows, fx.candidates.size());

  // Per-shard outcomes carry the typed verdicts, sorted by shard.
  ASSERT_EQ(response->shard_outcomes.size(), kShards);
  for (const ShardOutcome& outcome : response->shard_outcomes) {
    if (outcome.shard == poisoned_shard) {
      EXPECT_EQ(outcome.code, StatusCode::kInvalidArgument);
      EXPECT_FALSE(outcome.message.empty());
    } else {
      EXPECT_EQ(outcome.code, StatusCode::kOk);
    }
  }
  RouterStats stats = router->stats();
  EXPECT_EQ(stats.degraded_requests, 1u);
  EXPECT_EQ(stats.failed_requests, 0u);
}

// ------------------------------------------------------- mmap snapshots --

TEST(MmapSnapshotTest, MappedLoadBitwiseEqualsCopyLoad) {
  ShardFixture fx;
  LabelingFunctionSet lfs = fx.MakeLfs();
  ModelSnapshot snapshot = fx.MakeSnapshot(lfs);
  std::string path = TempPath("mapped.snk");
  ASSERT_TRUE(SaveSnapshot(snapshot, path).ok());

  auto copied = LoadSnapshot(path);
  ASSERT_TRUE(copied.ok()) << copied.status().ToString();
  SnapshotLoadInfo info;
  auto mapped = LoadSnapshotMapped(path, &info);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
#if defined(__unix__) || defined(__APPLE__)
  EXPECT_TRUE(info.used_mmap);
#endif
  EXPECT_GT(info.file_bytes, 0u);

  // Bitwise-equal payload either way.
  EXPECT_EQ(mapped->lf_names, copied->lf_names);
  EXPECT_EQ(mapped->lf_fingerprints, copied->lf_fingerprints);
  EXPECT_EQ(mapped->class_balance, copied->class_balance);
  EXPECT_EQ(mapped->acc_weights, copied->acc_weights);
  EXPECT_EQ(mapped->lab_weights, copied->lab_weights);
  EXPECT_EQ(mapped->corr_weights, copied->corr_weights);

  // And a router built over the mapped artifact serves the exact posteriors
  // of one built from the in-memory snapshot.
  SnapshotLoadInfo router_info;
  auto router =
      ShardRouter::FromFile(path, fx.MakeLfs(), {}, &router_info);
  ASSERT_TRUE(router.ok()) << router.status().ToString();
#if defined(__unix__) || defined(__APPLE__)
  EXPECT_TRUE(router_info.used_mmap);
#endif
  auto direct = LabelService::Create(snapshot, fx.MakeLfs());
  ASSERT_TRUE(direct.ok());
  LabelRequest request;
  request.corpus = &fx.corpus;
  request.candidates = &fx.candidates;
  auto expected = direct->Label(request);
  auto actual = router->Label(request);
  ASSERT_TRUE(expected.ok() && actual.ok());
  EXPECT_EQ(actual->posteriors, expected->posteriors);
  std::remove(path.c_str());
}

TEST(MmapSnapshotTest, MappedPathDetectsCorruptionTruncationAndBadMagic) {
  ShardFixture fx;
  LabelingFunctionSet lfs = fx.MakeLfs();
  ModelSnapshot snapshot = fx.MakeSnapshot(lfs);
  std::string bytes = SerializeSnapshot(snapshot);
  std::string path = TempPath("corrupt_mapped.snk");

  auto write_raw = [&](const std::string& data) {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    if (!data.empty()) {
      ASSERT_EQ(std::fwrite(data.data(), 1, data.size(), f), data.size());
    }
    std::fclose(f);
  };

  // Flipped payload byte: checksum mismatch through the mapped view.
  std::string corrupted = bytes;
  corrupted[bytes.size() / 2] ^= 0x20;
  write_raw(corrupted);
  auto loaded = LoadSnapshotMapped(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);

  // Truncation at several prefix lengths.
  for (size_t len : {size_t{0}, size_t{7}, bytes.size() / 2,
                     bytes.size() - 1}) {
    write_raw(bytes.substr(0, len));
    auto truncated = LoadSnapshotMapped(path);
    ASSERT_FALSE(truncated.ok()) << "prefix length " << len;
    EXPECT_EQ(truncated.status().code(), StatusCode::kIOError);
  }

  // Bad magic.
  std::string wrong_magic = bytes;
  wrong_magic[0] = 'X';
  write_raw(wrong_magic);
  auto bad = LoadSnapshotMapped(path);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);

  // Missing file.
  std::remove(path.c_str());
  auto missing = LoadSnapshotMapped(path);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace snorkel
