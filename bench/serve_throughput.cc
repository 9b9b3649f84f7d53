// Label-serving benchmark for the serve/ subsystem: trains one relation
// task offline, exports a versioned snapshot, then measures
//   (1) batched serving throughput (candidates/sec, p50/p99 request latency)
//     through LabelService over fresh candidate batches,
//   (2) concurrent-caller throughput: N threads sharing one service — the
//     posterior path is lock-free, so callers overlap compute instead of
//     serializing on a service-wide mutex, and
//   (3) the incremental-applier speedup for the §4.1 iterate loop: editing
//     1 of k LFs (an opaque re-version or a declarative keyword edit)
//     should re-label in roughly 1/k of the full Apply time, and
//   (4) the sharded tier: ShardRouter (hash partition → direct replica
//     calls, one fan-out thread per extra shard) vs. direct unsharded
//     Label() under the same bursty concurrent-caller workload, at 1/2/4
//     shards.
//
//   (5) the K-class (Crowd-shaped, §4.1.2) serving path: a 5-class,
//     102-worker Dawid-Skene snapshot served through LabelService and the
//     ShardRouter — the vector-posterior hot path (DAWD snapshot v2
//     section + batched row-softmax E-step kernel),
//
//   (6) alternating-set serving (A/B/A/B under 4 concurrent callers): the
//     multi-set column cache must hit every request after the first cycle,
//     and
//
//   (7) append-only stream serving: requests are growing prefixes of one
//     candidate log; the cache extends cached columns by computing only
//     the appended tail rows, and
//
//   (8) compiled LF execution: the shared Aho-Corasick batch engine
//     (lf/compiled/) vs per-row interpreted lambdas on the same LF set —
//     bitwise-identical output, so the ratio is pure execution speedup.
//
// A LabelService always applies LFs through its column cache. Where a row
// needs "uncached" serving, it calls InvalidateCache() before each request
// of a single caller, so every request computes all of its columns.
//
// Pass --json <path> to also write the headline numbers as JSON (consumed
// by scripts/bench.sh for the benchmark trajectory).

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/csr_kernels.h"
#include "lf/applier.h"
#include "lf/compiled/program.h"
#include "lf/compiled/spec.h"
#include "lf/declarative.h"
#include "pipeline/export_snapshot.h"
#include "serve/incremental_applier.h"
#include "serve/label_service.h"
#include "shard/shard_router.h"
#include "synth/crossmodal.h"
#include "util/table_printer.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace snorkel;

  std::string json_path;
  for (int a = 1; a + 1 < argc; ++a) {
    if (std::string(argv[a]) == "--json") json_path = argv[a + 1];
  }

  auto task = MakeCdrTask(/*seed=*/42, /*scale=*/bench::kScale);
  if (!task.ok()) {
    std::fprintf(stderr, "task generation failed: %s\n",
                 task.status().ToString().c_str());
    return 1;
  }
  std::printf("Task %s: %zu candidates, %zu LFs (posterior kernels: %s)\n\n",
              task->name.c_str(), task->candidates.size(), task->lfs.size(),
              CsrKernelIsa());

  // ---- Offline: train and export the servable snapshot. ----
  ExportSnapshotOptions export_options;
  export_options.gen.epochs = 100;
  export_options.disc.epochs = 5;
  WallTimer train_timer;
  auto snapshot = TrainSnapshot(*task, export_options);
  if (!snapshot.ok()) {
    std::fprintf(stderr, "training failed: %s\n",
                 snapshot.status().ToString().c_str());
    return 1;
  }
  std::string wire = SerializeSnapshot(*snapshot);
  std::printf("Trained + captured snapshot in %.2fs (%zu bytes on the wire)\n",
              train_timer.ElapsedSeconds(), wire.size());

  // ---- Online: batched serving over fresh candidate batches. Rounds
  // repeat the batches, so the cache is dropped before every request: each
  // request computes all of its columns, as a batch never seen before
  // would. ----
  auto service = LabelService::Create(*snapshot, task->lfs);
  if (!service.ok()) {
    std::fprintf(stderr, "service creation failed: %s\n",
                 service.status().ToString().c_str());
    return 1;
  }

  constexpr size_t kBatchSize = 512;
  constexpr int kRounds = 5;
  std::vector<std::vector<Candidate>> batches;
  for (size_t begin = 0; begin < task->candidates.size();
       begin += kBatchSize) {
    size_t end = std::min(begin + kBatchSize, task->candidates.size());
    batches.emplace_back(task->candidates.begin() + begin,
                         task->candidates.begin() + end);
  }
  for (int round = 0; round < kRounds; ++round) {
    for (const auto& batch : batches) {
      LabelRequest request;
      request.corpus = &task->corpus;
      request.candidates = &batch;
      service->InvalidateCache();
      auto response = service->Label(request);
      if (!response.ok()) {
        std::fprintf(stderr, "serving failed: %s\n",
                     response.status().ToString().c_str());
        return 1;
      }
    }
  }
  ServiceStats stats = service->stats();
  TablePrinter serving({"Requests", "Candidates", "cand/s", "p50 ms",
                        "p99 ms", "max ms"});
  serving.AddRow({TablePrinter::Cell(static_cast<int64_t>(stats.num_requests)),
                  TablePrinter::Cell(static_cast<int64_t>(stats.num_candidates)),
                  TablePrinter::Cell(stats.throughput_cps, 0),
                  TablePrinter::Cell(stats.p50_latency_ms, 3),
                  TablePrinter::Cell(stats.p99_latency_ms, 3),
                  TablePrinter::Cell(stats.max_latency_ms, 3)});
  std::printf("\nBatched serving (batch=%zu, %d rounds):\n%s", kBatchSize,
              kRounds, serving.ToString().c_str());

  // ---- Concurrent callers sharing one service. Each caller applies LFs
  // serially (num_threads = 1) so the measurement isolates request overlap
  // — the narrow-critical-section win — from intra-request sharding. Each
  // round serves from its own copy of the corpus (a copy has a fresh
  // Corpus::identity()), so every request misses the column cache without
  // one caller invalidating another's in-flight work. ----
  constexpr int kConcurrentRounds = 3;
  const std::vector<Corpus> round_corpora(kConcurrentRounds, task->corpus);
  std::vector<std::pair<int, double>> concurrent_cps;
  for (int callers : {1, 2, 4}) {
    LabelService::Options cc_options;
    cc_options.num_threads = 1;
    auto cc_service = LabelService::Create(*snapshot, task->lfs, cc_options);
    if (!cc_service.ok()) {
      std::fprintf(stderr, "service creation failed: %s\n",
                   cc_service.status().ToString().c_str());
      return 1;
    }
    WallTimer cc_timer;
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(callers));
    for (int t = 0; t < callers; ++t) {
      threads.emplace_back([&, t] {
        // Callers stride over the batch list so each batch is served
        // exactly kConcurrentRounds times in total regardless of T.
        for (int round = 0; round < kConcurrentRounds; ++round) {
          for (size_t b = static_cast<size_t>(t); b < batches.size();
               b += static_cast<size_t>(callers)) {
            LabelRequest request;
            request.corpus = &round_corpora[static_cast<size_t>(round)];
            request.candidates = &batches[b];
            auto response = cc_service->Label(request);
            if (!response.ok()) {
              std::fprintf(stderr, "concurrent serving failed: %s\n",
                           response.status().ToString().c_str());
              std::abort();
            }
          }
        }
      });
    }
    for (auto& th : threads) th.join();
    double wall = cc_timer.ElapsedSeconds();
    double served = static_cast<double>(cc_service->stats().num_candidates);
    concurrent_cps.emplace_back(callers, served / wall);
  }
  TablePrinter concurrent({"Callers", "cand/s (wall)", "Vs 1 caller"});
  for (auto& [callers, cps] : concurrent_cps) {
    concurrent.AddRow({TablePrinter::Cell(static_cast<int64_t>(callers)),
                       TablePrinter::Cell(cps, 0),
                       TablePrinter::Cell(cps / concurrent_cps[0].second, 2)});
  }
  std::printf("\nConcurrent callers (shared service, serial per-request "
              "apply):\n%s",
              concurrent.ToString().c_str());

  // ---- Sharded tier vs. direct unsharded serving, bursty concurrent
  // callers. Small requests make per-request fixed costs visible. The
  // baseline is the default service configuration (LF application on the
  // process-wide pool); router replicas apply serially. Every service
  // serves through its column cache, so repeat rounds hit on both sides.
  // (There is no cache-off row: dropping the cache before each request
  // would also drop the other callers' in-flight columns, so with
  // concurrent callers it measures nothing well defined.) Trials are
  // INTERLEAVED across configs (unsharded, 1/2/4 shards, unsharded, ...)
  // and each config takes its best trial, so ambient machine noise cannot
  // bias one whole config's block of measurements. ----
  constexpr size_t kShardBatchSize = 128;
  constexpr int kShardCallers = 4;
  constexpr int kShardRounds = 6;
  // Trial 0 is a discarded warmup (page faults, allocator growth, branch
  // history); the remaining trials are recorded best-of.
  constexpr int kTrials = 6;
  std::vector<std::vector<Candidate>> small_batches;
  for (size_t begin = 0; begin < task->candidates.size();
       begin += kShardBatchSize) {
    size_t end = std::min(begin + kShardBatchSize, task->candidates.size());
    small_batches.emplace_back(task->candidates.begin() + begin,
                               task->candidates.begin() + end);
  }

  // One workload for every config: kShardCallers threads striding the batch
  // list for kShardRounds rounds; `label` maps a batch to a response.
  auto run_callers = [&](const std::function<bool(const std::vector<Candidate>&)>&
                             label) -> double {
    WallTimer wall;
    std::vector<std::thread> callers;
    std::atomic<bool> failed{false};
    size_t served = 0;
    for (int t = 0; t < kShardCallers; ++t) {
      callers.emplace_back([&, t] {
        for (int round = 0; round < kShardRounds; ++round) {
          for (size_t b = static_cast<size_t>(t); b < small_batches.size();
               b += static_cast<size_t>(kShardCallers)) {
            if (!label(small_batches[b])) failed.store(true);
          }
        }
      });
    }
    for (auto& th : callers) th.join();
    if (failed.load()) {
      std::fprintf(stderr, "sharded-section serving failed\n");
      std::abort();
    }
    for (const auto& batch : small_batches) served += batch.size();
    return static_cast<double>(served) * kShardRounds / wall.ElapsedSeconds();
  };

  const std::vector<size_t> kShardCounts = {1, 2, 4};
  double unsharded_cps = 0.0;
  std::vector<std::pair<size_t, double>> sharded_cps;
  for (size_t shards : kShardCounts) sharded_cps.emplace_back(shards, 0.0);
  for (int trial = 0; trial < kTrials; ++trial) {
    // Unsharded direct calls, default config.
    {
      auto direct = LabelService::Create(*snapshot, task->lfs);
      if (!direct.ok()) {
        std::fprintf(stderr, "service creation failed: %s\n",
                     direct.status().ToString().c_str());
        return 1;
      }
      double cps = run_callers([&](const std::vector<Candidate>& batch) {
        LabelRequest request;
        request.corpus = &task->corpus;
        request.candidates = &batch;
        return direct->Label(request).ok();
      });
      if (trial > 0) unsharded_cps = std::max(unsharded_cps, cps);
    }

    // Router at each shard count.
    for (size_t c = 0; c < kShardCounts.size(); ++c) {
      ShardRouter::Options router_options;
      router_options.num_shards = kShardCounts[c];
      router_options.service.num_threads = 1;
      auto router = ShardRouter::Create(*snapshot, task->lfs, router_options);
      if (!router.ok()) {
        std::fprintf(stderr, "router creation failed: %s\n",
                     router.status().ToString().c_str());
        return 1;
      }
      double cps = run_callers([&](const std::vector<Candidate>& batch) {
        LabelRequest request;
        request.corpus = &task->corpus;
        request.candidates = &batch;
        return router->Label(request).ok();
      });
      if (trial > 0) {
        sharded_cps[c].second = std::max(sharded_cps[c].second, cps);
      }
    }
  }

  TablePrinter sharded({"Config", "cand/s (wall)", "Vs unsharded"});
  sharded.AddRow({"unsharded direct (default)",
                  TablePrinter::Cell(unsharded_cps, 0), "1.00"});
  for (auto& [shards, cps] : sharded_cps) {
    sharded.AddRow({"router, " + std::to_string(shards) + " shard" +
                        (shards == 1 ? "" : "s"),
                    TablePrinter::Cell(cps, 0),
                    TablePrinter::Cell(cps / unsharded_cps, 2)});
  }
  std::printf("\nSharded tier (%d concurrent callers, batch=%zu, best of %d "
              "trials after warmup):\n%s",
              kShardCallers, kShardBatchSize, kTrials - 1,
              sharded.ToString().c_str());

  // ---- K-class (Crowd-shaped) serving: 5 sentiment classes, one LF per
  // crowd worker (paper Table 2 shape: 505 items × 102 workers), served
  // from a DAWD snapshot through the vector-posterior path. Same
  // interleaved best-of methodology as the binary sharded section. ----
  CrowdServingOptions crowd_options;
  crowd_options.num_items = 505;
  crowd_options.num_workers = 102;
  auto crowd = MakeCrowdServingTask(crowd_options);
  if (!crowd.ok()) {
    std::fprintf(stderr, "crowd task generation failed: %s\n",
                 crowd.status().ToString().c_str());
    return 1;
  }
  WallTimer crowd_train_timer;
  auto crowd_snapshot = TrainKClassSnapshot(
      crowd->lfs, crowd->corpus, crowd->candidates, crowd->cardinality);
  if (!crowd_snapshot.ok()) {
    std::fprintf(stderr, "crowd training failed: %s\n",
                 crowd_snapshot.status().ToString().c_str());
    return 1;
  }
  std::printf("\nCrowd task: %zu items, %zu workers, K = %d "
              "(Dawid-Skene fit + DAWD capture in %.2fs, %zu wire bytes)\n",
              crowd->candidates.size(), crowd->lfs.size(),
              crowd->cardinality, crowd_train_timer.ElapsedSeconds(),
              SerializeSnapshot(*crowd_snapshot).size());

  constexpr size_t kCrowdBatchSize = 128;
  constexpr int kCrowdCallers = 4;
  constexpr int kCrowdRounds = 6;
  constexpr int kCrowdTrials = 4;  // Trial 0 is a discarded warmup.
  std::vector<std::vector<Candidate>> crowd_batches;
  for (size_t begin = 0; begin < crowd->candidates.size();
       begin += kCrowdBatchSize) {
    size_t end = std::min(begin + kCrowdBatchSize, crowd->candidates.size());
    crowd_batches.emplace_back(crowd->candidates.begin() + begin,
                               crowd->candidates.begin() + end);
  }
  auto run_crowd_callers =
      [&](const std::function<bool(const std::vector<Candidate>&)>& label)
      -> double {
    WallTimer wall;
    std::vector<std::thread> callers;
    std::atomic<bool> failed{false};
    for (int t = 0; t < kCrowdCallers; ++t) {
      callers.emplace_back([&, t] {
        for (int round = 0; round < kCrowdRounds; ++round) {
          for (size_t b = static_cast<size_t>(t); b < crowd_batches.size();
               b += static_cast<size_t>(kCrowdCallers)) {
            if (!label(crowd_batches[b])) failed.store(true);
          }
        }
      });
    }
    for (auto& th : callers) th.join();
    if (failed.load()) {
      std::fprintf(stderr, "K-class serving failed\n");
      std::abort();
    }
    size_t served = 0;
    for (const auto& batch : crowd_batches) served += batch.size();
    return static_cast<double>(served) * kCrowdRounds /
           wall.ElapsedSeconds();
  };

  double kclass_unsharded_cps = 0.0;
  std::vector<std::pair<size_t, double>> kclass_sharded_cps;
  for (size_t shards : kShardCounts) kclass_sharded_cps.emplace_back(shards, 0.0);
  for (int trial = 0; trial < kCrowdTrials; ++trial) {
    {
      LabelService::Options direct_options;
      direct_options.num_threads = 1;
      auto direct =
          LabelService::Create(*crowd_snapshot, crowd->lfs, direct_options);
      if (!direct.ok()) {
        std::fprintf(stderr, "K-class service creation failed: %s\n",
                     direct.status().ToString().c_str());
        return 1;
      }
      double cps = run_crowd_callers([&](const std::vector<Candidate>& batch) {
        LabelRequest request;
        request.corpus = &crowd->corpus;
        request.candidates = &batch;
        return direct->Label(request).ok();
      });
      if (trial > 0) kclass_unsharded_cps = std::max(kclass_unsharded_cps, cps);
    }
    for (size_t c = 0; c < kShardCounts.size(); ++c) {
      ShardRouter::Options router_options;
      router_options.num_shards = kShardCounts[c];
      router_options.service.num_threads = 1;
      auto router =
          ShardRouter::Create(*crowd_snapshot, crowd->lfs, router_options);
      if (!router.ok()) {
        std::fprintf(stderr, "K-class router creation failed: %s\n",
                     router.status().ToString().c_str());
        return 1;
      }
      double cps = run_crowd_callers([&](const std::vector<Candidate>& batch) {
        LabelRequest request;
        request.corpus = &crowd->corpus;
        request.candidates = &batch;
        return router->Label(request).ok();
      });
      if (trial > 0) {
        kclass_sharded_cps[c].second =
            std::max(kclass_sharded_cps[c].second, cps);
      }
    }
  }

  TablePrinter kclass({"Config", "cand/s (wall)", "Vs unsharded"});
  kclass.AddRow({"unsharded direct",
                 TablePrinter::Cell(kclass_unsharded_cps, 0), "1.00"});
  for (auto& [shards, cps] : kclass_sharded_cps) {
    kclass.AddRow({"router, " + std::to_string(shards) + " shard" +
                       (shards == 1 ? "" : "s"),
                   TablePrinter::Cell(cps, 0),
                   TablePrinter::Cell(cps / kclass_unsharded_cps, 2)});
  }
  std::printf("\nK-class serving (K=%d, %d concurrent callers, batch=%zu, "
              "best of %d trials after warmup):\n%s",
              crowd->cardinality, kCrowdCallers, kCrowdBatchSize,
              kCrowdTrials - 1, kclass.ToString().c_str());

  // ---- Alternating sets (A/B/A/B), 4 concurrent callers sharing one
  // service. Two fixed 1024-candidate batches alternate; the multi-set
  // cache keeps BOTH sets resident, so every request after the first cycle
  // reuses all of its columns. Best-of after a discarded warmup. There is
  // no uncached row: with concurrent callers, dropping the cache before a
  // request also drops the other callers' columns mid-flight. ----
  constexpr size_t kAltBatchSize = 1024;
  constexpr int kAltCallers = 4;
  constexpr int kAltRounds = 8;
  constexpr int kAltTrials = 4;  // Trial 0 is a discarded warmup.
  std::vector<Candidate> alt_a(task->candidates.begin(),
                               task->candidates.begin() + kAltBatchSize);
  std::vector<Candidate> alt_b(task->candidates.begin() + kAltBatchSize,
                               task->candidates.begin() + 2 * kAltBatchSize);
  auto run_alternating = [&](LabelService& alt_service) -> double {
    WallTimer wall;
    std::vector<std::thread> callers;
    std::atomic<bool> failed{false};
    for (int t = 0; t < kAltCallers; ++t) {
      callers.emplace_back([&, t] {
        for (int round = 0; round < kAltRounds; ++round) {
          for (const auto* batch : {&alt_a, &alt_b}) {
            LabelRequest request;
            request.corpus = &task->corpus;
            request.candidates = batch;
            if (!alt_service.Label(request).ok()) failed.store(true);
          }
        }
      });
    }
    for (auto& th : callers) th.join();
    if (failed.load()) {
      std::fprintf(stderr, "alternating-set serving failed\n");
      std::abort();
    }
    return static_cast<double>(2 * kAltBatchSize) * kAltRounds *
           kAltCallers / wall.ElapsedSeconds();
  };
  double alt_cached_cps = 0.0;
  for (int trial = 0; trial < kAltTrials; ++trial) {
    LabelService::Options alt_options;
    // The 4 callers provide the concurrency; serial per-request apply keeps
    // intra-request parallelism out of the measurement.
    alt_options.num_threads = 1;
    auto alt_service = LabelService::Create(*snapshot, task->lfs, alt_options);
    if (!alt_service.ok()) {
      std::fprintf(stderr, "service creation failed: %s\n",
                   alt_service.status().ToString().c_str());
      return 1;
    }
    double cps = run_alternating(*alt_service);
    if (trial > 0) alt_cached_cps = std::max(alt_cached_cps, cps);
  }
  // Column reuse on the SECOND A/B cycle, measured single-threaded on a
  // fresh service: cycle 1 computes both sets' columns, cycle 2 must reuse
  // them all (the acceptance bar for the multi-set cache).
  double second_cycle_reuse = 0.0;
  {
    auto reuse_service = LabelService::Create(*snapshot, task->lfs, {});
    if (!reuse_service.ok()) {
      std::fprintf(stderr, "service creation failed: %s\n",
                   reuse_service.status().ToString().c_str());
      return 1;
    }
    auto serve_cycle = [&] {
      for (const auto* batch : {&alt_a, &alt_b}) {
        LabelRequest request;
        request.corpus = &task->corpus;
        request.candidates = batch;
        if (!reuse_service->Label(request).ok()) std::abort();
      }
    };
    serve_cycle();
    ServiceStats after_first = reuse_service->stats();
    serve_cycle();
    ServiceStats after_second = reuse_service->stats();
    double reused = static_cast<double>(after_second.lf_columns_reused -
                                        after_first.lf_columns_reused);
    double computed = static_cast<double>(after_second.lf_columns_computed -
                                          after_first.lf_columns_computed);
    second_cycle_reuse =
        reused + computed > 0.0 ? reused / (reused + computed) : 0.0;
  }
  std::printf("\nAlternating sets A/B (%d concurrent callers, batch=%zu, "
              "best of %d trials after warmup): %.0f cand/s (wall), "
              "second-cycle column reuse %.1f%%\n",
              kAltCallers, kAltBatchSize, kAltTrials - 1, alt_cached_cps,
              100.0 * second_cycle_reuse);

  // ---- Append-only candidate stream: each request is the full log so
  // far, grown by 256 candidates per step. The cache recognizes the cached
  // prefix by its fingerprint chain and computes only the tail rows; the
  // uncached row drops the cache before each request, so every step
  // re-applies every LF to every row. Fresh services per trial so each
  // trial serves a cold stream. ----
  constexpr size_t kStreamStart = 512;
  constexpr size_t kStreamStep = 256;
  constexpr int kStreamTrials = 4;  // Trial 0 is a discarded warmup.
  std::vector<std::vector<Candidate>> stream_prefixes;
  for (size_t rows = kStreamStart; rows <= task->candidates.size();
       rows += kStreamStep) {
    stream_prefixes.emplace_back(task->candidates.begin(),
                                 task->candidates.begin() + rows);
  }
  double stream_cached_s = 0.0;
  double stream_nocache_s = 0.0;
  uint64_t stream_appended_rows = 0;
  for (int trial = 0; trial < kStreamTrials; ++trial) {
    for (bool cached : {true, false}) {
      LabelService::Options stream_options;
      // Both configs apply serially: a single-caller stream has no request
      // overlap, so equal threads isolate the cache effect (tail-only
      // computation) from intra-request parallelism.
      stream_options.num_threads = 1;
      auto stream_service =
          LabelService::Create(*snapshot, task->lfs, stream_options);
      if (!stream_service.ok()) {
        std::fprintf(stderr, "service creation failed: %s\n",
                     stream_service.status().ToString().c_str());
        return 1;
      }
      WallTimer stream_timer;
      for (const auto& prefix : stream_prefixes) {
        LabelRequest request;
        request.corpus = &task->corpus;
        request.candidates = &prefix;
        if (!cached) stream_service->InvalidateCache();
        if (!stream_service->Label(request).ok()) {
          std::fprintf(stderr, "append-stream serving failed\n");
          return 1;
        }
      }
      double seconds = stream_timer.ElapsedSeconds();
      if (trial == 0) continue;  // Warmup.
      double& slot = cached ? stream_cached_s : stream_nocache_s;
      slot = slot == 0.0 ? seconds : std::min(slot, seconds);
      if (cached) {
        stream_appended_rows = stream_service->stats().cache_appended_rows;
      }
    }
  }
  TablePrinter stream({"Config", "Wall-clock s", "Vs uncached"});
  stream.AddRow({"cached (extend tails)",
                 TablePrinter::Cell(stream_cached_s, 4),
                 TablePrinter::Cell(stream_cached_s / stream_nocache_s, 2)});
  stream.AddRow({"uncached (cache dropped per request)",
                 TablePrinter::Cell(stream_nocache_s, 4), "1.00"});
  std::printf("\nAppend-only stream (%zu steps, %zu -> %zu rows, best of %d "
              "trials after warmup; %llu tail rows appended per cached "
              "run):\n%s",
              stream_prefixes.size(), kStreamStart,
              stream_prefixes.back().size(), kStreamTrials - 1,
              static_cast<unsigned long long>(stream_appended_rows),
              stream.ToString().c_str());

  // ---- Iterate loop (§4.1): edit 1 of k LFs, re-label with the column
  // cache. Two kinds of edit: an opaque re-version (same lambda, new
  // fingerprint: one interpreted column) and a declarative edit (a keyword
  // LF rebuilt with one more keyword: one compiled column, plus compiling
  // the edited set). Every time is the median of kEdits warm runs after a
  // discarded warmup run; the full apply starts from an empty cache. ----
  const size_t k = task->lfs.size();
  constexpr int kEdits = 7;
  IncrementalApplier applier(
      IncrementalApplier::Options{.num_threads = 0, .cardinality = 2});
  auto timed_apply = [&](const LabelingFunctionSet& lfs) {
    WallTimer timer;
    auto matrix = applier.Apply(lfs, task->corpus, task->candidates);
    double seconds = timer.ElapsedSeconds();
    if (!matrix.ok()) {
      std::fprintf(stderr, "apply failed: %s\n",
                   matrix.status().ToString().c_str());
      std::exit(1);
    }
    return seconds;
  };
  auto median = [](std::vector<double> values) {
    std::sort(values.begin(), values.end());
    return values[values.size() / 2];
  };
  // The task's LF set with column `target` replaced.
  auto with_edit = [&](size_t target, LabelingFunction replacement) {
    LabelingFunctionSet edited;
    for (size_t j = 0; j < k; ++j) {
      edited.Add(j == target ? replacement : task->lfs.at(j));
    }
    return edited;
  };
  size_t keyword_lf = k;  // First keyword-between LF: the declarative target.
  for (size_t j = 0; j < k && keyword_lf == k; ++j) {
    const auto& spec = task->lfs.at(j).compile_spec();
    if (spec != nullptr && spec->kind == LfSpecKind::kKeywordBetween) {
      keyword_lf = j;
    }
  }

  std::vector<double> full_s, opaque_s, declarative_s;
  for (int run = 0; run <= kEdits; ++run) {
    applier.InvalidateAll();
    double full = timed_apply(task->lfs);
    const size_t target = static_cast<size_t>(run) % k;
    const LabelingFunction& lf = task->lfs.at(target);
    double opaque = timed_apply(with_edit(
        target, LabelingFunction(
                    lf.name(), "edit_" + std::to_string(run),
                    [&lf](const CandidateView& view) { return lf.Apply(view); })));
    double declarative = 0.0;
    if (keyword_lf < k) {
      const LfCompileSpec& spec = *task->lfs.at(keyword_lf).compile_spec();
      std::vector<std::string> keywords = spec.keywords;
      keywords.push_back("edit" + std::to_string(run));
      declarative = timed_apply(with_edit(
          keyword_lf,
          MakeKeywordBetweenLF(task->lfs.at(keyword_lf).name(), keywords,
                               spec.label, spec.stem)));
    }
    if (run == 0) continue;  // Warmup.
    full_s.push_back(full);
    opaque_s.push_back(opaque);
    declarative_s.push_back(declarative);
  }
  const double full_seconds = median(full_s);
  const double opaque_seconds = median(opaque_s);
  const double declarative_seconds = median(declarative_s);
  const double ideal = 1.0 / static_cast<double>(k);

  TablePrinter iterate({"Mode", "Wall-clock s", "Vs full", "Ideal 1/k"});
  iterate.AddRow({"Full apply (k columns)",
                  TablePrinter::Cell(full_seconds, 4), "1.00",
                  TablePrinter::Cell(1.0, 2)});
  iterate.AddRow({"Edit 1 LF, opaque re-version",
                  TablePrinter::Cell(opaque_seconds, 4),
                  TablePrinter::Cell(opaque_seconds / full_seconds, 2),
                  TablePrinter::Cell(ideal, 2)});
  if (keyword_lf < k) {
    iterate.AddRow({"Edit 1 LF, declarative keyword",
                    TablePrinter::Cell(declarative_seconds, 4),
                    TablePrinter::Cell(declarative_seconds / full_seconds, 2),
                    TablePrinter::Cell(ideal, 2)});
  }
  std::printf("\nIncremental re-labeling, k = %zu LFs (median of %d warm "
              "runs):\n%s",
              k, kEdits, iterate.ToString().c_str());
  std::printf("\ncache: %llu columns computed, %llu reused\n",
              static_cast<unsigned long long>(applier.stats().columns_computed),
              static_cast<unsigned long long>(applier.stats().columns_reused));

  // ---- Compiled LF execution (lf/compiled/): the batch Aho-Corasick
  // engine vs per-row interpreted lambdas, same LF set, same candidates,
  // serial apply so the ratio isolates the engine. Output is bitwise
  // identical (pinned by tests/lf_compiled_test.cc); this measures only the
  // speed side of that contract. Best-of after a discarded warmup. ----
  auto lf_program = CompileLfSet(task->lfs);
  double compiled_cps = 0.0;
  double interpreted_cps = 0.0;
  constexpr int kLfTrials = 4;  // Trial 0 is a discarded warmup.
  for (int trial = 0; trial < kLfTrials; ++trial) {
    for (bool use_compiled : {true, false}) {
      LFApplier lf_applier({.num_threads = 1,
                            .cardinality = 2,
                            .use_compiled = use_compiled});
      WallTimer lf_timer;
      if (!lf_applier.Apply(task->lfs, task->corpus, task->candidates).ok()) {
        std::fprintf(stderr, "LF application failed\n");
        return 1;
      }
      double cps = static_cast<double>(task->candidates.size()) /
                   lf_timer.ElapsedSeconds();
      if (trial == 0) continue;  // Warmup.
      double& slot = use_compiled ? compiled_cps : interpreted_cps;
      slot = std::max(slot, cps);
    }
  }
  TablePrinter lfcompile({"Engine", "cand/s", "Vs interpreted"});
  lfcompile.AddRow({"compiled (shared AC scan)",
                    TablePrinter::Cell(compiled_cps, 0),
                    TablePrinter::Cell(compiled_cps / interpreted_cps, 2)});
  lfcompile.AddRow({"interpreted (per-row lambdas)",
                    TablePrinter::Cell(interpreted_cps, 0), "1.00"});
  std::printf("\nCompiled LF execution (%zu/%zu LFs compiled, serial apply, "
              "best of %d trials after warmup):\n%s",
              lf_program->num_compiled(), task->lfs.size(), kLfTrials - 1,
              lfcompile.ToString().c_str());

  if (!json_path.empty()) {
    std::FILE* out = std::fopen(json_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(out,
                 "{\n"
                 "  \"task\": {\"candidates\": %zu, \"lfs\": %zu},\n"
                 "  \"serving\": {\"throughput_cps\": %.1f, \"p50_ms\": %.3f, "
                 "\"p99_ms\": %.3f},\n",
                 task->candidates.size(), task->lfs.size(),
                 stats.throughput_cps, stats.p50_latency_ms,
                 stats.p99_latency_ms);
    std::fprintf(out, "  \"concurrent_cps\": {");
    for (size_t i = 0; i < concurrent_cps.size(); ++i) {
      std::fprintf(out, "%s\"%d\": %.1f", i == 0 ? "" : ", ",
                   concurrent_cps[i].first, concurrent_cps[i].second);
    }
    double best_sharded = 0.0;
    for (auto& [shards, cps] : sharded_cps) {
      best_sharded = std::max(best_sharded, cps);
    }
    std::fprintf(out,
                 "},\n"
                 "  \"sharded\": {\"callers\": %d, \"batch\": %zu, "
                 "\"unsharded_cps\": %.1f, "
                 "\"best_sharded_cps\": %.1f, \"shards_cps\": {",
                 kShardCallers, kShardBatchSize, unsharded_cps, best_sharded);
    for (size_t i = 0; i < sharded_cps.size(); ++i) {
      std::fprintf(out, "%s\"%zu\": %.1f", i == 0 ? "" : ", ",
                   sharded_cps[i].first, sharded_cps[i].second);
    }
    double best_kclass = 0.0;
    for (auto& [shards, cps] : kclass_sharded_cps) {
      best_kclass = std::max(best_kclass, cps);
    }
    std::fprintf(out,
                 "}},\n"
                 "  \"kclass\": {\"cardinality\": %d, \"items\": %zu, "
                 "\"workers\": %zu, \"callers\": %d, \"batch\": %zu, "
                 "\"unsharded_cps\": %.1f, \"best_sharded_cps\": %.1f, "
                 "\"shards_cps\": {",
                 crowd->cardinality, crowd->candidates.size(),
                 crowd->lfs.size(), kCrowdCallers, kCrowdBatchSize,
                 kclass_unsharded_cps, best_kclass);
    for (size_t i = 0; i < kclass_sharded_cps.size(); ++i) {
      std::fprintf(out, "%s\"%zu\": %.1f", i == 0 ? "" : ", ",
                   kclass_sharded_cps[i].first, kclass_sharded_cps[i].second);
    }
    std::fprintf(out,
                 "}},\n"
                 "  \"altset\": {\"callers\": %d, \"batch\": %zu, "
                 "\"cached_cps\": %.1f, \"second_cycle_reuse\": %.4f},\n",
                 kAltCallers, kAltBatchSize, alt_cached_cps,
                 second_cycle_reuse);
    std::fprintf(out,
                 "  \"appendstream\": {\"steps\": %zu, \"rows_final\": %zu, "
                 "\"cached_s\": %.4f, \"nocache_s\": %.4f, "
                 "\"speedup\": %.2f, \"appended_rows\": %llu},\n",
                 stream_prefixes.size(), stream_prefixes.back().size(),
                 stream_cached_s, stream_nocache_s,
                 stream_nocache_s / stream_cached_s,
                 static_cast<unsigned long long>(stream_appended_rows));
    std::fprintf(out,
                 "  \"lfcompile\": {\"compiled_lfs\": %zu, \"total_lfs\": %zu, "
                 "\"compiled_cps\": %.1f, \"interpreted_cps\": %.1f, "
                 "\"speedup\": %.2f},\n",
                 lf_program->num_compiled(), task->lfs.size(), compiled_cps,
                 interpreted_cps, compiled_cps / interpreted_cps);
    std::fprintf(out,
                 "  \"incremental\": {\"full_apply_s\": %.4f, "
                 "\"edit_one_lf_s\": %.4f, \"ratio\": %.3f, "
                 "\"declarative_edit_s\": %.4f, "
                 "\"declarative_ratio\": %.3f, "
                 "\"ideal_ratio\": %.3f}\n}\n",
                 full_seconds, opaque_seconds, opaque_seconds / full_seconds,
                 declarative_seconds, declarative_seconds / full_seconds,
                 ideal);
    std::fclose(out);
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  return 0;
}
