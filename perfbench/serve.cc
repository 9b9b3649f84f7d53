// Workload `serve`: one seeded request stream over fresh CDR-shaped
// corpora. The timed path is a LabelService called on one caller thread:
// phase 1 is a closed loop (throughput), phase 2 an open loop at a fixed
// rate (latency); each phase has its own corpora. The traced run also sends
// the streams through an in-process 2-shard ShardRouter and through a
// RemoteShardRouter over two loopback ShardServers, which gives the shard
// and net layers' figures and the wire tax on the same requests.
//
// The router and the wire are not on the timed path because every request
// through them hands work from thread to thread, and on a shared 4-CPU
// container a round trip between two idle threads took 0.1 ms at the median
// and 0.4-0.6 ms at p90: the router's closed-loop throughput moved by 3x with
// the load other tenants put on the host, the serial service's by 1.4-1.6x.
//
// Both phases are cut into short pieces, each served by a freshly built,
// warmed tier with the process-wide scan cache cleared. A long-lived tier
// slows down as its caches fill with insert-only entries (README.md has the
// figures), so a figure taken from one would depend on how long the run
// was; the median over fresh pieces does not.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "inputs.h"
#include "lf/applier.h"
#include "lf/compiled/engine.h"
#include "lf/compiled/program.h"
#include "net/remote_router.h"
#include "net/shard_server.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "serve/label_service.h"
#include "shard/shard_router.h"
#include "util/random.h"
#include "workloads.h"

namespace perfbench {

using snorkel::Candidate;
using snorkel::Corpus;
using snorkel::LabelRequest;
using snorkel::LabelResponse;
using snorkel::RelationTask;
using snorkel::Result;

namespace {

/// Open-loop rates in requests per second, constants recorded in
/// README.md and never derived at run time. On a 4-CPU container the serial
/// service serves ~130k cand/s on one thread (~2000 req/s at ~60 rows per
/// request) and the wire tier ~70k cand/s with two callers, so these rates
/// load them to well under a tenth. At higher shares, a host slowed down by
/// other tenants pushed the open loop into a backlog (p50 from 0.9 ms to
/// over 8 ms at 500 req/s through the router); at this share latency stays
/// close to the service time when capacity falls by half or more.
constexpr double kServeRate = 150.0;
constexpr double kWireRate = 100.0;
/// The amount of work is fixed by --seconds, never by measured speed. p99
/// needs 1000 open-loop requests with ten beyond it.
constexpr double kOpenRequestsPerSecond = 40.0;
constexpr size_t kMinOpenRequests = 1000;
constexpr size_t kOpenSegmentRequests = 250;
/// Caller threads: one for the timed path, whose LabelService runs on the
/// caller's thread, so a request involves no hand-off between threads; two
/// (one per shard, at most nproc) for the router and wire tiers.
constexpr size_t kServiceCallers = 1;
constexpr size_t kRouterCallers = 2;
/// The closed-loop stream is served whole in each round.
constexpr size_t kClosedLoopRows = 30000;
/// Rounds per --second: a round takes ~0.3 s here, plus the set-up of a
/// fresh service; many short rounds spread over the run keep the median
/// clear of a passing stall.
constexpr double kServeRoundsPerSecond = 1.0;
constexpr size_t kMinClosedRounds = 4;
/// Closed-loop requests whose responses are checked against LabelService.
constexpr size_t kCheckedClosedRequests = 64;
/// Open-loop requests re-served through each lower layer in a traced run.
constexpr size_t kProbeRequests = 200;
/// The open-loop generator spins for the last stretch before a due time.
constexpr double kSpinSeconds = 0.002;
/// An open-loop request not sent this long after its segment's schedule
/// ends counts as missed.
constexpr double kSendGraceSeconds = 20.0;

constexpr uint64_t kTrainStream = 4;
constexpr uint64_t kClosedStream = 5;
constexpr uint64_t kOpenStream = 6;
constexpr uint64_t kSampleStream = 7;

/// Requests over a pool of fresh corpora; rows[i] holds request i's rows.
struct Stream {
  std::vector<RelationTask> pool;
  std::vector<RequestSpec> plan;
  std::vector<std::vector<Candidate>> rows;
  size_t total_rows = 0;
};

Stream MakeStream(uint64_t seed, size_t min_rows, size_t max_requests) {
  Stream stream;
  for (;; min_rows += min_rows / 4) {
    auto pool = MakeCdrPool(SubSeed(seed, 0), min_rows);
    if (!pool.ok()) throw std::runtime_error(pool.status().ToString());
    std::vector<size_t> counts;
    for (const RelationTask& t : *pool) counts.push_back(t.candidates.size());
    stream.plan = PlanRequests(SubSeed(seed, 1), counts, max_requests);
    stream.pool = std::move(pool).value();
    if (stream.plan.size() >= max_requests || max_requests == SIZE_MAX) break;
  }
  for (const RequestSpec& r : stream.plan) {
    const auto& c = stream.pool[r.corpus].candidates;
    stream.rows.emplace_back(c.begin() + r.begin, c.begin() + r.end);
    stream.total_rows += r.end - r.begin;
  }
  return stream;
}

template <typename T>
T Unwrap(Result<T> r, const char* what) {
  if (!r.ok()) throw std::runtime_error(std::string(what) + ": " + r.status().ToString());
  return std::move(r).value();
}

/// The routers keep their state behind a pointer whose destructor lives in
/// the library, so they cannot be moved out of the Result their Create
/// returns. Held keeps that Result on the heap and exposes its value.
template <typename T>
struct Held {
  std::unique_ptr<Result<T>> result;
  T* get() const { return result ? &result->value() : nullptr; }
  T* operator->() const { return get(); }
  explicit operator bool() const { return result != nullptr; }
};

template <typename T>
Held<T> Hold(Result<T>* created, const char* what) {
  Held<T> held{std::unique_ptr<Result<T>>(created)};
  if (!created->ok()) {
    throw std::runtime_error(std::string(what) + ": " +
                             created->status().ToString());
  }
  return held;
}

/// The serving tiers: a LabelService called on the caller's thread (the
/// timed path), the in-process 2-shard router, and the remote router over
/// two loopback servers (the last two in traced runs only).
enum class TierKind { kService, kRouter, kWire };

struct Tier {
  Held<snorkel::LabelService> service;
  Held<snorkel::ShardRouter> router;
  std::vector<snorkel::ShardServer> servers;
  Held<snorkel::RemoteShardRouter> remote;

  Result<LabelResponse> Label(const LabelRequest& request) {
    if (service) return service->Label(request);
    return remote ? remote->Label(request) : router->Label(request);
  }

  ~Tier() {
    remote.result.reset();
    for (auto& s : servers) s.Shutdown();
    if (router) router->Shutdown();
  }
};

struct ServeState {
  RelationTask train_task;
  snorkel::ModelSnapshot snapshot;
  Stream closed;
  Stream open;
  std::string snapshot_path;
  /// The service tier built and warmed by set-up; the first closed-loop
  /// round uses it.
  std::unique_ptr<Tier> tier;

  ~ServeState() {
    tier.reset();
    if (!snapshot_path.empty()) std::remove(snapshot_path.c_str());
  }
};

/// Service options with serial pools, for every LabelService the benchmark
/// builds (directly, as router shards, or inside the servers).
snorkel::LabelService::Options SerialService() {
  snorkel::LabelService::Options options;
  options.num_threads = kProgramThreads;
  options.gen.num_threads = kProgramThreads;
  return options;
}

std::unique_ptr<Tier> MakeTier(const ServeState& state, TierKind kind) {
  auto tier = std::make_unique<Tier>();
  const auto& lfs = state.train_task.lfs;
  if (kind == TierKind::kService) {
    tier->service = Hold(new Result<snorkel::LabelService>(
                             snorkel::LabelService::Create(state.snapshot, lfs,
                                                           SerialService())),
                         "service");
  } else if (kind == TierKind::kRouter) {
    // Default options (2 shards, one worker each) with serial replicas.
    snorkel::ShardRouter::Options router_options;
    router_options.service = SerialService();
    tier->router = Hold(new Result<snorkel::ShardRouter>(snorkel::ShardRouter::Create(
                            state.snapshot, lfs, router_options)),
                        "router");
  } else {
    // One serial worker per server, as each in-process shard has.
    snorkel::ShardServer::Options server_options;
    server_options.num_workers = 1;
    server_options.service = SerialService();
    std::vector<std::pair<std::string, uint16_t>> endpoints;
    for (int s = 0; s < 2; ++s) {
      tier->servers.push_back(Unwrap(
          snorkel::ShardServer::Serve(state.snapshot_path, lfs, server_options),
          "server"));
      endpoints.emplace_back("127.0.0.1", tier->servers.back().port());
    }
    snorkel::RemoteShardRouter::Options router_options;
    router_options.request_timeout_ms = 30'000;
    tier->remote = Hold(new Result<snorkel::RemoteShardRouter>(
                            snorkel::RemoteShardRouter::Create(endpoints, router_options)),
                        "remote router");
  }
  // Warm-up on the training corpus (not part of either stream): threads,
  // pooled connections and the compiled program are live before timing.
  const auto& cands = state.train_task.candidates;
  for (size_t begin = 0; begin + 64 <= cands.size() && begin < 64 * 8;
       begin += 64) {
    std::vector<Candidate> batch(cands.begin() + begin,
                                 cands.begin() + begin + 64);
    LabelRequest request;
    request.corpus = &state.train_task.corpus;
    request.candidates = &batch;
    Unwrap(tier->Label(request), "warm-up");
  }
  return tier;
}

/// A fresh tier, with the process-wide scan cache emptied too: on the wire
/// every request decodes into a new corpus, so that cache gains an entry
/// per request and slows down once its byte budget is reached.
std::unique_ptr<Tier> FreshTier(const ServeState& state, TierKind kind) {
  snorkel::ClearCompiledScanCache();
  return MakeTier(state, kind);
}

std::unique_ptr<ServeState> Setup(const RunOptions& options) {
  auto state = std::make_unique<ServeState>();
  state->train_task = Unwrap(
      snorkel::MakeCdrTask(SubSeed(options.seed, kTrainStream), 1.0), "task");
  state->snapshot = Unwrap(
      snorkel::TrainSnapshot(state->train_task, TrainingOptions()), "train");
  state->closed = MakeStream(SubSeed(options.seed, kClosedStream),
                             kClosedLoopRows, SIZE_MAX);
  const size_t open_requests = std::max<size_t>(
      kMinOpenRequests, std::lround(options.seconds * kOpenRequestsPerSecond));
  state->open = MakeStream(SubSeed(options.seed, kOpenStream),
                           open_requests * 70, open_requests);
  if (options.trace) {
    // The loopback ShardServers of the traced run load the snapshot file.
    state->snapshot_path = options.out_dir + "/serve-" +
                           std::to_string(getpid()) + ".snk";
    snorkel::Status saved =
        snorkel::SaveSnapshot(state->snapshot, state->snapshot_path);
    if (!saved.ok()) throw std::runtime_error(saved.ToString());
  }
  state->tier = FreshTier(*state, TierKind::kService);
  return state;
}

LabelRequest MakeRequest(const Corpus* corpus,
                         const std::vector<Candidate>* rows) {
  LabelRequest request;
  request.corpus = corpus;
  request.candidates = rows;
  return request;
}

bool SameResponse(const LabelResponse& a, const LabelResponse& b) {
  return a.posteriors.size() == b.posteriors.size() &&
         (a.posteriors.empty() ||
          std::memcmp(a.posteriors.data(), b.posteriors.data(),
                      a.posteriors.size() * sizeof(double)) == 0) &&
         a.hard_labels == b.hard_labels;
}

double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

// ------------------------------------------------------------- closed loop

struct ClosedRound {
  double seconds = 0.0;
  uint64_t ok = 0;
  uint64_t failed = 0;
  /// Each request's call time, by stream position.
  std::vector<double> call_ms;
};

/// Serves every request of the stream once, from `callers` threads that
/// each send their next request when the previous one returns.
ClosedRound RunClosedRound(Tier& tier, const Stream& stream,
                           const std::vector<const Corpus*>& corpora,
                           size_t callers, const char* span_name,
                           std::vector<std::optional<LabelResponse>>* keep) {
  std::atomic<size_t> next{0};
  std::atomic<uint64_t> ok{0}, failed{0};
  std::vector<double> call_ms(stream.plan.size(), 0.0);
  double start = NowSeconds();
  std::vector<std::thread> threads;
  for (size_t t = 0; t < callers; ++t) {
    threads.emplace_back([&] {
      for (size_t i; (i = next.fetch_add(1)) < stream.plan.size();) {
        LabelRequest request =
            MakeRequest(corpora[stream.plan[i].corpus], &stream.rows[i]);
        ScopedSpan span(span_name, i + 1);
        auto response = tier.Label(request);
        call_ms[i] = span.End();
        if (!response.ok()) {
          failed.fetch_add(1);
          continue;
        }
        ok.fetch_add(1);
        if (keep != nullptr && i < keep->size()) (*keep)[i] = std::move(response).value();
      }
    });
  }
  for (auto& th : threads) th.join();
  return {Since(start), ok.load(), failed.load(), std::move(call_ms)};
}

// --------------------------------------------------------------- open loop

struct OpenLoop {
  std::vector<double> latency_ms;  // From due time; missed = worst case.
  std::vector<double> call_ms;     // Router call alone (sent requests).
  std::vector<double> late_ms;     // Send time minus due time.
  std::vector<std::optional<LabelResponse>> responses;
  PhaseCount phase{"open_loop"};
};

/// Sends requests [begin, end) of the stream, request i at
/// start + (i - begin) / rate, from `callers` threads, whatever happened to
/// earlier requests; latency counts from the due time.
void RunOpenLoop(Tier& tier, const Stream& stream, size_t begin, size_t end,
                 double rate, size_t callers, const char* span_name,
                 OpenLoop* out) {
  const double start = NowSeconds() + 0.02;
  const double hard_stop = start + (end - begin) / rate + kSendGraceSeconds;
  std::atomic<size_t> next{begin};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < callers; ++t) {
    threads.emplace_back([&] {
      for (size_t i; (i = next.fetch_add(1)) < end;) {
        double due = start + (i - begin) / rate;
        // Sleep to just before the due time, then spin: a sleeping thread
        // wakes late by however long the host takes to run it again, and
        // that lateness would count as the program's latency.
        double now = NowSeconds();
        if (now < due - kSpinSeconds) {
          std::this_thread::sleep_for(
              std::chrono::duration<double>(due - kSpinSeconds - now));
        }
        while (NowSeconds() < due) {
        }
        double sent = NowSeconds();
        out->late_ms[i] = (sent - due) * 1e3;
        if (sent > hard_stop) {
          out->latency_ms[i] = (hard_stop - due) * 1e3;
          continue;
        }
        LabelRequest request = MakeRequest(
            &stream.pool[stream.plan[i].corpus].corpus, &stream.rows[i]);
        ScopedSpan span(span_name, i + 1);
        auto response = tier.Label(request);
        out->call_ms[i] = span.End();
        out->latency_ms[i] = (NowSeconds() - due) * 1e3;
        if (response.ok()) out->responses[i] = std::move(response).value();
      }
    });
  }
  for (auto& th : threads) th.join();
  for (size_t i = begin; i < end; ++i) {
    ++out->phase.attempted;
    (out->responses[i].has_value() ? out->phase.succeeded : out->phase.failed) += 1;
  }
}

/// Counters the traced run reads from the open-loop tiers, summed over
/// segments (each segment's tier starts from zero).
struct TierCounters {
  uint64_t columns_reused = 0, columns_computed = 0;
  uint64_t set_hits = 0, set_misses = 0, cache_bytes = 0;
  uint64_t scan_hits = 0, scan_lookups = 0;
  uint64_t queue_rejections = 0, shed = 0;
  uint64_t pooled_reuses = 0, client_requests = 0, limited_rejections = 0;
  uint64_t failovers = 0, client_failures = 0;
  uint64_t fused_jobs = 0, max_queue_depth = 0;
  snorkel::obs::HistogramSnapshot queue_wait;
};

snorkel::obs::HistogramSnapshot QueueWaitHistogram() {
  snorkel::obs::HistogramSnapshot merged;
  for (const auto& sample : snorkel::obs::MetricsRegistry::Default().Collect()) {
    if (sample.name.rfind("snorkel_server_queue_wait_ms_", 0) == 0) {
      merged.Merge(sample.histogram);
    }
  }
  return merged;
}

/// Adds one segment's counters (its tier was fresh, so totals are deltas;
/// the queue-wait histograms are subtracted from `queue_before`).
void AddCounters(Tier& tier, const snorkel::CompiledScanCacheStats& scan_before,
                 const snorkel::obs::HistogramSnapshot& queue_before,
                 TierCounters* c) {
  auto scan = snorkel::GetCompiledScanCacheStats();
  c->scan_hits += scan.hits - scan_before.hits;
  c->scan_lookups += scan.hits - scan_before.hits + scan.misses - scan_before.misses;
  if (tier.service) {
    auto stats = tier.service->stats();
    c->columns_reused += stats.lf_columns_reused;
    c->columns_computed += stats.lf_columns_computed;
    c->set_hits += stats.cache_set_hits;
    c->set_misses += stats.cache_set_misses;
    c->cache_bytes = std::max<uint64_t>(c->cache_bytes, stats.cache_bytes);
  }
  if (tier.router) {
    auto stats = tier.router->stats();
    c->fused_jobs += stats.fused_jobs;
    c->max_queue_depth = std::max<uint64_t>(c->max_queue_depth, stats.max_queue_depth);
  }
  for (auto& s : tier.servers) {
    c->queue_rejections += s.stats().queue_rejections;
    c->shed += s.stats().shed_total;
  }
  if (tier.remote) {
    auto stats = tier.remote->stats();
    c->failovers += stats.failovers;
    for (const auto& shard : stats.per_shard) {
      c->pooled_reuses += shard.pooled_reuses;
      c->client_requests += shard.requests;
      c->limited_rejections += shard.limited_rejections;
      c->client_failures += shard.failures;
    }
    snorkel::obs::HistogramSnapshot wait = QueueWaitHistogram();
    if (wait.counts.size() == queue_before.counts.size()) {
      for (size_t b = 0; b < wait.counts.size(); ++b) {
        wait.counts[b] -= queue_before.counts[b];
      }
      wait.count -= queue_before.count;
      wait.sum -= queue_before.sum;
    }
    c->queue_wait.Merge(wait);
  }
}

uint64_t Fnv(uint64_t h, const void* data, size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < bytes; ++i) h = (h ^ p[i]) * 0x100000001b3ULL;
  return h;
}

/// Re-serves a seeded sample of open-loop requests through each lower
/// layer, every probe on its own slice copy of the request's corpus:
/// `in_process` and `wire` are the last open-loop tiers of each kind.
void ProbeLayers(ServeState& state, Tier& in_process, Tier& wire,
                 const OpenLoop& open, uint64_t seed, Report* report) {
  const Stream& stream = state.open;
  const auto& lfs = state.train_task.lfs;
  auto service = Unwrap(
      snorkel::LabelService::Create(state.snapshot, lfs, SerialService()),
      "probe service");
  snorkel::ShardRouter* router = in_process.router.get();
  snorkel::LFApplier applier(snorkel::LFApplier::Options{kProgramThreads, 2});

  std::vector<double> label_ms, apply_ms, predict_ms, router_ms, self_ms,
      tax_ms, enc_req_us, dec_req_us, enc_resp_us, dec_resp_us, compile_ms;
  double req_bytes = 0.0, resp_bytes = 0.0, rows = 0.0;
  uint64_t mismatches = 0;
  snorkel::SplitMix64 rng(SubSeed(seed, kSampleStream));
  for (size_t k = 0; k < kProbeRequests; ++k) {
    size_t i = rng.Next() % stream.plan.size();
    const RelationTask& source = stream.pool[stream.plan[i].corpus];
    const std::vector<Candidate>& batch = stream.rows[i];
    uint64_t id = i + 1;

    Corpus c1 = SliceCopy(source.corpus, batch);
    ScopedSpan label_span("probe.LabelService::Label", id);
    auto direct = service.Label(MakeRequest(&c1, &batch));
    label_ms.push_back(label_span.End());
    if (!direct.ok()) throw std::runtime_error("probe label failed");
    if (open.responses[i] && !SameResponse(*direct, *open.responses[i])) ++mismatches;

    Corpus c2 = SliceCopy(source.corpus, batch);
    ScopedSpan apply_span("probe.LFApplier::Apply", id);
    auto matrix = applier.Apply(lfs, c2, batch);
    apply_ms.push_back(apply_span.End());
    if (!matrix.ok()) throw std::runtime_error("probe apply failed");
    ScopedSpan predict_span("probe.GenerativeModel::PredictProba", id);
    std::vector<double> probs = service.model().PredictProba(*matrix);
    predict_ms.push_back(predict_span.End());

    Corpus c3 = SliceCopy(source.corpus, batch);
    ScopedSpan router_span("probe.ShardRouter::Label", id);
    auto routed = router->Label(MakeRequest(&c3, &batch));
    router_ms.push_back(router_span.End());
    if (!routed.ok()) throw std::runtime_error("probe router failed");
    if (!SameResponse(*direct, *routed)) ++mismatches;
    self_ms.push_back(router_ms.back() - label_ms.back());

    Corpus c4 = SliceCopy(source.corpus, batch);
    ScopedSpan remote_span("probe.RemoteShardRouter::Label", id);
    auto remote = wire.remote->Label(MakeRequest(&c4, &batch));
    double remote_ms = remote_span.End();
    if (!remote.ok()) throw std::runtime_error("probe remote failed");
    if (!SameResponse(*direct, *remote)) ++mismatches;
    tax_ms.push_back(remote_ms - router_ms.back());

    const auto refs = snorkel::MakeCandidateRefs(batch);
    ScopedSpan enc_req("probe.wire.EncodeLabelRequest", id);
    snorkel::Frame req_frame =
        snorkel::EncodeLabelRequest(id, c4, refs, false, true, 0);
    enc_req_us.push_back(enc_req.End() * 1e3);
    ScopedSpan dec_req("probe.wire.DecodeLabelRequest", id);
    auto decoded_req = snorkel::DecodeLabelRequest(req_frame);
    dec_req_us.push_back(dec_req.End() * 1e3);
    ScopedSpan enc_resp("probe.wire.EncodeLabelResponse", id);
    snorkel::Frame resp_frame = snorkel::EncodeLabelResponse(id, *remote);
    enc_resp_us.push_back(enc_resp.End() * 1e3);
    ScopedSpan dec_resp("probe.wire.DecodeLabelResponse", id);
    auto decoded_resp = snorkel::DecodeLabelResponse(resp_frame);
    dec_resp_us.push_back(dec_resp.End() * 1e3);
    if (!decoded_req.ok() || !decoded_resp.ok() ||
        !SameResponse(*decoded_resp, *remote)) {
      ++mismatches;
    }
    req_bytes += static_cast<double>(snorkel::EncodeFrame(req_frame).size());
    resp_bytes += static_cast<double>(snorkel::EncodeFrame(resp_frame).size());
    rows += static_cast<double>(batch.size());
  }
  for (int r = 0; r < 5; ++r) {
    ScopedSpan compile("probe.CompileLfSet");
    auto program = snorkel::CompileLfSet(lfs);
    compile_ms.push_back(compile.End());
  }
  report->Check("serve.probes_equal_served", mismatches == 0,
                std::to_string(kProbeRequests) + " sampled requests, " +
                    std::to_string(mismatches) + " mismatches across probes");
  report->Set("lf.apply_s", Sum(apply_ms) / 1e3);
  report->SetPercentile("lf.apply_ms_p50", apply_ms, 0.5);
  report->Set("lf.compile_ms", Median(compile_ms));
  report->SetPercentile("core.predict_ms_p50", predict_ms, 0.5);
  report->SetPercentile("serve.label_ms_p50", label_ms, 0.5);
  report->SetPercentile("shard.self_ms_p50", self_ms, 0.5);
  report->SetPercentile("net.tax_ms_p50", tax_ms, 0.5);
  report->SetPercentile("net.wire.encode_req_us_p50", enc_req_us, 0.5);
  report->SetPercentile("net.wire.decode_req_us_p50", dec_req_us, 0.5);
  report->SetPercentile("net.wire.encode_resp_us_p50", enc_resp_us, 0.5);
  report->SetPercentile("net.wire.decode_resp_us_p50", dec_resp_us, 0.5);
  report->Set("net.wire.req_bytes_per_cand", req_bytes / rows);
  report->Set("net.wire.resp_bytes_per_cand", resp_bytes / rows);
}

}  // namespace

namespace {

const char* CallName(TierKind kind) {
  return kind == TierKind::kService  ? "LabelService::Label"
         : kind == TierKind::kRouter ? "ShardRouter::Label"
                                     : "RemoteShardRouter::Label";
}

/// Sizes `open` for the whole open-loop stream.
void StartOpenLoop(const Stream& stream, OpenLoop* open) {
  const size_t n = stream.plan.size();
  open->latency_ms.assign(n, 0.0);
  open->late_ms.assign(n, 0.0);
  open->call_ms.assign(n, -1.0);
  open->responses.assign(n, std::nullopt);
}

/// Serves the open-loop segment that starts at request `begin` at `rate`,
/// on a fresh tier of the given kind; `*last` keeps that tier.
void RunOpenSegment(ServeState& state, TierKind kind, size_t begin, double rate,
                    size_t callers, bool trace, OpenLoop* open,
                    TierCounters* counters, std::unique_ptr<Tier>* last) {
  const size_t end = std::min(state.open.plan.size(), begin + kOpenSegmentRequests);
  last->reset();
  *last = FreshTier(state, kind);
  const auto scan_before = snorkel::GetCompiledScanCacheStats();
  const auto queue_before = QueueWaitHistogram();
  SpanRecorder::Get().set_enabled(trace);
  RunOpenLoop(**last, state.open, begin, end, rate, callers, CallName(kind), open);
  SpanRecorder::Get().set_enabled(false);
  AddCounters(**last, scan_before, queue_before, counters);
}

/// The whole open-loop stream, segment by segment.
void RunOpenPhase(ServeState& state, TierKind kind, double rate, size_t callers,
                  bool trace, OpenLoop* open, TierCounters* counters,
                  std::unique_ptr<Tier>* last) {
  StartOpenLoop(state.open, open);
  for (size_t begin = 0; begin < state.open.plan.size();
       begin += kOpenSegmentRequests) {
    RunOpenSegment(state, kind, begin, rate, callers, trace, open, counters, last);
  }
}

/// Open-loop responses bitwise equal to the reference, counted.
size_t CountEqual(const std::vector<LabelResponse>& reference,
                  const OpenLoop& open) {
  size_t equal = 0;
  for (size_t i = 0; i < reference.size(); ++i) {
    if (open.responses[i] && SameResponse(reference[i], *open.responses[i])) ++equal;
  }
  return equal;
}

/// Fresh copies of a stream's corpora, so no scan cached for an earlier
/// round answers.
std::vector<Corpus> CopyCorpora(const Stream& stream) {
  std::vector<Corpus> copies;
  for (const RelationTask& t : stream.pool) copies.push_back(Corpus(t.corpus));
  return copies;
}

std::vector<const Corpus*> Pointers(const std::vector<Corpus>& corpora) {
  std::vector<const Corpus*> out;
  for (const Corpus& c : corpora) out.push_back(&c);
  return out;
}

}  // namespace

void RunServe(const RunOptions& options, Report* report) {
  std::vector<double> setup_s;
  std::unique_ptr<ServeState> state;
  for (int r = 0; r < (options.trace ? 1 : kServeSetupRepeats); ++r) {
    state.reset();
    double start = NowSeconds();
    state = Setup(options);
    setup_s.push_back(Since(start));
  }
  const Stream& closed_stream = state->closed;
  const Stream& open_stream = state->open;
  report->Note("serve.closed_stream", std::to_string(closed_stream.plan.size()) +
                                          " requests, " +
                                          std::to_string(closed_stream.total_rows) +
                                          " rows");
  report->Note("serve.open_stream",
               std::to_string(open_stream.plan.size()) + " requests, " +
                   std::to_string(open_stream.total_rows) + " rows at " +
                   JsonNumber(kServeRate) + " req/s, segments of " +
                   std::to_string(kOpenSegmentRequests));

  // ---- The two timed phases, interleaved: the closed-loop rounds are
  // spread between the open-loop segments, so that both figures sample the
  // whole run rather than one part of it (the host's speed drifts within
  // a run). Closed loop: every round serves the whole stream on a fresh
  // service, over fresh copies of the corpora (the first round uses
  // set-up's service and the original corpora). Open loop: the fixed rate,
  // each segment on a fresh service.
  const double timed_start = NowSeconds();
  PhaseCount closed{"closed_loop"};
  std::vector<double> cps, round_p50;
  double untraced_s = 0.0, traced_s = 0.0;
  std::vector<std::optional<LabelResponse>> kept(
      std::min(kCheckedClosedRequests, closed_stream.plan.size()));
  size_t rounds = std::max<size_t>(
      kMinClosedRounds, std::lround(options.seconds * kServeRoundsPerSecond));
  if (options.trace) rounds = (rounds + 3) / 4 * 4;
  const size_t n = open_stream.plan.size();
  const size_t segments = (n + kOpenSegmentRequests - 1) / kOpenSegmentRequests;
  OpenLoop open;
  TierCounters counters;
  std::unique_ptr<Tier> service_tier;
  StartOpenLoop(open_stream, &open);
  size_t round = 0;
  for (size_t segment = 0; segment < segments; ++segment) {
    for (; round < rounds * (segment + 1) / segments; ++round) {
      std::unique_ptr<Tier> tier = round == 0 ? std::move(state->tier)
                                              : FreshTier(*state, TierKind::kService);
      std::vector<Corpus> copies;
      std::vector<const Corpus*> corpora;
      if (round == 0) {
        for (const RelationTask& t : closed_stream.pool) corpora.push_back(&t.corpus);
      } else {
        copies = CopyCorpora(closed_stream);
        corpora = Pointers(copies);
      }
      // Traced runs order rounds untraced, traced, traced, untraced, so the
      // drift from round to round cancels out of the overhead estimate.
      bool traced = options.trace && (round % 4 == 1 || round % 4 == 2);
      SpanRecorder::Get().set_enabled(traced);
      ClosedRound r = RunClosedRound(*tier, closed_stream, corpora, kServiceCallers,
                                     "LabelService::Label",
                                     round == 0 ? &kept : nullptr);
      SpanRecorder::Get().set_enabled(false);
      closed.attempted += r.ok + r.failed;
      closed.succeeded += r.ok;
      closed.failed += r.failed;
      cps.push_back(static_cast<double>(closed_stream.total_rows) / r.seconds);
      if (auto p = Percentile(r.call_ms, 0.5)) round_p50.push_back(*p);
      (traced ? traced_s : untraced_s) += r.seconds;
    }
    RunOpenSegment(*state, TierKind::kService, segment * kOpenSegmentRequests,
                   kServeRate, kServiceCallers, options.trace, &open, &counters,
                   &service_tier);
  }
  report->AddPhase(closed);
  report->AddPhase(open.phase);
  report->Note("serve.timed_phases_s", JsonNumber(Since(timed_start)));
  std::string round_list;
  for (double c : cps) {
    if (!round_list.empty()) round_list += ' ';
    round_list += JsonNumber(std::round(c));
  }
  report->Note("serve.round_cps", round_list);
  // Back-to-back requests on a warm service, against the open loop's
  // isolated ones.
  report->Note("serve.closed_p50_ms", JsonNumber(Median(round_p50)));

  // Traced runs only: the same streams through the router and the wire.
  PhaseCount router_closed{"router_closed_loop"};
  OpenLoop router_open, wire_open;
  router_open.phase.name = "router_open_loop";
  wire_open.phase.name = "wire_open_loop";
  TierCounters router_counters, wire_counters;
  std::unique_ptr<Tier> router, wire;
  if (options.trace) {
    // One closed-loop round through the router, for its fusion and queue
    // counters under load.
    std::unique_ptr<Tier> tier = FreshTier(*state, TierKind::kRouter);
    std::vector<Corpus> copies = CopyCorpora(closed_stream);
    SpanRecorder::Get().set_enabled(true);
    ClosedRound r = RunClosedRound(*tier, closed_stream, Pointers(copies),
                                   kRouterCallers, "ShardRouter::Label", nullptr);
    SpanRecorder::Get().set_enabled(false);
    router_closed.attempted = r.ok + r.failed;
    router_closed.succeeded = r.ok;
    router_closed.failed = r.failed;
    report->AddPhase(router_closed);
    const auto scan_before = snorkel::GetCompiledScanCacheStats();
    AddCounters(*tier, scan_before, QueueWaitHistogram(), &router_counters);

    RunOpenPhase(*state, TierKind::kRouter, kServeRate, kRouterCallers,
                 /*trace=*/true, &router_open, &router_counters, &router);
    report->AddPhase(router_open.phase);
    RunOpenPhase(*state, TierKind::kWire, kWireRate, kRouterCallers,
                 /*trace=*/true, &wire_open, &wire_counters, &wire);
    report->AddPhase(wire_open.phase);
    // Retries the caller never sees show up only as latency.
    report->Note("net.open_loop_retries",
                 "failovers=" + std::to_string(wire_counters.failovers) +
                     " client_failures=" +
                     std::to_string(wire_counters.client_failures));
  }

  // ---- Checks, after timing: every open-loop response and a sample of
  // closed-loop responses against a direct LabelService reference.
  auto service = Unwrap(
      snorkel::LabelService::Create(state->snapshot, state->train_task.lfs),
      "reference service");
  uint64_t digest = 0xcbf29ce484222325ULL;
  std::vector<LabelResponse> reference;
  std::vector<double> symmetric;
  std::vector<snorkel::Label> gold;
  for (size_t i = 0; i < n; ++i) {
    const RequestSpec& spec = open_stream.plan[i];
    const RelationTask& source = open_stream.pool[spec.corpus];
    LabelRequest request = MakeRequest(&source.corpus, &open_stream.rows[i]);
    reference.push_back(Unwrap(service.Label(request), "reference label"));
    const LabelResponse& ref = reference.back();
    digest = Fnv(digest, ref.posteriors.data(), ref.posteriors.size() * sizeof(double));
    digest = Fnv(digest, ref.hard_labels.data(),
                 ref.hard_labels.size() * sizeof(snorkel::Label));
    // Label quality as the pipeline scores Gen.: class-symmetric
    // posteriors at 0.5 against gold.
    request.apply_class_balance = false;
    auto sym = Unwrap(service.Label(request), "reference label");
    symmetric.insert(symmetric.end(), sym.posteriors.begin(), sym.posteriors.end());
    gold.insert(gold.end(), source.gold.begin() + spec.begin,
                source.gold.begin() + spec.end);
  }
  std::vector<std::pair<const char*, const OpenLoop*>> loops = {
      {"serve.open_loop_equals_label_service", &open}};
  if (options.trace) {
    loops.push_back({"serve.router_open_loop_equals_label_service", &router_open});
    loops.push_back({"serve.wire_open_loop_equals_label_service", &wire_open});
  }
  for (const auto& [name, loop] : loops) {
    size_t equal = CountEqual(reference, *loop);
    report->Check(name, equal == n,
                  std::to_string(equal) + "/" + std::to_string(n) +
                      " responses bitwise equal");
  }
  uint64_t closed_equal = 0;
  for (size_t i = 0; i < kept.size(); ++i) {
    const RelationTask& source = closed_stream.pool[closed_stream.plan[i].corpus];
    auto ref = Unwrap(service.Label(MakeRequest(&source.corpus, &closed_stream.rows[i])),
                      "reference label");
    if (kept[i] && SameResponse(ref, *kept[i])) ++closed_equal;
  }
  report->Check("serve.closed_loop_sample_equals_label_service",
                closed_equal == kept.size(),
                std::to_string(closed_equal) + "/" + std::to_string(kept.size()) +
                    " responses bitwise equal");
  char hex[32];
  std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(digest));
  report->Note("serve.open_stream_digest", hex);

  if (options.trace) {
    auto sent = [](const OpenLoop& loop) {
      std::vector<double> ms;
      for (double m : loop.call_ms) {
        if (m >= 0.0) ms.push_back(m);
      }
      return ms;
    };
    std::vector<double> router_ms = sent(router_open);
    std::vector<double> remote_ms = sent(wire_open);
    report->SetPercentile("shard.router_ms_p50", router_ms, 0.5);
    report->SetPercentile("shard.router_ms_p99", router_ms, 0.99);
    report->Set("shard.fused_jobs", static_cast<double>(router_counters.fused_jobs));
    report->Set("shard.max_queue_depth",
                static_cast<double>(router_counters.max_queue_depth));
    report->Set("serve.cache.column_reuse",
                Ratio(counters.columns_reused,
                      counters.columns_reused + counters.columns_computed));
    report->Set("serve.cache.set_hit_ratio",
                Ratio(counters.set_hits, counters.set_hits + counters.set_misses));
    report->Set("serve.cache_bytes", static_cast<double>(counters.cache_bytes));
    report->SetPercentile("net.router_ms_p50", remote_ms, 0.5);
    report->SetPercentile("net.router_ms_p99", remote_ms, 0.99);
    report->Set("net.server.queue_wait_ms_p50",
                wire_counters.queue_wait.count == 0
                    ? 0.0
                    : wire_counters.queue_wait.Quantile(0.5));
    report->Set("net.server.queue_rejections",
                static_cast<double>(wire_counters.queue_rejections));
    report->Set("net.server.shed_total", static_cast<double>(wire_counters.shed));
    report->Set("net.client.pooled_reuse_ratio",
                Ratio(wire_counters.pooled_reuses, wire_counters.client_requests));
    report->Set("net.client.limited_rejections",
                static_cast<double>(wire_counters.limited_rejections));
    report->Set("lf.compiled.scan_hit_ratio",
                Ratio(counters.scan_hits, counters.scan_lookups));
    report->Set("core.correlations",
                static_cast<double>(state->snapshot.correlations.size()));
    report->SetPercentile("loadgen.late_p99_ms", open.late_ms, 0.99);
    report->Set("trace.overhead_pct", 100.0 * (traced_s / untraced_s - 1.0));
    SpanRecorder::Get().set_enabled(true);
    ProbeLayers(*state, *router, *wire, open, options.seed, report);
    SpanRecorder::Get().set_enabled(false);
    return;
  }

  // The p50 is taken per segment and the median of those reported: a stall
  // that backs up the generator for one segment leaves it be.
  std::vector<double> segment_p50;
  std::string segment_list;
  for (size_t begin = 0; begin < n; begin += kOpenSegmentRequests) {
    std::vector<double> segment(
        open.latency_ms.begin() + begin,
        open.latency_ms.begin() + std::min(n, begin + kOpenSegmentRequests));
    if (auto p = Percentile(segment, 0.5)) {
      segment_p50.push_back(*p);
      if (!segment_list.empty()) segment_list += ' ';
      segment_list += JsonNumber(*p);
    }
  }
  // Latency by request class, so that a change's effect on the mix can be
  // told apart: interactive (at most kInteractiveMaxRows rows) and bulk.
  std::vector<double> interactive_ms, bulk_ms;
  for (size_t i = 0; i < n; ++i) {
    (open_stream.rows[i].size() <= kInteractiveMaxRows ? interactive_ms : bulk_ms)
        .push_back(open.latency_ms[i]);
  }
  for (const auto& [name, samples] :
       {std::pair{"interactive", &interactive_ms}, std::pair{"bulk", &bulk_ms}}) {
    std::optional<double> p = Percentile(*samples, 0.5);
    report->Note(std::string("latency_p50_ms.") + name,
                 (p ? JsonNumber(*p) : "n/a") + " (" +
                     std::to_string(samples->size()) + " requests)");
  }
  std::optional<double> p50 = Percentile(open.latency_ms, 0.5);
  std::optional<double> p99 = Percentile(open.latency_ms, 0.99);
  std::optional<double> late99 = Percentile(open.late_ms, 0.99);
  report->Set("setup_s", Median(setup_s));
  report->Set("throughput_cps", Median(cps));
  report->Set("op_p50_ms", Median(segment_p50));
  report->Set("label_f1", snorkel::ScoreProbabilistic(symmetric, gold).F1());
  report->Note("serve_cps", JsonNumber(Median(cps)) + " (median of " +
                                std::to_string(rounds) + " rounds)");
  report->Note("serve.segment_p50_ms", segment_list);
  report->Note("latency_p50_ms", p50 ? JsonNumber(*p50) : "n/a");
  report->Note("latency_p99_ms", p99 ? JsonNumber(*p99) : "n/a");
  report->Note("loadgen.late_p99_ms", late99 ? JsonNumber(*late99) : "n/a");
}

}  // namespace perfbench
