#include "shard/fan_out.h"

#include <algorithm>
#include <memory>
#include <thread>
#include <tuple>
#include <utility>

#include "lf/applier.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "shard/partitioner.h"
#include "util/logging.h"
#include "util/timer.h"

namespace snorkel {

RouterCounters::RouterCounters(const std::string& prefix) {
  auto& registry = obs::MetricsRegistry::Default();
  // Callbacks run at Collect() time, where taking the mutex is fine.
  auto expose = [&](const char* suffix, uint64_t Totals::*member) {
    metric_tokens_.push_back(registry.RegisterCallback(
        prefix + suffix, obs::MetricType::kCounter, [this, member] {
          std::lock_guard<std::mutex> lock(mu_);
          return static_cast<double>(totals_.*member);
        }));
  };
  expose("requests_total", &Totals::requests);
  expose("candidates_total", &Totals::candidates);
  expose("failed_requests_total", &Totals::failed);
  expose("degraded_requests_total", &Totals::degraded);
}

RouterCounters::~RouterCounters() {
  // UnregisterCallback is a barrier: after it returns no callback can be
  // mid-run, so the `this` they capture is safe to destroy.
  auto& registry = obs::MetricsRegistry::Default();
  for (uint64_t token : metric_tokens_) registry.UnregisterCallback(token);
}

RouterCounters::Totals RouterCounters::Read() const {
  std::lock_guard<std::mutex> lock(mu_);
  Totals out = totals_;
  if (has_answered_) {
    out.busy_span_s =
        std::chrono::duration<double>(last_done_ - first_start_).count();
  }
  return out;
}

void RouterCounters::RecordAnswered(
    size_t candidates, bool degraded,
    std::chrono::steady_clock::time_point start) {
  const auto done = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  ++totals_.requests;
  totals_.candidates += candidates;
  if (degraded) ++totals_.degraded;
  if (!has_answered_ || start < first_start_) first_start_ = start;
  if (!has_answered_ || done > last_done_) last_done_ = done;
  has_answered_ = true;
}

void RouterCounters::RecordFailed() {
  std::lock_guard<std::mutex> lock(mu_);
  ++totals_.failed;
}

Result<LabelResponse> FanOutLabel(const LabelRequest& request,
                                  const ShardTier& tier, const ShardCall& call,
                                  RouterCounters& counters) {
  if (request.corpus == nullptr) {
    return Status::InvalidArgument("request missing corpus");
  }
  const bool by_refs = request.candidate_refs != nullptr;
  if (by_refs == (request.candidates != nullptr)) {
    return Status::InvalidArgument(
        "request must set exactly one of candidates / candidate_refs");
  }
  // The whole request's budget starts here, so partitioning and fan-out
  // thread start-up are charged to it.
  const auto start = std::chrono::steady_clock::now();
  const auto deadline =
      tier.request_timeout_ms > 0
          ? start + std::chrono::milliseconds(tier.request_timeout_ms)
          : std::chrono::steady_clock::time_point::max();
  WallTimer timer;

  // Join the caller's trace, or mint one (tracing on only): the root every
  // downstream stage — placement, shard calls, and for remote shards the
  // server-side spans shipped back over TRAC — hangs under.
  obs::TraceContext trace = obs::CurrentTraceContext();
  if (!trace.valid() && obs::TracingEnabled()) trace.trace_id = obs::MintId();
  obs::ScopedTraceContext trace_scope(trace);
  // unique_ptr, not a plain local: the slow-request log at the bottom needs
  // the root CLOSED (recorded into the ring) before it collects the tree.
  auto root_span = std::make_unique<obs::TraceSpan>("router.request");

  // Zero-copy partition: sub-batches borrow the request's candidates and
  // keep the caller-visible indices, so sharding neither copies a candidate
  // nor renumbers what index-dependent LFs observe.
  std::vector<CandidateRef> identity;
  if (!by_refs) identity = MakeCandidateRefs(*request.candidates);
  const std::vector<CandidateRef>& base =
      by_refs ? *request.candidate_refs : identity;
  ShardedRefBatch parts;
  {
    obs::TraceSpan placement_span("router.placement");
    parts = CandidatePartitioner(tier.num_shards).PartitionRefs(base);
    if (placement_span.active()) {
      placement_span.Annotate("rows=" + std::to_string(parts.total));
    }
  }

  std::vector<SubBatch> subs;
  subs.reserve(parts.num_shards());
  for (size_t s = 0; s < parts.num_shards(); ++s) {
    if (parts.shard_rows[s].empty()) continue;
    SubBatch sub;
    sub.shard = s;
    sub.request.corpus = request.corpus;
    sub.request.candidate_refs = &parts.shard_rows[s];
    sub.request.include_votes = request.include_votes;
    sub.request.apply_class_balance = request.apply_class_balance;
    sub.request.cancel = request.cancel;
    sub.deadline = deadline;
    subs.push_back(std::move(sub));
  }

  // ---- Fan out: the caller serves the first sub-batch itself; each other
  // one gets a thread, inheriting the request's trace with the root span as
  // parent. Every result slot is written by exactly one thread and read
  // only after the join. ----
  std::vector<Result<LabelResponse>> results(
      subs.size(), Result<LabelResponse>(Status::Internal("pending")));
  {
    const obs::TraceContext fan_ctx = obs::CurrentTraceContext();
    std::vector<std::thread> threads;
    threads.reserve(subs.empty() ? 0 : subs.size() - 1);
    for (size_t i = 1; i < subs.size(); ++i) {
      threads.emplace_back([&call, &subs, &results, fan_ctx, i] {
        obs::ScopedTraceContext scope(fan_ctx);
        results[i] = call(subs[i]);
        obs::FlushThreadSpans();
      });
    }
    if (!subs.empty()) results[0] = call(subs[0]);
    for (std::thread& thread : threads) thread.join();
  }

  // ---- Collect. ----
  auto shard_name = [&](size_t shard) {
    return "shard " + std::to_string(shard) + "/" +
           std::to_string(tier.num_shards);
  };
  std::vector<ShardOutcome> failed_outcomes;
  std::vector<size_t> served;
  served.reserve(subs.size());
  bool any_failover = false;
  for (size_t i = 0; i < subs.size(); ++i) {
    if (subs[i].attempts.size() > 1) any_failover = true;
    if (results[i].ok()) {
      served.push_back(i);
      continue;
    }
    const Status& cause = results[i].status();
    if (!request.allow_partial) {
      counters.RecordFailed();
      return Status(cause.code(), shard_name(subs[i].shard) +
                                      " failed: " + cause.message());
    }
    failed_outcomes.push_back(
        ShardOutcome{subs[i].shard, subs[i].request.candidate_refs->size(),
                     cause.code(), cause.message(),
                     std::move(subs[i].attempts)});
  }
  if (served.empty() && !failed_outcomes.empty()) {
    // Zero coverage is a failure wearing a success type — fail typed.
    const ShardOutcome& first = failed_outcomes.front();
    counters.RecordFailed();
    return Status(first.code, shard_name(first.shard) +
                                  " failed (no shard survived): " +
                                  first.message);
  }

  // ---- Merge into request order: every per-row value is copied verbatim
  // from its shard's response (one scalar per binary row, one K-vector per
  // K-class row), so the merged batch is bitwise one unsharded pass. ----
  const int cardinality =
      served.empty() ? tier.cardinality : results[served.front()]->cardinality;
  const size_t k = static_cast<size_t>(cardinality);
  LabelResponse response;
  response.cardinality = cardinality;
  if (cardinality == 2) {
    response.posteriors.resize(parts.total);
  } else {
    response.class_posteriors.resize(parts.total * k);
  }
  response.hard_labels.resize(parts.total);
  const bool degraded = !failed_outcomes.empty();
  if (degraded) {
    response.is_partial = true;
    response.covered.assign((parts.total + 63) / 64, 0);
    response.shard_outcomes = std::move(failed_outcomes);
  }
  size_t num_lfs = tier.num_lfs;
  // `Label` alone would name the request-path functions; qualify the type.
  std::vector<std::tuple<size_t, size_t, snorkel::Label>> vote_triplets;
  for (size_t i : served) {
    const LabelResponse& shard_response = *results[i];
    const std::vector<size_t>& to_request =
        parts.shard_to_request[subs[i].shard];
    // Attempt chains surface even on complete responses, so a caller can
    // see that replication saved a sub-batch.
    if (degraded || any_failover) {
      response.shard_outcomes.push_back(
          ShardOutcome{subs[i].shard, to_request.size(), StatusCode::kOk, "",
                       std::move(subs[i].attempts)});
    }
    for (size_t t = 0; t < to_request.size(); ++t) {
      const size_t row = to_request[t];
      if (degraded) response.covered[row / 64] |= uint64_t{1} << (row % 64);
      response.hard_labels[row] = shard_response.hard_labels[t];
      if (cardinality == 2) {
        response.posteriors[row] = shard_response.posteriors[t];
      } else {
        std::copy(shard_response.class_posteriors.begin() + t * k,
                  shard_response.class_posteriors.begin() + (t + 1) * k,
                  response.class_posteriors.begin() + row * k);
      }
    }
    if (request.include_votes) {
      num_lfs = std::max(num_lfs, shard_response.votes.num_lfs());
      for (size_t t = 0; t < to_request.size(); ++t) {
        for (const auto& entry : shard_response.votes.row(t)) {
          vote_triplets.emplace_back(to_request[t], entry.lf, entry.label);
        }
      }
    }
  }
  if (request.include_votes) {
    auto votes = LabelMatrix::FromTriplets(parts.total, num_lfs,
                                           vote_triplets, cardinality);
    if (!votes.ok()) {
      // Unreachable from well-formed shard matrices; surface, don't hide.
      return Status::Internal("vote reassembly failed: " +
                              votes.status().message());
    }
    response.votes = std::move(*votes);
  }
  // Deterministic report order regardless of completion interleaving.
  std::sort(response.shard_outcomes.begin(), response.shard_outcomes.end(),
            [](const ShardOutcome& a, const ShardOutcome& b) {
              return a.shard < b.shard;
            });
  response.latency_ms = timer.ElapsedMillis();
  counters.RecordAnswered(parts.total, degraded, start);

  // Slow-request log: close the root first so the collected tree includes
  // it, then copy (not drain — tools/trace_dump still gets the spans) this
  // trace's spans out of the ring.
  if (root_span->active()) {
    root_span->Annotate("rows=" + std::to_string(parts.total) +
                        (degraded ? " degraded=1" : ""));
  }
  root_span.reset();
  if (trace.valid() && tier.slow_request_log_ms > 0 &&
      response.latency_ms >= static_cast<double>(tier.slow_request_log_ms)) {
    SNORKEL_LOG(Warning) << "slow request: " << response.latency_ms
                         << " ms (threshold " << tier.slow_request_log_ms
                         << " ms) trace=" << trace.trace_id << "\n"
                         << obs::FormatSpanTree(obs::CollectSpans(
                                trace.trace_id, /*drain=*/false));
  }
  return response;
}

}  // namespace snorkel
