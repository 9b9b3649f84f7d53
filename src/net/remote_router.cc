#include "net/remote_router.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <utility>

#include "net/placement.h"
#include "net/socket.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "shard/fan_out.h"
#include "util/cancellation.h"
#include "util/fault.h"

namespace snorkel {

namespace {

/// Milliseconds left until `deadline`; 0 when no deadline is set OR the
/// deadline is already spent (callers distinguish via kNoDeadline).
uint64_t RemainingMs(SocketDeadline deadline) {
  if (deadline == kNoDeadline) return 0;
  auto now = std::chrono::steady_clock::now();
  if (deadline <= now) return 0;
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now)
          .count());
}

/// May the NEXT replica be tried after this typed failure?
///  - kUnavailable: unreachable / broke mid-exchange / breaker fail-fast.
///    Labeling is read-only and idempotent, so even a mid-exchange break
///    (work possibly dispatched) is safe to retry elsewhere.
///  - kResourceExhausted: backpressure on that replica; another replica
///    has its own queue.
///  - kDeadlineExceeded: only when the overall budget still has time —
///    retrying a spent deadline is dead work.
/// Anything else (kInvalidArgument, a server-side model error, ...) is
/// deterministic: every replica serves the same snapshot and would fail
/// identically, so failover would only mask the real error.
bool RetrySafe(StatusCode code, SocketDeadline overall_deadline) {
  switch (code) {
    case StatusCode::kUnavailable:
    case StatusCode::kResourceExhausted:
      return true;
    case StatusCode::kDeadlineExceeded:
      return overall_deadline == kNoDeadline ||
             std::chrono::steady_clock::now() < overall_deadline;
    default:
      return false;
  }
}

}  // namespace

struct RemoteShardRouter::Impl {
  Options options;
  ShardTier tier;
  ShardPlacement placement;
  RetryBudget budget;
  std::vector<RemoteShardClient> clients;
  RouterCounters counters{"snorkel_remote_router_"};
  std::atomic<uint64_t> failovers{0};
  std::atomic<uint64_t> breaker_open_rejections{0};

  /// End-to-end Label() latency; lock-free Observe on the request path.
  std::shared_ptr<obs::Histogram> latency_hist;
  std::vector<uint64_t> metric_tokens;

  Impl(Options opts, size_t num_shards)
      : options(std::move(opts)),
        placement(num_shards, options.replication),
        budget(options.retry_budget) {
    tier.num_shards = num_shards;
    tier.request_timeout_ms = options.request_timeout_ms;
    tier.slow_request_log_ms = options.slow_request_log_ms;
    obs::RegisterCommonProcessMetrics();
    auto& registry = obs::MetricsRegistry::Default();
    latency_hist = registry.CreateHistogram("snorkel_remote_router_latency_ms",
                                            obs::LatencyBucketsMs());
    metric_tokens.push_back(registry.RegisterCallback(
        "snorkel_remote_router_failovers_total", obs::MetricType::kCounter,
        [this] {
          return static_cast<double>(
              failovers.load(std::memory_order_relaxed));
        }));
    metric_tokens.push_back(registry.RegisterCallback(
        "snorkel_remote_router_breaker_open_rejections_total",
        obs::MetricType::kCounter, [this] {
          return static_cast<double>(
              breaker_open_rejections.load(std::memory_order_relaxed));
        }));
    metric_tokens.push_back(registry.RegisterCallback(
        "snorkel_remote_router_retry_budget_exhausted_total",
        obs::MetricType::kCounter,
        [this] { return static_cast<double>(budget.exhausted()); }));
  }

  ~Impl() {
    // UnregisterCallback is a barrier: after it returns no callback can be
    // mid-run, so the `this` they capture is safe to destroy.
    auto& registry = obs::MetricsRegistry::Default();
    for (uint64_t token : metric_tokens) registry.UnregisterCallback(token);
  }

  Result<LabelResponse> ServeShard(SubBatch& sub);
};

/// One sub-batch's failover chain: the shard's replicas in placement
/// preference order until one answers or the failure is not retry-safe.
Result<LabelResponse> RemoteShardRouter::Impl::ServeShard(SubBatch& sub) {
  const std::vector<uint32_t>& prefs = placement.Preferences(sub.shard);
  const SocketDeadline overall = sub.deadline;
  Result<LabelResponse> result(Status::Internal("no replica tried"));
  // Did the previous attempt actually dispatch work? A breaker fail-fast did
  // not — failing over from it is free (no budget, no backoff), so a steady
  // outage of <= R-1 replicas costs nothing once the breakers open.
  bool prev_dispatched = false;
  uint64_t prev_retry_after_ms = 0;
  for (size_t attempt = 0; attempt < prefs.size(); ++attempt) {
    if (sub.request.cancel != nullptr && sub.request.cancel->Expired()) {
      result = Status::DeadlineExceeded(
          "request cancelled before replica " +
          std::to_string(prefs[attempt]) + " could be tried");
      break;
    }
    if (attempt > 0 && prev_dispatched) {
      if (!budget.TryConsume()) {
        const Status& last = result.status();
        result = Status(last.code(),
                        last.message() + " [retry budget exhausted]");
        break;
      }
      uint64_t delay = BackoffDelayMs(options.backoff, sub.shard,
                                      static_cast<uint32_t>(attempt));
      // An overloaded replica's retry_after hint floors the backoff: under
      // fleet-wide overload the next replica is unlikely to be better off,
      // and honoring the hint is what keeps a retrying router from
      // amplifying the surge it was just shed from.
      delay = std::max(delay, prev_retry_after_ms);
      if (overall != kNoDeadline) delay = std::min(delay, RemainingMs(overall));
      if (delay > 0) {
        obs::TraceSpan backoff_span("router.backoff");
        backoff_span.Annotate("shard=" + std::to_string(sub.shard) +
                              " delay_ms=" + std::to_string(delay));
        std::this_thread::sleep_for(std::chrono::milliseconds(delay));
      }
    }
    uint64_t attempt_budget_ms = options.request_timeout_ms;
    if (overall != kNoDeadline) {
      attempt_budget_ms = RemainingMs(overall);
      if (attempt_budget_ms == 0) {
        result = Status::DeadlineExceeded(
            "request budget spent before replica " +
            std::to_string(prefs[attempt]) + " could be tried");
        break;
      }
    }
    const size_t endpoint = prefs[attempt];
    bool failed_fast = false;
    uint64_t retry_after_ms = 0;
    {
      obs::TraceSpan attempt_span("router.attempt");
      result = clients[endpoint].Label(
          *sub.request.corpus, *sub.request.candidate_refs,
          sub.request.include_votes, sub.request.apply_class_balance,
          attempt_budget_ms, &failed_fast, &retry_after_ms);
      attempt_span.Annotate(
          "shard=" + std::to_string(sub.shard) +
          " endpoint=" + std::to_string(endpoint) + " status=" +
          (result.ok()
               ? std::string("ok")
               : std::to_string(static_cast<int>(result.status().code()))));
    }
    sub.attempts.push_back(ShardAttempt{
        endpoint, result.ok() ? StatusCode::kOk : result.status().code(),
        result.ok() ? std::string() : result.status().message()});
    if (result.ok()) {
      if (attempt > 0) failovers.fetch_add(1, std::memory_order_relaxed);
      break;
    }
    if (failed_fast) {
      breaker_open_rejections.fetch_add(1, std::memory_order_relaxed);
    }
    prev_dispatched = !failed_fast;
    prev_retry_after_ms = retry_after_ms;
    if (!RetrySafe(result.status().code(), overall)) break;
  }
  return result;
}

RemoteShardRouter::RemoteShardRouter(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {}

RemoteShardRouter::~RemoteShardRouter() = default;

size_t RemoteShardRouter::num_shards() const { return impl_->clients.size(); }

RemoteShardClient& RemoteShardRouter::shard(size_t i) {
  return impl_->clients[i];
}

Result<RemoteShardRouter> RemoteShardRouter::Create(
    const std::vector<std::pair<std::string, uint16_t>>& endpoints,
    Options options) {
  if (endpoints.empty()) {
    return Status::InvalidArgument(
        "RemoteShardRouter needs at least one endpoint");
  }
  auto impl = std::make_unique<Impl>(options, endpoints.size());
  impl->clients.reserve(endpoints.size());
  for (const auto& [host, port] : endpoints) {
    RemoteShardClient::Options client_options = options.client;
    client_options.host = host;
    client_options.port = port;
    impl->clients.push_back(
        RemoteShardClient::Create(std::move(client_options)));
  }
  return RemoteShardRouter(std::move(impl));
}

Result<LabelResponse> RemoteShardRouter::Label(const LabelRequest& request) {
  Impl& impl = *impl_;
  // Budget refill: one deposit per router request, however many shards it
  // fans out to (amplification is bounded relative to offered load).
  impl.budget.OnRequest();
  auto response = FanOutLabel(
      request, impl.tier,
      [&impl](SubBatch& sub) { return impl.ServeShard(sub); }, impl.counters);
  if (response.ok()) impl.latency_hist->Observe(response->latency_ms);
  return response;
}

RemoteRouterStats RemoteShardRouter::stats() const {
  const Impl& impl = *impl_;
  RemoteRouterStats out;
  const RouterCounters::Totals totals = impl.counters.Read();
  out.num_requests = totals.requests;
  out.num_candidates = totals.candidates;
  out.failed_requests = totals.failed;
  out.degraded_requests = totals.degraded;
  out.failovers = impl.failovers.load(std::memory_order_relaxed);
  out.retry_budget_exhausted = impl.budget.exhausted();
  out.breaker_open_rejections =
      impl.breaker_open_rejections.load(std::memory_order_relaxed);
  out.faults_injected = fault::InjectedCount();
  out.latency = impl.latency_hist->Snapshot();
  for (const RemoteShardClient& client : impl.clients) {
    out.per_shard.push_back(client.stats());
  }
  return out;
}

}  // namespace snorkel
