#include "shard/shard_router.h"

#include <atomic>
#include <utility>

#include "obs/trace.h"
#include "shard/fan_out.h"

namespace snorkel {

struct ShardRouter::Impl {
  /// Every replica was built from one snapshot; the fan-out answers empty
  /// requests in its shape (cardinality, LF count).
  ShardTier tier;
  std::vector<std::unique_ptr<LabelService>> replicas;
  std::atomic<bool> shutdown{false};
  RouterCounters counters{"snorkel_router_"};
};

ShardRouter::ShardRouter(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {}

ShardRouter::ShardRouter(ShardRouter&&) noexcept = default;
ShardRouter& ShardRouter::operator=(ShardRouter&&) noexcept = default;
ShardRouter::~ShardRouter() = default;

size_t ShardRouter::num_shards() const { return impl_->replicas.size(); }

Result<ShardRouter> ShardRouter::Create(const ModelSnapshot& snapshot,
                                        const LabelingFunctionSet& lfs,
                                        Options options) {
  if (options.num_shards == 0) {
    return Status::InvalidArgument("ShardRouter needs at least one shard");
  }
  auto impl = std::make_unique<Impl>();
  impl->tier.num_shards = options.num_shards;
  impl->tier.cardinality = snapshot.cardinality;
  impl->tier.num_lfs = lfs.size();
  for (size_t s = 0; s < options.num_shards; ++s) {
    auto replica = LabelService::Create(snapshot, lfs, options.service);
    if (!replica.ok()) return replica.status();
    impl->replicas.push_back(
        std::make_unique<LabelService>(std::move(*replica)));
  }
  return ShardRouter(std::move(impl));
}

Result<ShardRouter> ShardRouter::FromFile(const std::string& path,
                                          const LabelingFunctionSet& lfs,
                                          Options options,
                                          SnapshotLoadInfo* load_info) {
  auto snapshot = LoadSnapshotMapped(path, load_info);
  if (!snapshot.ok()) return snapshot.status();
  return Create(*snapshot, lfs, options);
}

void ShardRouter::Shutdown() {
  if (impl_ != nullptr) impl_->shutdown.store(true, std::memory_order_release);
}

Result<LabelResponse> ShardRouter::Label(const LabelRequest& request) {
  Impl& impl = *impl_;
  if (impl.shutdown.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("router is shut down");
  }
  return FanOutLabel(
      request, impl.tier,
      [&impl](SubBatch& sub) {
        obs::TraceSpan span("shard.serve");
        return impl.replicas[sub.shard]->Label(sub.request);
      },
      impl.counters);
}

void ShardRouter::InvalidateCache() {
  for (auto& replica : impl_->replicas) replica->InvalidateCache();
}

RouterStats ShardRouter::stats() const {
  const Impl& impl = *impl_;
  RouterStats out;
  const RouterCounters::Totals totals = impl.counters.Read();
  out.num_requests = totals.requests;
  out.num_candidates = totals.candidates;
  out.failed_requests = totals.failed;
  out.degraded_requests = totals.degraded;
  out.busy_span_s = totals.busy_span_s;
  out.throughput_cps =
      out.busy_span_s > 0.0
          ? static_cast<double>(out.num_candidates) / out.busy_span_s
          : 0.0;
  // Replicas were built from one snapshot; any replica's identity is the
  // tier's.
  out.snapshot_version = impl.replicas[0]->snapshot_version();
  out.snapshot_checksum = impl.replicas[0]->snapshot_checksum();
  for (const auto& shard : impl.replicas) {
    out.per_shard.push_back(shard->stats());
    const ServiceStats& replica = out.per_shard.back();
    out.lf_columns_reused += replica.lf_columns_reused;
    out.lf_columns_computed += replica.lf_columns_computed;
    out.cache_set_hits += replica.cache_set_hits;
    out.cache_set_misses += replica.cache_set_misses;
    out.cache_bytes += replica.cache_bytes;
    out.cache_appended_rows += replica.cache_appended_rows;
    // Shards share bucket bounds (obs::LatencyBucketsMs), so summing the
    // per-replica histograms gives an exact fleet-level bucket population —
    // the tier's quantiles come from the merged snapshot, not from
    // averaging per-shard quantiles (which would be meaningless).
    out.latency.Merge(replica.latency);
  }
  return out;
}

}  // namespace snorkel
