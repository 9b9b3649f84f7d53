#ifndef SNORKEL_SHARD_SHARD_ROUTER_H_
#define SNORKEL_SHARD_SHARD_ROUTER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "lf/labeling_function.h"
#include "serve/label_service.h"
#include "serve/snapshot.h"
#include "util/status.h"

namespace snorkel {

/// Router-level serving counters, aggregated over every shard replica.
struct RouterStats {
  /// Client requests answered successfully (merged responses).
  uint64_t num_requests = 0;
  /// Candidates labeled across successful requests.
  uint64_t num_candidates = 0;
  /// Requests failed by a shard error (typed status propagated to caller).
  uint64_t failed_requests = 0;
  /// allow_partial requests answered with is_partial == true: at least one
  /// sub-batch failed and its rows were returned uncovered instead of
  /// failing the whole request.
  uint64_t degraded_requests = 0;
  /// Always 0: the router calls its replicas directly, with no queue to
  /// fuse from or fill. Kept because perfbench/serve.cc reports them.
  uint64_t fused_jobs = 0;
  size_t max_queue_depth = 0;
  /// Wall-clock candidates/sec across the whole tier (same definition as
  /// ServiceStats::throughput_cps).
  double throughput_cps = 0.0;
  double busy_span_s = 0.0;
  /// Fleet-level model-pass latency: the per-replica histograms summed
  /// bucket-by-bucket (all replicas share obs::LatencyBucketsMs bounds).
  /// Quantiles over this merged snapshot are the tier's true quantiles.
  obs::HistogramSnapshot latency;
  /// Column-cache effectiveness summed over every replica (each replica's
  /// ServiceStats cache fields; see IncrementalApplier::Stats).
  uint64_t lf_columns_reused = 0;
  uint64_t lf_columns_computed = 0;
  uint64_t cache_set_hits = 0;
  uint64_t cache_set_misses = 0;
  uint64_t cache_bytes = 0;
  uint64_t cache_appended_rows = 0;
  /// Artifact identity every replica serves (replicas of one router always
  /// agree — they were built from the same snapshot): the store version and
  /// canonical content checksum, for rollout observability.
  uint64_t snapshot_version = 0;
  uint64_t snapshot_checksum = 0;
  /// Per-replica serving stats, indexed by shard. A shard's num_requests
  /// counts the sub-batches it served, not client requests.
  std::vector<ServiceStats> per_shard;
};

/// The in-process scale-out tier over N LabelService replicas — the
/// DryBell-shaped layer that turns one-process serving into a horizontally
/// partitioned fleet:
///
///   Label(request)
///     └─ FanOutLabel (shard/fan_out.h), shared with RemoteShardRouter:
///        hash-split candidates into per-shard sub-batches by stable content
///        key, call each shard's replica directly (the caller's thread
///        serves one sub-batch, one std::thread per other shard), merge the
///        responses back into request order
///
/// Guarantees:
///  - Posteriors (the binary scalar AND the K-class per-row class
///    distribution), hard labels, and (with include_votes) the reassembled
///    vote matrix are BITWISE-IDENTICAL to one unsharded LabelService
///    answering the same request: every per-row kernel is content-pure, so
///    neither the partition nor the sub-batch sizes can perturb a single
///    bit.
///  - By default a failed shard fails the whole request with a typed status
///    naming the shard ("shard 2/4: ..."); the router never returns
///    partially-filled data silently. A request may instead opt into typed
///    DEGRADED service with LabelRequest::allow_partial: covered rows are
///    still bitwise-identical to the unsharded answer, failed sub-batches
///    surface as uncovered rows (LabelResponse::covered bitmap +
///    per-sub-batch ShardOutcome), and only a request with NO surviving
///    sub-batch fails outright.
///  - LabelRequest::cancel reaches every replica: a cancelled or expired
///    request fails typed kDeadlineExceeded.
///  - Label() after Shutdown() is a typed FailedPrecondition; requests
///    already inside Label() finish normally.
///
/// Thread-safe: any number of concurrent callers; replicas serve
/// concurrent sub-batches without a service-level lock.
class ShardRouter {
 public:
  struct Options {
    /// Number of LabelService replicas (>= 1).
    size_t num_shards = 2;
    /// Options for each shard's LabelService replica. The column cache
    /// defaults ON (matching LabelService): it is concurrent and
    /// multi-set, and sub-batches fingerprint by content + preserved index,
    /// so repeat/alternating traffic hits per shard.
    LabelService::Options service;
  };

  /// Builds `num_shards` replicas from one snapshot; every replica
  /// validates the live LF set exactly as LabelService::Create does.
  static Result<ShardRouter> Create(const ModelSnapshot& snapshot,
                                    const LabelingFunctionSet& lfs,
                                    Options options);

  /// LoadSnapshotMapped + Create: the artifact is decoded from an mmap'd
  /// view, so a process tree of routers shares one page-cache copy of the
  /// snapshot bytes. `load_info` (optional) reports whether mmap was used.
  static Result<ShardRouter> FromFile(const std::string& path,
                                      const LabelingFunctionSet& lfs,
                                      Options options,
                                      SnapshotLoadInfo* load_info = nullptr);

  ShardRouter(ShardRouter&&) noexcept;
  ShardRouter& operator=(ShardRouter&&) noexcept;
  ~ShardRouter();

  /// Labels one batch through the sharded tier. Blocks until every
  /// sub-batch has been served (or failed).
  Result<LabelResponse> Label(const LabelRequest& request);

  /// Aggregated router + per-shard counters.
  RouterStats stats() const;

  /// Drops every replica's cached LF columns (see
  /// LabelService::InvalidateCache).
  void InvalidateCache();

  /// Makes every later Label() call fail typed kFailedPrecondition.
  /// Idempotent.
  void Shutdown();

  size_t num_shards() const;

 private:
  struct Impl;
  explicit ShardRouter(std::unique_ptr<Impl> impl);

  std::unique_ptr<Impl> impl_;
};

}  // namespace snorkel

#endif  // SNORKEL_SHARD_SHARD_ROUTER_H_
