#ifndef SNORKEL_SHARD_FAN_OUT_H_
#define SNORKEL_SHARD_FAN_OUT_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "serve/label_service.h"
#include "util/status.h"

namespace snorkel {

/// One shard's share of a router request, handed to the router's per-shard
/// call.
struct SubBatch {
  size_t shard = 0;
  /// The caller's request restricted to this shard's rows: candidate_refs
  /// borrow the request's candidates (keeping their caller-visible index);
  /// corpus, include_votes, apply_class_balance and cancel are forwarded.
  LabelRequest request;
  /// Overall deadline of the whole router request, fixed once at Label()
  /// entry; time_point::max() = none.
  std::chrono::steady_clock::time_point deadline;
  /// Replica attempt chain, appended by a call that fails over. More than
  /// one entry surfaces the chain in LabelResponse::shard_outcomes even
  /// when the response is complete.
  std::vector<ShardAttempt> attempts;
};

/// Serves one sub-batch: a local replica call or a remote failover chain.
/// Runs on the caller's thread or on a fan-out thread.
using ShardCall = std::function<Result<LabelResponse>(SubBatch& sub)>;

/// What the fan-out needs to know about a router's tier.
struct ShardTier {
  size_t num_shards = 1;
  /// Response shape when no shard answered (empty or all-failed requests).
  int cardinality = 2;
  /// Lower bound on the LF count of a reassembled vote matrix.
  size_t num_lfs = 0;
  /// Overall per-request budget behind SubBatch::deadline; 0 = none.
  uint64_t request_timeout_ms = 0;
  /// A traced request slower than this logs its span tree at Warning
  /// (util/logging); 0 disables.
  uint64_t slow_request_log_ms = 0;
};

/// Request-level counters of one router, exported through the metrics
/// registry as <prefix>requests_total, <prefix>candidates_total,
/// <prefix>failed_requests_total and <prefix>degraded_requests_total.
class RouterCounters {
 public:
  struct Totals {
    /// Requests answered (complete or degraded).
    uint64_t requests = 0;
    /// Candidates in answered requests.
    uint64_t candidates = 0;
    /// Requests failed whole with a typed shard status.
    uint64_t failed = 0;
    /// allow_partial requests answered with is_partial == true.
    uint64_t degraded = 0;
    /// Wall clock from the earliest answered request's start to the latest
    /// one's end.
    double busy_span_s = 0.0;
  };

  explicit RouterCounters(const std::string& prefix);
  ~RouterCounters();
  RouterCounters(const RouterCounters&) = delete;
  RouterCounters& operator=(const RouterCounters&) = delete;

  Totals Read() const;
  /// One answered request of `candidates` rows that began at `start`.
  void RecordAnswered(size_t candidates, bool degraded,
                      std::chrono::steady_clock::time_point start);
  /// One request failed whole.
  void RecordFailed();

 private:
  mutable std::mutex mu_;
  Totals totals_;
  bool has_answered_ = false;
  std::chrono::steady_clock::time_point first_start_{};
  std::chrono::steady_clock::time_point last_done_{};
  std::vector<uint64_t> metric_tokens_;
};

/// The one partition → fan-out → collect → merge path of both shard routers
/// (DryBell-style scale-out: hash-partition the candidates, label each part
/// on a replica, merge the parts bitwise).
///
///  - Partition: CandidatePartitioner::PartitionRefs, so every router over
///    the same shard count agrees on placement.
///  - Fan-out: the caller's thread serves one non-empty sub-batch, every
///    other one runs `call` on its own std::thread, joined before the
///    merge; a request touching one shard spawns nothing.
///  - Collect: by default any failed sub-batch fails the whole request with
///    a typed status naming the shard. With allow_partial, failed
///    sub-batches become uncovered rows (covered bitmap + ShardOutcome), and
///    only a request with no surviving sub-batch fails.
///  - Merge: every per-row value is copied verbatim from its shard's
///    response into request order (binary scalars or K-vectors), and
///    include_votes reassembles Λ, so the merged answer is bitwise what one
///    unsharded LabelService returns.
///  - Trace: joins the caller's trace context if it has one, otherwise
///    mints a trace when tracing is on; spans router.request (root) and
///    router.placement.
Result<LabelResponse> FanOutLabel(const LabelRequest& request,
                                  const ShardTier& tier, const ShardCall& call,
                                  RouterCounters& counters);

}  // namespace snorkel

#endif  // SNORKEL_SHARD_FAN_OUT_H_
