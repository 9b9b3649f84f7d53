#ifndef SNORKEL_SHARD_PARTITIONER_H_
#define SNORKEL_SHARD_PARTITIONER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "data/candidate.h"
#include "lf/applier.h"
#include "net/placement.h"

namespace snorkel {

/// Stable content key of one candidate: a hash of both spans' coordinates
/// and entity metadata. The same candidate hashes to the same key in every
/// process on every platform (FNV-1a over fixed-width fields), which is what
/// lets a fleet of routers agree on candidate→shard placement without any
/// coordination — the DryBell-style contract for horizontal scale-out.
uint64_t CandidateShardKey(const Candidate& candidate);

/// One request's candidates split into per-shard sub-batches (some may be
/// empty). Rows borrow the request's candidates instead of copying them.
struct ShardedRefBatch {
  std::vector<std::vector<CandidateRef>> shard_rows;
  /// shard_to_request[s][t] = position in the original request of shard
  /// s's t-th row (NOT the ref's LF-visible index).
  std::vector<std::vector<size_t>> shard_to_request;
  size_t total = 0;

  size_t num_shards() const { return shard_rows.size(); }
};

/// Hash-partitions request candidates across `num_shards` shards by
/// CandidateShardKey. Placement is a pure function of candidate content and
/// the shard count: re-partitioning the same candidates — in any order, in
/// any batch composition, on any router — lands every candidate on the same
/// shard. Within a shard, sub-batch rows preserve request order.
class CandidatePartitioner {
 public:
  explicit CandidatePartitioner(size_t num_shards)
      : num_shards_(num_shards == 0 ? 1 : num_shards) {}

  size_t num_shards() const { return num_shards_; }

  /// Shard owning `candidate` — the PRIMARY of the replica placement
  /// (ShardPlacement::PrimaryOf), shared with the failover tier so both
  /// agree on primaries.
  size_t ShardOf(const Candidate& candidate) const {
    return ShardPlacement::PrimaryOf(CandidateShardKey(candidate),
                                     num_shards_);
  }

  /// Splits `rows` into per-shard ref sub-batches that borrow the request's
  /// candidates (16 bytes per row instead of a Candidate copy), plus the
  /// index maps needed to reassemble responses in request order. Each ref
  /// keeps its caller-visible `index` untouched (what the LFs see), while
  /// `shard_to_request` records positions within `rows` (what the merge
  /// scatters by) — the two differ when the caller's refs carry their own
  /// numbering. The refs are valid only while the referenced candidates
  /// are alive and unmoved.
  ShardedRefBatch PartitionRefs(const std::vector<CandidateRef>& rows) const;

 private:
  size_t num_shards_;
};

}  // namespace snorkel

#endif  // SNORKEL_SHARD_PARTITIONER_H_
