#include "shard/partitioner.h"

#include "util/hash.h"

namespace snorkel {

namespace {

uint64_t HashSpanFields(uint64_t h, const Span& span) {
  h = HashCombine(h, span.doc);
  h = HashCombine(h, span.sentence);
  h = HashCombine(h, span.word_start);
  h = HashCombine(h, span.word_end);
  h = HashCombine(h, Fnv1a64(span.entity_type));
  h = HashCombine(h, Fnv1a64(span.canonical_id));
  return h;
}

}  // namespace

uint64_t CandidateShardKey(const Candidate& candidate) {
  uint64_t h = Fnv1a64("shard-key");
  h = HashSpanFields(h, candidate.span1);
  h = HashSpanFields(h, candidate.span2);
  return h;
}

ShardedRefBatch CandidatePartitioner::PartitionRefs(
    const std::vector<CandidateRef>& rows) const {
  ShardedRefBatch batch;
  batch.shard_rows.resize(num_shards_);
  batch.shard_to_request.resize(num_shards_);
  batch.total = rows.size();
  std::vector<size_t> counts(num_shards_, 0);
  std::vector<uint32_t> shard_of(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    shard_of[i] = static_cast<uint32_t>(ShardOf(*rows[i].candidate));
    ++counts[shard_of[i]];
  }
  for (size_t s = 0; s < num_shards_; ++s) {
    batch.shard_rows[s].reserve(counts[s]);
    batch.shard_to_request[s].reserve(counts[s]);
  }
  for (size_t i = 0; i < rows.size(); ++i) {
    size_t s = shard_of[i];
    batch.shard_rows[s].push_back(rows[i]);
    batch.shard_to_request[s].push_back(i);
  }
  return batch;
}

}  // namespace snorkel
