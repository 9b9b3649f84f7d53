#ifndef SNORKEL_SERVE_INCREMENTAL_APPLIER_H_
#define SNORKEL_SERVE_INCREMENTAL_APPLIER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/label_matrix.h"
#include "data/candidate.h"
#include "lf/applier.h"
#include "lf/labeling_function.h"
#include "util/cancellation.h"
#include "util/status.h"

namespace snorkel {

/// Content fingerprint of a candidate set, in a form that supports
/// append-only extension. `chain` is the running hash after folding in every
/// row (content + the index the row's CandidateView reports) into a salted
/// seed; `digest` seals the chain with the row count and is the cache key.
/// Two sets with equal digests are assumed to denote the same rows, in the
/// same order, with the same reported indices, under the same salt. Because
/// `chain` does not bake in the length, a set that extends another by
/// appending rows passes through the shorter set's chain value — which is
/// what lets a cache recognize "the same log, grown".
///
/// The hash covers the candidates' span coordinates and entity strings, NOT
/// the corpus text the LFs read — the applier salts the chain with
/// Corpus::identity() so same-shaped candidate sets from different corpora
/// cannot collide. Identity is fresh per corpus object and bumped by every
/// mutable access, so a corpus edited in place, or a new one allocated at a
/// freed corpus's address, fingerprints as a new set.
struct SetFingerprint {
  uint64_t digest = 0;
  uint64_t chain = 0;
  uint64_t count = 0;
};

/// Incremental fingerprint builder: feed rows in order, read the chain at
/// any prefix, seal with Finish(). The applier uses the intermediate chain
/// values to detect that a request's prefix matches an already-cached set.
class CandidateFingerprinter {
 public:
  /// `salt` scopes the fingerprint (the applier passes the corpus
  /// identity); 0 yields the bare content fingerprint.
  explicit CandidateFingerprinter(uint64_t salt = 0);

  /// Folds one row into the chain: the candidate's span content plus the
  /// index its CandidateView will report.
  void Add(const Candidate& candidate, size_t index);

  uint64_t chain() const { return chain_; }
  uint64_t count() const { return count_; }

  /// Seals (chain, count) into the set digest.
  SetFingerprint Finish() const;

 private:
  uint64_t chain_ = 0;
  uint64_t count_ = 0;
};

/// Fingerprints `candidates` as served by the owned-request path (row i
/// reports index i).
SetFingerprint FingerprintCandidates(const std::vector<Candidate>& candidates,
                                     uint64_t salt = 0);

/// Fingerprints a borrowed ref batch (row i reports rows[i].index) — the
/// sharded tier's zero-copy fan-out shape.
SetFingerprint FingerprintCandidateRefs(const std::vector<CandidateRef>& rows,
                                        uint64_t salt = 0);

/// A concurrent, multi-candidate-set LF-column cache for the rapid iteration
/// loop of §4.1 and for repeat serving traffic: label columns are memoized
/// per (LF fingerprint, candidate-set fingerprint) pair, organized as
/// per-set column maps under an LRU over sets with a byte budget. An edit to
/// one LF recomputes only that column; alternating request batches (A/B/A/B)
/// each keep their own columns and hit every time; and a set that extends a
/// cached one by appending rows (the "candidates arrive in a growing log"
/// shape) reuses the cached prefix and computes only the tail rows.
///
/// Thread-safe, read-mostly: cache hits take shared locks and per-entry
/// atomics only — no exclusive lock anywhere on the hit path. Concurrent
/// misses for DIFFERENT columns compute in parallel (each caller claims the
/// columns it will compute); duplicate misses for the SAME (LF, set) key
/// collapse onto one computation — losers wait on the winner's result
/// instead of recomputing. Eviction can race in-flight readers safely:
/// entries are shared_ptr-held and an Apply pins its set for its duration,
/// so the byte budget is soft by at most the pinned sets' size.
class IncrementalApplier {
 public:
  struct Options {
    /// Worker threads for miss computation; 0 = the process-wide shared
    /// pool, 1 = serial, n > 1 = a dedicated pool owned by this applier.
    size_t num_threads = 0;
    /// Cardinality of the resulting matrix (2 = binary ±1).
    int cardinality = 2;
    /// Byte budget over all cached label columns, across candidate sets.
    /// Least-recently-used sets are evicted beyond it; sets pinned by
    /// in-flight Apply calls are never evicted, so the budget is soft by
    /// the pinned working set.
    size_t max_cached_bytes = 64ull << 20;
    /// Compute cache-miss columns of compilable LFs through the batch
    /// engine (lf/compiled/) instead of interpreting per row. Bitwise
    /// identical output, so cached columns stay interchangeable between the
    /// two paths.
    bool use_compiled = true;
    /// Pre-built program (e.g. from a snapshot's LFCP section); see
    /// LFApplier::Options::compiled_program.
    std::shared_ptr<const CompiledLfProgram> compiled_program = nullptr;
  };

  struct Stats {
    /// Columns answered from cache vs recomputed, cumulative. A column
    /// extended from a cached prefix counts as computed (its tail ran).
    uint64_t columns_reused = 0;
    uint64_t columns_computed = 0;
    /// Apply calls whose candidate set was already cached vs not.
    uint64_t set_hits = 0;
    uint64_t set_misses = 0;
    /// Label bytes currently resident across all cached sets.
    uint64_t bytes_cached = 0;
    /// Rows computed as appended tails of a cached prefix (summed per
    /// column): the work the append-only extension did NOT save is
    /// columns_computed-sized; the work it did save is the prefix rows.
    uint64_t appended_rows = 0;
    /// Sets dropped by the byte-budget LRU.
    uint64_t evicted_sets = 0;
  };

  explicit IncrementalApplier(Options options);
  IncrementalApplier() : IncrementalApplier(Options{}) {}

  // Out-of-line: State is an incomplete type here.
  IncrementalApplier(IncrementalApplier&&) noexcept;
  IncrementalApplier& operator=(IncrementalApplier&&) noexcept;
  ~IncrementalApplier();

  /// Produces Λ for (lfs, candidates), reusing cached columns when both the
  /// LF fingerprint and the candidate-set fingerprint match. Same semantics
  /// as LFApplier::Apply: an out-of-range vote surfaces as InvalidArgument
  /// and the offending column is never cached. Safe to call from any number
  /// of threads concurrently.
  ///
  /// `cancel` (optional) is checked at row chunk boundaries of the miss
  /// computation; an expired token abandons the claimed columns (failed off
  /// the map, never poisoning the cache — identical to the InvalidArgument
  /// path) and returns kDeadlineExceeded. Pure cache hits never consult it.
  Result<LabelMatrix> Apply(const LabelingFunctionSet& lfs,
                            const Corpus& corpus,
                            const std::vector<Candidate>& candidates,
                            const CancelToken* cancel = nullptr);

  /// Same, over borrowed index-preserving rows (the sharded tier's fan-out
  /// form). An identity ref view of a vector fingerprints identically to
  /// the owned form, so the two paths share cached columns.
  Result<LabelMatrix> ApplyRefs(const LabelingFunctionSet& lfs,
                                const Corpus& corpus,
                                const std::vector<CandidateRef>& rows,
                                const CancelToken* cancel = nullptr);

  /// Drops every cached set, e.g. to release memory. Not needed for
  /// correctness after a corpus edit: the set fingerprint is salted with
  /// Corpus::identity(), which every mutable corpus access bumps. In-flight
  /// Apply calls finish against their pinned entries and publish into them
  /// harmlessly.
  void InvalidateAll();

  /// Drops the cached column for one LF fingerprint from every set (no-op
  /// when absent).
  void Invalidate(uint64_t fingerprint);

  /// Consistent snapshot of the cumulative counters (atomics; never blocks
  /// behind a miss computation).
  Stats stats() const;

  /// Total cached columns across all sets / currently cached sets.
  size_t cached_columns() const;
  size_t cached_sets() const;

 private:
  struct State;

  /// One request's rows in either form; row i is (candidate(i), index(i)).
  struct RowSource {
    const Candidate* owned = nullptr;      // index(i) == i
    const CandidateRef* refs = nullptr;    // index(i) == refs[i].index
    size_t size = 0;

    const Candidate& candidate(size_t i) const {
      return owned != nullptr ? owned[i] : *refs[i].candidate;
    }
    size_t index(size_t i) const {
      return owned != nullptr ? i : refs[i].index;
    }
  };

  Result<LabelMatrix> ApplyInternal(const LabelingFunctionSet& lfs,
                                    const Corpus& corpus, RowSource rows,
                                    const CancelToken* cancel);

  std::unique_ptr<State> state_;
};

}  // namespace snorkel

#endif  // SNORKEL_SERVE_INCREMENTAL_APPLIER_H_
