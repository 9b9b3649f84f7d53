#ifndef SNORKEL_LF_APPLIER_H_
#define SNORKEL_LF_APPLIER_H_

#include <memory>
#include <vector>

#include "core/label_matrix.h"
#include "data/candidate.h"
#include "lf/labeling_function.h"
#include "util/cancellation.h"
#include "util/status.h"

namespace snorkel {

class CompiledLfProgram;
class ThreadPool;

/// One row of an LF-application request, by reference: the candidate to
/// label plus the index CandidateView::index() reports for it. The sharded
/// serving tier fans a request out as refs so sub-batches neither copy
/// candidates nor renumber them — an index-dependent LF (e.g. a crowd-vote
/// LF keyed on the stored row index) sees exactly the indices it would see
/// in the unsharded request.
struct CandidateRef {
  const Candidate* candidate = nullptr;
  size_t index = 0;
};

/// Builds the identity ref view of `candidates` (row i ↦ {&candidates[i], i}).
std::vector<CandidateRef> MakeCandidateRefs(
    const std::vector<Candidate>& candidates);

/// One LF column for LFApplier::FillColumns to compute: LF `lf`'s votes on
/// rows [start_row, rows.size()) land in `labels`, a caller-owned buffer of
/// rows.size() entries. Entries below start_row are left untouched (the
/// column cache copies a cached prefix there before extending it).
struct LfColumnFill {
  size_t lf = 0;
  size_t start_row = 0;
  Label* labels = nullptr;
};

/// Assembles Λ from dense per-LF columns: columns[j] holds num_rows votes
/// of LF j (kAbstain = no entry). The one columns → matrix step shared by
/// LFApplier and the column cache (serve/incremental_applier.h).
Result<LabelMatrix> ColumnsToLabelMatrix(
    size_t num_rows, const std::vector<const Label*>& columns,
    int cardinality);

/// Applies a labeling-function set over a candidate set to produce the label
/// matrix Λ. Candidates are independent, so application is embarrassingly
/// parallel (paper Appendix C "Execution Model"); the applier shards the
/// candidate range over a thread pool, the single-node analog of the paper's
/// multiprocessing / Spark layers.
///
/// FillColumns is the only code that evaluates LFs over rows: Apply fills
/// every column from row 0, and IncrementalApplier computes its cache
/// misses (full columns and append-extended tails) through it, so cached
/// and uncached votes come from one row loop.
class LFApplier {
 public:
  struct Options {
    /// Worker threads; 0 = hardware concurrency, 1 = serial.
    size_t num_threads = 0;
    /// Cardinality of the resulting matrix (2 = binary ±1).
    int cardinality = 2;
    /// Dispatch compilable LFs through the batch engine (lf/compiled/):
    /// one shared automaton scan per distinct sentence instead of
    /// string/stem/hash work per LF per candidate. Output is bitwise
    /// identical to the interpreted path; uncompilable LFs always run
    /// interpreted.
    bool use_compiled = true;
    /// Pre-built program (e.g. mmap-loaded from a snapshot's LFCP section).
    /// Used when it matches the applied LF set fingerprint-for-fingerprint;
    /// otherwise the applier compiles (memoized process-wide) on first use.
    std::shared_ptr<const CompiledLfProgram> compiled_program = nullptr;
  };

  /// `num_threads == 1` applies rows serially inline; `num_threads > 1`
  /// creates this applier's dedicated pool ONCE, here — never per Apply
  /// call (a per-call pool paid thread start-up on every serving request).
  /// `num_threads == 0` routes every apply through the process-wide
  /// SharedThreadPool().
  explicit LFApplier(Options options);
  LFApplier() : LFApplier(Options{}) {}

  // Out-of-line: the dedicated pool is an incomplete type here.
  LFApplier(LFApplier&&) noexcept;
  LFApplier& operator=(LFApplier&&) noexcept;
  ~LFApplier();

  /// Runs every LF on every candidate. Votes outside the valid label range
  /// for the configured cardinality surface as an InvalidArgument error
  /// (a buggy LF should fail loudly, not corrupt Λ).
  ///
  /// `cancel` (optional) is a cooperative cancellation token checked at row
  /// chunk boundaries; an expired token aborts the remaining rows and the
  /// call returns kDeadlineExceeded instead of burning CPU on an answer
  /// nobody is waiting for. Work that completed before expiry still returns
  /// its matrix.
  Result<LabelMatrix> Apply(const LabelingFunctionSet& lfs,
                            const Corpus& corpus,
                            const std::vector<Candidate>& candidates,
                            const CancelToken* cancel = nullptr) const;

  /// Same, over borrowed rows: matrix row i is rows[i].candidate, and each
  /// LF's CandidateView reports rows[i].index. The referenced candidates
  /// must stay alive for the duration of the call.
  Result<LabelMatrix> ApplyRefs(const LabelingFunctionSet& lfs,
                                const Corpus& corpus,
                                const std::vector<CandidateRef>& rows,
                                const CancelToken* cancel = nullptr) const;

  /// Computes the requested columns over rows [start_row, rows.size()) each
  /// (see LfColumnFill) in one pass over the rows. Compilable LFs answer
  /// from one CompiledLfBatch scan of the rows from the smallest start_row
  /// on — the options' pre-built program when it matches `lfs`, else the
  /// process-wide compile — and the rest interpret per row. Returns
  /// InvalidArgument naming the first offending LF for a vote invalid under
  /// the cardinality, and kDeadlineExceeded when `cancel` expired mid-pass
  /// (checked every 64 rows). On error the buffers hold partial votes.
  Status FillColumns(const LabelingFunctionSet& lfs, const Corpus& corpus,
                     const std::vector<CandidateRef>& rows,
                     const std::vector<LfColumnFill>& columns,
                     const CancelToken* cancel = nullptr) const;

 private:
  Options options_;
  /// Dedicated workers when num_threads > 1; null otherwise (serial, or the
  /// shared pool).
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace snorkel

#endif  // SNORKEL_LF_APPLIER_H_
