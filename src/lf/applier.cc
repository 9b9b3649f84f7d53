#include "lf/applier.h"

#include <algorithm>
#include <atomic>
#include <optional>
#include <tuple>

#include "lf/compiled/engine.h"
#include "lf/compiled/program.h"
#include "util/thread_pool.h"

namespace snorkel {

LFApplier::LFApplier(Options options)
    : options_(options),
      pool_(options.num_threads > 1
                ? std::make_unique<ThreadPool>(options.num_threads)
                : nullptr) {}

LFApplier::LFApplier(LFApplier&&) noexcept = default;
LFApplier& LFApplier::operator=(LFApplier&&) noexcept = default;
LFApplier::~LFApplier() = default;

std::vector<CandidateRef> MakeCandidateRefs(
    const std::vector<Candidate>& candidates) {
  std::vector<CandidateRef> refs(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    refs[i] = CandidateRef{&candidates[i], i};
  }
  return refs;
}

Result<LabelMatrix> ColumnsToLabelMatrix(
    size_t num_rows, const std::vector<const Label*>& columns,
    int cardinality) {
  // FromTriplets re-validates structurally (belt and suspenders).
  std::vector<std::tuple<size_t, size_t, Label>> triplets;
  for (size_t i = 0; i < num_rows; ++i) {
    for (size_t j = 0; j < columns.size(); ++j) {
      if (columns[j][i] != kAbstain) triplets.emplace_back(i, j, columns[j][i]);
    }
  }
  return LabelMatrix::FromTriplets(num_rows, columns.size(), triplets,
                                   cardinality);
}

Result<LabelMatrix> LFApplier::Apply(
    const LabelingFunctionSet& lfs, const Corpus& corpus,
    const std::vector<Candidate>& candidates, const CancelToken* cancel) const {
  return ApplyRefs(lfs, corpus, MakeCandidateRefs(candidates), cancel);
}

Result<LabelMatrix> LFApplier::ApplyRefs(
    const LabelingFunctionSet& lfs, const Corpus& corpus,
    const std::vector<CandidateRef>& rows, const CancelToken* cancel) const {
  const size_t m = rows.size();
  const size_t n = lfs.size();
  std::vector<Label> labels(m * n, kAbstain);
  std::vector<LfColumnFill> fills(n);
  std::vector<const Label*> columns(n);
  for (size_t j = 0; j < n; ++j) {
    fills[j] = LfColumnFill{j, 0, labels.data() + j * m};
    columns[j] = fills[j].labels;
  }
  Status status = FillColumns(lfs, corpus, rows, fills, cancel);
  if (!status.ok()) return status;
  return ColumnsToLabelMatrix(m, columns, options_.cardinality);
}

Status LFApplier::FillColumns(const LabelingFunctionSet& lfs,
                              const Corpus& corpus,
                              const std::vector<CandidateRef>& rows,
                              const std::vector<LfColumnFill>& columns,
                              const CancelToken* cancel) const {
  const size_t m = rows.size();
  size_t begin = m;
  for (const LfColumnFill& column : columns) {
    begin = std::min(begin, column.start_row);
  }
  if (begin >= m) return Status::OK();

  // Compiled dispatch: one serial pass scans every distinct sentence of the
  // rows to compute through the program's shared automata, then the
  // parallel loop below answers compiled columns from the hit stream and
  // only interprets the rest. Bitwise-identical to interpreting, so cached
  // columns stay interchangeable however they were computed.
  std::vector<int32_t> slots(columns.size(), -1);
  std::optional<CompiledLfBatch> batch;
  if (options_.use_compiled) {
    std::shared_ptr<const CompiledLfProgram> program =
        options_.compiled_program &&
                ProgramMatchesLfSet(*options_.compiled_program, lfs)
            ? options_.compiled_program
            : GetOrCompileProgram(lfs);
    bool any_compiled = false;
    for (size_t k = 0; k < columns.size(); ++k) {
      slots[k] = program->slot_of_lf[columns[k].lf];
      any_compiled = any_compiled || slots[k] >= 0;
    }
    if (any_compiled) {
      std::vector<const Candidate*> candidates(m, nullptr);
      for (size_t i = begin; i < m; ++i) candidates[i] = rows[i].candidate;
      batch.emplace(std::move(program), corpus, candidates, begin);
    }
  }

  // Votes are checked against the shared validity rule (core/types.h) as
  // they are produced, so a buggy LF fails the call with ITS name attached
  // (first offender wins) instead of an anonymous matrix-construction error.
  std::atomic<bool> has_error{false};
  std::atomic<size_t> error_lf{0};
  std::atomic<Label> error_label{0};
  // Set iff at least one row was skipped because the caller's deadline
  // expired mid-apply — the signal that the result must be a typed
  // kDeadlineExceeded, not silently truncated columns.
  std::atomic<bool> cancelled{false};
  auto fill_row = [&](size_t i) {
    // Cooperative cancellation, throttled: the token's latch makes the
    // check a relaxed load after first expiry, and probing the clock only
    // every 64 rows keeps the healthy path free of clock reads.
    if ((i & 63) == 0 && cancel != nullptr && cancel->Expired()) {
      cancelled.store(true, std::memory_order_relaxed);
      return;
    }
    if (cancelled.load(std::memory_order_relaxed)) return;
    CandidateView view(&corpus, rows[i].candidate, rows[i].index);
    for (size_t k = 0; k < columns.size(); ++k) {
      const LfColumnFill& column = columns[k];
      if (i < column.start_row) continue;
      Label label = batch && slots[k] >= 0
                        ? batch->Eval(static_cast<uint32_t>(slots[k]), i)
                        : lfs.at(column.lf).Apply(view);
      if (!LabelValidFor(label, options_.cardinality)) {
        bool expected = false;
        if (has_error.compare_exchange_strong(expected, true)) {
          error_lf.store(column.lf);
          error_label.store(label);
        }
        return;
      }
      column.labels[i] = label;
    }
  };
  // Serial inline (asked for, or under 64 rows), this applier's lifetime
  // pool, or the process-wide pool — never a pool spun up per call.
  if (options_.num_threads == 1 || m - begin < 64) {
    for (size_t i = begin; i < m; ++i) fill_row(i);
  } else {
    (pool_ != nullptr ? *pool_ : SharedThreadPool())
        .ParallelFor(begin, m, fill_row);
  }

  if (has_error.load()) {
    return Status::InvalidArgument(
        "LF '" + lfs.at(error_lf.load()).name() + "' voted " +
        std::to_string(error_label.load()) + ", invalid for cardinality " +
        std::to_string(options_.cardinality));
  }
  if (cancelled.load()) {
    return Status::DeadlineExceeded(
        "request deadline expired during LF application; remaining rows "
        "cancelled");
  }
  return Status::OK();
}

}  // namespace snorkel
