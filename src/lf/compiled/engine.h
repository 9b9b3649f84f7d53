#ifndef SNORKEL_LF_COMPILED_ENGINE_H_
#define SNORKEL_LF_COMPILED_ENGINE_H_

#include <cstdint>
#include <memory>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/types.h"
#include "data/candidate.h"
#include "data/context.h"
#include "lf/compiled/program.h"

namespace snorkel {

/// Compiled scans are not cached, so every field is 0. Kept only because
/// the benchmark harness reads these counters; goes with those readers at
/// the next benchmark change.
struct CompiledScanCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  size_t bytes = 0;
  size_t entries = 0;
};

/// Always all-zero (see CompiledScanCacheStats).
CompiledScanCacheStats GetCompiledScanCacheStats();

/// No-op, kept for the benchmark harness (see CompiledScanCacheStats).
void ClearCompiledScanCache();

/// One request's worth of compiled LF execution: scans every distinct
/// (doc, sentence) the candidate batch references through the program's
/// automata exactly once, into flat arrays the batch owns, then answers
/// per-(row, LF) votes with range checks over that hit stream. Nothing
/// outlives the batch and nothing is shared between batches: the only cache
/// in front of LF application is IncrementalApplier's column cache, which
/// keys on Corpus::identity(). Construction is serial and deterministic;
/// Eval() is const and safe to call from any number of threads concurrently
/// — which is how the appliers use it (build once, evaluate rows in
/// parallel).
///
/// Bitwise contract: Eval(slot, i) returns exactly what the interpreted
/// lambda of the LF backing `slot` would return on row i.
class CompiledLfBatch {
 public:
  /// `rows[i]` may be null for i < begin (those rows are never evaluated);
  /// candidates and `corpus` need only outlive the constructor. `begin`
  /// lets the incremental applier skip scan work for cached row prefixes.
  CompiledLfBatch(std::shared_ptr<const CompiledLfProgram> program,
                  const Corpus& corpus,
                  const std::vector<const Candidate*>& rows,
                  size_t begin = 0);

  const CompiledLfProgram& program() const { return *program_; }

  /// Compiled vote of entry `slot` on row i (i >= begin).
  Label Eval(uint32_t slot, size_t i) const;

 private:
  static constexpr uint32_t kNoToken = 0xffffffffu;

  struct RowCtx {
    uint32_t scan = 0;           // index of the row's scanned sentence
    int32_t doc_index = -1;      // block in doc_bits_, or -1
    uint32_t first_start = 0;    // positionally-first span
    uint32_t first_end = 0;
    uint32_t second_start = 0;   // positionally-second span
    uint32_t second_end = 0;
    uint32_t sent_size = 0;
    /// First non-empty token of the between range, or kNoToken. Byte-domain
    /// (regex) containment starts here instead of at first_end: TextBetween
    /// suppresses separators after leading empty tokens, so the joined text
    /// begins at this token's bytes.
    uint32_t between_f = kNoToken;
    bool span1_first = true;
  };

  /// Symbols of one distinct raw token, resolved once per batch.
  struct TokenSymbols {
    uint32_t lower_encoded = CompiledLfProgram::kNoSymbol;
    uint32_t stem_encoded = CompiledLfProgram::kNoSymbol;
  };

  /// Per-batch working memory, reused across the sentences of one batch so
  /// scanning allocates only when a buffer grows.
  struct Scratch {
    std::unordered_map<std::string_view, TokenSymbols> memo;
    std::vector<const TokenSymbols*> symbols;
    std::vector<size_t> byte_starts;
    std::vector<std::pair<uint32_t, uint64_t>> raw;  // (slot, interval)
    std::vector<uint32_t> cursor;
  };

  /// Scans `sentence` and appends it as the next scan index: its hits to
  /// hits_/hit_offsets_ and its any-hit bits to any_bits_.
  void ScanSentence(const Sentence& sentence, Scratch* scratch);
  bool HasHitIn(uint32_t scan, uint32_t slot, uint32_t lo, uint32_t hi) const;

  std::shared_ptr<const CompiledLfProgram> program_;
  size_t num_slots_ = 0;
  size_t slot_words_ = 0;  // u64 words per any-bits block
  /// Hits of scan k, slot s: hits_[hit_offsets_[k * num_slots_ + s] ..
  /// hit_offsets_[k * num_slots_ + s + 1]), each packed (a << 32) | b — the
  /// token interval [a, b] the match covers — sorted ascending. Scans are
  /// laid out back to back, so the trailing entry closes the last one.
  std::vector<uint32_t> hit_offsets_;
  std::vector<uint64_t> hits_;
  /// Per-scan "any hit in this sentence" bits (sentence scope), slot_words_
  /// u64 words per scan.
  std::vector<uint64_t> any_bits_;
  /// Per-doc "any hit in this document" bits (document scope), slot_words_
  /// u64 words per referenced document.
  std::vector<uint64_t> doc_bits_;
  std::vector<RowCtx> rows_;
};

}  // namespace snorkel

#endif  // SNORKEL_LF_COMPILED_ENGINE_H_
