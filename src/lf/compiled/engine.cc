#include "lf/compiled/engine.h"

#include <algorithm>
#include <string>
#include <utility>

#include "text/stemmer.h"
#include "util/string_util.h"

namespace snorkel {

namespace {

uint64_t PackInterval(uint32_t a, uint32_t b) {
  return (static_cast<uint64_t>(a) << 32) | b;
}

}  // namespace

CompiledScanCacheStats GetCompiledScanCacheStats() { return {}; }

void ClearCompiledScanCache() {}

CompiledLfBatch::CompiledLfBatch(
    std::shared_ptr<const CompiledLfProgram> program, const Corpus& corpus,
    const std::vector<const Candidate*>& rows, size_t begin)
    : program_(std::move(program)) {
  const CompiledLfProgram& p = *program_;
  num_slots_ = p.entries.size();
  slot_words_ = (num_slots_ + 63) / 64;
  rows_.resize(rows.size());
  Scratch scratch;
  std::unordered_map<uint64_t, uint32_t> scan_index;  // (doc, sent) -> scan
  // Scan index of one sentence, scanning it on first reference.
  auto scan_of = [&](uint32_t doc, uint32_t sent, const Sentence& sentence) {
    uint64_t key = (static_cast<uint64_t>(doc) << 32) | sent;
    auto [it, inserted] = scan_index.try_emplace(
        key, static_cast<uint32_t>(scan_index.size()));
    if (inserted) ScanSentence(sentence, &scratch);
    return it->second;
  };

  for (size_t i = begin; i < rows.size(); ++i) {
    const Candidate& c = *rows[i];
    const Sentence& sentence =
        corpus.document(c.span1.doc).sentences[c.span1.sentence];
    RowCtx& ctx = rows_[i];
    ctx.scan = scan_of(c.span1.doc, c.span1.sentence, sentence);
    ctx.span1_first = c.span1.word_start <= c.span2.word_start;
    const Span& first = ctx.span1_first ? c.span1 : c.span2;
    const Span& second = ctx.span1_first ? c.span2 : c.span1;
    ctx.first_start = first.word_start;
    ctx.first_end = first.word_end;
    ctx.second_start = second.word_start;
    ctx.second_end = second.word_end;
    ctx.sent_size = static_cast<uint32_t>(sentence.words.size());
    if (!p.byte_pattern_slots.empty()) {
      uint32_t hi = std::min(ctx.second_start, ctx.sent_size);
      for (uint32_t t = ctx.first_end; t < hi; ++t) {
        if (!sentence.words[t].empty()) {
          ctx.between_f = t;
          break;
        }
      }
    }
  }

  if (p.has_doc_scope) {
    std::unordered_map<uint32_t, int32_t> doc_blocks;  // doc -> block
    for (size_t i = begin; i < rows.size(); ++i) {
      uint32_t doc_id = rows[i]->span1.doc;
      auto [it, inserted] = doc_blocks.try_emplace(
          doc_id, static_cast<int32_t>(doc_blocks.size()));
      if (inserted) {
        // OR the any-hit bits of every sentence in the document, scanning
        // the ones no row of this batch has referenced yet.
        size_t block = doc_bits_.size();
        doc_bits_.resize(block + slot_words_, 0);
        const Document& doc = corpus.document(doc_id);
        for (size_t s = 0; s < doc.sentences.size(); ++s) {
          uint32_t scan =
              scan_of(doc_id, static_cast<uint32_t>(s), doc.sentences[s]);
          for (size_t w = 0; w < slot_words_; ++w) {
            doc_bits_[block + w] |= any_bits_[scan * slot_words_ + w];
          }
        }
      }
      rows_[i].doc_index = it->second;
    }
  }
  hit_offsets_.push_back(static_cast<uint32_t>(hits_.size()));
}

void CompiledLfBatch::ScanSentence(const Sentence& sentence,
                                   Scratch* scratch) {
  const CompiledLfProgram& p = *program_;
  const size_t any_base = any_bits_.size();
  any_bits_.resize(any_base + slot_words_, 0);
  size_t num_words = sentence.words.size();
  std::vector<std::pair<uint32_t, uint64_t>>& raw = scratch->raw;
  raw.clear();

  auto record = [&](uint32_t slot, uint32_t a, uint32_t b) {
    raw.emplace_back(slot, PackInterval(a, b));
    any_bits_[any_base + (slot >> 6)] |= 1ull << (slot & 63);
  };

  if (!p.token_pattern_slots.empty() && num_words > 0) {
    // Resolve each distinct raw token to its (lower, stem) symbols once per
    // batch; the walks below then touch only u32 ids.
    std::vector<const TokenSymbols*>& symbols = scratch->symbols;
    symbols.resize(num_words);
    for (size_t t = 0; t < num_words; ++t) {
      const std::string& word = sentence.words[t];
      auto it = scratch->memo.find(word);
      if (it == scratch->memo.end()) {
        TokenSymbols resolved;
        std::string lower = ToLower(word);
        uint32_t lower_id = p.LookupSymbol(lower);
        if (lower_id != CompiledLfProgram::kNoSymbol) {
          resolved.lower_encoded = lower_id << 1;
        }
        if (p.needs_stem_pass) {
          uint32_t stem_id = p.LookupSymbol(Stemmer::StemCached(lower));
          if (stem_id != CompiledLfProgram::kNoSymbol) {
            resolved.stem_encoded = (stem_id << 1) | 1u;
          }
        }
        it = scratch->memo.emplace(std::string_view(word), resolved).first;
      }
      symbols[t] = &it->second;
    }

    auto walk = [&](bool stem_domain) {
      uint32_t state = 0;
      for (size_t t = 0; t < num_words; ++t) {
        uint32_t symbol = stem_domain ? symbols[t]->stem_encoded
                                      : symbols[t]->lower_encoded;
        if (symbol == CompiledLfProgram::kNoSymbol) {
          state = 0;  // Unknown symbol: no edge anywhere; reset to root.
          continue;
        }
        state = p.token_ac.Step(state, symbol);
        for (uint32_t o = p.token_ac.out_offsets[state];
             o < p.token_ac.out_offsets[state + 1]; ++o) {
          uint32_t pattern = p.token_ac.out_patterns[o];
          // Token patterns are single symbols, so the hit covers [t, t].
          record(p.token_pattern_slots[pattern], static_cast<uint32_t>(t),
                 static_cast<uint32_t>(t));
        }
      }
    };
    if (p.needs_lower_pass) walk(/*stem_domain=*/false);
    if (p.needs_stem_pass) walk(/*stem_domain=*/true);
  }

  if (!p.byte_pattern_slots.empty() && num_words > 0) {
    // Byte positions in the space-joined lowercased sentence; token t's
    // first byte is byte_starts[t], and the separator before it (t > 0) is
    // byte_starts[t] - 1. Strictly increasing, so interval mapping is a
    // binary search.
    std::vector<size_t>& byte_starts = scratch->byte_starts;
    byte_starts.resize(num_words);
    size_t total = 0;
    for (size_t t = 0; t < num_words; ++t) {
      byte_starts[t] = total + (t > 0 ? 1 : 0);
      total = byte_starts[t] + sentence.words[t].size();
    }

    uint32_t state = 0;
    size_t pos = 0;
    auto feed = [&](char c, uint32_t end_token) {
      state = p.byte_ac.Step(state, static_cast<unsigned char>(c));
      for (uint32_t o = p.byte_ac.out_offsets[state];
           o < p.byte_ac.out_offsets[state + 1]; ++o) {
        uint32_t pattern = p.byte_ac.out_patterns[o];
        size_t start_byte = pos + 1 - p.byte_pattern_lengths[pattern];
        // Token whose range (own bytes plus trailing separator) holds the
        // start byte: a match starting on the separator between u and u+1
        // maps to u, so containment a >= lo keeps separator-led matches
        // that begin inside the between text and drops the one just before
        // it.
        uint32_t a = static_cast<uint32_t>(
            std::upper_bound(byte_starts.begin(), byte_starts.end(),
                             start_byte) -
            byte_starts.begin() - 1);
        record(p.byte_pattern_slots[pattern], a, end_token);
      }
      ++pos;
    };
    for (size_t t = 0; t < num_words; ++t) {
      if (t > 0) feed(' ', static_cast<uint32_t>(t));
      for (char c : sentence.words[t]) {
        feed(c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c,
             static_cast<uint32_t>(t));
      }
    }
  }

  // Group hits by slot (counting sort) behind the hits of earlier scans,
  // then order each slot's hits by (a, b) so containment checks can
  // binary-search on a. The next scan's first offset closes this one's last
  // slot (the constructor appends the final closing offset).
  const uint32_t hit_base = static_cast<uint32_t>(hits_.size());
  const size_t offset_base = hit_offsets_.size();
  std::vector<uint32_t>& cursor = scratch->cursor;
  cursor.assign(num_slots_, 0);
  for (const auto& [slot, packed] : raw) cursor[slot]++;
  uint32_t next = hit_base;
  for (size_t s = 0; s < num_slots_; ++s) {
    uint32_t count = cursor[s];
    hit_offsets_.push_back(next);
    cursor[s] = next;
    next += count;
  }
  hits_.resize(next);
  for (const auto& [slot, packed] : raw) hits_[cursor[slot]++] = packed;
  for (size_t s = 0; s < num_slots_; ++s) {
    std::sort(hits_.begin() + hit_offsets_[offset_base + s],
              hits_.begin() + cursor[s]);
  }
}

bool CompiledLfBatch::HasHitIn(uint32_t scan, uint32_t slot, uint32_t lo,
                               uint32_t hi) const {
  if (lo >= hi) return false;
  const size_t offset = scan * num_slots_ + slot;
  auto begin = hits_.begin() + hit_offsets_[offset];
  auto end = hits_.begin() + hit_offsets_[offset + 1];
  for (auto it = std::lower_bound(begin, end, PackInterval(lo, 0));
       it != end; ++it) {
    uint32_t a = static_cast<uint32_t>(*it >> 32);
    if (a >= hi) break;
    uint32_t b = static_cast<uint32_t>(*it);
    if (b < hi) return true;
  }
  return false;
}

Label CompiledLfBatch::Eval(uint32_t slot, size_t i) const {
  const CompiledLfEntry& e = program_->entries[slot];
  const RowCtx& ctx = rows_[i];
  const uint32_t scan = ctx.scan;
  switch (e.kind) {
    case LfSpecKind::kKeywordBetween: {
      uint32_t hi = std::min(ctx.second_start, ctx.sent_size);
      return HasHitIn(scan, slot, ctx.first_end, hi) ? e.label : kAbstain;
    }
    case LfSpecKind::kDirectionalKeyword: {
      uint32_t hi = std::min(ctx.second_start, ctx.sent_size);
      if (!HasHitIn(scan, slot, ctx.first_end, hi)) return kAbstain;
      return ctx.span1_first ? e.label : e.label_reverse;
    }
    case LfSpecKind::kContextKeyword: {
      uint32_t left_lo =
          ctx.first_start >= e.window ? ctx.first_start - e.window : 0;
      if (HasHitIn(scan, slot, left_lo, ctx.first_start)) return e.label;
      uint32_t right_hi = static_cast<uint32_t>(
          std::min<uint64_t>(static_cast<uint64_t>(ctx.second_end) + e.window,
                             ctx.sent_size));
      return HasHitIn(scan, slot, ctx.second_end, right_hi) ? e.label
                                                            : kAbstain;
    }
    case LfSpecKind::kSentenceKeyword: {
      uint64_t word = any_bits_[scan * slot_words_ + (slot >> 6)];
      return (word >> (slot & 63)) & 1 ? e.label : kAbstain;
    }
    case LfSpecKind::kDocumentKeyword: {
      if (ctx.doc_index < 0) return kAbstain;
      uint64_t word = doc_bits_[ctx.doc_index * slot_words_ + (slot >> 6)];
      return (word >> (slot & 63)) & 1 ? e.label : kAbstain;
    }
    case LfSpecKind::kRegexBetween: {
      if (ctx.between_f == kNoToken) return kAbstain;
      uint32_t hi = std::min(ctx.second_start, ctx.sent_size);
      return HasHitIn(scan, slot, ctx.between_f, hi) ? e.label : kAbstain;
    }
    case LfSpecKind::kDistance: {
      uint64_t distance = ctx.second_start <= ctx.first_end
                              ? 0
                              : ctx.second_start - ctx.first_end;
      return distance > e.max_tokens ? e.label : kAbstain;
    }
  }
  return kAbstain;
}

}  // namespace snorkel
