#include "inputs.h"

#include <algorithm>
#include <memory>
#include <unordered_set>

#include "lf/compiled/spec.h"
#include "lf/declarative.h"
#include "util/random.h"

namespace perfbench {

using snorkel::Candidate;
using snorkel::Corpus;
using snorkel::RelationTask;

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  return snorkel::SplitMix64(seed ^ ((stream + 1) * 0x9e3779b97f4a7c15ULL))
      .Next();
}

std::vector<RequestSpec> PlanRequests(uint64_t seed,
                                      const std::vector<size_t>& corpus_rows,
                                      size_t max_requests) {
  snorkel::SplitMix64 rng(seed);
  std::vector<RequestSpec> plan;
  size_t corpus = 0;
  size_t next_row = 0;
  size_t bulk_slot = 0;
  while (plan.size() < max_requests && corpus < corpus_rows.size()) {
    if (next_row >= corpus_rows[corpus]) {
      ++corpus;
      next_row = 0;
      continue;
    }
    size_t slot = plan.size() % kBulkEvery;
    if (slot == 0) bulk_slot = rng.Next() % kBulkEvery;
    size_t size = slot == bulk_slot
                      ? kBulkMinRows + rng.Next() % (kBulkMaxRows - kBulkMinRows + 1)
                      : 1 + rng.Next() % kInteractiveMaxRows;
    size_t end = std::min(next_row + size, corpus_rows[corpus]);
    plan.push_back({static_cast<uint32_t>(corpus),
                    static_cast<uint32_t>(next_row),
                    static_cast<uint32_t>(end)});
    next_row = end;
  }
  return plan;
}

snorkel::Result<std::vector<RelationTask>> MakeCdrPool(uint64_t seed,
                                                       size_t min_rows) {
  std::vector<RelationTask> pool;
  size_t rows = 0;
  for (uint64_t i = 0; rows < min_rows; ++i) {
    auto task = snorkel::MakeCdrTask(SubSeed(seed, i), /*scale=*/1.0);
    if (!task.ok()) return task.status();
    rows += task->candidates.size();
    pool.push_back(std::move(task).value());
  }
  return pool;
}

Corpus SliceCopy(const Corpus& corpus, const std::vector<Candidate>& rows) {
  std::vector<bool> referenced(corpus.num_documents(), false);
  size_t last = 0;
  for (const Candidate& c : rows) {
    for (uint32_t doc : {c.span1.doc, c.span2.doc}) {
      referenced.at(doc) = true;
      last = std::max<size_t>(last, doc);
    }
  }
  Corpus slice;
  for (size_t d = 0; d <= last && !rows.empty(); ++d) {
    slice.AddDocument(referenced[d] ? corpus.document(d) : snorkel::Document{});
  }
  return slice;
}

std::vector<EditableLf> FindEditableLfs(
    const snorkel::LabelingFunctionSet& lfs) {
  std::vector<EditableLf> editable;
  for (size_t j = 0; j < lfs.size(); ++j) {
    const auto& spec = lfs.at(j).compile_spec();
    if (spec == nullptr || spec->kind != snorkel::LfSpecKind::kKeywordBetween) {
      continue;
    }
    editable.push_back({j, spec->keywords, spec->label, spec->stem});
  }
  return editable;
}

std::vector<Edit> PlanEdits(uint64_t seed,
                            const std::vector<EditableLf>& editable,
                            size_t count) {
  std::vector<Edit> edits;
  if (editable.empty()) return edits;
  snorkel::SplitMix64 rng(seed);
  size_t opaque_slot = 0;
  for (size_t e = 0; e < count; ++e) {
    if (e % kOpaqueEvery == 0) opaque_slot = e + rng.Next() % kOpaqueEvery;
    const EditableLf& target = editable[rng.Next() % editable.size()];
    Edit edit;
    edit.column = target.column;
    edit.opaque = e == opaque_slot;
    edit.keywords = target.keywords;
    edit.label = target.label;
    edit.stem = target.stem;
    std::vector<std::string> donors;
    for (const EditableLf& other : editable) {
      if (other.label != target.label) continue;
      for (const std::string& w : other.keywords) {
        if (std::find(edit.keywords.begin(), edit.keywords.end(), w) ==
            edit.keywords.end()) {
          donors.push_back(w);
        }
      }
    }
    size_t extra = 1 + rng.Next() % 2;
    for (size_t k = 0; k < extra && !donors.empty(); ++k) {
      size_t pick = rng.Next() % donors.size();
      edit.keywords.push_back(donors[pick]);
      donors.erase(donors.begin() + static_cast<long>(pick));
    }
    edits.push_back(std::move(edit));
  }
  return edits;
}

snorkel::LabelingFunction MakeEditedLf(const Edit& edit,
                                       const std::string& name, size_t index) {
  if (!edit.opaque) {
    return snorkel::MakeKeywordBetweenLF(name, edit.keywords, edit.label,
                                         edit.stem);
  }
  auto words = std::make_shared<const std::unordered_set<std::string>>(
      edit.keywords.begin(), edit.keywords.end());
  snorkel::Label label = edit.label;
  return snorkel::LabelingFunction(
      name, "opaque-edit-" + std::to_string(index),
      [words, label](const snorkel::CandidateView& view) {
        for (const std::string& w : view.WordsBetween()) {
          if (words->count(w) != 0) return label;
        }
        return snorkel::kAbstain;
      });
}

}  // namespace perfbench
