#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

// Seeded input generation. Every input a workload feeds the program is a
// pure function of the workload seed: task corpora come from the synth/
// generators, request streams and edit sequences from the plans below.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/types.h"
#include "data/candidate.h"
#include "lf/labeling_function.h"
#include "synth/relation_task.h"
#include "util/status.h"

namespace perfbench {

/// An independent 64-bit seed for one input stream of a workload.
uint64_t SubSeed(uint64_t seed, uint64_t stream);

// ---------------------------------------------------------------- requests

/// One request in every kBulkEvery is bulk (256-1024 rows), at a seeded
/// position within each block; the rest are interactive (1-64 rows). A fixed
/// share, rather than a per-request coin flip, keeps the amount of bulk work
/// in a stream the same from seed to seed. The share and both size ranges
/// are an assumption of this benchmark, not taken from measured traffic
/// (README.md, "The traffic mix is an assumption").
inline constexpr size_t kBulkEvery = 20;
inline constexpr size_t kInteractiveMaxRows = 64;
inline constexpr size_t kBulkMinRows = 256;
inline constexpr size_t kBulkMaxRows = 1024;

/// One request: rows [begin, end) of pool corpus `corpus`.
struct RequestSpec {
  uint32_t corpus = 0;
  uint32_t begin = 0;
  uint32_t end = 0;
  bool operator==(const RequestSpec&) const = default;
};

/// Walks a pool of corpora (given by their candidate counts) in order and
/// cuts it into requests of seeded sizes. A request never spans two corpora:
/// one that would is cut short at the corpus end. Stops after
/// `max_requests` requests or when the pool is used up.
std::vector<RequestSpec> PlanRequests(uint64_t seed,
                                      const std::vector<size_t>& corpus_rows,
                                      size_t max_requests);

/// Fresh CDR-shaped tasks at scale 1.0, generated one after another from
/// seeds derived from `seed`, until they hold at least `min_rows`
/// candidates.
snorkel::Result<std::vector<snorkel::RelationTask>> MakeCdrPool(
    uint64_t seed, size_t min_rows);

/// A corpus holding only the documents `rows` reference, at their original
/// indices (the others are left empty). It has a fresh identity, so no
/// process-wide cache can answer for it, and every LF that reads the
/// candidate's own document sees exactly what it sees in the source.
snorkel::Corpus SliceCopy(const snorkel::Corpus& corpus,
                          const std::vector<snorkel::Candidate>& rows);

// ---------------------------------------------------------------- edits

/// An LF that an edit may rewrite: a keyword-between LF of the task's set.
struct EditableLf {
  size_t column = 0;
  std::vector<std::string> keywords;
  snorkel::Label label = snorkel::kAbstain;
  bool stem = true;
};

/// One edit in every kOpaqueEvery, at a seeded position within each block,
/// replaces an LF with an opaque lambda (interpreted); the rest stay
/// declarative (compiled). A fixed share, like kBulkEvery, keeps the mix of
/// fast opaque and slow declarative re-applies the same from seed to seed,
/// so the edit p50 does not move with it.
inline constexpr size_t kOpaqueEvery = 5;

/// One edit of the §4.1 loop: column `column` becomes a keyword-between LF
/// voting `label` when any of `keywords` appears between the spans.
struct Edit {
  size_t column = 0;
  bool opaque = false;
  std::vector<std::string> keywords;
  snorkel::Label label = snorkel::kAbstain;
  bool stem = true;
  bool operator==(const Edit&) const = default;
};

/// The keyword-between LFs of `lfs`, found through their compile specs.
std::vector<EditableLf> FindEditableLfs(const snorkel::LabelingFunctionSet& lfs);

/// A seeded sequence of `count` edits over `editable`: each picks a column,
/// keeps its label, and sets its keywords to the column's originals plus up
/// to two words drawn from the other editable LFs of the same polarity.
std::vector<Edit> PlanEdits(uint64_t seed, const std::vector<EditableLf>& editable,
                            size_t count);

/// The LF an edit installs. Declarative edits use the keyword factory (so
/// they compile); opaque ones wrap a plain lambda under a version unique to
/// edit number `index` (so they run interpreted and never hit the cache).
snorkel::LabelingFunction MakeEditedLf(const Edit& edit,
                                       const std::string& name, size_t index);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
