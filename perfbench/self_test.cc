// Tests of the benchmark's own logic: seeded input generation, the
// percentile rule, and span self-time arithmetic.

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "harness.h"
#include "inputs.h"
#include "lf/applier.h"
#include "lf/compiled/spec.h"

namespace perfbench {
namespace {

std::vector<size_t> PoolRows() { return {7000, 6500, 7200, 40}; }

TEST(SeededInputsTest, RequestPlanRepeatsForTheSameSeed) {
  auto a = PlanRequests(11, PoolRows(), 200);
  auto b = PlanRequests(11, PoolRows(), 200);
  ASSERT_EQ(a.size(), 200u);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, PlanRequests(12, PoolRows(), 200));
}

TEST(SeededInputsTest, RequestPlanStaysInsideOneCorpusAndMixesSizes) {
  auto rows = PoolRows();
  auto plan = PlanRequests(3, rows, SIZE_MAX);
  size_t bulk = 0;
  size_t covered = 0;
  for (const RequestSpec& r : plan) {
    ASSERT_LT(r.corpus, rows.size());
    ASSERT_LT(r.begin, r.end);
    ASSERT_LE(r.end, rows[r.corpus]);
    size_t size = r.end - r.begin;
    EXPECT_LE(size, kBulkMaxRows);
    bulk += size >= kBulkMinRows ? 1 : 0;
    covered += size;
  }
  EXPECT_EQ(covered, 7000u + 6500u + 7200u + 40u);  // Every row once.
  // One bulk request per block of kBulkEvery (a few are cut short at a
  // corpus end and fall below the bulk size).
  EXPECT_LE(bulk, plan.size() / kBulkEvery + 1);
  EXPECT_GE(bulk + rows.size(), plan.size() / kBulkEvery);
}

TEST(SeededInputsTest, CdrPoolRepeatsForTheSameSeedAndDiffersForAnother) {
  auto a = MakeCdrPool(5, 1);
  auto b = MakeCdrPool(5, 1);
  auto c = MakeCdrPool(6, 1);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  ASSERT_EQ(a->size(), 1u);
  const auto& ta = (*a)[0];
  const auto& tb = (*b)[0];
  const auto& tc = (*c)[0];
  ASSERT_EQ(ta.candidates.size(), tb.candidates.size());
  EXPECT_EQ(ta.gold, tb.gold);
  EXPECT_EQ(ta.corpus.document(0).sentences[0].Text(),
            tb.corpus.document(0).sentences[0].Text());
  EXPECT_TRUE(ta.gold != tc.gold ||
              ta.corpus.document(0).sentences[0].Text() !=
                  tc.corpus.document(0).sentences[0].Text());
}

TEST(SeededInputsTest, EditPlanRepeatsForTheSameSeed) {
  auto task = snorkel::MakeCdrTask(1, 0.2);
  ASSERT_TRUE(task.ok());
  auto editable = FindEditableLfs(task->lfs);
  ASSERT_GT(editable.size(), 5u);
  auto a = PlanEdits(9, editable, 200);
  EXPECT_EQ(a, PlanEdits(9, editable, 200));
  EXPECT_NE(a, PlanEdits(10, editable, 200));
  size_t opaque = 0;
  for (const Edit& e : a) {
    opaque += e.opaque ? 1 : 0;
    EXPECT_EQ(task->lfs.at(e.column).compile_spec()->label, e.label);
  }
  EXPECT_EQ(opaque, a.size() / kOpaqueEvery);
}

TEST(SeededInputsTest, SliceCopyLabelsLikeTheSourceCorpus) {
  auto task = snorkel::MakeCdrTask(2, 0.2);
  ASSERT_TRUE(task.ok());
  std::vector<snorkel::Candidate> rows(task->candidates.begin() + 10,
                                       task->candidates.begin() + 90);
  snorkel::Corpus slice = SliceCopy(task->corpus, rows);
  EXPECT_NE(slice.identity(), task->corpus.identity());
  snorkel::LFApplier applier(snorkel::LFApplier::Options{1, 2});
  auto a = applier.Apply(task->lfs, task->corpus, rows);
  auto b = applier.Apply(task->lfs, slice, rows);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->entries(), b->entries());
  EXPECT_EQ(a->row_offsets(), b->row_offsets());
}

std::vector<double> Range(size_t n) {
  std::vector<double> v;
  for (size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(PercentileTest, NeedsTenSamplesBeyondThePercentile) {
  EXPECT_FALSE(Percentile(Range(19), 0.5).has_value());
  ASSERT_TRUE(Percentile(Range(20), 0.5).has_value());
  EXPECT_EQ(*Percentile(Range(20), 0.5), 10.0);  // 10 samples above it.
  EXPECT_FALSE(Percentile(Range(99), 0.9).has_value());
  ASSERT_TRUE(Percentile(Range(100), 0.9).has_value());
  EXPECT_EQ(*Percentile(Range(100), 0.9), 90.0);
  EXPECT_FALSE(Percentile(Range(999), 0.99).has_value());
  ASSERT_TRUE(Percentile(Range(1000), 0.99).has_value());
  EXPECT_EQ(*Percentile(Range(1000), 0.99), 990.0);
  EXPECT_FALSE(Percentile({}, 0.5).has_value());
}

TEST(PercentileTest, IgnoresInputOrder) {
  std::vector<double> v = Range(200);
  std::reverse(v.begin(), v.end());
  EXPECT_EQ(*Percentile(v, 0.9), 180.0);
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(Median({4.0, 1.0, 2.0, 3.0}), 2.5);
}

Span MakeSpan(uint64_t id, uint64_t parent, int64_t start, int64_t end) {
  Span s;
  s.id = id;
  s.parent = parent;
  s.name = "s" + std::to_string(id);
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

TEST(SelfTimeTest, SubtractsTheUnionOfChildIntervals) {
  // root [0,100): children [10,30) and [20,50) overlap -> cover 40;
  // [90,120) sticks out -> covers 10. Self = 100 - 50.
  // child 2 [20,50) has a grandchild [25,35) -> self 20.
  std::vector<Span> spans = {
      MakeSpan(1, 0, 0, 100), MakeSpan(2, 1, 10, 30), MakeSpan(3, 1, 20, 50),
      MakeSpan(4, 1, 90, 120), MakeSpan(5, 3, 25, 35),
      MakeSpan(6, 0, 200, 210),  // A second root with no children.
  };
  std::vector<int64_t> self = SelfTimesNs(spans);
  ASSERT_EQ(self.size(), spans.size());
  EXPECT_EQ(self[0], 50);
  EXPECT_EQ(self[1], 20);
  EXPECT_EQ(self[2], 20);
  EXPECT_EQ(self[3], 30);
  EXPECT_EQ(self[4], 10);
  EXPECT_EQ(self[5], 10);
}

TEST(SelfTimeTest, RecordedSpansNestByThread) {
  SpanRecorder::Get().set_enabled(true);
  {
    ScopedSpan outer("outer", 7);
    { ScopedSpan inner("inner"); }
  }
  SpanRecorder::Get().set_enabled(false);
  { ScopedSpan ignored("ignored"); }
  const auto& spans = SpanRecorder::Get().spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "inner");
  EXPECT_EQ(spans[1].name, "outer");
  EXPECT_EQ(spans[0].parent, spans[1].id);
  EXPECT_EQ(spans[0].request, 7u);
  EXPECT_EQ(spans[1].parent, 0u);
  std::vector<int64_t> self = SelfTimesNs(spans);
  EXPECT_LE(self[1], spans[1].end_ns - spans[1].start_ns);
}

TEST(ReportTest, RecordCountsFailedChecksAndCarriesMetricValues) {
  Report report("iterate", 1, false);
  report.Set("setup_s", 1.5);
  report.AddPhase({"edits", 10, 9, 1});
  report.Check("ok", true, "");
  report.Check("bad", false, "");
  EXPECT_FALSE(report.correct());
  EXPECT_EQ(report.attempted(), 12u);
  EXPECT_EQ(report.failed(), 2u);
  std::string line = report.RecordJson();
  EXPECT_NE(line.find("\"metrics\": {\"setup_s\": 1.5}"), std::string::npos);
  EXPECT_NE(line.find("\"correct\": false, \"attempted\": 12, \"failed\": 2"),
            std::string::npos);
  EXPECT_EQ(line.find('\n'), std::string::npos);
  EXPECT_EQ(JsonNumber(0.1), "0.1");
}

TEST(ReportTest, RefusesAPercentileWithTooFewSamples) {
  Report report("train", 1, true);
  EXPECT_THROW(report.SetPercentile("lf.apply_ms_p50", Range(4), 0.5),
               std::logic_error);
  report.SetPercentile("lf.apply_ms_p50", Range(20), 0.5);
  EXPECT_NE(report.RecordJson().find("\"lf.apply_ms_p50\": 10"),
            std::string::npos);
}

}  // namespace
}  // namespace perfbench
