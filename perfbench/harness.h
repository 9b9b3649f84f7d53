#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

// The benchmark's own machinery, independent of any workload: percentile
// and median helpers, the in-memory span recorder used by traced runs, and
// the report that prints every metric, check and phase count.

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

// ---------------------------------------------------------------- statistics

/// The p-quantile (p in (0, 1)) of `samples` by nearest rank, reported only
/// when at least ten samples lie beyond it: p50 needs 20 samples, p90 needs
/// 100 and p99 needs 1000. Returns nullopt otherwise.
std::optional<double> Percentile(std::vector<double> samples, double p);

/// Plain median (mean of the two middle values for an even count); 0 when
/// empty. Used for a handful of repeats, where no tail is claimed.
double Median(std::vector<double> samples);

double Sum(const std::vector<double>& samples);

/// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

/// Seconds on a monotonic clock since an arbitrary process-wide origin.
double NowSeconds();

// ---------------------------------------------------------------- spans

/// One timed call. `parent` is 0 for a root; `request` groups the spans of
/// one request, edit or task. Times are nanoseconds on the steady clock.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children's intervals (children may overlap
/// each other, or stick out of the parent). Aligned with `spans`.
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

/// Process-wide in-memory span store. Recording is off unless enabled; a
/// disabled recorder costs one relaxed load per would-be span.
class SpanRecorder {
 public:
  static SpanRecorder& Get();

  void set_enabled(bool enabled);
  bool enabled() const;

  uint64_t NextId();
  void Record(Span span);
  const std::vector<Span>& spans() const { return spans_; }

  /// Writes every span (with its self time) plus a per-name summary as
  /// JSON. Returns false if the file cannot be written.
  bool WriteJson(const std::string& path) const;

 private:
  std::mutex mu_;
  std::vector<Span> spans_;
};

/// Times one call. The timing is always taken (workloads use it for their
/// metrics); the span is recorded only while the recorder is enabled. Spans
/// opened on a thread while another is open become its children and inherit
/// its request id.
class ScopedSpan {
 public:
  /// `request` 0 inherits the enclosing span's request id.
  explicit ScopedSpan(const char* name, uint64_t request = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Ends the span now (idempotent) and returns its duration in ms.
  double End();

 private:
  const char* name_;
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
  uint64_t request_ = 0;
  uint64_t prev_request_ = 0;
  bool recording_ = false;
  bool ended_ = false;
  std::chrono::steady_clock::time_point start_;
  double ms_ = 0.0;
};

// ---------------------------------------------------------------- report

/// Operations attempted, succeeded and failed in one phase of a workload.
struct PhaseCount {
  std::string name;
  uint64_t attempted = 0;
  uint64_t succeeded = 0;
  uint64_t failed = 0;
};

class Report {
 public:
  Report(std::string workload, uint64_t seed, bool trace);

  /// Sets a metric by name. Names and units live in BENCHMARK.json only:
  /// run.py attaches the units, rejects a name the file does not list, and
  /// reports 0 for a per-layer metric that no call set (an idle layer).
  void Set(const std::string& name, double value);
  /// Sets a percentile metric and notes its sample count. Throws
  /// std::logic_error when the helper refuses the percentile for too few
  /// samples: a workload must collect enough, never report a placeholder.
  void SetPercentile(const std::string& name, const std::vector<double>& samples,
                     double p);

  /// Records an output check. A failed check counts as a failed operation.
  void Check(const std::string& name, bool passed, const std::string& detail);
  void AddPhase(PhaseCount phase);
  /// Free-form facts printed with the result (sample counts, digests, the
  /// tail percentiles of the untraced run, environment).
  void Note(const std::string& key, const std::string& value);

  bool correct() const;
  uint64_t attempted() const;
  uint64_t failed() const;

  /// Human-readable lines: notes (environment first), phases, checks.
  void PrintHuman() const;
  /// The whole record on one JSON line: notes, phases, checks, correct,
  /// attempted, failed and the metric values by name (no units). Printed as
  /// the last line of standard output, for run.py to complete.
  std::string RecordJson() const;

 private:
  std::string workload_;
  uint64_t seed_;
  bool trace_;
  std::map<std::string, double> values_;
  struct CheckResult {
    std::string name;
    bool passed;
    std::string detail;
  };
  std::vector<CheckResult> checks_;
  std::vector<PhaseCount> phases_;
  std::vector<std::pair<std::string, std::string>> notes_;
};

std::string JsonEscape(const std::string& s);
/// Shortest round-trip text of a finite double.
std::string JsonNumber(double v);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
