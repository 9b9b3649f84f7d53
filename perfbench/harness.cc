#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace perfbench {

// ---------------------------------------------------------------- statistics

std::optional<double> Percentile(std::vector<double> samples, double p) {
  const size_t n = samples.size();
  if (n == 0 || p <= 0.0 || p >= 1.0) return std::nullopt;
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(n)));
  size_t idx = rank == 0 ? 0 : rank - 1;
  if (n - 1 - idx < 10) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + static_cast<long>(idx),
                   samples.end());
  return samples[idx];
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double Sum(const std::vector<double>& samples) {
  double total = 0.0;
  for (double s : samples) total += s;
  return total;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB.
}

double NowSeconds() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin)
      .count();
}

// ---------------------------------------------------------------- spans

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::map<uint64_t, size_t> by_id;
  for (size_t i = 0; i < spans.size(); ++i) by_id[spans[i].id] = i;
  std::vector<std::vector<std::pair<int64_t, int64_t>>> child_intervals(
      spans.size());
  for (const Span& s : spans) {
    auto parent = by_id.find(s.parent);
    if (s.parent == 0 || parent == by_id.end()) continue;
    const Span& p = spans[parent->second];
    int64_t begin = std::max(s.start_ns, p.start_ns);
    int64_t end = std::min(s.end_ns, p.end_ns);
    if (begin < end) child_intervals[parent->second].push_back({begin, end});
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& intervals = child_intervals[i];
    std::sort(intervals.begin(), intervals.end());
    int64_t covered = 0;
    int64_t run_begin = 0;
    int64_t run_end = 0;
    bool open = false;
    for (auto [b, e] : intervals) {
      if (open && b <= run_end) {
        run_end = std::max(run_end, e);
        continue;
      }
      if (open) covered += run_end - run_begin;
      run_begin = b;
      run_end = e;
      open = true;
    }
    if (open) covered += run_end - run_begin;
    self[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return self;
}

namespace {

std::atomic<bool> g_recording{false};
std::atomic<uint64_t> g_next_span_id{1};
thread_local uint64_t t_current_span = 0;
thread_local uint64_t t_current_request = 0;

int64_t SteadyNs(std::chrono::steady_clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

}  // namespace

SpanRecorder& SpanRecorder::Get() {
  static SpanRecorder recorder;
  return recorder;
}

void SpanRecorder::set_enabled(bool enabled) {
  g_recording.store(enabled, std::memory_order_relaxed);
}

bool SpanRecorder::enabled() const {
  return g_recording.load(std::memory_order_relaxed);
}

uint64_t SpanRecorder::NextId() {
  return g_next_span_id.fetch_add(1, std::memory_order_relaxed);
}

void SpanRecorder::Record(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

bool SpanRecorder::WriteJson(const std::string& path) const {
  std::vector<int64_t> self = SelfTimesNs(spans_);
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Span& s : spans_) origin = std::min(origin, s.start_ns);
  struct Totals {
    uint64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::map<std::string, Totals> totals;
  std::fprintf(out, "{\"spans\": [");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "%s\n{\"id\": %llu, \"parent\": %llu, \"request\": %llu, "
                 "\"name\": \"%s\", \"start_us\": %.3f, \"end_us\": %.3f, "
                 "\"self_us\": %.3f}",
                 i == 0 ? "" : ",", static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 JsonEscape(s.name).c_str(), (s.start_ns - origin) / 1e3,
                 (s.end_ns - origin) / 1e3, self[i] / 1e3);
    Totals& t = totals[s.name];
    ++t.count;
    t.total_ms += (s.end_ns - s.start_ns) / 1e6;
    t.self_ms += self[i] / 1e6;
  }
  std::fprintf(out, "\n], \"summary\": {");
  bool first = true;
  for (const auto& [name, t] : totals) {
    std::fprintf(out,
                 "%s\n\"%s\": {\"count\": %llu, \"total_ms\": %.3f, "
                 "\"self_ms\": %.3f}",
                 first ? "" : ",", JsonEscape(name).c_str(),
                 static_cast<unsigned long long>(t.count), t.total_ms,
                 t.self_ms);
    first = false;
  }
  std::fprintf(out, "\n}}\n");
  return std::fclose(out) == 0;
}

ScopedSpan::ScopedSpan(const char* name, uint64_t request)
    : name_(name), start_(std::chrono::steady_clock::now()) {
  recording_ = g_recording.load(std::memory_order_relaxed);
  if (!recording_) return;
  id_ = SpanRecorder::Get().NextId();
  parent_ = t_current_span;
  prev_request_ = t_current_request;
  request_ = request != 0 ? request : t_current_request;
  t_current_span = id_;
  t_current_request = request_;
}

ScopedSpan::~ScopedSpan() { End(); }

double ScopedSpan::End() {
  if (ended_) return ms_;
  ended_ = true;
  auto end = std::chrono::steady_clock::now();
  ms_ = std::chrono::duration<double, std::milli>(end - start_).count();
  if (!recording_) return ms_;
  t_current_span = parent_;
  t_current_request = prev_request_;
  Span span;
  span.id = id_;
  span.parent = parent_;
  span.request = request_;
  span.name = name_;
  span.start_ns = SteadyNs(start_);
  span.end_ns = SteadyNs(end);
  SpanRecorder::Get().Record(std::move(span));
  return ms_;
}

// ---------------------------------------------------------------- report

Report::Report(std::string workload, uint64_t seed, bool trace)
    : workload_(std::move(workload)), seed_(seed), trace_(trace) {}

void Report::Set(const std::string& name, double value) {
  if (!std::isfinite(value)) throw std::logic_error("non-finite metric " + name);
  values_[name] = value;
}

void Report::SetPercentile(const std::string& name,
                           const std::vector<double>& samples, double p) {
  std::optional<double> v = Percentile(samples, p);
  if (!v.has_value()) {
    throw std::logic_error(name + ": " + std::to_string(samples.size()) +
                           " samples are too few for this percentile");
  }
  Set(name, *v);
  Note(name + ".samples", std::to_string(samples.size()));
}

void Report::Check(const std::string& name, bool passed,
                   const std::string& detail) {
  checks_.push_back({name, passed, detail});
}

void Report::AddPhase(PhaseCount phase) { phases_.push_back(std::move(phase)); }

void Report::Note(const std::string& key, const std::string& value) {
  notes_.emplace_back(key, value);
}

bool Report::correct() const {
  return std::all_of(checks_.begin(), checks_.end(),
                     [](const CheckResult& c) { return c.passed; });
}

uint64_t Report::attempted() const {
  uint64_t total = checks_.size();
  for (const auto& p : phases_) total += p.attempted;
  return total;
}

uint64_t Report::failed() const {
  uint64_t total = 0;
  for (const auto& c : checks_) total += c.passed ? 0 : 1;
  for (const auto& p : phases_) total += p.failed;
  return total;
}

void Report::PrintHuman() const {
  std::printf("== perfbench workload=%s seed=%llu trace=%d\n",
              workload_.c_str(), static_cast<unsigned long long>(seed_),
              trace_ ? 1 : 0);
  for (const auto& [k, v] : notes_) std::printf("note  %-36s %s\n", k.c_str(), v.c_str());
  for (const auto& p : phases_) {
    std::printf("phase %-36s attempted=%llu succeeded=%llu failed=%llu\n",
                p.name.c_str(), static_cast<unsigned long long>(p.attempted),
                static_cast<unsigned long long>(p.succeeded),
                static_cast<unsigned long long>(p.failed));
  }
  for (const auto& c : checks_) {
    std::printf("check %-36s %s  %s\n", c.name.c_str(),
                c.passed ? "PASS" : "FAIL", c.detail.c_str());
  }
}

std::string Report::RecordJson() const {
  std::string out = "{\"workload\": \"" + JsonEscape(workload_) +
                    "\", \"seed\": " + std::to_string(seed_) +
                    ", \"trace\": " + (trace_ ? "1" : "0") + ", \"notes\": {";
  for (size_t i = 0; i < notes_.size(); ++i) {
    out += (i ? ", \"" : "\"") + JsonEscape(notes_[i].first) + "\": \"" +
           JsonEscape(notes_[i].second) + "\"";
  }
  out += "}, \"phases\": [";
  for (size_t i = 0; i < phases_.size(); ++i) {
    const auto& p = phases_[i];
    out += std::string(i ? ", " : "") + "{\"name\": \"" + JsonEscape(p.name) +
           "\", \"attempted\": " + std::to_string(p.attempted) +
           ", \"succeeded\": " + std::to_string(p.succeeded) +
           ", \"failed\": " + std::to_string(p.failed) + "}";
  }
  out += "], \"checks\": [";
  for (size_t i = 0; i < checks_.size(); ++i) {
    const auto& c = checks_[i];
    out += std::string(i ? ", " : "") + "{\"name\": \"" + JsonEscape(c.name) +
           "\", \"passed\": " + (c.passed ? "true" : "false") +
           ", \"detail\": \"" + JsonEscape(c.detail) + "\"}";
  }
  out += std::string("], \"correct\": ") +
         (correct() && failed() == 0 ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted()) +
         ", \"failed\": " + std::to_string(failed()) + ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : values_) {
    out += std::string(first ? "" : ", ") + "\"" + JsonEscape(name) +
           "\": " + JsonNumber(value);
    first = false;
  }
  return out + "}}";
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) throw std::logic_error("non-finite metric value");
  char buf[40];
  for (int precision = 15; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

}  // namespace perfbench
