#include "spans.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace coursebench {
namespace {

/// Open span ids of the calling thread, innermost last.
thread_local std::vector<int64_t> open_spans;

std::vector<Interval> IntervalsOf(const std::vector<Span>& spans,
                                  const char* name) {
  std::vector<Interval> out;
  for (const Span& s : spans) {
    if (std::strcmp(s.name, name) == 0) out.emplace_back(s.start_ns, s.end_ns);
  }
  return out;
}

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

SpanRecorder::SpanRecorder() {
  Span root;
  root.name = "course";
  root.id = 1;
  root.start_ns = NowNs();
  spans_.push_back(root);
  threads_[std::this_thread::get_id()] = 0;
}

int SpanRecorder::ThreadIndex() {
  const auto [it, inserted] = threads_.emplace(
      std::this_thread::get_id(), static_cast<int>(threads_.size()));
  return it->second;
}

int64_t SpanRecorder::Begin() {
  const int64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
  open_spans.push_back(id);
  return id;
}

void SpanRecorder::End(const char* name, int64_t id, int64_t start_ns) {
  Span s;
  s.name = name;
  s.id = id;
  s.start_ns = start_ns;
  s.end_ns = NowNs();
  s.round = round_.load(std::memory_order_relaxed);
  open_spans.pop_back();
  s.parent = open_spans.empty() ? 1 : open_spans.back();
  std::lock_guard<std::mutex> lock(mu_);
  s.thread = ThreadIndex();
  spans_.push_back(s);
}

void SpanRecorder::EndRoot(int64_t end_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_[0].end_ns = end_ns;
  spans_[0].round = round_.load(std::memory_order_relaxed);
}

ScopedSpan::ScopedSpan(SpanRecorder* recorder, const char* name)
    : recorder_(recorder), name_(name) {
  if (recorder_ == nullptr) return;
  id_ = recorder_->Begin();
  start_ns_ = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (recorder_ != nullptr) recorder_->End(name_, id_, start_ns_);
}

int64_t UnionLength(std::vector<Interval> intervals, int64_t lo, int64_t hi) {
  for (Interval& iv : intervals) {
    iv.first = std::max(iv.first, lo);
    iv.second = std::min(iv.second, hi);
  }
  std::sort(intervals.begin(), intervals.end());
  int64_t total = 0;
  int64_t cur_start = 0;
  int64_t cur_end = 0;
  bool open = false;
  for (const Interval& iv : intervals) {
    if (iv.second <= iv.first) continue;
    if (open && iv.first <= cur_end) {
      cur_end = std::max(cur_end, iv.second);
      continue;
    }
    if (open) total += cur_end - cur_start;
    cur_start = iv.first;
    cur_end = iv.second;
    open = true;
  }
  if (open) total += cur_end - cur_start;
  return total;
}

int64_t SelfNs(const std::vector<Span>& spans, int64_t lo, int64_t hi) {
  std::vector<Interval> children;
  for (size_t i = 1; i < spans.size(); ++i) {
    children.emplace_back(spans[i].start_ns, spans[i].end_ns);
  }
  return (hi - lo) - UnionLength(std::move(children), lo, hi);
}

double IdleFraction(const std::vector<Span>& spans, const char* name,
                    int64_t lo, int64_t hi) {
  if (hi <= lo) return 0.0;
  const int64_t busy = UnionLength(IntervalsOf(spans, name), lo, hi);
  return 1.0 - static_cast<double>(busy) / static_cast<double>(hi - lo);
}

double Concurrency(const std::vector<Span>& spans, const char* name) {
  std::vector<Interval> intervals = IntervalsOf(spans, name);
  int64_t summed = 0;
  for (const Interval& iv : intervals) summed += iv.second - iv.first;
  const int64_t covered =
      UnionLength(std::move(intervals), INT64_MIN, INT64_MAX);
  return covered > 0 ? static_cast<double>(summed) / covered : 0.0;
}

double BusySeconds(const std::vector<Span>& spans, const char* name) {
  int64_t summed = 0;
  for (const Interval& iv : IntervalsOf(spans, name)) {
    summed += iv.second - iv.first;
  }
  return summed * 1e-9;
}

int64_t CountOf(const std::vector<Span>& spans, const char* name) {
  return static_cast<int64_t>(IntervalsOf(spans, name).size());
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

int SamplesBeyond(std::vector<double> values, double q) {
  const double p = Percentile(values, q);
  return static_cast<int>(
      std::count_if(values.begin(), values.end(),
                    [p](double v) { return v > p; }));
}

int SamplesBelow(std::vector<double> values, double q) {
  const double p = Percentile(values, q);
  return static_cast<int>(
      std::count_if(values.begin(), values.end(),
                    [p](double v) { return v < p; }));
}

bool WriteChromeTrace(const std::string& path, const std::vector<Span>& spans,
                      const std::string& metadata) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  std::fprintf(f, "{\"otherData\":%s,\"traceEvents\":[", metadata.c_str());
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%lld,"
                 "\"parent\":%lld,\"round\":%d}}",
                 i == 0 ? "" : ",", s.name, s.thread,
                 (s.start_ns - origin) * 1e-3, (s.end_ns - s.start_ns) * 1e-3,
                 static_cast<long long>(s.id),
                 static_cast<long long>(s.parent), s.round);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace coursebench
