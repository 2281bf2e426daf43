#ifndef COURSEBENCH_SPANS_H_
#define COURSEBENCH_SPANS_H_

// Wall-clock spans recorded by the course benchmark around the calls it
// makes into the library's public seams, plus the interval arithmetic
// that turns them into per-layer figures. Spans stay in memory and are
// written once, as Chrome trace_event JSON, after the benchmark ends.

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace coursebench {

/// Nanoseconds on the steady clock.
int64_t NowNs();

/// One closed span: [start_ns, end_ns) on `thread`, caused by span
/// `parent` (the root has id 1 and parent 0), closed after `round` global
/// evaluations. `name` points at a string literal.
struct Span {
  const char* name = "";
  int64_t id = 0;
  int64_t parent = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int thread = 0;
  int round = 0;
};

/// Thread-safe in-memory span store for one course. Parents come from a
/// per-thread stack of open spans; a span opened with an empty stack is a
/// child of the course root (id 1, opened by the constructor).
class SpanRecorder {
 public:
  SpanRecorder();
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// Opens a span on the calling thread and returns its id.
  int64_t Begin();
  /// Closes the innermost open span of the calling thread.
  void End(const char* name, int64_t id, int64_t start_ns);
  /// Closes the course root span.
  void EndRoot(int64_t end_ns);

  /// The round later spans are attributed to (set by the pump thread).
  void set_round(int round) { round_.store(round, std::memory_order_relaxed); }

  /// All closed spans, the root first. Call after every thread finished.
  const std::vector<Span>& spans() const { return spans_; }

 private:
  int ThreadIndex();

  std::atomic<int64_t> next_id_{2};
  std::atomic<int> round_{0};
  std::mutex mu_;  // guards spans_ and threads_
  std::vector<Span> spans_;
  std::map<std::thread::id, int> threads_;
};

/// RAII span: opens on construction, closes on destruction. Inert when
/// `recorder` is null, so untraced courses pay one branch.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  const char* name_;
  int64_t id_ = 0;
  int64_t start_ns_ = 0;
};

using Interval = std::pair<int64_t, int64_t>;

/// Length of the union of `intervals`, each clipped to [lo, hi).
int64_t UnionLength(std::vector<Interval> intervals, int64_t lo, int64_t hi);

/// Self time of the root over [lo, hi): the window minus the union of
/// every non-root span on any thread (overlapping children count once).
int64_t SelfNs(const std::vector<Span>& spans, int64_t lo, int64_t hi);

/// Share of [lo, hi) during which no span named `name` is in flight.
double IdleFraction(const std::vector<Span>& spans, const char* name,
                    int64_t lo, int64_t hi);

/// Summed duration of the spans named `name` divided by the wall time at
/// least one of them covers (0 when none ran).
double Concurrency(const std::vector<Span>& spans, const char* name);

/// Summed duration (seconds) and count of the spans named `name`.
double BusySeconds(const std::vector<Span>& spans, const char* name);
int64_t CountOf(const std::vector<Span>& spans, const char* name);

/// Nearest-rank percentile (q in (0, 1]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double q);

/// Samples strictly above (below) the nearest-rank q-percentile. A
/// timing is reported at a high (low) percentile q only when this is at
/// least 10.
int SamplesBeyond(std::vector<double> values, double q);
int SamplesBelow(std::vector<double> values, double q);

/// Writes `spans` as Chrome trace_event JSON ("X" events, microseconds
/// relative to the root's start); `metadata` is a JSON object string.
bool WriteChromeTrace(const std::string& path, const std::vector<Span>& spans,
                      const std::string& metadata);

/// Checks the arithmetic above on hand-built cases; prints each failure
/// and returns the process exit code (0 when every case holds).
int SelfTest();

}  // namespace coursebench

#endif  // COURSEBENCH_SPANS_H_
