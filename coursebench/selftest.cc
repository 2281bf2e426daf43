// Hand-built cases for the benchmark's own arithmetic: the percentile
// rule, span-union self time across threads, and the serial fraction.

#include <cmath>
#include <cstdio>
#include <vector>

#include "spans.h"

namespace coursebench {
namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "self-test failed: %s\n", what);
    ++failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-12; }

Span MakeSpan(const char* name, int64_t start, int64_t end, int thread) {
  Span s;
  s.name = name;
  s.start_ns = start;
  s.end_ns = end;
  s.thread = thread;
  return s;
}

void PercentileRule() {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(101 - i);  // unsorted 100..1
  Expect(Percentile(v, 0.5) == 50, "p50 of 1..100 is 50 (nearest rank)");
  Expect(Percentile(v, 0.9) == 90, "p90 of 1..100 is 90");
  Expect(SamplesBeyond(v, 0.9) == 10, "100 samples leave 10 beyond p90");
  v.pop_back();  // 99 samples: 2..100
  Expect(SamplesBeyond(v, 0.9) == 9, "99 samples leave only 9 beyond p90");
  Expect(SamplesBeyond(std::vector<double>(200, 3.0), 0.9) == 0,
         "ties at the percentile are not beyond it");
  Expect(Percentile(v, 0.1) == 11 && SamplesBelow(v, 0.1) == 9,
         "p10 of 2..100 is 11, with only 9 below");
  v.push_back(1);  // 1..100 again
  Expect(Percentile(v, 0.1) == 10 && SamplesBelow(v, 0.1) == 9,
         "p10 of 1..100 is 10, with 9 below");
  v.push_back(0.5);  // 101 samples
  Expect(SamplesBelow(v, 0.1) == 10, "101 samples leave 10 below p10");
  Expect(Percentile({}, 0.9) == 0 && SamplesBeyond({}, 0.9) == 0,
         "no samples, no percentile");
}

void SelfTimeAcrossThreads() {
  // Root [0, 100). Thread 0: [10, 30) with a nested child [15, 20).
  // Thread 1: [25, 50) overlaps thread 0's span; thread 2: [40, 45) lies
  // inside thread 1's; thread 3: [90, 120) runs past the root's end.
  const std::vector<Span> spans = {
      MakeSpan("course", 0, 100, 0), MakeSpan("a", 10, 30, 0),
      MakeSpan("b", 15, 20, 0),      MakeSpan("a", 25, 50, 1),
      MakeSpan("c", 40, 45, 2),      MakeSpan("a", 90, 120, 3)};
  // Covered: [10, 50) + [90, 100) = 50; self = 100 - 50.
  Expect(SelfNs(spans, 0, 100) == 50, "self time counts overlaps once");
  Expect(SelfNs(spans, 20, 60) == 10, "self time within a window");
  Expect(UnionLength({{5, 5}, {7, 3}}, 0, 10) == 0,
         "empty and inverted intervals cover nothing");
  Expect(std::fabs(BusySeconds(spans, "a") - 75e-9) < 1e-18,
         "busy time sums threads");
  Expect(CountOf(spans, "a") == 3, "span count by name");
}

void SerialFraction() {
  // Window [0, 100). Train spans: two overlapping on two threads over
  // [10, 40), one alone over [60, 70), one outside the window.
  const std::vector<Span> spans = {
      MakeSpan("course", 0, 200, 0), MakeSpan("nn.train", 10, 30, 1),
      MakeSpan("nn.train", 20, 40, 2), MakeSpan("nn.train", 60, 70, 1),
      MakeSpan("core.eval", 70, 80, 0), MakeSpan("nn.train", 150, 160, 3)};
  // In flight over 30 + 10 = 40 of 100 -> serial 0.6.
  Expect(Near(IdleFraction(spans, "nn.train", 0, 100), 0.6),
         "serial fraction of a hand-built round");
  // Busy 20 + 20 + 10 + 10 = 60 over covered 30 + 10 + 10 = 50.
  Expect(Near(Concurrency(spans, "nn.train"), 1.2),
         "train concurrency is busy time over covered time");
  Expect(Concurrency(spans, "absent") == 0, "no spans, no concurrency");
}

}  // namespace

int SelfTest() {
  PercentileRule();
  SelfTimeAcrossThreads();
  SerialFraction();
  if (failures == 0) std::printf("self-test passed\n");
  return failures == 0 ? 0 : 1;
}

}  // namespace coursebench
