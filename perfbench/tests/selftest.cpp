// Self-test of the benchmark's arithmetic: nearest-rank percentiles and span
// self-time attribution. Exits non-zero on failure.
//
//   .bench_build/perfbench/perfbench_selftest   (built by perfbench/run.py)

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"
#include "trace.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL: %s\n", what);
  }
}

bool near(double a, double b) { return std::abs(a - b) <= 1e-9; }

void percentiles() {
  using pb::percentile;
  const std::vector<double> v = {15, 20, 35, 40, 50};
  expect(percentile(v, 5) == 15, "p5 of 5 samples is the 1st");
  expect(percentile(v, 30) == 20, "p30 of 5 samples is the 2nd");
  expect(percentile(v, 40) == 20, "p40 of 5 samples is the 2nd");
  expect(percentile(v, 50) == 35, "p50 of 5 samples is the 3rd");
  expect(percentile(v, 100) == 50, "p100 is the maximum");
  const std::vector<double> shuffled = {50, 15, 40, 20, 35};
  expect(percentile(shuffled, 50) == 35, "percentile sorts its input");
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  expect(percentile(hundred, 99) == 99, "p99 of 1..100 is 99");
  expect(percentile(hundred, 99.5) == 100, "p99.5 of 1..100 is 100");
  std::vector<double> thousand;
  for (int i = 1; i <= 1000; ++i) thousand.push_back(i);
  expect(percentile(thousand, 99) == 990, "p99 of 1..1000 is 990");
  expect(std::isnan(percentile({}, 50)), "empty sample is NaN");
  expect(percentile({7}, 1) == 7, "single sample");
}

pb::Span span(const char* name, double b, double e, int depth) {
  return pb::Span{name, b, e, depth, -1, 0};
}

void attribution() {
  // Root [0, 100]: select [10, 30], step [30, 90] with a net send [40, 50]
  // inside it; [0, 10] and [90, 100] are uncovered.
  const pb::Span sel = span("core.select", 10, 30, 1);
  const pb::Span step = span("oran.step", 30, 90, 1);
  const pb::Span send = span("net.send", 40, 50, 2);
  pb::Attribution a = pb::attribute(0, 100, {&sel, &step, &send});
  expect(near(a.total_us, 100), "total is the root duration");
  expect(near(a.unattributed_us, 20), "uncovered time is unattributed");
  expect(near(a.layer_us["core"], 20), "core self time");
  expect(near(a.layer_us["oran"], 50), "step self time excludes its child");
  expect(near(a.layer_us["net"], 10), "child self time");

  // Spans reaching outside the root are clipped to it.
  const pb::Span wide = span("env.step", -50, 20, 1);
  a = pb::attribute(0, 100, {&wide});
  expect(near(a.layer_us["env"], 20), "clipped to the root");
  expect(near(a.unattributed_us, 80), "rest unattributed");

  // Overlapping spans at one depth: the later start owns the overlap, and
  // nothing is counted twice.
  const pb::Span p = span("oran.poll", 0, 60, 2);
  const pb::Span q = span("net.drain", 40, 80, 2);
  a = pb::attribute(0, 100, {&p, &q});
  expect(near(a.layer_us["oran"], 40), "earlier span loses the overlap");
  expect(near(a.layer_us["net"], 40), "later span owns the overlap");
  expect(near(a.unattributed_us, 20), "tail unattributed");

  // A deeper span wins over a shallower one that started later.
  const pb::Span deep = span("core.decide", 10, 50, 3);
  const pb::Span shallow = span("oran.poll", 20, 60, 2);
  a = pb::attribute(0, 60, {&deep, &shallow});
  expect(near(a.layer_us["core"], 40), "deeper span owns its interval");
  expect(near(a.layer_us["oran"], 10), "shallower keeps the rest");

  // Parts always add up to the whole.
  double sum = a.unattributed_us;
  for (const auto& [k, v] : a.layer_us) sum += v;
  expect(near(sum, a.total_us), "self times + unattributed = total");

  // No spans: everything unattributed.
  a = pb::attribute(5, 15, {});
  expect(near(a.unattributed_us, 10), "empty root is unattributed");

  // SpanIndex finds exactly the overlapping spans.
  pb::SpanIndex idx({span("a.x", 0, 5, 1), span("b.y", 4, 100, 1),
                     span("c.z", 50, 60, 1), span("d.w", 200, 300, 1)});
  std::vector<const pb::Span*> got;
  idx.overlapping(55, 58, "", &got);
  expect(got.size() == 2, "index finds the two overlapping spans");
  got.clear();
  idx.overlapping(55, 58, "c.", &got);
  expect(got.size() == 1, "index filters by name prefix");
}

void report() {
  // report_attribution: means per root, and the sum check holds.
  pb::Attribution a1;
  a1.total_us = 1000;
  a1.unattributed_us = 100;
  a1.layer_us["core"] = 600;
  a1.layer_us["net"] = 300;
  pb::Attribution a2 = a1;
  a2.total_us = 3000;
  a2.unattributed_us = 300;
  a2.layer_us["core"] = 2700;
  a2.layer_us["net"] = 0;
  pb::Result r;
  pb::report_attribution({a1, a2}, &r);
  expect(r.errors.empty(), "consistent roots pass the sum check");
  double core = -1, unattr_mean = -1, e2e = -1;
  for (const pb::Metric& m : r.layer) {
    if (m.name == "layer.core.self_ms") core = m.value;
    if (m.name == "bench.unattributed_ms.mean") unattr_mean = m.value;
    if (m.name == "bench.e2e_ms.mean") e2e = m.value;
  }
  expect(near(core, 1.65), "core self time is the per-root mean in ms");
  expect(near(unattr_mean, 0.2), "unattributed mean in ms");
  expect(near(e2e, 2.0), "e2e mean in ms");

  pb::Attribution bad = a1;
  bad.layer_us["gpu"] = 1;  // not a benchmark layer
  pb::Result r2;
  pb::report_attribution({bad}, &r2);
  expect(!r2.errors.empty(), "unknown layers and broken sums are refused");
}

}  // namespace

int main() {
  percentiles();
  attribution();
  report();
  if (failures == 0) std::printf("perfbench selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
