// Tests for the repo benchmark's own arithmetic (src/bench_math.hpp,
// src/tracer.hpp). Dependency-free: prints each failed check and exits 1.
//
//   cmake -S perfbench -B .bench_build && cmake --build .bench_build
//   ./.bench_build/perfbench_math_test

#include <cmath>
#include <cstdio>

#include "bench_math.hpp"
#include "tracer.hpp"

using namespace perfbench;

namespace {

int failures = 0;

void expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::printf("FAIL line %d: %s\n", line, what);
    ++failures;
  }
}
#define EXPECT(cond) expect((cond), #cond, __LINE__)

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

std::vector<double> ramp(std::size_t n) {
  std::vector<double> xs;
  for (std::size_t i = n; i-- > 0;) xs.push_back(static_cast<double>(i));
  return xs;  // descending: percentile() must sort
}

void percentile_reports_sample_count() {
  const auto p50 = percentile(ramp(101), 50.0);
  EXPECT(p50.has_value());
  EXPECT(near(p50->value, 50.0));
  EXPECT(p50->samples == 101);
  EXPECT(p50->beyond == 50);

  // Linear interpolation between ranks, as util::percentile does.
  const auto p99 = percentile(ramp(2000), 99.0);
  EXPECT(p99.has_value());
  EXPECT(near(p99->value, 0.99 * 1999.0));
  EXPECT(p99->samples == 2000);
  EXPECT(p99->beyond == 20);  // ranks 1980..1999 lie above rank 1979.01
}

void percentile_without_ten_beyond_is_refused() {
  // p99 of 1000 samples has 10 beyond it (ranks 990..999): allowed.
  EXPECT(percentile(ramp(1000), 99.0).has_value());
  // p99 of 900 samples has only 9 beyond it (ranks 891..899): refused.
  EXPECT(!percentile(ramp(900), 99.0).has_value());
  // The same sample supports the median.
  EXPECT(percentile(ramp(900), 50.0).has_value());
  EXPECT(!percentile({}, 50.0).has_value());
  // A stricter floor refuses what the default allows.
  EXPECT(!percentile(ramp(1000), 99.0, 11).has_value());
}

void slo_attainment_counts_failures_as_misses() {
  const std::vector<double> ok = {0.5, 1.0, 2.0, 2.5};  // 3 meet a 2 s SLO
  EXPECT(near(slo_attainment(ok, 4, 2.0), 0.75));
  // Six requests sent, two failed without a TTFT: they are misses.
  EXPECT(near(slo_attainment(ok, 6, 2.0), 0.5));
  EXPECT(near(slo_attainment({}, 3, 2.0), 0.0));
  EXPECT(near(slo_attainment({}, 0, 2.0), 0.0));
}

void span_self_time_subtracts_nested_children() {
  // root [0,100] > a [10,40] > a1 [15,25]; root > b [50,90]; c is a root
  // of its own [200,210].
  std::vector<Span> spans = {
      {0, kNoParent, kNoRequest, 0, 100},  // 0 root
      {1, 0, 7, 10, 40},                   // 1 a
      {2, 1, 7, 15, 25},                   // 2 a1
      {3, 0, kNoRequest, 50, 90},          // 3 b
      {0, kNoParent, kNoRequest, 200, 210} // 4 c
  };
  const auto self = self_times(spans);
  EXPECT(self[0] == 100 - 30 - 40);
  EXPECT(self[1] == 30 - 10);
  EXPECT(self[2] == 10);
  EXPECT(self[3] == 40);
  EXPECT(self[4] == 10);
  // Self times of a tree sum to its roots' durations.
  const auto layers = layer_self_seconds(spans, 4);
  double total = 0.0;
  for (double s : layers) total += s;
  EXPECT(near(total, 110e-9));
  EXPECT(near(layers[0], 40e-9));
  // A child reaching past its parent only subtracts the covered part.
  std::vector<Span> overhang = {{0, kNoParent, kNoRequest, 0, 10},
                                {1, 0, kNoRequest, 5, 30}};
  EXPECT(self_times(overhang)[0] == 5);
}

void tracer_links_nested_scopes() {
  Tracer t(true);
  {
    Tracer::Scope root(t, 0);
    {
      Tracer::Scope a(t, 1, 42);
      Tracer::Scope a1(t, 2);
    }
    Tracer::Scope b(t, 3);
    b.child_from_start(4, 1e6);  // longer than b itself: clipped on close
  }
  const auto& s = t.spans();
  EXPECT(s.size() == 5);
  EXPECT(s[0].parent == kNoParent);
  EXPECT(s[1].parent == 0 && s[1].request == 42);
  EXPECT(s[2].parent == 1);
  EXPECT(s[3].parent == 0);
  EXPECT(s[4].parent == 3 && s[4].layer == 4);
  EXPECT(s[4].end_ns == s[3].end_ns);
  for (const Span& x : s) EXPECT(x.end_ns >= x.start_ns);
  double total = 0.0;
  for (double v : layer_self_seconds(s, 5)) total += v;
  EXPECT(near(total, 1e-9 * static_cast<double>(s[0].duration())));

  Tracer off(false);
  { Tracer::Scope root(off, 0); }
  EXPECT(off.spans().empty());
}

void wall_per_request_excludes_setup() {
  RepTiming t{5.0, 2.0, 40000};
  EXPECT(near(wall_us_per_req(t), 50.0));
  t.setup_seconds = 500.0;  // set-up never enters the per-request cost
  EXPECT(near(wall_us_per_req(t), 50.0));
  EXPECT(near(wall_us_per_req({1.0, 1.0, 0}), 0.0));
}

void median_and_min_of_reps() {
  EXPECT(near(median({3.0, 1.0, 2.0}), 2.0));
  EXPECT(near(median({4.0, 1.0, 3.0, 2.0}), 2.5));
  EXPECT(near(median({}), 0.0));
  EXPECT(near(min_of({3.0, 1.5, 2.0}), 1.5));
  EXPECT(near(min_of({}), 0.0));
}

}  // namespace

int main() {
  percentile_reports_sample_count();
  percentile_without_ten_beyond_is_refused();
  slo_attainment_counts_failures_as_misses();
  span_self_time_subtracts_nested_children();
  tracer_links_nested_scopes();
  wall_per_request_excludes_setup();
  median_and_min_of_reps();
  if (failures) {
    std::printf("%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench math: all checks passed\n");
  return 0;
}
