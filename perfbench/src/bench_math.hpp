#pragma once
// Arithmetic of the repo benchmark, kept free of llmq types so
// tests/test_bench_math.cpp pins it without building the library:
//
//   * percentiles reported with their sample count, refused when too few
//     samples lie beyond them to support the number;
//   * SLO attainment over requests *sent*, so a failed request is a miss;
//   * span self time (duration minus what nested child spans cover) and
//     its per-layer sum;
//   * wall time per served request over the timed phase only.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace perfbench {

/// A percentile must have at least this many samples ranked above it.
inline constexpr std::size_t kMinBeyond = 10;

struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;  // sample size the percentile was taken over
  std::size_t beyond = 0;   // samples ranked above the percentile position
};

/// Linear-interpolated percentile, p in [0, 100] — the rule
/// util::percentile uses, so p50/p99 equal LatencySummary's. Refused
/// (nullopt) when fewer than `min_beyond` samples rank above it.
inline std::optional<Percentile> percentile(std::vector<double> xs, double p,
                                            std::size_t min_beyond = kMinBeyond) {
  if (xs.empty() || p < 0.0 || p > 100.0) return std::nullopt;
  std::sort(xs.begin(), xs.end());
  const double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  Percentile out;
  out.samples = xs.size();
  out.beyond = xs.size() - 1 - lo;
  if (out.beyond < min_beyond) return std::nullopt;
  out.value = lo + 1 < xs.size() ? xs[lo] * (1.0 - frac) + xs[lo + 1] * frac
                                 : xs[lo];
  return out;
}

/// Median of a small sample (reps of one run); 0 when empty.
inline double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

/// Fastest of a run's repetitions; 0 when empty. Other processes on the
/// machine only ever add wall time, so the minimum is the steadiest
/// estimate of the program's own cost.
inline double min_of(const std::vector<double>& xs) {
  return xs.empty() ? 0.0 : *std::min_element(xs.begin(), xs.end());
}

/// Share of requests sent whose TTFT met the SLO. `ok_ttfts` holds the
/// TTFT of every request that completed correctly; the other
/// `sent - ok_ttfts.size()` requests failed and count as misses.
inline double slo_attainment(const std::vector<double>& ok_ttfts,
                             std::size_t sent, double slo_seconds) {
  if (sent == 0) return 0.0;
  const auto met = std::count_if(ok_ttfts.begin(), ok_ttfts.end(),
                                 [&](double t) { return t <= slo_seconds; });
  return static_cast<double>(met) / static_cast<double>(sent);
}

inline constexpr std::uint32_t kNoParent = 0xFFFFFFFFu;
inline constexpr std::uint64_t kNoRequest = ~std::uint64_t{0};

/// One timed call into a layer. `parent` indexes the enclosing span in the
/// same vector (kNoParent for a root); spans are stored in start order, so
/// a parent always precedes its children.
struct Span {
  std::uint16_t layer = 0;
  std::uint32_t parent = kNoParent;
  std::uint64_t request = kNoRequest;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;

  std::int64_t duration() const { return end_ns - start_ns; }
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (children of one parent never overlap —
/// they are sequential calls on one thread).
inline std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) self[i] = spans[i].duration();
  for (const Span& s : spans) {
    if (s.parent == kNoParent) continue;
    const Span& p = spans[s.parent];
    const std::int64_t covered = std::min(s.end_ns, p.end_ns) -
                                 std::max(s.start_ns, p.start_ns);
    if (covered > 0) self[s.parent] -= covered;
  }
  return self;
}

/// Self time summed per layer, in seconds (index = Span::layer).
inline std::vector<double> layer_self_seconds(const std::vector<Span>& spans,
                                              std::size_t n_layers) {
  std::vector<double> out(n_layers, 0.0);
  const std::vector<std::int64_t> self = self_times(spans);
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (spans[i].layer < n_layers)
      out[spans[i].layer] += 1e-9 * static_cast<double>(self[i]);
  return out;
}

/// Wall clock of one timed repetition. Set-up (data generation, table
/// projection, arrival generation, configuration) is timed separately and
/// reported as setup_s; only the run phase enters the per-request cost.
struct RepTiming {
  double setup_seconds = 0.0;
  double run_seconds = 0.0;
  std::size_t served = 0;  // LLM invocations the run served
};

inline double wall_us_per_req(const RepTiming& t) {
  return t.served ? 1e6 * t.run_seconds / static_cast<double>(t.served) : 0.0;
}

}  // namespace perfbench
