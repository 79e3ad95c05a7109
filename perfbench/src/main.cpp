// Repo benchmark entry point.
//
//   perfbench --workload <batch_paper|stream_ggr|chat_tiered> --seed <n>
//             --seconds <s> --trace <0|1> [--spans-dir <dir>]
//             [--cache-tiers <n>]
//
// Sets the workload up several times (median = setup_s), repeats the run
// until --seconds have passed (wall_us_per_req = the fastest run), checks
// every run's outputs, then prints
// each metric by name with its unit and, as the last line, one JSON object
// {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics of untraced runs; --trace 1 alternates untraced and
// traced runs and reports the per-layer metrics. Exits 1 on any
// correctness violation, 2 on bad arguments.

#include <sched.h>
#include <sys/resource.h>

#include <charconv>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "perfbench.hpp"

namespace perfbench {

void LayerSink::emit(const llmq::obs::TraceEvent& e) {
  using K = llmq::obs::EventKind;
  switch (e.kind) {
    case K::RouteDecision:
      ++routes;
      if (e.b > 0) ++routes_with_prefix;
      break;
    case K::Defer:
      ++defers;
      break;
    case K::Enqueue:
      enqueued_[e.id] = e.time;
      break;
    case K::Admit:
      if ((e.c & 1) == 0) {  // first admission, not a resume
        const auto it = enqueued_.find(e.id);
        if (it != enqueued_.end()) {
          admit_waits.push_back(e.time - it->second);
          enqueued_.erase(it);
        }
      }
      break;
    default:
      break;
  }
}

void add_engine(Fingerprint& f, const llmq::llm::EngineMetrics& m) {
  f.add(m.total_seconds).add(m.prompt_tokens).add(m.cached_prompt_tokens)
      .add(m.computed_prompt_tokens).add(m.output_tokens).add(m.decode_steps)
      .add(m.sum_batch_size).add(m.preemptions)
      .add(m.recompute_prefill_tokens).add(m.promote_seconds)
      .add(m.cache.lookups).add(m.cache.hit_tokens)
      .add(m.cache.inserted_blocks).add(m.cache.evicted_blocks)
      .add(m.cache.demoted_blocks).add(m.cache.promoted_blocks);
}

namespace {

constexpr int kWarmSetups = 3;

const char* const kLayerNames[kNumLayers] = {
    "driver", "core", "query", "serve.sched", "serve.dispatch", "llm",
    "pricing"};

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_dir = ".bench_out";
  std::size_t cache_tiers = 0;
};

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") o.workload = v;
    else if (k == "--seed") o.seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds") o.seconds = std::atof(v);
    else if (k == "--trace") o.trace = std::strcmp(v, "1") == 0;
    else if (k == "--spans-dir") o.spans_dir = v;
    else if (k == "--cache-tiers") o.cache_tiers = std::strtoull(v, nullptr, 10);
    else return false;
  }
  return argc % 2 == 1 && !o.workload.empty() && o.seconds > 0.0;
}

/// Pins the process to whichever CPU it may use that runs a short fixed
/// probe fastest, and returns that CPU. On a shared host another tenant's
/// load slows some CPUs (a busy hyperthread sibling) for minutes at a
/// time; moving to the quietest one before each run keeps that load out
/// of the measurement. The probe runs outside every timed region.
int pin_to_fastest_cpu(const cpu_set_t& allowed) {
  static std::vector<std::uint64_t> buf(1 << 17, 1);  // 1 MiB
  const auto probe = [] {
    const std::int64_t t0 = now_ns();
    std::uint64_t h = 1469598103934665603ull;
    for (int pass = 0; pass < 8; ++pass)
      for (std::size_t i = 0; i < buf.size(); ++i) {
        h ^= buf[(i * 7919) & (buf.size() - 1)];
        h *= 1099511628211ull;
      }
    buf[h & (buf.size() - 1)] |= 1;  // keep the loop observable
    return now_ns() - t0;
  };
  int best = -1;
  std::int64_t best_ns = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof one, &one) != 0) continue;
    const std::int64_t ns = std::min(probe(), probe());
    if (best < 0 || ns < best_ns) {
      best = cpu;
      best_ns = ns;
    }
  }
  if (best >= 0) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(best, &one);
    sched_setaffinity(0, sizeof one, &one);
  }
  return best;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Shortest decimal form that reads back as the same double.
std::string num(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;
};

/// A percentile metric with its sample count; a refused percentile is
/// reported as a benchmark error. `required` = false reports 0 for an
/// empty sample (the layer did no such work).
bool add_percentile(std::vector<Metric>& out, std::vector<std::string>& errors,
                    const std::string& name, const std::vector<double>& xs,
                    double p, bool required = true) {
  if (xs.empty() && !required) {
    out.push_back({name, 0.0, "sim_s", "no samples"});
    return true;
  }
  const auto pc = percentile(xs, p);
  if (!pc) {
    errors.push_back(name + " refused: fewer than " +
                     std::to_string(kMinBeyond) + " of " +
                     std::to_string(xs.size()) + " samples beyond it");
    return false;
  }
  out.push_back({name, pc->value, "sim_s",
                 "n=" + std::to_string(pc->samples) + ", " +
                     std::to_string(pc->beyond) + " beyond"});
  return true;
}

double ratio(double a, double b) { return b != 0.0 ? a / b : 0.0; }

struct TracedRep {
  double wall_s = 0.0;
  std::vector<double> layer_s;
  std::vector<Span> spans;
  LayerSink sink;
};

void write_spans(const Options& o, const std::vector<Span>& spans) {
  std::error_code ec;
  std::filesystem::create_directories(o.spans_dir, ec);
  const std::string path = o.spans_dir + "/spans-" + o.workload + "-seed" +
                           std::to_string(o.seed) + ".csv";
  std::ofstream f(path);
  f << "span,layer,parent,request,start_ns,end_ns\n";
  const std::int64_t base = spans.empty() ? 0 : spans.front().start_ns;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    f << i << ',' << kLayerNames[s.layer] << ','
      << (s.parent == kNoParent ? -1 : static_cast<long long>(s.parent)) << ','
      << (s.request == kNoRequest ? -1 : static_cast<long long>(s.request))
      << ',' << s.start_ns - base << ',' << s.end_ns - base << '\n';
  }
  std::printf("spans: %zu written to %s\n", spans.size(), path.c_str());
}

std::vector<Metric> end_to_end(const Outcome& o, double wall_us,
                               double setup_s, double rss_mb,
                               std::vector<std::string>& errors,
                               std::vector<Metric>& info) {
  std::vector<Metric> m;
  m.push_back({"wall_us_per_req", wall_us, "us", ""});
  m.push_back({"setup_s", setup_s, "s", ""});
  m.push_back({"peak_rss_mb", rss_mb, "MB", ""});
  m.push_back({"phr", o.phr(), "fraction", ""});
  m.push_back({"sim_job_s", o.sim_job_s, "sim_s", ""});
  add_percentile(m, errors, "ttft_p50_s", o.ttft, 50.0);
  add_percentile(m, errors, "ttft_p99_s", o.ttft, 99.0);

  // Reported where they apply; not part of the JSON metrics.
  if (!o.ttft_interactive.empty())
    add_percentile(info, errors, "ttft_p99_interactive_s", o.ttft_interactive,
                   99.0);
  if (!o.window_wait.empty())  // the streams: the workloads with windows
    info.push_back({"slo_attain", slo_attainment(o.ttft, o.sent, kTtftSloSeconds),
                    "fraction", "TTFT <= 2 s over requests sent"});
  if (o.has_cost) info.push_back({"api_cost_usd", o.api_cost_usd, "USD", ""});
  return m;
}

std::vector<Metric> per_layer(const Outcome& o, const TracedRep& t,
                              double gen_s, double untraced_wall_s,
                              std::vector<std::string>& errors) {
  const auto& L = t.layer_s;
  const auto& m = o.engine;
  std::vector<Metric> out;
  out.push_back({"data.gen_s", gen_s, "s", ""});
  out.push_back({"core.plan_s", L[kCore], "s", ""});
  out.push_back({"core.plan_calls", double(o.plan_calls), "count", ""});
  out.push_back({"core.plan_us_per_row",
                 1e6 * ratio(L[kCore], double(o.plan_rows)), "us/row", ""});
  out.push_back({"query.prompt_s", L[kQuery], "s", ""});
  out.push_back({"query.prompt_calls", double(o.prompt_calls), "count", ""});
  out.push_back({"query.prompt_tokens", double(o.prompt_tokens_built), "count",
                 ""});
  out.push_back({"query.prompt_ns_per_token",
                 1e9 * ratio(L[kQuery], double(o.prompt_tokens_built)),
                 "ns/token", ""});
  out.push_back({"serve.sched_s", L[kServeSched], "s", ""});
  out.push_back({"serve.windows", double(o.windows), "count", ""});
  add_percentile(out, errors, "serve.window_wait_p99_s", o.window_wait, 99.0,
                 false);
  out.push_back({"serve.dispatch_s", L[kServeDispatch], "s", ""});
  out.push_back({"serve.dispatches", double(o.dispatches), "count", ""});
  out.push_back({"serve.route_prefix_frac",
                 ratio(double(t.sink.routes_with_prefix), double(t.sink.routes)),
                 "fraction", ""});
  out.push_back({"serve.load_imbalance", o.load_imbalance, "ratio", ""});
  out.push_back({"serve.driver_s", L[kDriver], "s", "unattributed loop time"});
  out.push_back({"llm.step_s", L[kLlm], "s", ""});
  out.push_back({"llm.steps", double(m.decode_steps), "count", ""});
  out.push_back({"llm.mean_batch", m.mean_batch_size(), "requests", ""});
  add_percentile(out, errors, "llm.admit_wait_p99_s", t.sink.admit_waits, 99.0,
                 false);
  out.push_back({"llm.defers", double(t.sink.defers), "count", ""});
  out.push_back({"llm.preemptions", double(m.preemptions), "count", ""});
  out.push_back({"llm.recompute_tokens", double(m.recompute_prefill_tokens),
                 "count", ""});
  out.push_back({"llm.prefill_tokens",
                 double(m.computed_prompt_tokens + m.recompute_prefill_tokens),
                 "count", ""});
  out.push_back({"llm.decode_tokens", double(m.output_tokens), "count", ""});
  out.push_back({"llm.promote_s", m.promote_seconds, "sim_s", ""});
  out.push_back({"cache.lookups", double(m.cache.lookups), "count", ""});
  out.push_back({"cache.hit_frac", m.cache.hit_rate(), "fraction", ""});
  out.push_back({"cache.inserted_blocks", double(m.cache.inserted_blocks),
                 "count", ""});
  out.push_back({"cache.evicted_blocks", double(m.cache.evicted_blocks),
                 "count", ""});
  out.push_back({"cache.demoted_blocks", double(m.cache.demoted_blocks),
                 "count", ""});
  out.push_back({"cache.promoted_blocks", double(m.cache.promoted_blocks),
                 "count", ""});
  out.push_back({"cache.promote_per_demote",
                 ratio(double(m.cache.promoted_blocks),
                       double(m.cache.demoted_blocks)),
                 "ratio", ""});
  out.push_back({"pricing.s", L[kPricing], "s", ""});
  out.push_back({"pricing.cached_frac", o.pricing_cached_frac, "fraction", ""});
  out.push_back({"trace.wall_s", t.wall_s, "s", "sum of layer self times"});
  out.push_back({"trace.untraced_wall_s", untraced_wall_s, "s", ""});
  out.push_back({"trace.overhead_frac",
                 ratio(t.wall_s - untraced_wall_s, untraced_wall_s), "fraction",
                 ""});
  return out;
}

int run(const Options& opt) {
  const bool batch = opt.workload == "batch_paper";
  std::unique_ptr<Workload> w =
      batch ? make_batch_paper()
            : make_stream_workload(opt.workload, opt.cache_tiers);
  if (!w || (batch && opt.cache_tiers > 0)) {
    std::fprintf(stderr, "unknown workload '%s', or --cache-tiers on it\n",
                 opt.workload.c_str());
    return 2;
  }
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);

  // Set-up runs kWarmSetups times before the timed phase and once more
  // before every later timed run, so its samples spread over the whole run
  // and a burst of load from other processes moves their median less.
  // The inputs are identical every time.
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  sched_getaffinity(0, sizeof allowed, &allowed);
  std::vector<int> cpus;  // CPU chosen for each timed run
  std::vector<double> setup_s, gen_s;
  const auto set_up = [&] {
    const std::int64_t t0 = now_ns();
    w->setup(opt.seed);
    setup_s.push_back(1e-9 * static_cast<double>(now_ns() - t0));
    gen_s.push_back(w->data_gen_seconds());
  };
  pin_to_fastest_cpu(allowed);
  for (int i = 0; i < kWarmSetups; ++i) set_up();

  // Timed phase: repeat until --seconds have passed (at least one run of
  // each kind). Every run must reproduce the first one's virtual results.
  Outcome first;
  bool have_first = false;
  double rss = 0.0;  // peak RSS through set-up and the first run
  std::vector<double> wall_us, untraced_wall_s;
  std::vector<TracedRep> traced;
  std::size_t attempted = 0, failed = 0;
  std::vector<std::string> errors;
  const auto check = [&](Outcome& o, const char* kind) {
    attempted += o.sent;
    failed += o.failed();
    for (const std::string& e : o.errors) errors.push_back(e);
    if (!have_first) {
      first = std::move(o);
      have_first = true;
    } else if (o.fingerprint != first.fingerprint) {
      errors.push_back(std::string(kind) +
                       " run differs from the first run's virtual results");
      failed += o.sent;
    }
  };
  const std::int64_t start = now_ns();
  const auto elapsed = [&] { return 1e-9 * static_cast<double>(now_ns() - start); };
  do {
    cpus.push_back(pin_to_fastest_cpu(allowed));
    if (!wall_us.empty()) set_up();
    {
      Tracer off(false);
      Outcome o = w->run(off, nullptr);
      wall_us.push_back(wall_us_per_req({setup_s.back(), o.wall_s, o.sent}));
      untraced_wall_s.push_back(o.wall_s);
      check(o, "untraced");
      if (rss == 0.0) rss = peak_rss_mb();
    }
    if (opt.trace) {
      Tracer on(true);
      TracedRep rep;
      Outcome o = w->run(on, &rep.sink);
      rep.spans = on.take_spans();
      rep.layer_s = layer_self_seconds(rep.spans, kNumLayers);
      for (double s : rep.layer_s) rep.wall_s += s;
      check(o, "traced");
      traced.push_back(std::move(rep));
    }
  } while (elapsed() < opt.seconds);
  std::printf("cpu per run:");
  for (int c : cpus) std::printf(" %d", c);
  std::printf("\nset-up s:");
  for (double x : setup_s) std::printf(" %.4f", x);
  std::printf("\nuntraced run wall_s:");
  for (double x : untraced_wall_s) std::printf(" %.4f", x);
  if (opt.trace) {
    std::printf("\ntraced run wall_s:");
    for (const TracedRep& t : traced) std::printf(" %.4f", t.wall_s);
  }
  std::printf("\n");

  for (const std::string& e : w->verify(first, failed)) errors.push_back(e);

  std::vector<Metric> metrics, info;
  if (!opt.trace) {
    metrics = end_to_end(first, min_of(wall_us), median(setup_s), rss, errors,
                         info);
  } else {
    const TracedRep& fastest = *std::min_element(
        traced.begin(), traced.end(),
        [](const TracedRep& a, const TracedRep& b) { return a.wall_s < b.wall_s; });
    metrics = per_layer(first, fastest, median(gen_s), min_of(untraced_wall_s),
                        errors);
    write_spans(opt, fastest.spans);
  }
  info.push_back({"requests_sent", double(first.sent), "count", "per run"});
  info.push_back({"requests_ok", double(first.ok), "count", "per run"});
  info.push_back({"requests_failed", double(first.failed()), "count",
                  "per run"});
  info.push_back({"runs", double(wall_us.size() + traced.size()), "count",
                  opt.trace ? "untraced + traced" : "timed"});

  std::printf("%-28s %16s  %-9s %s\n", "metric", "value", "unit", "note");
  for (const auto* list : {&metrics, &info})
    for (const Metric& m : *list)
      std::printf("%-28s %16.6g  %-9s %s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.note.c_str());
  for (const std::string& e : errors) std::printf("VIOLATION: %s\n", e.c_str());

  const bool correct = errors.empty() && failed == 0;
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options opt;
  if (!perfbench::parse(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: %s --workload <batch_paper|stream_ggr|chat_tiered> "
                 "--seed <n> --seconds <s> --trace <0|1> [--spans-dir <dir>] "
                 "[--cache-tiers <n>]\n",
                 argv[0]);
    return 2;
  }
  return perfbench::run(opt);
}
