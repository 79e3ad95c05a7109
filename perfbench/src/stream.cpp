// stream_ggr and chat_tiered: open-loop arrival streams served by a
// 4-replica fleet on the single-threaded virtual-clock oracle. TTFT counts
// from each request's scheduled arrival; the simulator then runs as fast
// as it can in wall time.
//
// The untraced run is serve::run_online_replicated itself. The traced run
// rebuilds its event loop from the same public calls —
// OnlineScheduler::push/pop_ready/flush, PromptEncoder::encode (and
// SessionTracker::make_child_prompt for follow-up turns),
// ReplicaFleet::dispatch and ReplicaFleet::step — with a span around each.

#include <cmath>
#include <unordered_map>

#include "data/benchmark_suite.hpp"
#include "data/generators.hpp"
#include "obs/audit.hpp"
#include "perfbench.hpp"
#include "serve/online.hpp"
#include "serve/online_driver.hpp"

namespace perfbench {
namespace {

using namespace llmq;

/// The two stream shapes. Request counts are served exactly. Both rates
/// sit below the fleet's knee: there p99 TTFT moves with the seed by about
/// 1%, where 45 r/s (one-shot) or 8 sessions/s put it at 2.9-3.7 s and
/// 1.7-2.8 s depending on the seed — wider than any useful bound.
struct StreamShape {
  bool sessions = false;
  std::size_t requests = 0;  // one-shot arrivals, or sessions x turns
  std::size_t turns = 1;
  double rate = 0.0;  // arrivals (or new sessions) per simulated second
  std::size_t tenants = 1;
  bool classes = false;  // tenants cycle Interactive / Standard / Batch
  serve::Policy policy = serve::Policy::WindowedGgr;
  std::size_t cache_tiers = 1;
};

StreamShape shape_for(const std::string& name) {
  StreamShape s;
  if (name == "stream_ggr") {
    s.requests = 40000;
    s.rate = 35.0;
    s.tenants = 8;
  } else {  // chat_tiered
    s.sessions = true;
    s.turns = 4;
    s.requests = 1000 * s.turns;
    s.rate = 6.0;
    s.tenants = 9;
    s.classes = true;
    s.policy = serve::Policy::Fifo;
    s.cache_tiers = 2;
  }
  return s;
}

void add_request(Fingerprint& f, const serve::ServedRequest& r) {
  f.add(r.id).add(r.tenant).add(r.row).add(r.replica).add(r.arrival_time)
      .add(r.dispatch_time).add(r.admit_time).add(r.first_token_time)
      .add(r.finish_time).add(r.prompt_tokens).add(r.cached_tokens)
      .add(r.output_tokens).add(r.preemptions).add(r.recomputed_tokens)
      .add(r.session).add(r.turn);
}

class StreamWorkload final : public Workload {
 public:
  explicit StreamWorkload(StreamShape shape) : shape_(shape) {}

  void setup(std::uint64_t seed) override {
    const std::int64_t t0 = now_ns();
    data::GenOptions g;
    g.seed = seed;
    data::Dataset d = data::generate_dataset("movies", g);
    gen_s_ = 1e-9 * static_cast<double>(now_ns() - t0);

    const data::QuerySpec& spec = data::query_by_id("movies-filter");
    table_ = spec.stage1.fields.empty() ? std::move(d.table)
                                        : d.table.project(spec.stage1.fields);
    fds_ = std::move(d.fds);

    serve::OnlineConfig c;
    c.prompt.system_prompt = spec.system_prompt;
    c.prompt.user_prompt = spec.stage1.user_prompt;
    c.avg_output_tokens = spec.stage1.avg_output_tokens;
    c.ttft_slo_seconds = kTtftSloSeconds;
    c.scheduler.policy = shape_.policy;
    c.scheduler.window_rows = 64;
    c.scheduler.max_wait_seconds = 1.0;
    c.n_replicas = 4;
    c.router = serve::RouterPolicy::PrefixAffinity;
    c.engine.cache_tiers = shape_.cache_tiers;
    if (shape_.cache_tiers > 1) c.engine.host_capacity_blocks = 4000;
    c.scale_kv_pool(0.25);

    serve::WorkloadOptions w;
    w.arrival_rate = shape_.rate;
    w.n_tenants = shape_.tenants;
    w.tenant_skew = 1.0;
    if (shape_.classes)
      w.tenant_classes = {llm::PriorityClass::Interactive,
                          llm::PriorityClass::Standard,
                          llm::PriorityClass::Batch};
    w.n_requests = shape_.requests / shape_.turns;
    w.seed = seed;
    if (shape_.sessions) {
      serve::SessionOptions so;
      so.kind = serve::SessionKind::Chat;
      so.turns = shape_.turns;
      so.mean_gap_seconds = 2.0;
      sessions_ = serve::generate_sessions(table_.num_rows(), w, so);
      c.sessions = &sessions_;
    } else {
      arrivals_ = serve::generate_arrivals(table_.num_rows(), w);
    }
    config_ = c;
  }

  double data_gen_seconds() const override { return gen_s_; }

  Outcome run(Tracer& tr, LayerSink* sink) override {
    if (!tr.enabled()) {
      const std::int64_t t0 = now_ns();
      serve::OnlineRunResult r =
          serve::run_online_replicated(table_, fds_, arrivals(), config_);
      const std::int64_t t1 = now_ns();
      Outcome out = outcome_from(r);
      out.wall_s = 1e-9 * static_cast<double>(t1 - t0);
      if (!have_reference_) {
        reference_ = std::move(r);
        have_reference_ = true;
      }
      return out;
    }
    std::size_t ledger_bad = 0;
    const serve::OnlineRunResult r = traced_run(tr, sink, ledger_bad);
    Outcome out = outcome_from(r);
    out.wall_s = 1e-9 * static_cast<double>(tr.spans().front().duration());
    if (ledger_bad) {
      out.error(std::to_string(ledger_bad) +
                " completions break cached + computed == prompt");
      out.ok -= std::min(out.ok, ledger_bad);
    }
    return out;
  }

  std::vector<std::string> verify(const Outcome& reference,
                                  std::size_t& failed) override {
    std::vector<std::string> errors;
    // Our percentile rule must reproduce the program's latency summary.
    std::vector<double> ttft;
    for (const serve::ServedRequest& r : reference_.requests)
      ttft.push_back(r.ttft());
    const auto p50 = percentile(ttft, 50.0);
    const auto p99 = percentile(ttft, 99.0);
    if (!p50 || !p99 || p50->value != reference_.latency.p50_ttft ||
        p99->value != reference_.latency.p99_ttft)
      errors.push_back("TTFT percentiles disagree with serve::LatencySummary");
    if (!shape_.sessions) return errors;

    // chat_tiered: rerun with the program's own trace sink bound, audit
    // the trace (lifecycles, prompt ledger, turn chaining, tier ledgers)
    // and check tracing left the results bit-identical.
    obs::TraceLog log;
    serve::OnlineConfig c = config_;
    c.trace.sink = &log;
    const serve::OnlineRunResult r =
        serve::run_online_replicated(table_, fds_, arrivals(), c);
    const obs::AuditResult a = obs::audit_trace(log);
    if (!a.ok()) {
      errors.push_back("audit_trace: " + std::to_string(a.violation_count) +
                       " violations, first: " + a.first_violation());
      failed += a.violation_count;
    }
    const bool ledgers =
        a.finished == r.requests.size() && a.unfinished == 0 &&
        a.prompt_tokens == r.engine.prompt_tokens &&
        a.cached_prompt_tokens == r.engine.cached_prompt_tokens &&
        a.tier_demoted_blocks == r.engine.cache.demoted_blocks &&
        a.tier_promoted_blocks == r.engine.cache.promoted_blocks &&
        a.cache_evicted_blocks == r.engine.cache.evicted_blocks &&
        a.turn_spawns == shape_.requests - arrivals().size();
    if (!ledgers) {
      errors.push_back("audited ledgers differ from the engine's counters");
      failed += 1;
    }
    if (outcome_from(r).fingerprint != reference.fingerprint) {
      errors.push_back("traced program run differs from the untraced run");
      failed += 1;
    }
    return errors;
  }

 private:
  const std::vector<serve::Arrival>& arrivals() const {
    return shape_.sessions ? sessions_.roots : arrivals_;
  }

  Outcome outcome_from(const serve::OnlineRunResult& r) const {
    Outcome out;
    out.sent = shape_.requests;
    const std::size_t dispatched = r.emitted.num_rows();
    if (dispatched != shape_.requests)
      out.error("dispatched " + std::to_string(dispatched) + " of " +
                std::to_string(shape_.requests) + " requests");

    Fingerprint fp;
    std::vector<char> seen(shape_.requests, 0);
    std::uint64_t prompt = 0, cached = 0;
    for (const serve::ServedRequest& sr : r.requests) {
      add_request(fp, sr);
      prompt += sr.prompt_tokens;
      cached += sr.cached_tokens;
      const bool once = sr.id < seen.size() && !seen[sr.id];
      if (once) seen[sr.id] = 1;
      const bool timeline = sr.arrival_time <= sr.dispatch_time &&
                            sr.dispatch_time <= sr.admit_time &&
                            sr.admit_time <= sr.first_token_time &&
                            sr.first_token_time <= sr.finish_time;
      if (!once || !timeline || sr.cached_tokens > sr.prompt_tokens) continue;
      ++out.ok;
      out.ttft.push_back(sr.ttft());
      if (sr.priority == llm::PriorityClass::Interactive)
        out.ttft_interactive.push_back(sr.ttft());
      out.window_wait.push_back(sr.dispatch_time - sr.arrival_time);
    }
    if (out.ok != shape_.requests)
      out.error(std::to_string(shape_.requests - out.ok) +
                " requests not completed exactly once with a valid timeline");
    const llm::EngineMetrics& m = r.engine;
    if (m.cached_prompt_tokens + m.computed_prompt_tokens != m.prompt_tokens ||
        prompt != m.prompt_tokens || cached != m.cached_prompt_tokens) {
      // The aggregate ledger cannot say which request is wrong.
      out.error("prompt ledger: cached + computed != prompt tokens");
      out.ok = 0;
    }

    out.prompt_tokens = m.prompt_tokens;
    out.cached_tokens = m.cached_prompt_tokens;
    out.sim_job_s = r.latency.makespan;
    out.engine = m;
    out.windows = r.windows;
    if (shape_.policy != serve::Policy::Fifo) {
      out.plan_calls = r.windows;
      out.plan_rows = dispatched;
    }
    out.prompt_calls = dispatched;
    out.prompt_tokens_built = m.prompt_tokens;
    out.dispatches = dispatched;
    out.load_imbalance = r.load_imbalance;

    add_engine(fp, m);
    fp.add(r.windows).add(r.phc).add(r.load_imbalance).add(dispatched);
    out.fingerprint = fp.value();
    return out;
  }

  /// run_online_replicated's event loop, call for call, with spans.
  serve::OnlineRunResult traced_run(Tracer& tr, LayerSink* sink,
                                    std::size_t& ledger_bad) const {
    using namespace serve::detail;
    const serve::OnlineConfig& config = config_;
    const std::vector<serve::Arrival>& stream = arrivals();
    const table::Table& t = table_;

    serve::OnlineRunResult out;
    out.replicas.resize(config.n_replicas);
    validate_sessions(config, stream);
    auto index_of = index_arrivals(t, stream);

    serve::OnlineScheduler scheduler(t, fds_, config.scheduler);
    serve::ReplicaFleet fleet(config.fleet());
    fleet.set_trace(sink);
    const llm::TaskModel task_model(config.model_profile);
    EncoderMap encoders(config.prompt);
    serve::LengthPredictor predictor(config.predictor);
    scheduler.set_predictor(&predictor);
    SessionTracker tracker(config.sessions);
    ArrivalFeed feed(stream);
    std::vector<serve::Arrival> spawned;
    std::unordered_map<std::uint64_t, InFlight> inflight;
    std::vector<std::size_t> emitted_rows;
    std::vector<std::vector<std::size_t>> emitted_fields;
    emitted_rows.reserve(shape_.requests);
    emitted_fields.reserve(shape_.requests);
    double now = 0.0;

    Tracer::Scope root(tr, kDriver);
    const auto dispatch = [&](const serve::Window& w) {
      ++out.windows;
      out.solve_seconds += w.solve_seconds;
      for (std::size_t i = 0; i < w.arrivals.size(); ++i) {
        const serve::Arrival& a = w.arrivals[i];
        const std::vector<std::size_t>& fo = w.field_orders[i];
        tokenizer::TokenSeq prompt;
        {
          Tracer::Scope s(tr, kQuery, a.id);
          prompt = a.turn > 0
                       ? tracker.make_child_prompt(a, t, fo)
                       : encoders.for_tenant(a.tenant).encode(t, a.row, fo);
        }
        llm::Request req =
            make_request(a, std::move(prompt), task_model, config, &predictor);
        tracker.on_dispatch(a, req.prompt);
        std::size_t target = 0;
        {
          Tracer::Scope s(tr, kServeDispatch, a.id);
          target = fleet.dispatch(std::move(req), a.tenant, now);
        }
        inflight.emplace(a.id, InFlight{a, w.planned_at, target});
        emitted_rows.push_back(index_of.at(a.id));
        emitted_fields.push_back(fo);
      }
    };
    const auto record = [&](const llm::RequestResult& res) {
      if (res.cached_tokens + res.computed_tokens != res.prompt_tokens)
        ++ledger_bad;
      const InFlight& f = inflight.at(res.id);
      serve::ServedRequest sr = stitch(res, f);
      count_tenant(out.per_tenant, sr.tenant);
      out.requests.push_back(sr);
      if (predictor.enabled())
        predictor.observe(f.arrival.tenant, res.output_tokens);
      if (auto child = tracker.on_complete(f.arrival, res)) {
        index_of.emplace(child->id, stream.size() + spawned.size());
        spawned.push_back(*child);
        feed.push_feedback(*child);
      }
      inflight.erase(res.id);
    };
    /// pop_ready / flush with the planner's own timing as the core share.
    const auto plan_next = [&](bool drain) {
      std::optional<serve::Window> w;
      Tracer::Scope s(tr, kServeSched);
      w = drain ? scheduler.flush(now) : scheduler.pop_ready(now);
      if (w) s.child_from_start(kCore, w->solve_seconds);
      return w;
    };

    while (!feed.exhausted() || scheduler.buffered() > 0 || fleet.any_work()) {
      now = fleet.frontier(now);
      if (!feed.exhausted() && feed.next_time() <= now) {
        Tracer::Scope s(tr, kServeSched);
        while (!feed.exhausted() && feed.next_time() <= now)
          scheduler.push(feed.pop());
      }
      while (auto w = plan_next(false)) dispatch(*w);
      if (fleet.any_work()) {
        serve::ReplicaFleet::StepResult st;
        {
          Tracer::Scope s(tr, kLlm);
          st = fleet.step();
        }
        for (const llm::RequestResult& res : st.completed) record(res);
        continue;
      }
      const double t_next =
          std::min(scheduler.next_deadline(), feed.next_time());
      if (std::isfinite(t_next)) {
        now = std::max(now, t_next);
      } else if (auto w = plan_next(true)) {
        dispatch(*w);
      } else {
        break;
      }
    }

    out.replicas = fleet.replica_metrics();
    out.engine = serve::aggregate_replica_engines(out.replicas);
    out.load_imbalance = fleet.load_imbalance();
    std::vector<serve::Arrival> all = stream;
    all.insert(all.end(), spawned.begin(), spawned.end());
    finalize_emitted(out, t, all, config, std::move(emitted_rows),
                     std::move(emitted_fields));
    return out;
  }

  StreamShape shape_;
  table::Table table_;
  table::FdSet fds_;
  serve::OnlineConfig config_;
  std::vector<serve::Arrival> arrivals_;
  serve::SessionWorkload sessions_;
  double gen_s_ = 0.0;
  serve::OnlineRunResult reference_;  // first untraced run
  bool have_reference_ = false;
};

}  // namespace

std::unique_ptr<Workload> make_stream_workload(const std::string& name,
                                               std::size_t cache_tiers) {
  if (name != "stream_ggr" && name != "chat_tiered") return nullptr;
  StreamShape shape = shape_for(name);
  if (cache_tiers > 0) shape.cache_tiers = cache_tiers;
  return std::make_unique<StreamWorkload>(shape);
}

}  // namespace perfbench
