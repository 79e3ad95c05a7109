// batch_paper: the paper's offline setting. Four benchmark queries at full
// paper row counts under ExecConfig::standard(CacheGgr) (Llama3-8B, one
// L4), each stage run call for call as query::run_stage runs it —
// core::plan_ordering, query::build_requests, ServingEngine::run — and each
// query's emitted invocation stream priced by pricing::price_stream_auto
// (the paper's cost axis).

#include <map>
#include <optional>

#include "core/schedule.hpp"
#include "data/benchmark_suite.hpp"
#include "data/generators.hpp"
#include "llm/engine_session.hpp"
#include "perfbench.hpp"
#include "pricing/cost_report.hpp"
#include "query/executor.hpp"
#include "serve/fleet.hpp"

namespace perfbench {
namespace {

using namespace llmq;

const char* const kQueries[] = {"movies-filter", "products-projection",
                                "beer-filter", "movies-multi"};

/// Accumulators of one run across its queries and stages.
struct RunState {
  Tracer& tr;
  LayerSink* sink;
  Outcome out;
  Fingerprint fp;
  std::vector<serve::ReplicaMetrics> engines;  // one per stage
  std::uint64_t priced_cached = 0;
  std::uint64_t priced_input = 0;
};

class BatchPaper final : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    const std::int64_t t0 = now_ns();
    datasets_.clear();
    data::GenOptions g;
    g.seed = seed;
    for (const char* q : kQueries) {
      const std::string& key = data::query_by_id(q).dataset;
      if (!datasets_.count(key))
        datasets_.emplace(key, data::generate_dataset(key, g));
    }
    gen_s_ = 1e-9 * static_cast<double>(now_ns() - t0);
    config_ = query::ExecConfig::standard(query::Method::CacheGgr);
  }

  double data_gen_seconds() const override { return gen_s_; }

  Outcome run(Tracer& tr, LayerSink* sink) override {
    RunState st{tr, sink, {}, {}, {}};
    results_.clear();
    const std::int64_t t0 = now_ns();
    {
      Tracer::Scope root(tr, kDriver);
      for (const char* q : kQueries)
        results_.push_back(run_query(st, data::query_by_id(q)));
    }
    Outcome& out = st.out;
    out.wall_s = 1e-9 * static_cast<double>(now_ns() - t0);
    out.has_cost = true;
    out.pricing_cached_frac =
        st.priced_input ? static_cast<double>(st.priced_cached) /
                              static_cast<double>(st.priced_input)
                        : 0.0;
    out.engine = serve::aggregate_replica_engines(st.engines);
    add_engine(st.fp, out.engine);
    st.fp.add(out.api_cost_usd);
    out.fingerprint = st.fp.value();
    return std::move(out);
  }

  std::vector<std::string> verify(const Outcome&, std::size_t& failed) override {
    std::vector<std::string> errors;
    for (std::size_t i = 0; i < results_.size(); ++i) {
      const query::QueryRunResult& got = results_[i];
      const data::QuerySpec& spec = data::query_by_id(kQueries[i]);
      const query::QueryRunResult ref =
          query::run_query(datasets_.at(spec.dataset), spec, config_);
      std::size_t wrong = 0;
      const std::size_t n = std::max(ref.answers.size(), got.answers.size());
      for (std::size_t r = 0; r < n; ++r)
        if (r >= ref.answers.size() || r >= got.answers.size() ||
            ref.answers[r] != got.answers[r])
          ++wrong;
      bool same = ref.rows_selected == got.rows_selected &&
                  ref.aggregate == got.aggregate &&
                  ref.total_seconds == got.total_seconds &&
                  ref.stages.size() == got.stages.size();
      for (std::size_t s = 0; same && s < ref.stages.size(); ++s) {
        const query::StageMetrics& a = ref.stages[s];
        const query::StageMetrics& b = got.stages[s];
        same = a.rows == b.rows && a.token_phr == b.token_phr &&
               a.engine.prompt_tokens == b.engine.prompt_tokens &&
               a.engine.cached_prompt_tokens == b.engine.cached_prompt_tokens &&
               a.engine.computed_prompt_tokens ==
                   b.engine.computed_prompt_tokens &&
               a.engine.output_tokens == b.engine.output_tokens &&
               a.engine.decode_steps == b.engine.decode_steps &&
               a.engine.total_seconds == b.engine.total_seconds;
      }
      if (!same) wrong = std::max(wrong, got.answers.size());
      if (wrong > 0) {
        errors.push_back(spec.id + ": " + std::to_string(wrong) +
                         " answers/metrics differ from query::run_query");
        failed += wrong;
      }
    }
    return errors;
  }

 private:
  llm::ServingEngine make_engine() const {
    llm::EngineConfig ec = config_.engine;
    ec.cache_enabled = config_.cache_enabled;
    return llm::ServingEngine(llm::CostModel(config_.model, config_.gpu), ec);
  }

  /// One query, stage for stage as query::run_query runs it, then priced.
  query::QueryRunResult run_query(RunState& st,
                                  const data::QuerySpec& spec) const {
    const data::Dataset& d = datasets_.at(spec.dataset);
    query::QueryRunResult result;
    result.query_id = spec.id;
    // Multi-LLM queries keep one cache across both stages.
    std::optional<cache::PrefixCache> session;
    if (spec.type == data::QueryType::MultiLlm)
      session.emplace(make_engine().make_session_cache());
    cache::PrefixCache* shared = session ? &*session : nullptr;
    std::vector<pricing::PricedRequest> priced;

    const auto add_stage = [&](const query::StageMetrics& m) {
      result.total_seconds += m.engine.total_seconds;
      result.solver_seconds += m.solver_seconds;
      result.stages.push_back(m);
    };
    add_stage(run_stage(st, d.table, d.fds, spec, spec.stage1,
                        d.truth_for(spec.stage1.truth_key), d.key_field,
                        shared, priced, result.answers));
    const std::vector<std::size_t> selected =
        query::stage1_epilogue(result, spec, d, result.answers);
    if (!selected.empty() && spec.stage2) {
      query::Stage2Input in2 =
          query::make_stage2_input(d, *spec.stage2, selected);
      std::vector<std::string> answers2;
      add_stage(run_stage(st, in2.table, d.fds, spec, *spec.stage2,
                          in2.truth, d.key_field, shared, priced, answers2));
    }
    {
      Tracer::Scope s(st.tr, kPricing);
      const pricing::StreamCostReport report =
          pricing::price_stream_auto(pricing::openai_gpt4o_mini(), priced);
      st.out.api_cost_usd += report.cost_usd;
      st.priced_cached += report.usage.cached_input;
      st.priced_input +=
          report.usage.cached_input + report.usage.uncached_input;
    }

    st.out.sim_job_s += result.total_seconds;
    for (const std::string& a : result.answers) st.fp.add_string(a);
    st.fp.add(result.rows_selected).add(result.aggregate)
        .add(result.total_seconds);
    return result;
  }

  /// One LLM stage, call for call as query::run_stage makes it. Appends
  /// the stage's requests, in emitted order, to `priced`.
  query::StageMetrics run_stage(RunState& st, const table::Table& input,
                                const table::FdSet& fds,
                                const data::QuerySpec& spec,
                                const data::StageSpec& stage,
                                const std::vector<std::string>& truth,
                                const std::string& key_field,
                                cache::PrefixCache* shared,
                                std::vector<pricing::PricedRequest>& priced,
                                std::vector<std::string>& answers) const {
    Outcome& out = st.out;
    const table::Table t =
        stage.fields.empty() ? input : input.project(stage.fields);
    core::Plan plan;
    {
      Tracer::Scope s(st.tr, kCore);
      plan = core::plan_ordering(t, fds, config_.planner);
    }
    query::OperatorOutput ops;
    {
      Tracer::Scope s(st.tr, kQuery);
      query::LlmOperatorSpec op;
      op.tmpl.system_prompt = spec.system_prompt;
      op.tmpl.user_prompt = stage.user_prompt;
      op.avg_output_tokens = stage.avg_output_tokens;
      op.answers = stage.answers;
      op.key_field = key_field;
      op.position_sensitivity = spec.position_sensitivity;
      const llm::TaskModel task_model(config_.model_profile);
      ops = query::build_requests(t, plan.ordering, op, task_model, truth);
    }

    llm::ServingEngine engine = make_engine();
    llm::BatchRunResult run;
    if (!st.tr.enabled()) {
      run = shared ? engine.run(ops.requests, *shared)
                   : engine.run(ops.requests);
    } else {
      // ServingEngine::run is submit-everything-then-drain over an
      // EngineSession; unrolled here so each step is a span and the sink
      // sees the session's events.
      std::optional<cache::PrefixCache> own;
      if (!shared) own.emplace(engine.make_session_cache());
      llm::EngineSession session(engine, shared ? *shared : *own);
      session.set_trace(st.sink, 0);
      for (const llm::Request& r : ops.requests) session.submit(r);
      while (session.has_work()) {
        llm::EngineSession::StepEvents ev;
        {
          Tracer::Scope s(st.tr, kLlm);
          ev = session.step();
        }
        run.results.insert(run.results.end(), ev.completed.begin(),
                           ev.completed.end());
      }
      run.metrics = session.metrics();
      session.set_trace(nullptr, 0);  // the shared cache outlives `session`
    }

    // Exactly-once completion and the prompt ledger, per request. Every
    // request of a batch stage is scheduled at the stage's start (t = 0),
    // so its TTFT is its first-token time.
    const std::size_t n = ops.requests.size();
    std::vector<char> seen(n, 0);
    std::size_t bad = 0;
    for (const llm::RequestResult& r : run.results) {
      st.fp.add(r.id).add(r.cached_tokens).add(r.first_token_time)
          .add(r.finish_time);
      const bool once = r.id < n && !seen[r.id];
      if (once) seen[r.id] = 1;
      if (!once || r.cached_tokens + r.computed_tokens != r.prompt_tokens ||
          r.prompt_tokens != ops.requests[r.id].prompt.size()) {
        ++bad;
        continue;
      }
      ++out.ok;
      out.prompt_tokens += r.prompt_tokens;
      out.cached_tokens += r.cached_tokens;
      out.ttft.push_back(r.first_token_time);
    }
    if (bad || run.results.size() != n)
      out.error(spec.id + ": " + std::to_string(bad) + " invalid and " +
                std::to_string(n > run.results.size() ? n - run.results.size()
                                                      : 0) +
                " missing completions");
    out.sent += n;
    ++out.plan_calls;
    out.plan_rows += t.num_rows();
    out.prompt_calls += n;
    {
      Tracer::Scope s(st.tr, kPricing);
      for (llm::Request& r : ops.requests) {
        out.prompt_tokens_built += r.prompt.size();
        priced.push_back({std::move(r.prompt), r.output_tokens});
      }
    }

    serve::ReplicaMetrics rm;
    rm.requests = n;
    rm.engine = run.metrics;
    st.engines.push_back(rm);

    query::StageMetrics m;
    m.engine = run.metrics;
    m.solver_seconds = plan.solver_seconds;
    m.token_phr = run.metrics.prompt_cache_hit_rate();
    m.rows = t.num_rows();
    answers = std::move(ops.answers);
    return m;
  }

  std::map<std::string, data::Dataset> datasets_;
  query::ExecConfig config_;
  double gen_s_ = 0.0;
  std::vector<query::QueryRunResult> results_;  // last run, per query
};

}  // namespace

std::unique_ptr<Workload> make_batch_paper() {
  return std::make_unique<BatchPaper>();
}

}  // namespace perfbench
