#pragma once
// Shared types of the repo benchmark: the entry point (main.cpp) and its
// workloads (batch.cpp: batch_paper; stream.cpp: stream_ggr, chat_tiered).
//
// A workload sets up its inputs from the seed, then runs repeatedly. The
// untraced run calls the program's own entry point; the traced run builds
// the same loop from the layers' public calls, wrapping each in a span,
// and must reproduce the untraced run's virtual results exactly.

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "llm/engine.hpp"
#include "obs/trace.hpp"
#include "tracer.hpp"

namespace perfbench {

/// Span layers. kDriver is the root span of a run: its self time is the
/// loop time no layer call accounts for (reported as serve.driver_s).
enum Layer : std::uint16_t {
  kDriver,
  kCore,           // core::plan_ordering, Window::solve_seconds
  kQuery,          // query::build_requests, PromptEncoder::encode,
                   // SessionTracker::make_child_prompt
  kServeSched,     // OnlineScheduler::push / pop_ready / flush, minus core
  kServeDispatch,  // ReplicaFleet::dispatch (routing + submit)
  kLlm,            // EngineSession::step, ReplicaFleet::step (engine+cache)
  kPricing,        // pricing::price_stream_auto and its input
  kNumLayers
};

inline constexpr double kTtftSloSeconds = 2.0;

/// Benchmark-owned trace sink: reads RouteDecision, Defer and admission
/// payloads as the traced run emits them.
class LayerSink final : public llmq::obs::TraceSink {
 public:
  void emit(const llmq::obs::TraceEvent& e) override;

  std::size_t routes = 0;
  std::size_t routes_with_prefix = 0;  // chosen replica peeked > 0 tokens
  std::size_t defers = 0;
  std::vector<double> admit_waits;  // first admission - enqueue, virtual s

 private:
  std::unordered_map<std::uint64_t, double> enqueued_;  // by request id
};

/// Virtual-time outcome of one run: a pure function of (seed, config), so
/// every repetition, traced or not, must produce the same fingerprint.
struct Outcome {
  std::size_t sent = 0;  // LLM invocations sent
  std::size_t ok = 0;    // completed exactly once with a consistent ledger
  std::vector<std::string> errors;

  std::uint64_t prompt_tokens = 0;
  std::uint64_t cached_tokens = 0;
  double sim_job_s = 0.0;
  std::vector<double> ttft;              // per ok request, from its arrival
  std::vector<double> ttft_interactive;  // Interactive class only
  std::vector<double> window_wait;       // streams: arrival -> dispatch
  bool has_cost = false;                 // batch_paper prices its stream
  double api_cost_usd = 0.0;
  double pricing_cached_frac = 0.0;

  llmq::llm::EngineMetrics engine;  // aggregate over engines / replicas
  std::size_t windows = 0;
  std::size_t plan_calls = 0;
  std::size_t plan_rows = 0;
  std::size_t prompt_calls = 0;
  std::uint64_t prompt_tokens_built = 0;
  std::size_t dispatches = 0;
  double load_imbalance = 0.0;  // 0 = no routing

  std::uint64_t fingerprint = 0;
  /// Wall time of the run: the program call (untraced) or the root span
  /// (traced). Outcome bookkeeping after the run is excluded.
  double wall_s = 0.0;

  std::size_t failed() const { return sent - ok; }
  double phr() const {
    return prompt_tokens ? static_cast<double>(cached_tokens) /
                               static_cast<double>(prompt_tokens)
                         : 0.0;
  }
  void error(std::string what) {
    if (errors.size() < 8) errors.push_back(std::move(what));
  }
};

/// FNV-1a over raw bytes: the run fingerprint.
class Fingerprint {
 public:
  template <typename T>
  Fingerprint& add(const T& v) {
    const auto* p = reinterpret_cast<const unsigned char*>(&v);
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      h_ ^= p[i];
      h_ *= 1099511628211ull;
    }
    return *this;
  }
  Fingerprint& add_string(const std::string& s) {
    for (unsigned char c : s) {
      h_ ^= c;
      h_ *= 1099511628211ull;
    }
    return add(s.size());
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

/// Adds the engine counters every workload reports to a fingerprint.
void add_engine(Fingerprint& f, const llmq::llm::EngineMetrics& m);

class Workload {
 public:
  virtual ~Workload() = default;
  /// Generate the inputs from the seed (timed as setup_s). Repeatable:
  /// each call rebuilds identical inputs.
  virtual void setup(std::uint64_t seed) = 0;
  /// Data-generation share of the last setup() (data.gen_s).
  virtual double data_gen_seconds() const = 0;
  /// One run. Untraced: the program's own entry point. Traced: the same
  /// loop from layer calls, with spans in `tracer` and `sink` bound.
  virtual Outcome run(Tracer& tracer, LayerSink* sink) = 0;
  /// Untimed checks against the program's reference paths, given the
  /// outcome of the first untraced run (batch_paper checks its last run,
  /// whose fingerprint main() has already matched to that one). Returns
  /// violations (empty = pass) and adds the requests they implicate to
  /// `failed`.
  virtual std::vector<std::string> verify(const Outcome& reference,
                                          std::size_t& failed) = 0;
};

/// Workloads by name; nullptr for an unknown stream name. `cache_tiers`
/// > 0 overrides a stream's cache tier count (chat_tiered with 1 is the
/// flat-cache comparison arm documented in perfbench/README.md).
std::unique_ptr<Workload> make_batch_paper();
std::unique_ptr<Workload> make_stream_workload(const std::string& name,
                                               std::size_t cache_tiers);

}  // namespace perfbench
