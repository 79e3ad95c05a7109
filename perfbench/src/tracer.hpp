#pragma once
// Span recorder for the traced run. The benchmark wraps each call it makes
// into a layer's public API in a Scope; a disabled Tracer (the untraced
// run) records nothing and costs one branch per call site. Spans stay in
// memory until the run ends.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <vector>

#include "bench_math.hpp"

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  const std::vector<Span>& spans() const { return spans_; }
  std::vector<Span> take_spans() { return std::move(spans_); }

  /// RAII span: opens at construction, closes at destruction. Nested
  /// scopes become children of the innermost open scope.
  class Scope {
   public:
    Scope(Tracer& t, std::uint16_t layer, std::uint64_t request = kNoRequest)
        : t_(t.enabled_ ? &t : nullptr) {
      if (!t_) return;
      index_ = static_cast<std::uint32_t>(t_->spans_.size());
      t_->spans_.push_back({layer, t_->open_, request, now_ns(), 0});
      t_->open_ = index_;
    }
    ~Scope() {
      if (!t_) return;
      Span& s = t_->spans_[index_];
      s.end_ns = now_ns();
      t_->open_ = s.parent;
      if (synthetic_ != kNoParent) {
        Span& c = t_->spans_[synthetic_];
        c.end_ns = std::min(c.end_ns, s.end_ns);
      }
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Attribute `seconds` at the start of this span to a child layer —
    /// for work a callee timed itself (Window::solve_seconds inside
    /// OnlineScheduler::pop_ready). Call before the scope closes; the
    /// child is clipped to the parent when the parent closes. At most one
    /// such child per scope.
    void child_from_start(std::uint16_t layer, double seconds) {
      if (!t_) return;
      const Span parent = t_->spans_[index_];
      const auto dur = static_cast<std::int64_t>(seconds * 1e9);
      synthetic_ = static_cast<std::uint32_t>(t_->spans_.size());
      t_->spans_.push_back({layer, index_, parent.request, parent.start_ns,
                            parent.start_ns + dur});
    }

   private:
    Tracer* t_;
    std::uint32_t index_ = 0;
    std::uint32_t synthetic_ = kNoParent;
  };

 private:
  bool enabled_;
  std::uint32_t open_ = kNoParent;
  std::vector<Span> spans_;
};

}  // namespace perfbench
