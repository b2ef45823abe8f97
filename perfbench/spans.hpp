// In-memory host-time spans recorded by the benchmark around each public
// call it makes (LIKWID-style region markers, kept outside the measured
// code). A span has a name, a start, an end and a parent; a layer's self
// time is its duration minus the part of that interval its children cover.
// Rank spans are opened from worker threads, so the log is locked.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

namespace perfbench {

class SpanLog {
 public:
  using Id = std::uint32_t;
  static constexpr Id kNone = ~Id{0};

  struct Span {
    const char* name;  ///< string literal naming the call
    Id parent;
    std::uint64_t start_ns;
    std::uint64_t end_ns;
  };

  Id begin(const char* name, Id parent) {
    const std::uint64_t t = now_ns();
    const std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{name, parent, t, t});
    return static_cast<Id>(spans_.size() - 1);
  }
  void end(Id id) {
    const std::uint64_t t = now_ns();
    const std::lock_guard<std::mutex> lock(mu_);
    spans_[id].end_ns = t;
  }

  /// Completed spans; call only when no span is open.
  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

  /// Duration of every span minus the union of its children's intervals.
  [[nodiscard]] std::vector<std::uint64_t> self_ns() const {
    std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> kids(
        spans_.size());
    for (const Span& s : spans_) {
      if (s.parent != kNone) kids[s.parent].emplace_back(s.start_ns, s.end_ns);
    }
    std::vector<std::uint64_t> out(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      auto& iv = kids[i];
      std::sort(iv.begin(), iv.end());
      std::uint64_t covered = 0, lo = 0, hi = 0;
      bool open = false;
      for (auto [a, b] : iv) {
        a = std::max(a, spans_[i].start_ns);
        b = std::min(b, spans_[i].end_ns);
        if (b <= a) continue;
        if (open && a <= hi) {
          hi = std::max(hi, b);
          continue;
        }
        if (open) covered += hi - lo;
        lo = a, hi = b, open = true;
      }
      if (open) covered += hi - lo;
      out[i] = spans_[i].end_ns - spans_[i].start_ns - covered;
    }
    return out;
  }

 private:
  [[nodiscard]] std::uint64_t now_ns() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }

  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
  std::mutex mu_;
  std::vector<Span> spans_;
};

/// Scoped span; a null log records nothing (the untraced pass).
class Scope {
 public:
  Scope(SpanLog* log, const char* name, SpanLog::Id parent)
      : log_(log), id_(log ? log->begin(name, parent) : SpanLog::kNone) {}
  ~Scope() {
    if (log_ != nullptr) log_->end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  [[nodiscard]] SpanLog::Id id() const noexcept { return id_; }

 private:
  SpanLog* log_;
  SpanLog::Id id_;
};

}  // namespace perfbench
