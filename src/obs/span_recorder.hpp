// Per-rank span recorder: a bounded ring of completed begin/end spans
// (evict-oldest with drop accounting) plus instant events, each stamped
// with both the simulated-cycle clock of the owning core and a host
// monotonic-nanosecond clock shared by the whole FlightRecorder. One
// recorder per (node, core); a recorder is only ever mutated by the rank
// that owns that core, and the scheduler runs one rank per node at a time,
// so no synchronization is needed.
#pragma once

#include <chrono>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace bgp::obs {

/// Span taxonomy (docs/observability.md lists the site behind each).
enum class SpanCat : u8 {
  kUpc,         ///< the four interface-library calls
  kCollective,  ///< barrier/bcast/allreduce/alltoall/allgather
  kFt,          ///< revoke/agree/shrink recovery phases + death detection
  kDump,        ///< counter dump file writes
  kTrace,       ///< time-series trace sealing
  kRegion,      ///< benchmark regions (kernel bodies)
  kFault,       ///< injected node deaths / stranded ranks (instants)
};

[[nodiscard]] std::string_view to_string(SpanCat cat) noexcept;
[[nodiscard]] bool parse_span_cat(std::string_view text, SpanCat& out) noexcept;

/// One completed begin/end pair.
struct SpanRec {
  std::string name;
  SpanCat cat = SpanCat::kRegion;
  u32 node = 0;
  u32 core = 0;
  u32 depth = 0;  ///< nesting depth at begin (0 = top level)
  cycles_t begin_cycles = 0;
  cycles_t end_cycles = 0;
  u64 begin_host_ns = 0;
  u64 end_host_ns = 0;
};

/// A point event (fault injected, death detected, ...).
struct InstantRec {
  std::string name;
  SpanCat cat = SpanCat::kFault;
  u32 node = 0;
  u32 core = 0;
  cycles_t cycles = 0;
  u64 host_ns = 0;
};

class SpanRecorder {
 public:
  SpanRecorder(u32 node, u32 core, std::size_t capacity,
               std::chrono::steady_clock::time_point epoch);

  /// Open a span at simulated time `now_cycles`.
  void begin(std::string_view name, SpanCat cat, cycles_t now_cycles);
  /// Close the innermost open span; returns its simulated duration
  /// (0 when no span is open — counted in unmatched_ends()).
  cycles_t end(cycles_t now_cycles);
  void instant(std::string_view name, SpanCat cat, cycles_t now_cycles);

  [[nodiscard]] const std::deque<SpanRec>& spans() const noexcept {
    return done_;
  }
  [[nodiscard]] const std::deque<InstantRec>& instants() const noexcept {
    return instants_;
  }
  [[nodiscard]] u32 node() const noexcept { return node_; }
  [[nodiscard]] u32 core() const noexcept { return core_; }
  [[nodiscard]] std::size_t open_depth() const noexcept {
    return open_.size();
  }
  /// Lifetime totals (the ring only retains the newest `capacity`).
  [[nodiscard]] u64 spans_total() const noexcept { return spans_total_; }
  [[nodiscard]] u64 spans_dropped() const noexcept { return spans_dropped_; }
  [[nodiscard]] u64 instants_total() const noexcept { return instants_total_; }
  [[nodiscard]] u64 instants_dropped() const noexcept {
    return instants_dropped_;
  }
  [[nodiscard]] u64 unmatched_ends() const noexcept { return unmatched_ends_; }

 private:
  [[nodiscard]] u64 host_ns() const;

  u32 node_;
  u32 core_;
  std::size_t capacity_;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<SpanRec> open_;  ///< stack of in-flight spans
  std::deque<SpanRec> done_;
  std::deque<InstantRec> instants_;
  u64 spans_total_ = 0;
  u64 spans_dropped_ = 0;
  u64 instants_total_ = 0;
  u64 instants_dropped_ = 0;
  u64 unmatched_ends_ = 0;
};

}  // namespace bgp::obs
