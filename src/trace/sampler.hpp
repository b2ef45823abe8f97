// Threshold-interrupt-driven time-series sampler (the tentpole of the
// tracing subsystem). The UPC unit can raise an interrupt when a counter
// reaches a threshold (paper §I/§III); the sampler arms that machinery on
// the cycle counter: every `interval_cycles` counted cycles the interrupt
// fires, the sampler snapshots the watched counter set, pushes the
// per-interval deltas into a bounded ring buffer and re-arms the threshold
// for the next boundary. Nodes whose programmed counter mode has no cycle
// counter (odd-card nodes monitoring memory events) fall back to the
// paper's monitoring-thread pattern: the runtime pulses the sampler at
// instrumentation points and it catches up against the node Time Base.
//
// An increment that crosses several boundaries at once (one long loop
// bundle) raises one interrupt; the sampler coalesces the missed
// boundaries into a single interval record spanning them, so no cycles are
// ever unaccounted. Every snapshot charges a modeled per-sample overhead
// that the runtime bills to the pulsing core (reported by bench/tab_overhead
// next to the paper's 196-cycle figure).
#pragma once

#include <vector>

#include "sys/node.hpp"
#include "trace/trace_buffer.hpp"

namespace bgp::trace {

/// Modeled cost of one snapshot, billed to the pulsing core: interrupt
/// entry, reading the watched counters over the memory-mapped path, exit.
/// bench/tab_overhead holds it to the 96-cycle per-sample budget of
/// docs/tracing.md.
inline constexpr cycles_t kSampleOverheadCycles = 64;

struct SamplerConfig {
  cycles_t interval_cycles = 10'000;
  /// Events to snapshot each interval (pick events of the node's
  /// programmed mode; others alias the physical counter, as on hardware).
  std::vector<isa::EventId> events;
};

class Sampler {
 public:
  Sampler(sys::Node& node, SamplerConfig config, TraceBuffer& buffer);

  /// Begin sampling: snapshot the baseline and, when the node's mode
  /// covers the core-0 cycle counter, arm the threshold interrupt at the
  /// first interval boundary. Idempotent.
  void arm();

  /// Stop sampling (final catch-up poll happens first). The partial tail
  /// interval past the last boundary is discarded.
  void disarm();

  /// Catch-up from an instrumentation point: close every interval boundary
  /// the pacer clock passed since the last sample. Returns the number of
  /// interval records produced. No-op while disarmed or while the UPC unit
  /// is stopped.
  unsigned poll();

  /// Overhead cycles accrued since the last call (the runtime charges this
  /// to the pulsing core and zeroes it).
  [[nodiscard]] cycles_t take_pending_overhead() noexcept {
    const cycles_t o = pending_overhead_;
    pending_overhead_ = 0;
    return o;
  }

  [[nodiscard]] bool armed() const noexcept { return armed_; }
  /// True when sampling is paced by threshold interrupts (mode covers the
  /// cycle counter); false when Time-Base polled.
  [[nodiscard]] bool interrupt_driven() const noexcept {
    return interrupt_driven_;
  }
  [[nodiscard]] const SamplerConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] u64 samples() const noexcept { return samples_; }
  [[nodiscard]] cycles_t overhead_cycles() const noexcept {
    return overhead_cycles_;
  }
  /// Interval boundaries closed so far.
  [[nodiscard]] u64 intervals_closed() const noexcept {
    return intervals_closed_;
  }

 private:
  /// Threshold-interrupt delivery (registered once as a UPC listener).
  void on_threshold(u8 counter);
  /// Pacer clock: cycles of monitored progress since arm().
  [[nodiscard]] cycles_t pacer_now() const;
  /// Close all boundaries up to `rel_now`, emitting one (possibly
  /// coalesced) interval record. Returns records produced (0 or 1).
  unsigned advance_to(cycles_t rel_now);
  [[nodiscard]] std::vector<u64> snapshot_counters() const;
  void rearm_threshold();

  sys::Node& node_;
  SamplerConfig config_;
  TraceBuffer& buffer_;
  bool armed_ = false;
  bool listener_installed_ = false;
  bool interrupt_driven_ = false;
  bool in_advance_ = false;  ///< reentrancy guard (overhead charge ticks)
  u8 pacer_counter_ = 0;
  u32 pacer_event_ = 0;
  cycles_t pacer_origin_ = 0;  ///< pacer clock value at arm()
  u64 intervals_closed_ = 0;
  std::vector<u64> last_snapshot_;
  u64 samples_ = 0;
  cycles_t overhead_cycles_ = 0;
  cycles_t pending_overhead_ = 0;
};

}  // namespace bgp::trace
