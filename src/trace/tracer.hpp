// The node's one periodic counter reader. The UPC unit can raise an
// interrupt when a counter reaches a threshold (paper §I/§III); the tracer
// arms that machinery on the core-0 cycle counter: every `interval_cycles`
// counted cycles the interrupt fires, the tracer snapshots the watched
// counter set over the memory-mapped path, appends the per-interval deltas
// to the node's streaming trace file and re-arms the threshold for the next
// boundary. Nodes whose programmed counter mode has no cycle counter
// (odd-card nodes monitoring memory events) fall back to the paper's
// monitoring-thread pattern: the runtime pulses the tracer at
// instrumentation points and it catches up against the node Time Base.
//
// An increment that crosses several boundaries at once (one long loop
// bundle) raises one interrupt; the tracer coalesces the missed boundaries
// into a single interval record spanning them, so no cycles are ever
// unaccounted. Every snapshot charges a modeled per-sample overhead that
// the runtime bills to the pulsing core (reported by bench/tab_overhead
// next to the paper's 196-cycle figure).
//
// Records go straight into the TraceWriter's 64-record chunk, the only
// buffer between the interrupt and the file. This header also resolves
// which events a node of a given counter mode watches (the preset
// catalogue).
#pragma once

#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "sys/node.hpp"
#include "trace/trace_io.hpp"

namespace bgp::trace {

/// Modeled cost of one snapshot, billed to the pulsing core: interrupt
/// entry, reading the watched counters over the memory-mapped path, exit.
/// bench/tab_overhead holds it to the 96-cycle per-sample budget of
/// docs/tracing.md.
inline constexpr cycles_t kSampleOverheadCycles = 64;

/// Session-level tracing knobs (carried inside pc::Options).
struct TraceConfig {
  bool enabled = false;
  /// Sampling period in cycles of the pacer clock.
  cycles_t interval_cycles = 10'000;
  /// Named event preset, resolved against each node's programmed mode.
  std::string preset = "default";
  /// Where trace files land (next to the .bgpc dumps by default).
  std::filesystem::path trace_dir = ".";

  bool operator==(const TraceConfig&) const = default;
};

/// Event-preset names accepted by preset_trace_events (and the CLIs).
[[nodiscard]] const std::vector<std::string>& trace_preset_names();

/// The events a node programmed to `mode` watches under `preset`. Throws
/// std::invalid_argument for unknown presets. Presets that make no sense
/// for a mode degrade to that mode's default set.
[[nodiscard]] std::vector<isa::EventId> preset_trace_events(
    std::string_view preset, u8 mode);

/// `<dir>/<app>.node<NNNN>` — the trace path without its .bgpt suffix
/// (mirrors the dump naming convention).
[[nodiscard]] std::filesystem::path trace_file_base(
    const std::filesystem::path& dir, const std::string& app, unsigned node);

class NodeTracer {
 public:
  /// Opens the trace file (header only) immediately; sampling starts when
  /// the counters do. `mode` is the node's programmed counter mode: it
  /// picks the watched events and the pacer, both recorded in the header.
  /// Throws std::invalid_argument for an unknown preset or mode and
  /// BinIoError for a zero interval, before any file is created.
  NodeTracer(sys::Node& node, const TraceConfig& config,
             const std::string& app_name, u8 mode);

  /// The UPC unit's threshold listener keeps `this`.
  NodeTracer(const NodeTracer&) = delete;
  NodeTracer& operator=(const NodeTracer&) = delete;

  /// Begin sampling (call when counting starts): snapshot the baseline
  /// and, when interrupt-paced, arm the threshold at the first interval
  /// boundary. Idempotent; a no-op once sealed.
  void start();

  /// Instrumentation-point pulse: close every boundary the Time Base
  /// passed (an interrupt-paced tracer is already current), and return the
  /// modeled overhead cycles accrued since the last pulse (the caller
  /// charges them to the running core).
  cycles_t pulse();

  /// Final catch-up, disarm and seal the trace (footer + atomic rename).
  /// The partial tail interval past the last boundary is discarded.
  /// Returns the sealed path. Idempotent after the first call.
  std::filesystem::path seal();

  [[nodiscard]] bool sealed() const noexcept { return writer_.finalized(); }
  /// Counter-set snapshots taken, one per interval record.
  [[nodiscard]] u64 samples() const noexcept { return samples_; }
  /// Modeled overhead billed over the tracer's lifetime.
  [[nodiscard]] cycles_t overhead_cycles() const noexcept {
    return overhead_cycles_;
  }
  [[nodiscard]] const TraceWriter& writer() const noexcept { return writer_; }

 private:
  /// True when threshold interrupts on the core-0 cycle counter pace
  /// sampling; false when it is Time-Base polled.
  [[nodiscard]] bool interrupt_paced() const noexcept {
    return writer_.meta().pacer_event != kPacerTimebase;
  }
  /// The pacer clock's raw value: the cycle counter or the Time Base.
  [[nodiscard]] cycles_t pacer_clock() const;
  /// Threshold-interrupt delivery (registered once as a UPC listener).
  void on_threshold(u8 counter);
  /// Catch up unless disarmed, mid-sample or the UPC unit is stopped.
  void poll();
  /// Close all boundaries the pacer passed, emitting one (possibly
  /// coalesced) interval record.
  void advance();
  [[nodiscard]] std::vector<u64> snapshot_counters() const;

  sys::Node& node_;
  TraceWriter writer_;
  bool armed_ = false;
  bool in_advance_ = false;  ///< reentrancy guard
  cycles_t pacer_origin_ = 0;  ///< pacer clock value at start()
  u64 intervals_closed_ = 0;
  std::vector<u64> last_snapshot_;
  u64 samples_ = 0;
  cycles_t overhead_cycles_ = 0;
  cycles_t pending_overhead_ = 0;
};

}  // namespace bgp::trace
