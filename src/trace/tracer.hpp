// The time-series trace, one consumer of the node's pacer (sys::Pacer). At
// each pacer action the tracer reads the watched counter set over the
// memory-mapped path and appends the deltas since the last action to the
// node's streaming trace file: one interval record spanning every boundary
// the action covers, billed a modeled per-sample overhead (reported by
// bench/tab_overhead next to the paper's 196-cycle figure). Records go
// straight into the TraceWriter's 64-record chunk, the only buffer between
// the interrupt and the file. This header also resolves which events a
// node of a given counter mode watches (the preset catalogue).
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
  /// Opens the trace file (header only) and joins the node's pacer, which
  /// starts sampling at BGP_Start. `mode` is the node's programmed counter
  /// mode: it picks the watched events and the pacer clock, both recorded
  /// in the header. Throws std::invalid_argument for an unknown preset or
  /// mode and BinIoError for a zero interval, before any file is created.
  NodeTracer(sys::Node& node, const TraceConfig& config,
             const std::string& app_name, u8 mode);

  /// The pacer keeps `this` until seal() stops it.
  NodeTracer(const NodeTracer&) = delete;
  NodeTracer& operator=(const NodeTracer&) = delete;

  /// Stop the node's pacer (a final catch-up, then disarm: the node's
  /// counting is over) and seal the trace (footer + atomic rename). The
  /// partial tail interval past the last boundary is discarded. Returns the
  /// sealed path. Idempotent after the first call.
  std::filesystem::path seal();

  [[nodiscard]] bool sealed() const noexcept { return writer_.finalized(); }
  /// Counter-set snapshots taken, one per interval record.
  [[nodiscard]] u64 samples() const noexcept { return samples_; }
  /// Modeled overhead billed over the tracer's lifetime.
  [[nodiscard]] cycles_t overhead_cycles() const noexcept {
    return samples_ * kSampleOverheadCycles;
  }
  [[nodiscard]] const TraceWriter& writer() const noexcept { return writer_; }

 private:
  /// The pacer action: one record for intervals [from, to).
  void sample(u64 from, u64 to);
  [[nodiscard]] std::vector<u64> snapshot_counters() const;

  sys::Node& node_;
  TraceWriter writer_;
  std::vector<u64> last_snapshot_;
  u64 samples_ = 0;
};

}  // namespace bgp::trace
