// Per-node tracing front end: glues a Sampler, its bounded ring buffer and
// a streaming TraceWriter together, and resolves which events a node of a
// given counter mode should watch (the preset catalogue). The interface
// library owns one NodeTracer per node when tracing is enabled; the runtime
// pulses it from instrumentation points and charges the returned modeled
// overhead to the pulsing core.
#pragma once

#include <filesystem>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "trace/sampler.hpp"
#include "trace/trace_io.hpp"

namespace bgp::trace {

/// Session-level tracing knobs (carried inside pc::Options).
struct TraceConfig {
  bool enabled = false;
  /// Sampling period in cycles of the pacer clock.
  cycles_t interval_cycles = 10'000;
  /// Ring-buffer bound, in interval records per node.
  std::size_t buffer_capacity = 4096;
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
  /// the counters do. `mode` is the node's programmed counter mode.
  NodeTracer(sys::Node& node, const TraceConfig& config,
             const std::string& app_name, u8 mode);

  /// Arm the sampler (call when counting starts). Idempotent.
  void start();

  /// Instrumentation-point pulse: catch up the sampler, drain the ring
  /// buffer to disk, and return the modeled overhead cycles accrued since
  /// the last pulse (the caller charges them to the running core).
  cycles_t pulse();

  /// Disarm, drain, seal the trace (footer + atomic rename). Returns the
  /// sealed path. Idempotent after the first call.
  std::filesystem::path seal();

  [[nodiscard]] bool sealed() const noexcept { return writer_.finalized(); }
  [[nodiscard]] const Sampler& sampler() const noexcept { return sampler_; }
  [[nodiscard]] const TraceBuffer& buffer() const noexcept { return buffer_; }
  [[nodiscard]] const TraceWriter& writer() const noexcept { return writer_; }

 private:
  void drain();

  TraceBuffer buffer_;
  TraceWriter writer_;
  Sampler sampler_;
};

}  // namespace bgp::trace
