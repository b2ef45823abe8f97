// Configuration of a performance-counter monitoring session.
#pragma once

#include <filesystem>
#include <string>

#include "common/types.hpp"
#include "obs/obs.hpp"
#include "trace/tracer.hpp"

namespace bgp::fault {
class FaultInjector;
}

namespace bgp::pc {

struct Options {
  /// Counter mode programmed on even-numbered node cards. Together with
  /// `mode_odd_cards` this implements the paper's §IV scheme: "512 events
  /// can be monitored in one single run by monitoring the first 256 events
  /// in the even numbered node cards and the second 256 events in the odd
  /// numbered node cards".
  u8 mode_even_cards = 0;
  u8 mode_odd_cards = 1;

  /// Directory receiving the per-node binary dump files.
  std::filesystem::path dump_dir = ".";
  /// Application name used in dump file names and records.
  std::string app_name = "app";

  /// Skip writing dump files (counters stay queryable in memory).
  bool write_dumps = true;

  /// Extra attempts after a failed dump write before the node's dump is
  /// declared lost (writes are atomic: temp file + rename, so a failed
  /// attempt never leaves a half-written .bgpc behind).
  unsigned dump_write_retries = 3;

  /// Optional fault-injection oracle (not owned). When set, the interface
  /// library consults it for counter-wrap defects and dump-write faults.
  fault::FaultInjector* fault = nullptr;

  /// Time-series tracing (off by default): when enabled the session attaches
  /// a threshold-driven trace::NodeTracer to every node and streams
  /// per-interval counter deltas into <trace.trace_dir>/<app>.node<N>.bgpt
  /// files.
  trace::TraceConfig trace;

  /// Flight recorder (off by default): when enabled the session installs
  /// an obs::FlightRecorder for the run — structured spans around library
  /// calls, collectives, FT recovery and dump writes, plus the process
  /// metrics registry — and writes per-node <app>.node<N>.bgps span files
  /// into dump_dir at finalize (see docs/observability.md).
  obs::ObsConfig obs;
};

/// Maximum number of instrumentation sets (start/stop pairs).
inline constexpr unsigned kMaxSets = 16;

/// Overhead model, calibrated to the paper's measurement: "the total
/// overhead encountered in initializing the UPC unit, the start() and the
/// stop() functions were measured to be 196 machine cycles".
inline constexpr cycles_t kInitOverhead = 120;
inline constexpr cycles_t kStartOverhead = 40;
inline constexpr cycles_t kStopOverhead = 36;
/// Finalize is dominated by writing the dump file; the paper notes this
/// happens after monitoring stops and therefore does not perturb the
/// counter data.
inline constexpr cycles_t kFinalizeOverhead = 20000;

/// Combined instrumentation overhead on the measurement path (§IV).
[[nodiscard]] constexpr cycles_t measured_overhead() noexcept {
  return kInitOverhead + kStartOverhead + kStopOverhead;
}

}  // namespace bgp::pc
