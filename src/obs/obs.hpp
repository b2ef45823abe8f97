// Flight recorder: the process-wide observability hub. Owns one
// SpanRecorder per (node, core) plus the MetricsRegistry every subsystem
// feeds, and pre-registers handles for the well-known metrics so hot
// instrumentation sites never do a name lookup.
//
// Installation is a single global pointer: every site is written as
//
//   if (auto* fr = obs::recorder()) { ... }
//
// so with no recorder installed (the default) the entire layer costs one
// load-and-branch and, crucially, never touches a simulated clock —
// disabled runs stay byte-identical to an uninstrumented build
// (bench/tab_overhead asserts this).
#pragma once

#include <chrono>
#include <memory>
#include <vector>

#include "common/types.hpp"
#include "obs/metrics.hpp"
#include "obs/span_recorder.hpp"

namespace bgp::obs {

struct ObsConfig {
  /// Master switch; pc::Session creates and installs a FlightRecorder
  /// when set.
  bool enabled = false;
  /// Per-rank span/instant ring capacity (oldest evicted beyond this).
  std::size_t span_capacity = std::size_t{1} << 16;
  /// Simulated cycles billed to the instrumented core per recorded span,
  /// charged *after* the span closes so durations measure the activity
  /// alone. docs/observability.md documents the budget; tab_overhead
  /// asserts it. Set to 0 for a zero-perturbation recording.
  cycles_t per_span_overhead = 4;
  /// Write per-node .bgps span files next to the dumps at finalize (read
  /// back by bgpc_obs).
  bool write_spans = true;

  bool operator==(const ObsConfig&) const = default;
};

/// Collective kinds with a dedicated latency histogram.
enum class CollOp : u8 { kBarrier, kBcast, kAllreduce, kAlltoall, kAllgather };
inline constexpr unsigned kNumCollOps = 5;
[[nodiscard]] std::string_view to_string(CollOp op) noexcept;

/// Pre-registered handles for the metrics the simulator itself maintains
/// (stable addresses; see MetricsRegistry). Everything here also remains
/// reachable through the registry by name.
struct WellKnown {
  Counter* upc_initialize_calls = nullptr;
  Counter* upc_start_calls = nullptr;
  Counter* upc_stop_calls = nullptr;
  Counter* upc_finalize_calls = nullptr;
  Counter* upc_overhead_cycles = nullptr;
  Counter* dump_writes = nullptr;
  Counter* dump_bytes = nullptr;
  Counter* dump_retries = nullptr;
  Counter* dump_failures = nullptr;
  Counter* trace_seals = nullptr;
  Counter* trace_samples = nullptr;
  Counter* trace_intervals = nullptr;
  Counter* trace_drops = nullptr;
  Counter* rank_deaths = nullptr;
  Counter* ranks_stranded = nullptr;
  Counter* deaths_detected = nullptr;
  Counter* ft_revokes = nullptr;
  Counter* ft_agreements = nullptr;
  Counter* ft_shrinks = nullptr;
  Counter* coll_ops = nullptr;
  Counter* coll_bytes = nullptr;
  Counter* barrier_entries = nullptr;
  Gauge* spans_recorded = nullptr;
  Gauge* spans_dropped = nullptr;
  Histogram* coll_cycles[kNumCollOps] = {};
};

class FlightRecorder {
 public:
  FlightRecorder(unsigned nodes, unsigned cores_per_node,
                 ObsConfig config = {});

  [[nodiscard]] SpanRecorder& rank(unsigned node, unsigned core) {
    return recorders_[node * cores_per_node_ + core];
  }
  [[nodiscard]] const SpanRecorder& rank(unsigned node, unsigned core) const {
    return recorders_[node * cores_per_node_ + core];
  }
  [[nodiscard]] MetricsRegistry& metrics() noexcept { return metrics_; }
  [[nodiscard]] const MetricsRegistry& metrics() const noexcept {
    return metrics_;
  }
  [[nodiscard]] const WellKnown& wk() const noexcept { return wk_; }
  [[nodiscard]] const ObsConfig& config() const noexcept { return config_; }
  [[nodiscard]] unsigned nodes() const noexcept { return nodes_; }
  [[nodiscard]] unsigned cores_per_node() const noexcept {
    return cores_per_node_;
  }

  /// Refresh the recorder's self-metrics (span totals/drops) from the
  /// per-rank rings; exporters call this before rendering.
  void update_self_metrics();

  /// All completed spans / instants, ordered by (node, core, begin time).
  [[nodiscard]] std::vector<SpanRec> all_spans() const;
  [[nodiscard]] std::vector<InstantRec> all_instants() const;
  /// One node's share of the above (for per-node span files).
  [[nodiscard]] std::vector<SpanRec> node_spans(unsigned node) const;
  [[nodiscard]] std::vector<InstantRec> node_instants(unsigned node) const;
  [[nodiscard]] u64 spans_dropped() const noexcept;

 private:
  ObsConfig config_;
  unsigned nodes_;
  unsigned cores_per_node_;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<SpanRecorder> recorders_;
  MetricsRegistry metrics_;
  WellKnown wk_;
};

namespace detail {
inline FlightRecorder* g_recorder = nullptr;
}

/// The installed recorder, or nullptr when observability is off. The
/// null check *is* the disabled fast path.
[[nodiscard]] inline FlightRecorder* recorder() noexcept {
  return detail::g_recorder;
}
void set_recorder(FlightRecorder* fr) noexcept;

/// The installed recorder's latency histogram for `op`, or nullptr.
[[nodiscard]] Histogram* collective_histogram(CollOp op) noexcept;

}  // namespace bgp::obs
