// Timeline mining over per-node trace files: a streaming interval-by-
// interval merge (one pending record per trace, never the whole set in
// memory), per-interval derived metrics (MFLOPS, L3↔DDR bandwidth,
// instruction-mix drift), and change-point phase detection over the merged
// timeline. Degraded-mode aware like the dump pipeline: corrupt traces are
// skipped and reported, footer-less partials from dead nodes truncate
// cleanly, and every result carries a coverage annotation.
#pragma once

#include <filesystem>
#include <string>
#include <vector>

#include "postproc/pipeline.hpp"
#include "trace/trace_io.hpp"

namespace bgp::post {

struct TimelineOptions {
  /// Normalized signature distance above which an interval opens a new
  /// phase (L1 distance over the metric signature, each component in
  /// [0, 1]).
  double change_threshold = 0.35;
  /// Shortest run of intervals that counts as a phase; shorter excursions
  /// are folded into the surrounding phase.
  unsigned min_phase_intervals = 4;
  /// Also mine `.bgpt.partial` files (dead-node leftovers).
  bool include_partial = true;
  /// Number of traces the run was supposed to produce. 0 = infer as
  /// max(node_id) + 1 over the traces that loaded.
  unsigned expected_nodes = 0;
};

/// Merged metrics for one sampling interval across the contributing nodes.
struct IntervalMetrics {
  u64 index = 0;
  cycles_t t_begin = 0;
  cycles_t t_end = 0;
  unsigned nodes = 0;  ///< traces contributing to this interval
  double flops = 0;
  double instructions = 0;
  double mflops = 0;          ///< aggregate across contributing nodes
  double ddr_read_mbs = 0;    ///< DDR read bandwidth, MB/s
  double ddr_write_mbs = 0;   ///< DDR write bandwidth, MB/s
  double fp_fraction = 0;     ///< FP instrs / completed instrs
  double ls_fraction = 0;     ///< load-store instrs / completed instrs
  double simd_fraction = 0;   ///< SIMD FP instrs / FP instrs
};

/// One detected phase: a maximal run of intervals with a stable signature.
struct PhaseRecord {
  unsigned id = 0;
  u64 first_interval = 0;
  u64 last_interval = 0;
  cycles_t t_begin = 0;
  cycles_t t_end = 0;
  double mflops = 0;         ///< mean over the phase's intervals
  double ddr_read_mbs = 0;
  double ddr_write_mbs = 0;
  double fp_fraction = 0;
  double ls_fraction = 0;
  double simd_fraction = 0;
};

struct TimelineReport {
  bool ok = false;
  Coverage coverage;  ///< expected / loaded / mined trace counts
  /// Everything wrong with the batch: unreadable traces, CRC failures,
  /// interval-geometry mismatches, missing nodes.
  std::vector<std::string> problems;
  /// Traces that ended without a footer (dead nodes) — their node ids.
  std::vector<unsigned> truncated_nodes;
  cycles_t interval_cycles = 0;
  u64 dropped_intervals = 0;       ///< summed footer drop counts
  cycles_t overhead_cycles = 0;    ///< summed modeled sampling overhead
  std::vector<IntervalMetrics> intervals;
  std::vector<PhaseRecord> phases;
};

/// List every `<app>.node*.bgpt` (and `.bgpt.partial` when requested)
/// under `dir`, sorted by path. Empty `app` matches any app.
[[nodiscard]] std::vector<std::filesystem::path> list_trace_files(
    const std::filesystem::path& dir, const std::string& app,
    bool include_partial = true);

/// Mine an explicit trace file list. Never throws on bad data — every
/// failure mode is reported through TimelineReport::problems.
[[nodiscard]] TimelineReport mine_timeline(
    const std::vector<std::filesystem::path>& files,
    const TimelineOptions& opts = {});

/// Mine `<app>.node*.bgpt[.partial]` under `dir`.
[[nodiscard]] TimelineReport mine_timeline(const std::filesystem::path& dir,
                                           const std::string& app,
                                           const TimelineOptions& opts = {});

/// Per-interval timeline as CSV (one row per interval).
[[nodiscard]] std::string interval_csv(const TimelineReport& report);
/// Detected phases as CSV (one row per phase).
[[nodiscard]] std::string phase_csv(const TimelineReport& report);
/// Human-readable phase report with the coverage annotation.
[[nodiscard]] std::string render_timeline(const TimelineReport& report);

}  // namespace bgp::post
