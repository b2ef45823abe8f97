// The interface library (the paper's §IV contribution): four user-facing
// calls — BGP_Initialize, BGP_Start, BGP_Stop, BGP_Finalize — plus the MPI
// integration that instruments any MPI application without code changes,
// and the binary dump files the post-processing tools mine.
#pragma once

#include <memory>
#include <vector>

#include "core/node_monitor.hpp"
#include "obs/obs.hpp"
#include "runtime/machine.hpp"
#include "runtime/rankctx.hpp"
#include "trace/tracer.hpp"

namespace bgp::pc {

/// What happened when a node's dump was written (one record per node that
/// reached BGP_Finalize with write_dumps on). Injected I/O errors are
/// retried up to Options::dump_write_retries times; `ok == false` means the
/// node's data is lost and the miner must run degraded.
struct DumpWriteOutcome {
  unsigned node = 0;
  std::filesystem::path path;
  unsigned attempts = 0;
  bool ok = false;
  std::string error;                  ///< last failure (empty when clean)
  std::vector<std::string> injected;  ///< silent corruption applied, if any
};

/// What happened when a node's trace was sealed at BGP_Finalize (only with
/// Options::trace.enabled). A node that dies before finalizing gets no
/// record — its `.bgpt.partial` stays behind for degraded mining.
struct TraceSealOutcome {
  unsigned node = 0;
  std::filesystem::path path;
  bool ok = false;
  std::string error;  ///< why sealing failed (empty when clean)
};

class Session {
 public:
  /// One session per Machine run. `options.app_name` names the dump files.
  Session(rt::Machine& machine, Options options = {});
  /// Uninstalls the flight recorder if this session installed it.
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  // ---- the four library calls (paper Fig 4/5 workflow) --------------------
  /// Select the counter mode (by node-card parity), configure and clear all
  /// 256 counters. Charges the calling core the library overhead.
  void BGP_Initialize(rt::RankCtx& ctx);
  /// Begin monitoring `set`; counter data accumulates until BGP_Stop(set).
  void BGP_Start(rt::RankCtx& ctx, unsigned set = 0);
  /// Stop monitoring `set` and fold the counter delta into its record.
  void BGP_Stop(rt::RankCtx& ctx, unsigned set = 0);
  /// Dump each node's records into a binary file (<app>.node<N>.bgpc). The
  /// write happens after monitoring stopped, so it lengthens execution but
  /// does not perturb the counters (§IV).
  void BGP_Finalize(rt::RankCtx& ctx);

  /// Install the "new MPI library" behaviour: BGP_Initialize + BGP_Start
  /// run inside MPI_Init, BGP_Stop + BGP_Finalize inside MPI_Finalize, so
  /// linking a session instruments an application with no code changes.
  void link_with_mpi(unsigned set = 0);

  /// Arm thresholding on the counter monitoring `event` (if the node's
  /// programmed mode covers it): an interrupt fires when the counter
  /// crosses `threshold` (paper §I: dynamic feedback to system tasks).
  void arm_threshold(rt::RankCtx& ctx, isa::EventId event, u64 threshold);

  // ---- post-run access ------------------------------------------------------
  [[nodiscard]] NodeMonitor& monitor(unsigned node) {
    return *monitors_.at(node);
  }
  [[nodiscard]] const Options& options() const noexcept { return options_; }
  /// Dump files written by BGP_Finalize (one per node), in node order.
  [[nodiscard]] const std::vector<std::filesystem::path>& dump_files()
      const noexcept {
    return dump_files_;
  }
  /// In-memory dumps of every finalized node (also available when
  /// write_dumps is off), in finalize order.
  [[nodiscard]] const std::vector<NodeDump>& dumps() const noexcept {
    return dumps_;
  }
  /// Per-node write results, in finalize order (empty when write_dumps is
  /// off). Nodes that died before finalizing have no entry.
  [[nodiscard]] const std::vector<DumpWriteOutcome>& write_outcomes()
      const noexcept {
    return write_outcomes_;
  }

  /// Sealed trace files, in node order (empty unless tracing is enabled).
  [[nodiscard]] const std::vector<std::filesystem::path>& trace_files()
      const noexcept {
    return trace_files_;
  }
  /// Per-node trace sealing results, in finalize order.
  [[nodiscard]] const std::vector<TraceSealOutcome>& trace_outcomes()
      const noexcept {
    return trace_outcomes_;
  }
  /// The node's tracer, or nullptr when tracing is off (or the node never
  /// reached BGP_Initialize).
  [[nodiscard]] const trace::NodeTracer* tracer(unsigned node) const {
    return tracers_.at(node).get();
  }

  /// The session's flight recorder, or nullptr when Options::obs is off
  /// (or another recorder was already installed process-wide).
  [[nodiscard]] obs::FlightRecorder* flight_recorder() noexcept {
    return recorder_.get();
  }
  /// Per-node .bgps span files written at finalize, in node order (empty
  /// unless the flight recorder is on with write_spans).
  [[nodiscard]] const std::vector<std::filesystem::path>& span_files()
      const noexcept {
    return span_files_;
  }

  // ---- cancelled-run recovery (signal handlers, daemon drain/kill) --------
  /// Seal every still-open trace (footer + atomic rename) so no
  /// half-written `.bgpt.partial` is left behind. BGP_Finalize seals a
  /// node's trace itself; this covers nodes the cancellation stopped short
  /// of finalizing. Call after Machine::run() returned or threw.
  void seal_all_traces();
  /// Checkpoint-dump every initialized node that never reached its
  /// finalize: force-stop the active sets at the node's current timebase
  /// and write the dump through the usual atomic temp+rename path. Dead
  /// nodes are skipped (their counter state died with them). Call after
  /// Machine::run() threw rt::RunStopped.
  void checkpoint_dump();

 private:
  void attach_tracer(unsigned node);
  /// Seal the node's open trace and record the outcome (and the file).
  void seal_trace(unsigned node);
  /// The original BGP_Finalize body; true when this call completed the
  /// node (its dump was taken).
  bool finalize_node(rt::RankCtx& ctx);
  /// Shared atomic dump-write path (temp + rename, bounded retries);
  /// records the outcome and file list.
  DumpWriteOutcome write_dump_file(const NodeDump& dump, unsigned node);
  void write_node_spans(unsigned node);

  rt::Machine& machine_;
  Options options_;
  std::vector<std::unique_ptr<NodeMonitor>> monitors_;
  std::vector<std::unique_ptr<trace::NodeTracer>> tracers_;
  std::vector<unsigned> finalize_calls_;  ///< per node
  std::vector<NodeDump> dumps_;
  std::vector<std::filesystem::path> dump_files_;
  std::vector<DumpWriteOutcome> write_outcomes_;
  std::vector<std::filesystem::path> trace_files_;
  std::vector<TraceSealOutcome> trace_outcomes_;
  std::unique_ptr<obs::FlightRecorder> recorder_;
  bool installed_recorder_ = false;
  std::vector<std::filesystem::path> span_files_;
};

}  // namespace bgp::pc
