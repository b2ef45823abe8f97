// Per-node monitoring agent. The UPC unit's configuration and counters are
// globally accessible on the node (paper §I), so a single agent manages
// them no matter how many processes the node hosts; rank-level API calls
// delegate here and only the first/last call per node actually touches the
// unit.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "core/dumpformat.hpp"
#include "core/options.hpp"
#include "sys/node.hpp"

namespace bgp::pc {

class NodeMonitor {
 public:
  NodeMonitor(sys::Node& node, const Options& options);

  /// Program the unit: counter mode by card parity, all counters enabled,
  /// edge-rise signaling, counters cleared. Idempotent per run.
  void initialize();

  /// Begin/extend monitoring for `set`. The first active start on the node
  /// snapshots the counters and starts the unit.
  void start(unsigned set, cycles_t now);

  /// End monitoring for `set`. When the last concurrently-started monitor
  /// of the set stops, the counter delta is accumulated into the set.
  void stop(unsigned set, cycles_t now);

  /// End every set still being monitored, folding the counter deltas as of
  /// `now` — the checkpoint path for runs cancelled before the application
  /// reached its own BGP_Stop calls. No-op for sets that are not active.
  void force_stop_all(cycles_t now);

  /// Write (or just assemble) the dump record. Returns the dump contents.
  [[nodiscard]] NodeDump finalize();

  /// Serialize/parse the on-disk format. The writer emits v3 when the dump
  /// carries recovery events and v2 otherwise; the reader accepts both.
  [[nodiscard]] static std::vector<std::byte> serialize(const NodeDump& dump);
  [[nodiscard]] static NodeDump parse(std::span<const std::byte> bytes);

  [[nodiscard]] bool initialized() const noexcept { return initialized_; }
  [[nodiscard]] u8 programmed_mode() const noexcept { return mode_; }
  [[nodiscard]] const SetDump& set_record(unsigned set) const {
    return sets_.at(set);
  }
  [[nodiscard]] sys::Node& node() noexcept { return node_; }

 private:
  struct ActiveSet {
    unsigned active_starts = 0;
    std::array<u64, isa::kCountersPerUnit> start_snapshot{};
  };

  sys::Node& node_;
  Options options_;
  u8 mode_ = 0;
  bool initialized_ = false;
  unsigned unit_users_ = 0;  ///< sets currently holding the unit running
  std::vector<SetDump> sets_;
  std::vector<ActiveSet> active_;
};

}  // namespace bgp::pc
