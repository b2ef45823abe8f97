// The BG/P collective (tree) network and the global barrier/interrupt
// network. The tree supports broadcast and integer/floating reductions in
// the network; latency grows with tree depth, bandwidth is fixed
// (~6.8 Gb/s). The barrier network delivers a global notification in under
// a microsecond.
#pragma once

#include <vector>

#include "upc/upc_unit.hpp"

namespace bgp::net {

struct CollectiveParams {
  /// Per-tree-level latency in core cycles.
  cycles_t level_latency = 120;
  /// Payload bandwidth through the tree in bytes per core cycle
  /// (6.8 Gb/s at 850 MHz = 1 B/cycle).
  double bytes_per_cycle = 1.0;
  /// Combine/forward fixed software overhead per operation.
  cycles_t sw_overhead = 400;
};

class CollectiveNet {
 public:
  explicit CollectiveNet(unsigned nodes, const CollectiveParams& params = {});

  [[nodiscard]] unsigned nodes() const noexcept {
    return static_cast<unsigned>(upcs_.size());
  }
  [[nodiscard]] const CollectiveParams& params() const noexcept {
    return params_;
  }

  /// Tree depth for the attached node count.
  [[nodiscard]] unsigned depth() const noexcept;
  /// Tree depth when the spanning tree is re-routed over `live` nodes
  /// (after failures/shrink, the dead subtrees are pruned).
  [[nodiscard]] static unsigned depth_for(unsigned live) noexcept;

  /// Completion time of a broadcast/reduction of `bytes`, measured from the
  /// moment the last participant enters.
  [[nodiscard]] cycles_t op_cycles(u64 bytes) const;
  /// Same, over a tree pruned to `live` nodes. Equals op_cycles(bytes)
  /// when live == nodes().
  [[nodiscard]] cycles_t op_cycles_live(u64 bytes, unsigned live) const;

  /// Attach the UPC unit of `node` (its mode-2 events count there).
  void attach_upc(unsigned node, upc::UpcUnit* upc);

  /// Account one collective of `bytes` on every participating node.
  void record_operation(u64 bytes, cycles_t latency);

 private:
  CollectiveParams params_;
  std::vector<upc::UpcUnit*> upcs_;
};

struct BarrierParams {
  /// Base latency of the global-interrupt network plus a per-doubling term.
  cycles_t base_latency = 300;
  cycles_t per_level_latency = 40;
};

class BarrierNet {
 public:
  explicit BarrierNet(unsigned nodes, const BarrierParams& params = {});

  [[nodiscard]] cycles_t barrier_cycles() const noexcept;
  /// Barrier latency when only `live` nodes participate (FT mode after a
  /// shrink). Equals barrier_cycles() when live == the attached count.
  [[nodiscard]] cycles_t barrier_cycles_live(unsigned live) const noexcept;

  void attach_upc(unsigned node, upc::UpcUnit* upc);
  /// Account one barrier entry per node plus the measured wait per node.
  void record_barrier(cycles_t wait_cycles_total);

 private:
  unsigned nodes_;
  BarrierParams params_;
  std::vector<upc::UpcUnit*> upcs_;
};

}  // namespace bgp::net
