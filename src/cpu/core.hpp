// PPC450 core timing model. The PowerPC 450 is a 2-way superscalar,
// 7-stage-pipeline embedded core; each BG/P core carries a dual-pipeline
// SIMD floating point unit ("double hummer") able to complete one FP
// instruction per cycle — up to 4 flops/cycle via SIMD FMA, giving the
// node's 13.6 GFLOPS peak at 850 MHz.
//
// The model is a bottleneck/occupancy model: a compiled op bundle costs
// max(issue slots / width, FPU occupancy, LSU occupancy) plus branch
// misprediction and divide penalties. Memory stalls are charged separately
// (see runtime::RankCtx), because they come from the cache walk of the real
// address streams.
#pragma once

#include <span>

#include "isa/events.hpp"
#include "isa/ops.hpp"
#include "upc/upc_unit.hpp"

namespace bgp::cpu {

struct CoreParams {
  unsigned issue_width = 2;
  /// Unpipelined FP divide occupancy.
  cycles_t fp_div_cycles = 28;
  /// Extra pipeline-refill penalty per mispredicted branch (7-stage pipe).
  cycles_t mispredict_penalty = 7;
  /// Fraction of branches mispredicted (loop-dominated HPC codes predict
  /// extremely well).
  double mispredict_rate = 0.02;
  /// Link/return/spill overhead per un-inlined call (pair).
  cycles_t call_cost = 8;
};

/// One PPC450 core. The runtime guarantees single-threaded access.
class Core {
 public:
  /// Events count into `upc`, the node's UPC unit.
  Core(unsigned id, const CoreParams& params, upc::UpcUnit& upc) noexcept;

  [[nodiscard]] unsigned id() const noexcept { return id_; }

  /// Current core time in cycles (also the Time Base value).
  [[nodiscard]] cycles_t now() const noexcept { return now_; }

  /// Read the Time Base register (counts like the UPC CYCLE_COUNT event;
  /// the interface library's overhead check compares against it, §IV).
  [[nodiscard]] cycles_t read_timebase() noexcept;

  /// Execute a compiled op bundle: charge its compute cycles and count its
  /// events. `prebased` is the bundle's event vector for THIS core — the
  /// compile cache's per-class counts rebased onto this core's mode-0 ids
  /// with the bundle's CYCLE_COUNT (equal to bundle_cycles(mix, params))
  /// appended last; see opt::CompiledLoop::core_events. Returns the
  /// cycles charged.
  cycles_t execute_block(const isa::OpMix& mix,
                         std::span<const isa::EventCount> prebased);

  /// Charge cycles with no instruction activity: exposed memory stalls,
  /// time blocked in communication and runtime overheads (e.g. the
  /// interface library's 196-cycle instrumentation cost). The clock and
  /// CYCLE_COUNT advance together.
  void advance(cycles_t cycles);

  /// Jump the core's clock forward to `t` (collective synchronization);
  /// no-op if `t` is in the past.
  void sync_to(cycles_t t);

  /// Pure function: compute cycles the bundle occupies, given the params.
  [[nodiscard]] static cycles_t bundle_cycles(const isa::OpMix& mix,
                                              const CoreParams& params);

 private:
  unsigned id_;
  CoreParams params_;
  upc::UpcUnit& upc_;
  cycles_t now_ = 0;
};

}  // namespace bgp::cpu
