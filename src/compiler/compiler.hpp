// The optimization pipeline: lowers a source-level LoopDesc to the machine
// op bundle the selected XL option set would emit. Each pass mirrors the
// paper's description of the flags (§VI):
//
//   baseline "-O"     CSE/code motion/DCE already applied; loop overhead
//                     (induction arithmetic, branches) is unreduced.
//   -O3               strength reduction + scheduling: fewer integer ops,
//                     4x unrolling (fewer branches).
//   -O4 (+qhot etc.)  deeper unrolling, hot-loop transforms that improve
//                     spatial locality / prefetchability (higher overlap).
//   -O5 (IPA)         inlines calls out of hot loops, more integer cleanup.
//   -qarch=440d       SIMDizes the vectorizable fraction of the FP work:
//                     pairs add-sub/mult/FMA into SIMD forms and pairs
//                     double loads/stores into quadword accesses. The
//                     SIMDizable fraction it can actually exploit grows
//                     with the optimization level (better dependence and
//                     alias analysis at -O4/-O5).
#pragma once

#include <array>
#include <vector>

#include "compiler/optconfig.hpp"
#include "isa/events.hpp"
#include "isa/loop.hpp"

namespace bgp::opt {

/// A loop lowered to machine operations for one whole invocation.
struct CompiledLoop {
  std::string_view name;
  /// Total machine op counts (per-iteration mix scaled by trip count).
  isa::OpMix ops;
  /// Memory-level-parallelism factor for this loop's traffic: the cache
  /// walk's raw latency is divided by this before being charged as stall.
  double mem_overlap = 1.0;
  /// Block event vector: the nonzero per-class instruction events of one
  /// invocation (FPU, LS and integer classes in enum order, then
  /// INSTR_COMPLETED), as *core-0* mode-0 ids. This is the one definition
  /// of which events a bundle signals; the per-core variants below are
  /// derived from it.
  std::vector<isa::EventCount> events;
  /// Per-core event vectors: `events` rebased onto core c's
  /// mode-0 slice with the bundle's CYCLE_COUNT appended last. Filled by
  /// Machine::compile_cached — computing the cycle entry needs the CPU
  /// timing model, which the compiler layer deliberately does not link —
  /// and left empty by Compiler::compile().
  /// Cached per machine, so Core::execute_block counts the span into the
  /// UPC unit with no per-call copying or rebasing.
  std::array<std::vector<isa::EventCount>, isa::kCoresPerNode> core_events;
};

class Compiler {
 public:
  explicit Compiler(const OptConfig& config) noexcept : config_(config) {}

  [[nodiscard]] const OptConfig& config() const noexcept { return config_; }

  /// Lower one loop nest under the active option set.
  [[nodiscard]] CompiledLoop compile(const isa::LoopDesc& loop) const;

  /// Fraction of the declared vectorizable work the SIMDizer exploits at
  /// each level (0 when -qarch440d is off or level is -O).
  [[nodiscard]] double simd_efficiency() const noexcept;

 private:
  OptConfig config_;
};

}  // namespace bgp::opt
