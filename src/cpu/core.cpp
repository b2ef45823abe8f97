#include "cpu/core.hpp"

#include <algorithm>
#include <cmath>

namespace bgp::cpu {

namespace ev = isa::ev;

Core::Core(unsigned id, const CoreParams& params, upc::UpcUnit& upc) noexcept
    : id_(id), params_(params), upc_(upc) {}

cycles_t Core::read_timebase() noexcept {
  upc_.signal(ev::system(isa::SysEvent::kTimebaseReads, id_));
  return now_;
}

cycles_t Core::bundle_cycles(const isa::OpMix& mix, const CoreParams& params) {
  const u64 total = mix.total_instructions();
  if (total == 0) return 0;

  // Issue bound: two instructions per cycle through the front end.
  const u64 issue =
      (total + params.issue_width - 1) / params.issue_width;

  // FPU occupancy: every FP instruction (scalar or SIMD) occupies the unit
  // one cycle; divides are unpipelined.
  const u64 divs = mix.fp_at(isa::FpOp::kDiv) + mix.fp_at(isa::FpOp::kSimdDiv);
  const u64 fpu =
      (mix.total_fp_instructions() - divs) + divs * params.fp_div_cycles;

  // LSU occupancy: one load/store per cycle regardless of width (quad
  // load/stores move 16 B in the same slot — that is the SIMD win).
  u64 lsu = 0;
  for (u64 c : mix.ls) lsu += c;

  const u64 busiest = std::max({issue, fpu, lsu});

  // Branch mispredictions refill the 7-stage pipe.
  const u64 branches = mix.int_at(isa::IntOp::kBranch);
  const auto mispredicts = static_cast<u64>(
      std::llround(static_cast<double>(branches) * params.mispredict_rate));
  // Calls pay a fixed link/return overhead pair.
  const u64 call_cost = mix.int_at(isa::IntOp::kCall) * params.call_cost;

  return busiest + mispredicts * params.mispredict_penalty + call_cost;
}

cycles_t Core::execute_block(const isa::OpMix& mix,
                             std::span<const isa::EventCount> prebased) {
  const cycles_t cycles = bundle_cycles(mix, params_);
  // The vector already carries this core's ids and the bundle's
  // CYCLE_COUNT (the compile cache rebased and appended them once).
  for (const isa::EventCount& e : prebased) upc_.signal(e.id, e.count);
  now_ += cycles;
  return cycles;
}

void Core::advance(cycles_t cycles) {
  now_ += cycles;
  upc_.signal(ev::cycle_count(id_), cycles);
}

void Core::sync_to(cycles_t t) {
  if (t > now_) advance(t - now_);
}

}  // namespace bgp::cpu
