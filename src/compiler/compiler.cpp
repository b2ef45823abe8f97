#include "compiler/compiler.hpp"

#include <cmath>

namespace bgp::opt {
namespace {

using isa::FpOp;
using isa::IntOp;
using isa::LsOp;

/// Integer-overhead multiplier per level (strength reduction, scheduling,
/// induction variable cleanup).
double int_factor(const OptConfig& c) {
  switch (c.level) {
    case OptLevel::kO: return 1.0;
    case OptLevel::kO3: return 0.80;
    case OptLevel::kO4: return 0.70;
    case OptLevel::kO5: return 0.62;
  }
  return 1.0;
}

/// Unroll factor per level: divides the per-iteration branch.
unsigned unroll_factor(const OptConfig& c) {
  switch (c.level) {
    case OptLevel::kO: return 1;
    case OptLevel::kO3: return 4;
    case OptLevel::kO4: return 8;
    case OptLevel::kO5: return 8;
  }
  return 1;
}

u64 scale(u64 v, double f) {
  return static_cast<u64>(std::llround(static_cast<double>(v) * f));
}

/// Move `pairs*2` scalar ops of `from` into `pairs` SIMD ops of `to`.
void pair_ops(isa::OpMix& mix, FpOp from, FpOp to, double fraction) {
  const u64 n = mix.fp_at(from);
  const u64 pairs = scale(n, fraction) / 2;
  mix.fp_at(from) = n - pairs * 2;
  mix.fp_at(to) += pairs;
}

void pair_ls(isa::OpMix& mix, LsOp from, LsOp to, double fraction) {
  const u64 n = mix.ls_at(from);
  const u64 pairs = scale(n, fraction) / 2;
  mix.ls_at(from) = n - pairs * 2;
  mix.ls_at(to) += pairs;
}

}  // namespace

double Compiler::simd_efficiency() const noexcept {
  if (!config_.qarch440d) return 0.0;
  switch (config_.level) {
    case OptLevel::kO: return 0.0;  // SIMDizer needs -O3+ infrastructure
    case OptLevel::kO3: return 0.70;
    case OptLevel::kO4: return 0.85;
    case OptLevel::kO5: return 1.00;
  }
  return 0.0;
}

CompiledLoop Compiler::compile(const isa::LoopDesc& loop) const {
  // Work on whole-invocation totals: unrolling lets the backend pair ops
  // and amortize branches *across* iterations, so per-iteration rounding
  // would be wrong for small bodies.
  isa::OpMix total = loop.body.scaled(loop.trip);

  // ---- integer / control overhead ----------------------------------------
  total.int_at(IntOp::kAlu) =
      scale(total.int_at(IntOp::kAlu), int_factor(config_));
  total.int_at(IntOp::kMul) =
      scale(total.int_at(IntOp::kMul), int_factor(config_));

  // Unrolling: amortize the loop branches over the unroll factor.
  const unsigned uf = unroll_factor(config_);
  const u64 branches = total.int_at(IntOp::kBranch);
  total.int_at(IntOp::kBranch) = (branches + uf - 1) / uf;

  // IPA inlines calls out of hot loops; without it they stay. The inlined
  // body's work is already declared in the mix; only the call overhead
  // disappears.
  if (config_.ipa()) {
    total.int_at(IntOp::kCall) = 0;
  }

  // ---- SIMDization (-qarch440d) ------------------------------------------
  const double eff = simd_efficiency();
  if (eff > 0.0) {
    // Reductions vectorize with a small penalty (final combine, interleaved
    // partial sums).
    const double frac =
        loop.vectorizable * (loop.reduction ? 0.9 : 1.0) * eff;
    if (frac > 0.0) {
      pair_ops(total, FpOp::kAddSub, FpOp::kSimdAddSub, frac);
      pair_ops(total, FpOp::kMult, FpOp::kSimdMult, frac);
      pair_ops(total, FpOp::kFma, FpOp::kSimdFma, frac);
      // Divides are not SIMDized by the 440d backend.
      pair_ls(total, LsOp::kLoadDouble, LsOp::kLoadQuad, frac);
      if (!loop.reduction) {
        pair_ls(total, LsOp::kStoreDouble, LsOp::kStoreQuad, frac);
      }
    }
  }

  // ---- memory overlap ------------------------------------------------------
  double overlap = 1.0;
  switch (loop.locality) {
    case isa::LocalityClass::kStreaming: overlap = 3.0; break;
    case isa::LocalityClass::kBlocked: overlap = 2.0; break;
    case isa::LocalityClass::kRandom: overlap = 1.2; break;
  }
  if (config_.qhot() && loop.locality != isa::LocalityClass::kRandom) {
    // -qhot restructures loops for locality and software prefetch.
    overlap *= 1.5;
  }
  if (config_.qarch440d && eff > 0.0) {
    // Quadword accesses halve the number of outstanding requests needed to
    // cover the same bandwidth.
    overlap *= 1.0 + 0.25 * loop.vectorizable;
  }

  CompiledLoop out;
  out.name = loop.name;
  out.ops = total;
  out.mem_overlap = overlap;

  // The block event vector: every nonzero op class in enum order, then
  // INSTR_COMPLETED, with core-0 ids for rebasing at apply time.
  out.events.reserve(isa::kNumFpOps + isa::kNumLsOps + isa::kNumIntOps + 1);
  for (std::size_t i = 0; i < isa::kNumFpOps; ++i) {
    if (total.fp[i] != 0) {
      out.events.push_back({isa::ev::fpu_op(0, static_cast<FpOp>(i)),
                            total.fp[i]});
    }
  }
  for (std::size_t i = 0; i < isa::kNumLsOps; ++i) {
    if (total.ls[i] != 0) {
      out.events.push_back({isa::ev::ls_op(0, static_cast<LsOp>(i)),
                            total.ls[i]});
    }
  }
  for (std::size_t i = 0; i < isa::kNumIntOps; ++i) {
    if (total.in[i] != 0) {
      out.events.push_back({isa::ev::int_op(0, static_cast<IntOp>(i)),
                            total.in[i]});
    }
  }
  if (const u64 instr = total.total_instructions(); instr != 0) {
    out.events.push_back({isa::ev::instr_completed(0), instr});
  }
  return out;
}

}  // namespace bgp::opt
