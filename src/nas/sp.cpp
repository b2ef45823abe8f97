// SP — scalar penta-diagonal solver. ADI-style passes factor the implicit
// operator into independent penta-diagonal line systems along x, y and z
// (after diagonalization NPB SP solves scalar penta systems per component):
// the one ADI sweep (nas/solvers.hpp, shared with BT) solves five scalar
// lines, one per component, through every pencil. The 5-band Gaussian
// elimination (two sub-diagonals forward, two super-diagonals back) is
// implemented for real and verified by the residual of every line system.
//
// Paper characteristics reproduced: FMA-dominated with a visible divide
// component (the eliminations), moderate SIMD gains (Fig 10), and the
// square-rank-count convention (the paper runs SP on 121 processes).
#include <cmath>
#include <vector>

#include "common/strfmt.hpp"
#include "nas/kernel.hpp"
#include "nas/solvers.hpp"

namespace bgp::nas {
namespace {

using isa::FpOp;
using isa::IntOp;
using isa::LoopDesc;
using isa::LsOp;

AdiGrid size_of(ProblemClass cls) {
  switch (cls) {
    case ProblemClass::kS: return {12, 12, 4, 2};
    case ProblemClass::kW: return {32, 32, 8, 3};
    case ProblemClass::kA: return {56, 56, 16, 3};
  }
  return {12, 12, 4, 2};
}

LoopDesc solve_loop(std::string_view name_, u64 cells) {
  LoopDesc d;
  d.name = name_;
  d.trip = cells;
  // Forward elimination (two multipliers) + back substitution per cell.
  d.body.fp_at(FpOp::kFma) = 9;
  d.body.fp_at(FpOp::kMult) = 3;
  // Reciprocals of the pivots are reused across the line (as NPB SP does),
  // so the per-cell divide count stays low.
  d.body.fp_at(FpOp::kDiv) = 1;
  d.body.fp_at(FpOp::kAddSub) = 2;
  d.body.ls_at(LsOp::kLoadDouble) = 8;
  d.body.ls_at(LsOp::kStoreDouble) = 3;
  d.body.int_at(IntOp::kAlu) = 8;
  d.body.int_at(IntOp::kBranch) = 2;
  d.vectorizable = 0.35;  // recurrences along the line
  d.locality = isa::LocalityClass::kStreaming;
  return d;
}

/// Deterministic diagonally-dominant penta bands for line position t.
PentaBands sp_bands(u64 t, u64 line_seed) {
  const double v = std::sin(0.01 * static_cast<double>(t + line_seed));
  return PentaBands{-0.5 + 0.1 * v, -1.0 - 0.1 * v, 8.0 + v, -1.0 + 0.05 * v,
                    -0.5 - 0.05 * v};
}

/// Solve one penta line in place (rhs in, solution out); returns residual.
double sp_solve(u64 n, u64 seed, std::vector<double>& x) {
  return penta_solve(n, seed, sp_bands, x);
}

/// Five scalar penta lines through every pencil.
constexpr AdiMethod kAdi{1, sp_solve, solve_loop,
                         {"sp_xsolve", "sp_ysolve", "sp_zsolve"},
                         {17, 23, 31}};

class SpKernel final : public Kernel {
 public:
  explicit SpKernel(ProblemClass cls) : Kernel(cls) {}

  [[nodiscard]] Benchmark id() const noexcept override {
    return Benchmark::kSP;
  }

  void run(rt::RankCtx& ctx) const override {
    const AdiGrid g = size_of(class_);
    const u64 n = g.nx * g.ny * g.nz_local * kBlock;
    auto u = ctx.alloc<double>(n);
    for (u64 i = 0; i < n; ++i) {
      u[i] = 1.0 + 0.001 * std::sin(0.37 * static_cast<double>(
                                               i + ctx.rank() * n));
    }
    ctx.touch(rt::MemRange{u.addr(), u.bytes(), true}, 3.0);

    const double worst = adi_sweeps(ctx, kAdi, g, u);
    const double global_worst = ctx.allreduce_max(worst);
    if (ctx.rank() == 0) {
      record(std::isfinite(global_worst) && global_worst < 1e-9,
             strfmt("max line residual %.3e over %u ADI sweeps", global_worst,
                    g.iterations));
    }
  }
};

}  // namespace

std::unique_ptr<Kernel> make_sp(ProblemClass cls) {
  return std::make_unique<SpKernel>(cls);
}

}  // namespace bgp::nas
