// BT — block tri-diagonal solver with 5x5 blocks, the heaviest of the NAS
// pseudo-applications. ADI passes solve block-tridiagonal line systems
// along x, y and z: the one ADI sweep (nas/solvers.hpp, shared with SP)
// solves one block line of all five variables through every pencil. The
// block Thomas algorithm — 5x5 Gaussian elimination with partial pivoting
// for the diagonal solves, dense 5x5 multiplies for the couplings — is
// implemented from scratch and verified by the residual of every line
// system.
//
// Paper characteristics reproduced: dense 5x5 arithmetic makes BT strongly
// FMA-dominated (Fig 6) with mid-pack optimization gains (Fig 10).
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

constexpr unsigned kB = kBlock;  // 5 conserved variables

AdiGrid size_of(ProblemClass cls) {
  switch (cls) {
    case ProblemClass::kS: return {8, 8, 4, 2};
    case ProblemClass::kW: return {24, 24, 8, 2};
    case ProblemClass::kA: return {32, 32, 12, 3};
  }
  return {8, 8, 4, 2};
}

LoopDesc block_solve_loop(std::string_view name_, u64 cells) {
  LoopDesc d;
  d.name = name_;
  d.trip = cells;
  // Per cell: 5x5 factor/solve (~90 FMA) + two 5x5 matmuls (~250 FMA) +
  // block-vector ops; 5 divides from the pivoting elimination.
  d.body.fp_at(FpOp::kFma) = 340;
  d.body.fp_at(FpOp::kMult) = 30;
  d.body.fp_at(FpOp::kAddSub) = 30;
  d.body.fp_at(FpOp::kDiv) = 5;
  d.body.ls_at(LsOp::kLoadDouble) = 160;
  d.body.ls_at(LsOp::kStoreDouble) = 60;
  d.body.int_at(IntOp::kAlu) = 120;
  d.body.int_at(IntOp::kBranch) = 30;
  d.vectorizable = 0.3;  // small fixed blocks, pivot branches
  d.locality = isa::LocalityClass::kBlocked;
  return d;
}

/// Deterministic diagonally-dominant blocks at line position t.
void bt_blocks(u64 t, u64 seed, Mat5& a, Mat5& b, Mat5& c) {
  const double s = std::sin(0.013 * static_cast<double>(t + seed));
  for (unsigned i = 0; i < kB; ++i) {
    for (unsigned j = 0; j < kB; ++j) {
      const double off = 0.1 * std::cos(0.07 * (i * kB + j) + s);
      a[i * kB + j] = -0.3 + off;
      b[i * kB + j] = (i == j) ? 10.0 + s : 0.4 * off;
      c[i * kB + j] = -0.25 - off;
    }
  }
}

/// One line solve (rhs in, solution out); returns residual.
double bt_solve(u64 n, u64 seed, std::vector<double>& x) {
  return block_tridiag_solve(n, seed, bt_blocks, x);
}

/// One block line of all five variables through every pencil.
constexpr AdiMethod kAdi{kB, bt_solve, block_solve_loop,
                         {"bt_xsolve", "bt_ysolve", "bt_zsolve"},
                         {7, 11, 13}};

class BtKernel final : public Kernel {
 public:
  explicit BtKernel(ProblemClass cls) : Kernel(cls) {}

  [[nodiscard]] Benchmark id() const noexcept override {
    return Benchmark::kBT;
  }

  void run(rt::RankCtx& ctx) const override {
    const AdiGrid g = size_of(class_);
    const u64 n = g.nx * g.ny * g.nz_local * kB;
    auto u = ctx.alloc<double>(n);
    for (u64 i = 0; i < n; ++i) {
      u[i] = 1.0 + 0.002 * std::cos(0.21 * static_cast<double>(
                                               i + ctx.rank() * n));
    }
    ctx.touch(rt::MemRange{u.addr(), u.bytes(), true}, 3.0);

    const double worst = adi_sweeps(ctx, kAdi, g, u);
    const double global_worst = ctx.allreduce_max(worst);
    if (ctx.rank() == 0) {
      record(std::isfinite(global_worst) && global_worst < 1e-8,
             strfmt("max block-line residual %.3e over %u ADI sweeps",
                    global_worst, g.iterations));
    }
  }
};

}  // namespace

std::unique_ptr<Kernel> make_bt(ProblemClass cls) {
  return std::make_unique<BtKernel>(cls);
}

}  // namespace bgp::nas
