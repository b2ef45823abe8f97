// LU — SSOR-style lower/upper sweeps for a 7-point operator on a 3D grid,
// slab-partitioned along z with the benchmark's signature wavefront
// pipeline: the lower sweep ripples bottom-up (each rank waits for the
// boundary plane of the rank below), the upper sweep ripples top-down.
//
// Paper characteristics reproduced: FMA-dominated mix with limited
// SIMDizability (the sweeps carry dependencies), moderate optimization
// gains (Fig 10).
#include <cmath>
#include <vector>

#include "common/strfmt.hpp"
#include "nas/kernel.hpp"

namespace bgp::nas {
namespace {

using isa::FpOp;
using isa::IntOp;
using isa::LoopDesc;
using isa::LsOp;

struct LuSize {
  u64 nx, ny, nz_local;
  unsigned iterations;
};

LuSize size_of(ProblemClass cls) {
  switch (cls) {
    case ProblemClass::kS: return {16, 16, 4, 3};
    case ProblemClass::kW: return {48, 48, 12, 4};
    case ProblemClass::kA: return {64, 64, 24, 4};
  }
  return {16, 16, 4, 3};
}

LoopDesc sweep_loop(std::string_view name_, u64 points) {
  LoopDesc d;
  d.name = name_;
  d.trip = points;
  // Triangular solve step: 3 neighbour FMAs + diagonal scale + update.
  d.body.fp_at(FpOp::kFma) = 5;
  d.body.fp_at(FpOp::kMult) = 1;
  d.body.fp_at(FpOp::kAddSub) = 2;
  d.body.ls_at(LsOp::kLoadDouble) = 5;
  d.body.ls_at(LsOp::kStoreDouble) = 1;
  d.body.int_at(IntOp::kAlu) = 8;
  d.body.int_at(IntOp::kBranch) = 2;
  d.vectorizable = 0.3;  // wavefront dependencies
  d.locality = isa::LocalityClass::kStreaming;
  return d;
}

LoopDesc residual_loop(u64 points) {
  LoopDesc d;
  d.name = "lu_residual";
  d.trip = points;
  d.body.fp_at(FpOp::kFma) = 6;
  d.body.fp_at(FpOp::kAddSub) = 2;
  d.body.ls_at(LsOp::kLoadDouble) = 8;
  d.body.ls_at(LsOp::kStoreDouble) = 1;
  d.body.int_at(IntOp::kAlu) = 6;
  d.body.int_at(IntOp::kBranch) = 1;
  d.vectorizable = 0.6;
  d.locality = isa::LocalityClass::kStreaming;
  return d;
}

class LuKernel final : public Kernel {
 public:
  explicit LuKernel(ProblemClass cls) : Kernel(cls) {}

  [[nodiscard]] Benchmark id() const noexcept override {
    return Benchmark::kLU;
  }

  void run(rt::RankCtx& ctx) const override {
    const LuSize sz = size_of(class_);
    const unsigned p = ctx.size();
    const unsigned r = ctx.rank();
    const u64 plane = sz.nx * sz.ny;
    const u64 interior = plane * sz.nz_local;
    const u64 ext = plane * (sz.nz_local + 2);  // halo plane each end

    auto v = ctx.alloc<double>(ext);    // current iterate (extended)
    auto b = ctx.alloc<double>(interior);
    auto res = ctx.alloc<double>(interior);

    // Manufactured RHS: smooth field.
    for (u64 k = 0; k < sz.nz_local; ++k) {
      const double gz = static_cast<double>(r * sz.nz_local + k + 1);
      for (u64 j = 0; j < sz.ny; ++j) {
        for (u64 i = 0; i < sz.nx; ++i) {
          b[(k * sz.ny + j) * sz.nx + i] =
              std::sin(0.1 * gz) + std::cos(0.05 * (i + 2.0 * j));
        }
      }
    }

    auto at = [&](u64 i, u64 j, u64 kext) {
      return (kext * sz.ny + j) * sz.nx + i;
    };
    const double diag = 6.0 + 0.5;  // diagonally dominant
    constexpr double omega = 1.2;   // SSOR relaxation

    const double r0 = residual_norm(ctx, sz, p, r, v, b, res);
    double rn = r0;

    for (unsigned it = 0; it < sz.iterations; ++it) {
      // ---- lower sweep: pipeline bottom-up ------------------------------
      if (r > 0) {
        ctx.recv_values<double>(r - 1, std::span(&v[at(0, 0, 0)], plane),
                                /*tag=*/10 + static_cast<int>(it));
        ctx.touch(rt::MemRange{v.addr(at(0, 0, 0)), plane * 8, true}, 2.0);
      }
      for (u64 k = 1; k <= sz.nz_local; ++k) {
        for (u64 j = 0; j < sz.ny; ++j) {
          for (u64 i = 0; i < sz.nx; ++i) {
            // Forward SOR: lower neighbours fresh, upper ones from the
            // previous sweep (halo planes refreshed by residual_norm).
            const double xm = i > 0 ? v[at(i - 1, j, k)] : 0.0;
            const double ym = j > 0 ? v[at(i, j - 1, k)] : 0.0;
            const double zm = v[at(i, j, k - 1)];
            const double xp = i + 1 < sz.nx ? v[at(i + 1, j, k)] : 0.0;
            const double yp = j + 1 < sz.ny ? v[at(i, j + 1, k)] : 0.0;
            const double zp = v[at(i, j, k + 1)];
            const u64 bi = ((k - 1) * sz.ny + j) * sz.nx + i;
            v[at(i, j, k)] =
                (1.0 - omega) * v[at(i, j, k)] +
                omega * (b[bi] + xm + ym + zm + xp + yp + zp) / diag;
          }
        }
      }
      ctx.loop(sweep_loop("lu_lower", interior),
               {rt::MemRange{v.addr(), v.bytes(), true},
                rt::MemRange{b.addr(), b.bytes(), false}});
      if (r + 1 < p) {
        ctx.send_values<double>(r + 1,
                                std::span(&v[at(0, 0, sz.nz_local)], plane),
                                /*tag=*/10 + static_cast<int>(it));
      }

      // ---- upper sweep: pipeline top-down --------------------------------
      if (r + 1 < p) {
        ctx.recv_values<double>(
            r + 1, std::span(&v[at(0, 0, sz.nz_local + 1)], plane),
            /*tag=*/100 + static_cast<int>(it));
        ctx.touch(rt::MemRange{v.addr(at(0, 0, sz.nz_local + 1)), plane * 8,
                               true},
                  2.0);
      }
      for (u64 k = sz.nz_local; k >= 1; --k) {
        for (u64 j = sz.ny; j-- > 0;) {
          for (u64 i = sz.nx; i-- > 0;) {
            // Backward SOR: upper neighbours fresh, lower ones current.
            const double xp = i + 1 < sz.nx ? v[at(i + 1, j, k)] : 0.0;
            const double yp = j + 1 < sz.ny ? v[at(i, j + 1, k)] : 0.0;
            const double zp = v[at(i, j, k + 1)];
            const double xm = i > 0 ? v[at(i - 1, j, k)] : 0.0;
            const double ym = j > 0 ? v[at(i, j - 1, k)] : 0.0;
            const double zm = v[at(i, j, k - 1)];
            const u64 bi = ((k - 1) * sz.ny + j) * sz.nx + i;
            v[at(i, j, k)] =
                (1.0 - omega) * v[at(i, j, k)] +
                omega * (b[bi] + xp + yp + zp + xm + ym + zm) / diag;
          }
        }
      }
      ctx.loop(sweep_loop("lu_upper", interior),
               {rt::MemRange{v.addr(), v.bytes(), true},
                rt::MemRange{b.addr(), b.bytes(), false}});
      if (r > 0) {
        ctx.send_values<double>(r - 1, std::span(&v[at(0, 0, 1)], plane),
                                /*tag=*/100 + static_cast<int>(it));
      }

      rn = residual_norm(ctx, sz, p, r, v, b, res);
    }

    if (ctx.rank() == 0) {
      const double factor = rn / r0;
      record(std::isfinite(factor) && factor < 0.5,
             strfmt("SSOR residual %.3e -> %.3e (factor %.4f)", r0, rn,
                    factor));
    }
  }

 private:
  /// || b - A v || with A = diag*I - sum(6 neighbours) (halo-exchanged).
  double residual_norm(rt::RankCtx& ctx, const LuSize& sz, unsigned p,
                       unsigned r, rt::SimArray<double>& v,
                       rt::SimArray<double>& b,
                       rt::SimArray<double>& res) const {
    const u64 plane = sz.nx * sz.ny;
    auto at = [&](u64 i, u64 j, u64 kext) {
      return (kext * sz.ny + j) * sz.nx + i;
    };
    // Halo exchange (both directions, even/odd phased like CG).
    if (p > 1) {
      if (r + 1 < p) {
        ctx.sendrecv(r + 1,
                     std::as_bytes(std::span(&v[at(0, 0, sz.nz_local)], plane)),
                     std::as_writable_bytes(
                         std::span(&v[at(0, 0, sz.nz_local + 1)], plane)),
                     /*tag=*/3);
      }
      if (r > 0) {
        ctx.sendrecv(r - 1, std::as_bytes(std::span(&v[at(0, 0, 1)], plane)),
                     std::as_writable_bytes(std::span(&v[at(0, 0, 0)], plane)),
                     /*tag=*/3);
      }
    } else {
      for (u64 i = 0; i < plane; ++i) {
        v[at(0, 0, 0) + i] = 0.0;
        v[at(0, 0, sz.nz_local + 1) + i] = 0.0;
      }
    }
    const double diag = 6.0 + 0.5;
    double acc = 0;
    for (u64 k = 1; k <= sz.nz_local; ++k) {
      for (u64 j = 0; j < sz.ny; ++j) {
        for (u64 i = 0; i < sz.nx; ++i) {
          const double xm = i > 0 ? v[at(i - 1, j, k)] : 0.0;
          const double xp = i + 1 < sz.nx ? v[at(i + 1, j, k)] : 0.0;
          const double ym = j > 0 ? v[at(i, j - 1, k)] : 0.0;
          const double yp = j + 1 < sz.ny ? v[at(i, j + 1, k)] : 0.0;
          const double zm = v[at(i, j, k - 1)];
          const double zp = v[at(i, j, k + 1)];
          const u64 bi = ((k - 1) * sz.ny + j) * sz.nx + i;
          const double rr =
              b[bi] - (diag * v[at(i, j, k)] - (xm + xp + ym + yp + zm + zp));
          res[bi] = rr;
          acc += rr * rr;
        }
      }
    }
    const u64 interior = plane * sz.nz_local;
    ctx.loop(residual_loop(interior),
             {rt::MemRange{v.addr(), v.bytes(), false},
              rt::MemRange{b.addr(), b.bytes(), false},
              rt::MemRange{res.addr(), res.bytes(), true}});
    return std::sqrt(ctx.allreduce_sum(acc));
  }
};

}  // namespace

std::unique_ptr<Kernel> make_lu(ProblemClass cls) {
  return std::make_unique<LuKernel>(cls);
}

}  // namespace bgp::nas
