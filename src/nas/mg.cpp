// MG — V-cycle multigrid on a 3D Poisson problem, slab-partitioned along z.
// Weighted-Jacobi smoothing, full-weighting restriction and trilinear
// prolongation are implemented for real on real grids; halo planes are
// exchanged with the z-neighbours at every level that still has at least
// one local plane.
//
// Paper characteristics reproduced: stencil sweeps vectorize extremely well,
// so MG is dominated by SIMD add-sub and SIMD FMA once -qarch440d is on
// (Figs 6 and 8).
#include <algorithm>
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

struct MgSize {
  u64 nx, ny, nz_local;  ///< finest level, per rank
  unsigned vcycles;
  unsigned pre_smooth = 2, post_smooth = 2;
};

MgSize size_of(ProblemClass cls) {
  switch (cls) {
    case ProblemClass::kS: return {16, 16, 4, 3};
    case ProblemClass::kW: return {48, 48, 16, 4};
    case ProblemClass::kA: return {64, 64, 24, 4};
  }
  return {16, 16, 4, 2};
}

LoopDesc stencil_loop(std::string_view name_, u64 points, double vec) {
  LoopDesc d;
  d.name = name_;
  d.trip = points;
  // 7-point stencil: 6 adds + 1 FMA-ish scale, streaming loads/stores.
  d.body.fp_at(FpOp::kAddSub) = 6;
  d.body.fp_at(FpOp::kFma) = 2;
  d.body.ls_at(LsOp::kLoadDouble) = 8;
  d.body.ls_at(LsOp::kStoreDouble) = 1;
  d.body.int_at(IntOp::kAlu) = 6;
  d.body.int_at(IntOp::kBranch) = 1;
  d.vectorizable = vec;
  d.locality = isa::LocalityClass::kStreaming;
  return d;
}

/// Periodic neighbours of index `i` on an axis of `n` points.
u64 wrap_dec(u64 i, u64 n) noexcept { return i == 0 ? n - 1 : i - 1; }
u64 wrap_inc(u64 i, u64 n) noexcept { return i + 1 == n ? 0 : i + 1; }

/// One level's per-rank grid with one halo plane at each z end.
struct Level {
  u64 nx = 0, ny = 0, nz = 0;  // local interior planes
  rt::SimArray<double> u, rhs, res;

  [[nodiscard]] u64 plane() const noexcept { return nx * ny; }
  [[nodiscard]] u64 interior() const noexcept { return plane() * nz; }
  [[nodiscard]] u64 ext() const noexcept { return plane() * (nz + 2); }
  [[nodiscard]] u64 at(u64 i, u64 j, u64 k_ext) const noexcept {
    return (k_ext * ny + j) * nx + i;
  }
};

class MgKernel final : public Kernel {
 public:
  explicit MgKernel(ProblemClass cls) : Kernel(cls) {}

  [[nodiscard]] Benchmark id() const noexcept override {
    return Benchmark::kMG;
  }

  void run(rt::RankCtx& ctx) const override {
    const MgSize sz = size_of(class_);
    const unsigned p = ctx.size();
    const unsigned r = ctx.rank();

    // Build the level hierarchy: halve all dimensions while they stay
    // representable (z halving needs at least 2 local planes).
    std::vector<Level> levels;
    u64 nx = sz.nx, ny = sz.ny, nz = sz.nz_local;
    for (;;) {
      Level lv;
      lv.nx = nx;
      lv.ny = ny;
      lv.nz = nz;
      lv.u = ctx.alloc<double>(lv.ext());
      lv.rhs = ctx.alloc<double>(lv.ext());
      lv.res = ctx.alloc<double>(lv.ext());
      levels.push_back(std::move(lv));
      if (nx < 8 || ny < 8 || nz < 2) break;
      nx /= 2;
      ny /= 2;
      nz /= 2;
    }

    // Problem: A u = rhs with a smooth manufactured right-hand side.
    Level& fine = levels[0];
    for (u64 k = 0; k < fine.nz; ++k) {
      const double gz =
          static_cast<double>(r * fine.nz + k) / (p * fine.nz);
      for (u64 j = 0; j < fine.ny; ++j) {
        for (u64 i = 0; i < fine.nx; ++i) {
          const double gx = static_cast<double>(i) / fine.nx;
          const double gy = static_cast<double>(j) / fine.ny;
          fine.rhs[fine.at(i, j, k + 1)] =
              std::sin(2 * M_PI * gx) * std::sin(2 * M_PI * gy) *
              std::sin(2 * M_PI * gz);
        }
      }
    }

    const double r0 = residual_norm(ctx, fine);
    double rN = r0;
    for (unsigned cycle = 0; cycle < sz.vcycles; ++cycle) {
      vcycle(ctx, levels, 0, sz);
      rN = residual_norm(ctx, fine);
    }

    if (ctx.rank() == 0) {
      const double factor = rN / r0;
      record(std::isfinite(factor) && factor < 0.2,
             strfmt("residual %.3e -> %.3e (factor %.3f) over %u V-cycles",
                    r0, rN, factor, sz.vcycles));
    }
  }

 private:
  // The kernel object is shared by every rank; all per-rank state lives on
  // the run() stack and rank identity is read from the context.
  // The problem is fully periodic (like NPB MG): x/y wrap locally, z wraps
  // around the rank ring, so the discretization is identical on every level
  // and rediscretized coarse-grid correction is exact up to interpolation.
  void halo(rt::RankCtx& ctx, Level& lv, rt::SimArray<double>& v) const {
    const u64 plane = lv.plane();
    const unsigned p = ctx.size();
    const unsigned r = ctx.rank();
    if (p > 1) {
      const unsigned up = (r + 1) % p;
      const unsigned down = (r + p - 1) % p;
      // Eager sends never block, so post both sends before both receives;
      // direction tags keep the streams apart even when up == down (the
      // two-rank ring).
      ctx.send_values<double>(up, std::span(&v[lv.at(0, 0, lv.nz)], plane),
                              /*tag=*/20);
      ctx.send_values<double>(down, std::span(&v[lv.at(0, 0, 1)], plane),
                              /*tag=*/21);
      ctx.recv_values<double>(down, std::span(&v[lv.at(0, 0, 0)], plane),
                              /*tag=*/20);
      ctx.recv_values<double>(up, std::span(&v[lv.at(0, 0, lv.nz + 1)], plane),
                              /*tag=*/21);
    } else {
      for (u64 i = 0; i < plane; ++i) {
        v[lv.at(0, 0, 0) + i] = v[lv.at(0, 0, lv.nz) + i];
        v[lv.at(0, 0, lv.nz + 1) + i] = v[lv.at(0, 0, 1) + i];
      }
    }
    ctx.touch(rt::MemRange{v.addr(0), plane * 8, true}, 2.0);
  }

  /// Apply A = 6I - sum(neighbours) into `out` (interior only).
  void apply(rt::RankCtx& ctx, Level& lv, rt::SimArray<double>& v,
             rt::SimArray<double>& out) const {
    halo(ctx, lv, v);
    for (u64 k = 1; k <= lv.nz; ++k) {
      for (u64 j = 0; j < lv.ny; ++j) {
        const u64 row = lv.at(0, j, k);
        const u64 row_ym = lv.at(0, wrap_dec(j, lv.ny), k);
        const u64 row_yp = lv.at(0, wrap_inc(j, lv.ny), k);
        const u64 row_zm = lv.at(0, j, k - 1);
        const u64 row_zp = lv.at(0, j, k + 1);
        for (u64 i = 0; i < lv.nx; ++i) {
          const double c = v[row + i];
          const double xm = v[row + wrap_dec(i, lv.nx)];
          const double xp = v[row + wrap_inc(i, lv.nx)];
          const double ym = v[row_ym + i];
          const double yp = v[row_yp + i];
          const double zm = v[row_zm + i];
          const double zp = v[row_zp + i];
          out[row + i] = 6.0 * c - (xm + xp + ym + yp + zm + zp);
        }
      }
    }
    ctx.loop(stencil_loop("mg_apply", lv.interior(), 0.8),
             {rt::MemRange{v.addr(), v.bytes(), false},
              rt::MemRange{out.addr(), out.bytes(), true}});
  }

  /// Weighted Jacobi: u += w * (rhs - A u) / diag.
  void smooth(rt::RankCtx& ctx, Level& lv, unsigned sweeps) const {
    constexpr double w = 0.8 / 6.0;
    for (unsigned s = 0; s < sweeps; ++s) {
      apply(ctx, lv, lv.u, lv.res);
      for (u64 idx = lv.plane(); idx < lv.plane() * (lv.nz + 1); ++idx) {
        lv.u[idx] += w * (lv.rhs[idx] - lv.res[idx]);
      }
      ctx.loop(stencil_loop("mg_smooth_update", lv.interior(), 0.9),
               {rt::MemRange{lv.u.addr(lv.plane()), lv.interior() * 8, true},
                rt::MemRange{lv.rhs.addr(lv.plane()), lv.interior() * 8,
                             false}});
    }
  }

  [[nodiscard]] double residual_norm(rt::RankCtx& ctx, Level& lv) const {
    apply(ctx, lv, lv.u, lv.res);
    double acc = 0;
    for (u64 idx = lv.plane(); idx < lv.plane() * (lv.nz + 1); ++idx) {
      const double rr = lv.rhs[idx] - lv.res[idx];
      acc += rr * rr;
    }
    return std::sqrt(ctx.allreduce_sum(acc));
  }

  void vcycle(rt::RankCtx& ctx, std::vector<Level>& levels, std::size_t l,
              const MgSize& sz) const {
    Level& lv = levels[l];
    if (l + 1 == levels.size()) {
      smooth(ctx, lv, 24);  // coarsest: just relax hard
      return;
    }
    Level& coarse = levels[l + 1];
    smooth(ctx, lv, sz.pre_smooth);

    // Residual, restricted by 2x averaging in every direction.
    apply(ctx, lv, lv.u, lv.res);
    for (u64 idx = lv.plane(); idx < lv.plane() * (lv.nz + 1); ++idx) {
      lv.res[idx] = lv.rhs[idx] - lv.res[idx];
    }
    for (u64 k = 0; k < coarse.nz; ++k) {
      for (u64 j = 0; j < coarse.ny; ++j) {
        for (u64 i = 0; i < coarse.nx; ++i) {
          double acc = 0;
          for (unsigned dk = 0; dk < 2; ++dk) {
            for (unsigned dj = 0; dj < 2; ++dj) {
              for (unsigned di = 0; di < 2; ++di) {
                acc += lv.res[lv.at(2 * i + di, 2 * j + dj,
                                    2 * k + dk + 1)];
              }
            }
          }
          // Full-weighting restriction (avg = acc/8) with the coarse grid
          // rediscretized by the same unscaled stencil: the coarse operator
          // stands for (2h)^2∆ = 4·h^2∆, so the residual equation needs
          // rhs = 4·avg = acc/2.
          coarse.rhs[coarse.at(i, j, k + 1)] = acc / 2.0;
          coarse.u[coarse.at(i, j, k + 1)] = 0.0;
        }
      }
    }
    ctx.loop(stencil_loop("mg_restrict", coarse.interior(), 0.7),
             {rt::MemRange{lv.res.addr(), lv.res.bytes(), false},
              rt::MemRange{coarse.rhs.addr(), coarse.rhs.bytes(), true}});

    vcycle(ctx, levels, l + 1, sz);

    // Refresh the coarse halos so prolongation can read across the rank
    // boundary.
    halo(ctx, coarse, coarse.u);

    // Trilinear (cell-centered) prolongation and correction: each fine cell
    // blends its parent with the next coarse neighbour on the finer side,
    // weights 3/4 and 1/4 per dimension, clamped at the boundary.
    for (u64 k = 0; k < lv.nz; ++k) {
      const u64 ck = k / 2;
      // In z the +-1 neighbour may live in the (just refreshed) coarse halo
      // planes.
      const u64 nk_ext = (k & 1) ? ck + 2 : ck;  // ext z index of nbr
      for (u64 j = 0; j < lv.ny; ++j) {
        // Periodic in x/y.
        const u64 cj = j / 2;
        const u64 nj =
            (j & 1) ? wrap_inc(cj, coarse.ny) : wrap_dec(cj, coarse.ny);
        // Coarse row bases of the four (y, z) corners, indexed by s >> 1.
        const u64 corner[4] = {
            coarse.at(0, cj, ck + 1), coarse.at(0, nj, ck + 1),
            coarse.at(0, cj, nk_ext), coarse.at(0, nj, nk_ext)};
        const u64 fine_row = lv.at(0, j, k + 1);
        for (u64 i = 0; i < lv.nx; ++i) {
          const u64 ci = i / 2;
          const u64 ni =
              (i & 1) ? wrap_inc(ci, coarse.nx) : wrap_dec(ci, coarse.nx);
          double acc = 0;
          for (unsigned s = 0; s < 8; ++s) {
            const u64 ii = (s & 1) ? ni : ci;
            const double w = ((s & 1) ? 0.25 : 0.75) *
                             ((s & 2) ? 0.25 : 0.75) *
                             ((s & 4) ? 0.25 : 0.75);
            acc += w * coarse.u[corner[s >> 1] + ii];
          }
          lv.u[fine_row + i] += acc;
        }
      }
    }
    ctx.loop(stencil_loop("mg_prolong", lv.interior(), 0.8),
             {rt::MemRange{coarse.u.addr(), coarse.u.bytes(), false},
              rt::MemRange{lv.u.addr(), lv.u.bytes(), true}});

    smooth(ctx, lv, sz.post_smooth);
  }
};

}  // namespace

std::unique_ptr<Kernel> make_mg(ProblemClass cls) {
  return std::make_unique<MgKernel>(cls);
}

}  // namespace bgp::nas
