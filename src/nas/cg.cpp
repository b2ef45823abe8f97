// CG — conjugate gradient on a symmetric positive-definite sparse system
// (7-point 3D Poisson, slab-partitioned along z). The simulated program
// stores the operator in CSR with explicit column indices, so the x-vector
// accesses drive the cache model with the benchmark's signature gather
// pattern; the host computes each row's entries where they are used, so the
// CSR arrays exist only as simulated address ranges. Halo planes are
// exchanged with the z-neighbours each iteration; dot products are
// allreduce.
//
// Paper characteristics reproduced: dominated by scalar FMA with limited
// SIMDizability (Fig 6), modest optimization gains (Fig 9).
#include <algorithm>
#include <array>
#include <cmath>

#include "common/strfmt.hpp"
#include "nas/kernel.hpp"

namespace bgp::nas {
namespace {

using isa::FpOp;
using isa::IntOp;
using isa::LoopDesc;
using isa::LsOp;

struct CgSize {
  u64 nx, ny, nz_local;
  unsigned iterations;
};

CgSize size_of(ProblemClass cls) {
  switch (cls) {
    case ProblemClass::kS: return {12, 12, 6, 4};
    case ProblemClass::kW: return {24, 24, 12, 8};
    case ProblemClass::kA: return {32, 32, 24, 10};
  }
  return {12, 12, 6, 4};
}

/// One CSR entry: a column of the extended x vector and its value.
struct Entry {
  u64 col;
  double val;
};

/// The slab's 7-point Laplacian with Dirichlet boundaries, computed where
/// it is used instead of stored. Columns index the extended x vector (one
/// halo plane at each end). A boundary neighbour keeps its slot as a 0.0
/// on the row's own column, so every row has seven terms.
struct Stencil {
  u64 nx, ny, nz_local;
  bool has_down, has_up;

  [[nodiscard]] u64 plane() const noexcept { return nx * ny; }
  [[nodiscard]] u64 rows() const noexcept { return plane() * nz_local; }

  /// Row (i, j, k)'s entries in CSR order.
  [[nodiscard]] std::array<Entry, 7> row(u64 i, u64 j, u64 k) const noexcept {
    const u64 self = plane() + (k * ny + j) * nx + i;  // extended index
    auto nbr = [self](bool ok, u64 col) {
      return ok ? Entry{col, -1.0} : Entry{self, 0.0};
    };
    return {Entry{self, 6.0 + 1e-3},  // slightly shifted for SPD robustness
            nbr(i > 0, self - 1),
            nbr(i + 1 < nx, self + 1),
            nbr(j > 0, self - nx),
            nbr(j + 1 < ny, self + nx),
            nbr(k > 0 || has_down, self - plane()),
            nbr(k + 1 < nz_local || has_up, self + plane())};
  }
};

LoopDesc matvec_loop(u64 rows) {
  LoopDesc d;
  d.name = "cg_matvec";
  d.trip = rows;
  // Per row: 7 FMAs over the stencil nonzeros; value + index loads.
  d.body.fp_at(FpOp::kFma) = 7;
  d.body.ls_at(LsOp::kLoadDouble) = 7;   // matrix values
  d.body.ls_at(LsOp::kLoadSingle) = 7;   // column indices
  d.body.ls_at(LsOp::kStoreDouble) = 1;
  d.body.int_at(IntOp::kAlu) = 10;
  d.body.int_at(IntOp::kBranch) = 2;
  d.vectorizable = 0.25;  // indexed x-gather limits packing
  d.locality = isa::LocalityClass::kRandom;
  return d;
}

LoopDesc axpy_loop(u64 n, bool reduction) {
  LoopDesc d;
  d.name = reduction ? "cg_dot" : "cg_axpy";
  d.trip = n;
  d.body.fp_at(FpOp::kFma) = 1;
  d.body.ls_at(LsOp::kLoadDouble) = 2;
  if (!reduction) d.body.ls_at(LsOp::kStoreDouble) = 1;
  d.body.int_at(IntOp::kAlu) = 2;
  d.body.int_at(IntOp::kBranch) = 1;
  d.vectorizable = 0.5;  // short vectors between indexed ops
  d.reduction = reduction;
  d.locality = isa::LocalityClass::kStreaming;
  return d;
}

class CgKernel final : public Kernel {
 public:
  explicit CgKernel(ProblemClass cls) : Kernel(cls) {}

  [[nodiscard]] Benchmark id() const noexcept override {
    return Benchmark::kCG;
  }

  void run(rt::RankCtx& ctx) override {
    const CgSize sz = size_of(class_);
    const Stencil op{sz.nx, sz.ny, sz.nz_local, ctx.rank() > 0,
                     ctx.rank() + 1 < ctx.size()};
    const u64 plane = op.plane();
    const u64 rows = op.rows();  // this rank's rows
    const u64 nnz = rows * 7;

    // Extended x vector: one halo plane below + local + one above.
    const u64 xext = rows + 2 * plane;

    // The CSR value and column-index arrays (indices into the extended x)
    // as the simulated program lays them out; the host computes them.
    const u64 val_bytes = nnz * sizeof(double);
    const u64 col_bytes = nnz * sizeof(u32);
    const Csr csr{{ctx.alloc_bytes(val_bytes), val_bytes},
                  {ctx.alloc_bytes(col_bytes), col_bytes}};
    auto x = ctx.alloc<double>(xext);
    auto b = ctx.alloc<double>(rows);
    auto rres = ctx.alloc<double>(rows);
    auto pvec = ctx.alloc<double>(xext);
    auto q = ctx.alloc<double>(rows);

    // RHS: b = A * ones — then the exact solution is all-ones, and CG's
    // residual must shrink toward it.
    x.fill(1.0);
    matvec(ctx, op, csr, x, b);
    // Symmetry spot-check: <A e_mix, e_alt> computed two ways.
    const double sym_err = symmetry_check(ctx, op, csr);

    // Start from zero: r = b, p = r.
    x.fill(0.0);
    for (u64 i = 0; i < rows; ++i) {
      rres[i] = b[i];
      pvec[plane + i] = b[i];
    }
    double rho = dot(ctx, rres, rres, rows);
    const double rho0 = rho;
    bool positive_definite = true;

    for (unsigned it = 0; it < sz.iterations; ++it) {
      matvec(ctx, op, csr, pvec, q);
      double pq = 0;
      for (u64 i = 0; i < rows; ++i) pq += pvec[plane + i] * q[i];
      ctx.loop(axpy_loop(rows, true),
               {rt::MemRange{pvec.addr(plane), rows * 8, false},
                rt::MemRange{q.addr(), rows * 8, false}});
      pq = ctx.allreduce_sum(pq);
      if (pq <= 0.0) positive_definite = false;

      const double alpha = rho / pq;
      for (u64 i = 0; i < rows; ++i) {
        x[plane + i] += alpha * pvec[plane + i];
        rres[i] -= alpha * q[i];
      }
      ctx.loop(axpy_loop(rows, false),
               {rt::MemRange{x.addr(plane), rows * 8, true},
                rt::MemRange{rres.addr(), rows * 8, true},
                rt::MemRange{q.addr(), rows * 8, false}});

      const double rho_new = dot(ctx, rres, rres, rows);
      const double beta = rho_new / rho;
      rho = rho_new;
      for (u64 i = 0; i < rows; ++i) {
        pvec[plane + i] = rres[i] + beta * pvec[plane + i];
      }
      ctx.loop(axpy_loop(rows, false),
               {rt::MemRange{pvec.addr(plane), rows * 8, true},
                rt::MemRange{rres.addr(), rows * 8, false}});
    }

    if (ctx.rank() == 0) {
      const double reduction = std::sqrt(rho / rho0);
      const bool ok = positive_definite && reduction < 0.9 &&
                      std::isfinite(reduction) && sym_err < 1e-10;
      record(ok, strfmt("residual reduced to %.3e of initial, sym_err=%.1e",
                        reduction, sym_err));
    }
  }

 private:
  /// The CSR arrays' simulated address ranges.
  struct Csr {
    rt::MemRange val, col;
  };

  /// Exchange halo planes of `v` (extended layout) with the z-neighbours.
  void halo_exchange(rt::RankCtx& ctx, const Stencil& op,
                     rt::SimArray<double>& v) {
    const u64 plane = op.plane();
    const u64 rows = op.rows();
    if (!op.has_down && !op.has_up) return;
    const unsigned r = ctx.rank();
    // Exchange with the upper neighbour, then the lower one; even/odd
    // phasing avoids ordering hazards with the eager protocol.
    if (op.has_up) {
      ctx.sendrecv(r + 1,
                   std::as_bytes(std::span(&v[plane + rows - plane], plane)),
                   std::as_writable_bytes(std::span(&v[plane + rows], plane)),
                   /*tag=*/1);
    }
    if (op.has_down) {
      ctx.sendrecv(r - 1, std::as_bytes(std::span(&v[plane], plane)),
                   std::as_writable_bytes(std::span(&v[0], plane)),
                   /*tag=*/1);
    }
    ctx.touch(rt::MemRange{v.addr(0), plane * 8, true}, 2.0);
    ctx.touch(rt::MemRange{v.addr(plane + rows), plane * 8, true}, 2.0);
  }

  /// q = A * v (v in extended layout).
  void matvec(rt::RankCtx& ctx, const Stencil& op, const Csr& csr,
              rt::SimArray<double>& v, rt::SimArray<double>& q) {
    halo_exchange(ctx, op, v);
    u64 row = 0;
    for (u64 k = 0; k < op.nz_local; ++k) {
      for (u64 j = 0; j < op.ny; ++j) {
        for (u64 i = 0; i < op.nx; ++i) {
          double acc = 0;
          for (const Entry& e : op.row(i, j, k)) acc += e.val * v[e.col];
          q[row++] = acc;
        }
      }
    }
    ctx.loop(matvec_loop(op.rows()),
             {csr.val, csr.col, rt::MemRange{q.addr(), q.bytes(), true}});
    // The x-gather: drive the cache with the real (near-diagonal) column
    // of every 4th nonzero in CSR order, to stay tractable (8-byte
    // elements; 1-in-4 sampling keeps counts honest within a line).
    u64 i = 0, j = 0, k = 0, slot = 0;
    std::array<Entry, 7> cur = op.row(i, j, k);
    auto next_col = [&] {
      const u64 col = cur[slot].col;
      slot += 4;
      if (slot >= 7) {
        slot -= 7;
        if (++i == op.nx) {
          i = 0;
          if (++j == op.ny) {
            j = 0;
            ++k;
          }
        }
        cur = op.row(i, j, k);
      }
      return col;
    };
    ctx.gather(v.addr(0), (op.rows() * 7 + 3) / 4, next_col, sizeof(double),
               /*write=*/false);
  }

  [[nodiscard]] double dot(rt::RankCtx& ctx, rt::SimArray<double>& a,
                           rt::SimArray<double>& b, u64 n) {
    double acc = 0;
    for (u64 i = 0; i < n; ++i) acc += a[i] * b[i];
    ctx.loop(axpy_loop(n, true), {rt::MemRange{a.addr(), n * 8, false},
                                  rt::MemRange{b.addr(), n * 8, false}});
    return ctx.allreduce_sum(acc);
  }

  /// <Au, w> must equal <u, Aw> for symmetric A.
  [[nodiscard]] double symmetry_check(rt::RankCtx& ctx, const Stencil& op,
                                      const Csr& csr) {
    const u64 plane = op.plane();
    const u64 rows = op.rows();
    const unsigned r = ctx.rank();
    auto u = ctx.alloc<double>(rows + 2 * plane);
    auto w = ctx.alloc<double>(rows + 2 * plane);
    auto au = ctx.alloc<double>(rows);
    auto aw = ctx.alloc<double>(rows);
    for (u64 i = 0; i < rows; ++i) {
      const u64 g = r * rows + i;
      u[plane + i] = std::sin(static_cast<double>(g) * 0.1);
      w[plane + i] = std::cos(static_cast<double>(g) * 0.07);
    }
    matvec(ctx, op, csr, u, au);
    matvec(ctx, op, csr, w, aw);
    double a = 0, bsum = 0;
    for (u64 i = 0; i < rows; ++i) {
      a += au[i] * w[plane + i];
      bsum += u[plane + i] * aw[i];
    }
    a = ctx.allreduce_sum(a);
    bsum = ctx.allreduce_sum(bsum);
    const double scale = std::max(1.0, std::fabs(a));
    return std::fabs(a - bsum) / scale;
  }
};

}  // namespace

std::unique_ptr<Kernel> make_cg(ProblemClass cls) {
  return std::make_unique<CgKernel>(cls);
}

}  // namespace bgp::nas
