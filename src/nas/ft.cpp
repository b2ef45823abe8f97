// FT — 3D FFT benchmark. The complex grid is slab-partitioned along z, and
// one radix-2 Cooley-Tukey FFT (from scratch, on std::complex<double>)
// transforms every axis: it runs over n rows of contiguous elements, so an
// x line is a row of one element, the y pass a row-vectorized butterfly
// sweep across whole planes (the layout-friendly formulation real FFT codes
// use), and the z pass the same sweep over the y-slab layout that one
// all-to-all transpose reaches.
//
// Verification: a forward+inverse round trip must reproduce the original
// data, and Parseval's identity must hold between the two domains.
//
// Paper characteristics reproduced: complex arithmetic pairs perfectly onto
// the double-hummer, so FT is dominated by SIMD add-sub/FMA with -qarch440d
// (Figs 6 and 7) and shows the largest optimization gains (Fig 9). Its
// all-to-all plus blocked access also drive the >4x VNM DDR growth (Fig 12).
#include <algorithm>
#include <bit>
#include <cmath>
#include <complex>
#include <vector>

#include "common/rng.hpp"
#include "common/strfmt.hpp"
#include "nas/kernel.hpp"

namespace bgp::nas {
namespace {

using cplx = std::complex<double>;
using isa::FpOp;
using isa::IntOp;
using isa::LoopDesc;
using isa::LsOp;

struct FtSize {
  u64 nx, ny;      ///< plane dimensions (powers of two)
  u64 nz_local;    ///< z planes per rank (power of two)
};

FtSize size_of(ProblemClass cls) {
  switch (cls) {
    case ProblemClass::kS: return {16, 16, 2};
    case ProblemClass::kW: return {64, 64, 8};
    case ProblemClass::kA: return {128, 64, 8};
  }
  return {16, 16, 2};
}

/// Butterfly op bundle: complex twiddle multiply + add/sub per butterfly.
LoopDesc butterfly_loop(std::string_view name_, u64 butterflies) {
  LoopDesc d;
  d.name = name_;
  d.trip = butterflies;
  // Complex multiply: 2 FMA + 2 mult; complex add + sub: 4 add-sub.
  d.body.fp_at(FpOp::kMult) = 2;
  d.body.fp_at(FpOp::kFma) = 2;
  d.body.fp_at(FpOp::kAddSub) = 4;
  d.body.ls_at(LsOp::kLoadDouble) = 4;
  d.body.ls_at(LsOp::kStoreDouble) = 4;
  d.body.int_at(IntOp::kAlu) = 9;
  d.body.int_at(IntOp::kBranch) = 1;
  d.vectorizable = 0.9;  // re/im pairs map straight onto the SIMD pipes
  d.locality = isa::LocalityClass::kBlocked;
  return d;
}

/// In-place radix-2 DIT FFT along the row index of `n` rows of `row`
/// contiguous elements: butterflies combine whole rows, so an x line is
/// `row == 1` and the y and z passes are row-vectorized sweeps.
void fft_rows(cplx* a, u64 n, u64 row, bool inverse) {
  // Bit-reversal permutation of the rows.
  for (u64 i = 1, j = 0; i < n; ++i) {
    u64 bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap_ranges(a + i * row, a + (i + 1) * row, a + j * row);
  }
  for (u64 len = 2; len <= n; len <<= 1) {
    const double ang = (inverse ? 2.0 : -2.0) * M_PI / static_cast<double>(len);
    const cplx wl(std::cos(ang), std::sin(ang));
    for (u64 i = 0; i < n; i += len) {
      cplx w(1.0, 0.0);
      for (u64 k = 0; k < len / 2; ++k) {
        cplx* ru = a + (i + k) * row;
        cplx* rv = a + (i + k + len / 2) * row;
        for (u64 x = 0; x < row; ++x) {
          const cplx u = ru[x];
          const cplx v = rv[x] * w;
          ru[x] = u + v;
          rv[x] = u - v;
        }
        w *= wl;
      }
    }
  }
  if (inverse) {
    const double inv = 1.0 / static_cast<double>(n);
    for (u64 i = 0; i < n * row; ++i) a[i] *= inv;
  }
}

/// One FFT pass: transform every block of `n` rows of `row` elements in
/// `a` and bill the butterflies as one bundle under `name`.
void fft_pass(rt::RankCtx& ctx, std::string_view name, rt::SimArray<cplx>& a,
              u64 n, u64 row, bool inverse) {
  const u64 blocks = a.size() / (n * row);
  for (u64 b = 0; b < blocks; ++b) {
    fft_rows(&a[b * n * row], n, row, inverse);
  }
  const u64 butterflies =
      blocks * (n / 2) * static_cast<u64>(std::bit_width(n) - 1) * row;
  ctx.loop(butterfly_loop(name, butterflies),
           {rt::MemRange{a.addr(), a.bytes(), false},
            rt::MemRange{a.addr(), a.bytes(), true}});
}

[[nodiscard]] double norm_sq(rt::RankCtx& ctx, const rt::SimArray<cplx>& a) {
  LoopDesc d;
  d.name = "ft_checksum";
  d.trip = a.size();
  d.body.fp_at(FpOp::kFma) = 2;
  d.body.ls_at(LsOp::kLoadDouble) = 2;
  d.body.int_at(IntOp::kAlu) = 2;
  d.body.int_at(IntOp::kBranch) = 1;
  d.vectorizable = 0.9;
  d.reduction = true;
  ctx.loop(d, {rt::MemRange{a.addr(), a.bytes(), false}});
  double s = 0;
  for (const cplx& v : a) s += std::norm(v);
  return ctx.allreduce_sum(s);
}

/// Transpose between z-slabs (nx, ny, nz_local) and y-slabs (nx, ny/P, nz):
/// y block d of every local plane goes to rank d, and back. Both layouts
/// hold rows of nx elements; `forward` picks which one the rows are packed
/// from and which one they are unpacked into.
void transpose(rt::RankCtx& ctx, const FtSize& sz,
               const rt::SimArray<cplx>& from, rt::SimArray<cplx>& to,
               bool forward) {
  const unsigned p = ctx.size();
  const u64 yb = sz.ny / p;    // y rows per rank
  const u64 zb = sz.nz_local;  // z planes per rank
  const u64 chunk_elems = sz.nx * yb * zb;
  // Offset of row (k, y) of rank d's block: in the z-slab layout d picks
  // the y block of local plane k, in the y-slab layout the z block.
  auto row_at = [&](bool zslab, u64 d, u64 k, u64 y) {
    return (zslab ? k * sz.ny + d * yb + y : (d * zb + k) * yb + y) * sz.nx;
  };
  std::vector<cplx> sbuf(chunk_elems * p), rbuf(chunk_elems * p);

  cplx* out = sbuf.data();
  for (unsigned d = 0; d < p; ++d) {
    for (u64 k = 0; k < zb; ++k) {
      for (u64 y = 0; y < yb; ++y) {
        out = std::copy_n(&from[row_at(forward, d, k, y)], sz.nx, out);
      }
    }
  }
  ctx.touch(rt::MemRange{from.addr(), from.bytes(), false}, 2.0);

  ctx.alltoall(std::as_bytes(std::span(sbuf)),
               std::as_writable_bytes(std::span(rbuf)),
               chunk_elems * sizeof(cplx));

  const cplx* in = rbuf.data();
  for (unsigned s = 0; s < p; ++s) {
    for (u64 k = 0; k < zb; ++k) {
      for (u64 y = 0; y < yb; ++y) {
        std::copy_n(in, sz.nx, &to[row_at(!forward, s, k, y)]);
        in += sz.nx;
      }
    }
  }
  ctx.touch(rt::MemRange{to.addr(), to.bytes(), true}, 2.0);
}

/// x lines, y rows of each plane, then z rows of the y-slab layout
/// [x, ylocal, z] reached through the transpose.
void fft3d(rt::RankCtx& ctx, const FtSize& sz, rt::SimArray<cplx>& data,
           rt::SimArray<cplx>& zbuf, bool inverse) {
  fft_pass(ctx, "ft_fft_x", data, sz.nx, 1, inverse);
  fft_pass(ctx, "ft_fft_y", data, sz.ny, sz.nx, inverse);
  transpose(ctx, sz, data, zbuf, /*forward=*/true);
  fft_pass(ctx, "ft_fft_z", zbuf, sz.nz_local * ctx.size(),
           sz.nx * (sz.ny / ctx.size()), inverse);
  transpose(ctx, sz, zbuf, data, /*forward=*/false);
}

class FtKernel final : public Kernel {
 public:
  explicit FtKernel(ProblemClass cls) : Kernel(cls) {}

  [[nodiscard]] Benchmark id() const noexcept override {
    return Benchmark::kFT;
  }

  void run(rt::RankCtx& ctx) const override {
    FtSize sz = size_of(class_);
    const unsigned p = ctx.size();
    if (!std::has_single_bit(p)) {
      // The transpose needs P | ny and P | nz; NPB FT has the same
      // power-of-two constraint. Degrade gracefully.
      if (ctx.rank() == 0) {
        record(false,
               strfmt("FT requires a power-of-two rank count; got %u", p));
      }
      return;
    }
    // Large partitions: widen the plane so every rank owns a y-block,
    // shrinking the local z extent to keep the per-rank footprint constant.
    while (sz.ny < p) {
      sz.ny *= 2;
      if (sz.nz_local > 1) sz.nz_local /= 2;
    }
    const u64 nz = sz.nz_local * p;  // global z (power of two)
    const u64 local = sz.nx * sz.ny * sz.nz_local;

    auto data = ctx.alloc<cplx>(local);
    auto original = ctx.alloc<cplx>(local);
    auto zbuf = ctx.alloc<cplx>(local);  // y-slab layout after transpose

    // NPB-style pseudorandom initial field, rank-jumped.
    NasRng rng(NasRng::jump(314159265.0, NasRng::kDefaultA,
                            u64{ctx.rank()} * local * 2));
    for (u64 i = 0; i < local; ++i) {
      data[i] = cplx(rng.next(), rng.next());
      original[i] = data[i];
    }
    ctx.touch(rt::MemRange{data.addr(), data.bytes(), true}, 3.0);

    const double sum_sq_time = norm_sq(ctx, data);

    fft3d(ctx, sz, data, zbuf, /*inverse=*/false);
    const double sum_sq_freq = norm_sq(ctx, data);

    fft3d(ctx, sz, data, zbuf, /*inverse=*/true);

    // Round-trip error and Parseval check.
    double err = 0;
    for (u64 i = 0; i < local; ++i) {
      err = std::max(err, std::abs(data[i] - original[i]));
    }
    err = ctx.allreduce_max(err);
    const double n_total =
        static_cast<double>(sz.nx * sz.ny) * static_cast<double>(nz);
    const double parseval =
        std::fabs(sum_sq_freq / n_total - sum_sq_time) /
        std::max(1.0, sum_sq_time);

    if (ctx.rank() == 0) {
      record(err < 1e-9 && parseval < 1e-9,
             strfmt("roundtrip err=%.2e parseval=%.2e", err, parseval));
    }
  }
};

}  // namespace

std::unique_ptr<Kernel> make_ft(ProblemClass cls) {
  return std::make_unique<FtKernel>(cls);
}

}  // namespace bgp::nas
