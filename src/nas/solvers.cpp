#include "nas/solvers.hpp"

#include <algorithm>
#include <cmath>

#include "nas/kernel.hpp"

namespace bgp::nas {

double penta_solve(u64 n, u64 seed, PentaRowFn rows, std::vector<double>& x) {
  std::vector<double> a2(n), a1(n), b(n), c1(n), c2(n), rhs(x);
  for (u64 i = 0; i < n; ++i) {
    const PentaBands w = rows(i, seed);
    a2[i] = i >= 2 ? w.a2 : 0.0;
    a1[i] = i >= 1 ? w.a1 : 0.0;
    b[i] = w.b;
    c1[i] = i + 1 < n ? w.c1 : 0.0;
    c2[i] = i + 2 < n ? w.c2 : 0.0;
  }
  // Forward elimination of the two sub-diagonals.
  for (u64 i = 0; i < n; ++i) {
    if (i + 1 < n) {
      const double m1 = a1[i + 1] / b[i];
      b[i + 1] -= m1 * c1[i];
      c1[i + 1] -= m1 * c2[i];
      x[i + 1] -= m1 * x[i];
    }
    if (i + 2 < n) {
      const double m2 = a2[i + 2] / b[i];
      a1[i + 2] -= m2 * c1[i];
      b[i + 2] -= m2 * c2[i];
      x[i + 2] -= m2 * x[i];
    }
  }
  // Back substitution with the two super-diagonals.
  for (u64 i = n; i-- > 0;) {
    double v = x[i];
    if (i + 1 < n) v -= c1[i] * x[i + 1];
    if (i + 2 < n) v -= c2[i] * x[i + 2];
    x[i] = v / b[i];
  }
  // Residual of the original system.
  double resid = 0;
  for (u64 i = 0; i < n; ++i) {
    const PentaBands w = rows(i, seed);
    double acc = w.b * x[i];
    if (i >= 2) acc += w.a2 * x[i - 2];
    if (i >= 1) acc += w.a1 * x[i - 1];
    if (i + 1 < n) acc += w.c1 * x[i + 1];
    if (i + 2 < n) acc += w.c2 * x[i + 2];
    resid = std::max(resid, std::fabs(acc - rhs[i]));
  }
  return resid;
}

Mat5 mat5_mul(const Mat5& a, const Mat5& b) {
  Mat5 c{};
  for (unsigned i = 0; i < kBlock; ++i) {
    for (unsigned k = 0; k < kBlock; ++k) {
      const double aik = a[i * kBlock + k];
      for (unsigned j = 0; j < kBlock; ++j) {
        c[i * kBlock + j] += aik * b[k * kBlock + j];
      }
    }
  }
  return c;
}

Vec5 mat5_vec(const Mat5& a, const Vec5& x) {
  Vec5 y{};
  for (unsigned i = 0; i < kBlock; ++i) {
    for (unsigned j = 0; j < kBlock; ++j) y[i] += a[i * kBlock + j] * x[j];
  }
  return y;
}

Mat5 mat5_sub(const Mat5& a, const Mat5& b) {
  Mat5 c;
  for (unsigned i = 0; i < kBlock * kBlock; ++i) c[i] = a[i] - b[i];
  return c;
}

Vec5 vec5_sub(const Vec5& a, const Vec5& b) {
  Vec5 c;
  for (unsigned i = 0; i < kBlock; ++i) c[i] = a[i] - b[i];
  return c;
}

Mat5 mat5_solve(Mat5 m, Mat5 rhs) {
  for (unsigned col = 0; col < kBlock; ++col) {
    unsigned piv = col;
    for (unsigned r = col + 1; r < kBlock; ++r) {
      if (std::fabs(m[r * kBlock + col]) > std::fabs(m[piv * kBlock + col])) {
        piv = r;
      }
    }
    if (piv != col) {
      for (unsigned j = 0; j < kBlock; ++j) {
        std::swap(m[col * kBlock + j], m[piv * kBlock + j]);
        std::swap(rhs[col * kBlock + j], rhs[piv * kBlock + j]);
      }
    }
    const double d = m[col * kBlock + col];
    for (unsigned r = 0; r < kBlock; ++r) {
      if (r == col) continue;
      const double f = m[r * kBlock + col] / d;
      for (unsigned j = 0; j < kBlock; ++j) {
        m[r * kBlock + j] -= f * m[col * kBlock + j];
        rhs[r * kBlock + j] -= f * rhs[col * kBlock + j];
      }
    }
  }
  Mat5 x;
  for (unsigned r = 0; r < kBlock; ++r) {
    const double d = m[r * kBlock + r];
    for (unsigned j = 0; j < kBlock; ++j) x[r * kBlock + j] = rhs[r * kBlock + j] / d;
  }
  return x;
}

Vec5 mat5_solve_vec(const Mat5& m, const Vec5& rhs) {
  Mat5 rhs_m{};
  for (unsigned i = 0; i < kBlock; ++i) rhs_m[i * kBlock] = rhs[i];
  const Mat5 x = mat5_solve(m, rhs_m);
  Vec5 out;
  for (unsigned i = 0; i < kBlock; ++i) out[i] = x[i * kBlock];
  return out;
}

double block_tridiag_solve(u64 n, u64 seed, BlockRowFn blocks,
                           std::vector<double>& x) {
  std::vector<Vec5> rhs(n), sol(n);
  for (u64 i = 0; i < n; ++i) {
    for (unsigned c = 0; c < kBlock; ++c) rhs[i][c] = x[i * kBlock + c];
  }
  // Forward elimination: Bp[i] = B[i] - A[i] * inv(Bp[i-1]) * C[i-1].
  std::vector<Mat5> bp(n), cfac(n);
  std::vector<Vec5> rp(n);
  {
    Mat5 a, b, c;
    blocks(0, seed, a, b, c);
    bp[0] = b;
    cfac[0] = c;
    rp[0] = rhs[0];
  }
  for (u64 i = 1; i < n; ++i) {
    Mat5 a, b, c;
    blocks(i, seed, a, b, c);
    const Mat5 g = mat5_solve(bp[i - 1], cfac[i - 1]);  // inv(Bp)*C
    bp[i] = mat5_sub(b, mat5_mul(a, g));
    const Vec5 h = mat5_solve_vec(bp[i - 1], rp[i - 1]);
    rp[i] = vec5_sub(rhs[i], mat5_vec(a, h));
    cfac[i] = c;
  }
  // Back substitution.
  sol[n - 1] = mat5_solve_vec(bp[n - 1], rp[n - 1]);
  for (u64 i = n - 1; i-- > 0;) {
    const Vec5 cx = mat5_vec(cfac[i], sol[i + 1]);
    sol[i] = mat5_solve_vec(bp[i], vec5_sub(rp[i], cx));
  }
  // Residual of the original block system.
  double resid = 0;
  for (u64 i = 0; i < n; ++i) {
    Mat5 a, b, c;
    blocks(i, seed, a, b, c);
    Vec5 acc = mat5_vec(b, sol[i]);
    if (i > 0) {
      const Vec5 t = mat5_vec(a, sol[i - 1]);
      for (unsigned k = 0; k < kBlock; ++k) acc[k] += t[k];
    }
    if (i + 1 < n) {
      const Vec5 t = mat5_vec(c, sol[i + 1]);
      for (unsigned k = 0; k < kBlock; ++k) acc[k] += t[k];
    }
    for (unsigned k = 0; k < kBlock; ++k) {
      resid = std::max(resid, std::fabs(acc[k] - rhs[i][k]));
    }
  }
  for (u64 i = 0; i < n; ++i) {
    for (unsigned c = 0; c < kBlock; ++c) x[i * kBlock + c] = sol[i][c];
  }
  return resid;
}

namespace {

/// Solve the kBlock / width lines through one pencil of n positions in
/// place, where `at(t)` points at position t's kBlock values; returns the
/// worst residual.
template <typename At>
double solve_pencil(const AdiMethod& m, u64 n, u64 seed, At at,
                    std::vector<double>& line) {
  const unsigned w = m.width;
  double worst = 0.0;
  for (unsigned l = 0; l < kBlock / w; ++l) {
    for (u64 t = 0; t < n; ++t) std::copy_n(at(t) + l * w, w, &line[t * w]);
    worst = std::max(worst, m.solve(n, seed + l, line));
    for (u64 t = 0; t < n; ++t) std::copy_n(&line[t * w], w, at(t) + l * w);
  }
  return worst;
}

}  // namespace

double adi_sweeps(rt::RankCtx& ctx, const AdiMethod& m, const AdiGrid& g,
                  rt::SimArray<double>& u) {
  const unsigned p = ctx.size();
  const u64 plane = g.nx * g.ny;
  const u64 nz = g.nz_local * p;
  const u64 lines = kBlock / m.width;  // lines through each pencil
  const Block mine = block_of(plane, p, ctx.rank());  // my z-line columns
  const rt::MemRange read{u.addr(), u.bytes(), false};
  const rt::MemRange write{u.addr(), u.bytes(), true};
  const u64 len[2] = {g.nx, g.ny};  // x and y line lengths
  const u64 stride[2] = {1, g.nx};  // cell strides along x and y
  double worst = 0.0;
  for (unsigned it = 0; it < g.iterations; ++it) {
    // x lines, then y lines: rank-local.
    for (unsigned ax = 0; ax < 2; ++ax) {
      std::vector<double> line(len[ax] * m.width);
      for (u64 k = 0; k < g.nz_local; ++k) {
        for (u64 a = 0; a < len[1 - ax]; ++a) {
          const u64 first = k * plane + a * stride[1 - ax];
          auto at = [&](u64 t) {
            return &u[(first + t * stride[ax]) * kBlock];
          };
          const u64 seed = m.seed_mult[ax] * (a + k);
          worst = std::max(worst, solve_pencil(m, len[ax], seed, at, line));
        }
      }
      ctx.loop(m.bundle(m.names[ax], plane * g.nz_local * lines),
               {read, write});
    }

    // z lines: send each rank the z-segments of the columns it owns, solve
    // the full-z lines of mine, send them back.
    std::vector<std::vector<double>> out(p), in, back;
    for (unsigned d = 0; d < p; ++d) {
      const Block cols = block_of(plane, p, d);
      out[d].reserve(cols.size() * g.nz_local * kBlock);
      for (u64 col = cols.begin; col < cols.end; ++col) {
        for (u64 k = 0; k < g.nz_local; ++k) {
          const double* cell = &u[(k * plane + col) * kBlock];
          out[d].insert(out[d].end(), cell, cell + kBlock);
        }
      }
    }
    ctx.touch(read, 2.0);
    alltoallv_values(ctx, out, in);
    std::vector<double> line(nz * m.width);
    for (u64 lc = 0; lc < mine.size(); ++lc) {
      // Position t is plane t % nz_local of the segment from rank
      // t / nz_local.
      auto at = [&](u64 t) {
        return &in[t / g.nz_local][(lc * g.nz_local + t % g.nz_local) *
                                   kBlock];
      };
      const u64 seed = m.seed_mult[2] * (mine.begin + lc);
      worst = std::max(worst, solve_pencil(m, nz, seed, at, line));
    }
    ctx.loop(m.bundle(m.names[2], mine.size() * nz * lines), {});
    alltoallv_values(ctx, in, back);
    for (unsigned s = 0; s < p; ++s) {
      const Block cols = block_of(plane, p, s);
      const double* v = back[s].data();
      for (u64 col = cols.begin; col < cols.end; ++col) {
        for (u64 k = 0; k < g.nz_local; ++k, v += kBlock) {
          std::copy_n(v, kBlock, &u[(k * plane + col) * kBlock]);
        }
      }
    }
    ctx.touch(write, 2.0);
  }
  return worst;
}

}  // namespace bgp::nas
