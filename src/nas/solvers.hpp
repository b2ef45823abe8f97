// The dense/banded linear-algebra kernels the SP and BT benchmarks are
// built on, exposed for direct testing: a penta-diagonal (5-band) Gaussian
// elimination and a block-tridiagonal Thomas solver over 5x5 blocks with
// partially-pivoted dense block solves; and the one ADI sweep that applies
// either along x, y and z.
#pragma once

#include <array>
#include <string_view>
#include <vector>

#include "common/types.hpp"
#include "isa/loop.hpp"
#include "runtime/rankctx.hpp"

namespace bgp::nas {

// ---- penta-diagonal (SP) ---------------------------------------------------

/// The five band coefficients of one row.
struct PentaBands {
  double a2 = 0;  ///< second sub-diagonal
  double a1 = 0;  ///< first sub-diagonal
  double b = 1;   ///< diagonal
  double c1 = 0;  ///< first super-diagonal
  double c2 = 0;  ///< second super-diagonal
};

/// Row-coefficient generator: bands(i) for row i of an n-row system.
using PentaRowFn = PentaBands (*)(u64 row, u64 seed);

/// Solve the penta-diagonal system defined by `rows(i, seed)` in place:
/// `x` holds the right-hand side on entry and the solution on exit.
/// Returns the max-norm residual of the original system (a built-in
/// verification, used by SP's NPB-style checks). No pivoting: rows must be
/// diagonally dominant.
double penta_solve(u64 n, u64 seed, PentaRowFn rows, std::vector<double>& x);

// ---- 5x5 block tridiagonal (BT) -------------------------------------------

inline constexpr unsigned kBlock = 5;
using Mat5 = std::array<double, kBlock * kBlock>;
using Vec5 = std::array<double, kBlock>;

[[nodiscard]] Mat5 mat5_mul(const Mat5& a, const Mat5& b);
[[nodiscard]] Vec5 mat5_vec(const Mat5& a, const Vec5& x);
[[nodiscard]] Mat5 mat5_sub(const Mat5& a, const Mat5& b);
[[nodiscard]] Vec5 vec5_sub(const Vec5& a, const Vec5& b);

/// Solve M X = RHS (5x5, multiple right-hand sides as columns) by Gaussian
/// elimination with partial pivoting.
[[nodiscard]] Mat5 mat5_solve(Mat5 m, Mat5 rhs);
[[nodiscard]] Vec5 mat5_solve_vec(const Mat5& m, const Vec5& rhs);

/// Cell-coefficient generator: fills the A (sub), B (diag), C (super)
/// blocks of cell i.
using BlockRowFn = void (*)(u64 cell, u64 seed, Mat5& a, Mat5& b, Mat5& c);

/// Block Thomas solve of one line of n cells; `x` holds the 5n-entry
/// right-hand side on entry and the solution on exit. Returns the max-norm
/// residual of the original block system.
double block_tridiag_solve(u64 n, u64 seed, BlockRowFn blocks,
                           std::vector<double>& x);

// ---- the ADI sweep (SP and BT) ---------------------------------------------

/// One rank's share of an ADI field: nx x ny x nz_local cells of kBlock
/// values each, stored [z][y][x][value], swept `iterations` times.
struct AdiGrid {
  u64 nx, ny, nz_local;
  unsigned iterations;
};

/// What distinguishes one ADI benchmark's sweep: constants of its kernel.
struct AdiMethod {
  /// Values per line position: 1 solves kBlock scalar lines through each
  /// pencil (one per value), kBlock solves one block line.
  unsigned width;
  /// Solves one line of n positions in place; returns its residual.
  double (*solve)(u64 n, u64 seed, std::vector<double>& x);
  /// The op bundle billed for `cells` line positions along one axis.
  isa::LoopDesc (*bundle)(std::string_view name, u64 cells);
  std::array<std::string_view, 3> names;  ///< bundle names for x, y, z
  std::array<u64, 3> seed_mult;           ///< line seed multiplier per axis
};

/// Run `g.iterations` ADI sweeps over `u`: x and y lines are rank-local,
/// z lines are reached through an all-to-all pencil transpose. Returns the
/// worst line residual this rank saw.
double adi_sweeps(rt::RankCtx& ctx, const AdiMethod& m, const AdiGrid& g,
                  rt::SimArray<double>& u);

}  // namespace bgp::nas
