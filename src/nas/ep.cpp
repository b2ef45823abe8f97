// EP — the NAS "Embarrassingly Parallel" kernel. Generates pairs of
// uniform deviates with the NAS 46-bit LCG (each rank jumping ahead to its
// own subsequence), applies the Marsaglia polar method to produce Gaussian
// pairs, accumulates the sums and the annulus counts, and reduces them.
// The only communication is the final reduction.
//
// Paper characteristics reproduced: dominated by scalar FMA (Fig 6), but
// with big wins from -O5 inlining of the random-number and math calls
// (Fig 9 shows EP among the largest optimization gains).
#include <cmath>

#include "common/rng.hpp"
#include "common/strfmt.hpp"
#include "nas/kernel.hpp"

namespace bgp::nas {
namespace {

using isa::FpOp;
using isa::IntOp;
using isa::LoopDesc;
using isa::LsOp;

u64 pairs_per_rank(ProblemClass cls) {
  switch (cls) {
    case ProblemClass::kS: return u64{1} << 13;
    case ProblemClass::kW: return u64{1} << 16;
    case ProblemClass::kA: return u64{1} << 18;
  }
  return 1 << 13;
}

/// Per-pair op mix of the generation loop (two LCG steps + scaling).
LoopDesc generation_loop(u64 pairs) {
  LoopDesc d;
  d.name = "ep_gen";
  d.trip = pairs;
  // Two randlc steps: each ~5 mult + 4 FMA + 1 add; plus 2 FMA for the
  // [0,1) -> (-1,1) scaling; stores of x[i], y[i].
  d.body.fp_at(FpOp::kMult) = 10;
  d.body.fp_at(FpOp::kFma) = 10;
  d.body.fp_at(FpOp::kAddSub) = 2;
  d.body.ls_at(LsOp::kStoreDouble) = 2;
  d.body.int_at(IntOp::kAlu) = 10;
  d.body.int_at(IntOp::kBranch) = 1;
  d.body.int_at(IntOp::kCall) = 4;  // vranlc()/helpers, inlined by -O5 IPA
  d.vectorizable = 0.15;            // the LCG recurrence is serial
  d.has_calls = true;
  d.locality = isa::LocalityClass::kStreaming;
  return d;
}

/// Per-pair op mix of the polar/acceptance loop.
LoopDesc polar_loop(u64 pairs) {
  LoopDesc d;
  d.name = "ep_polar";
  d.trip = pairs;
  // t = x*x + y*y (mult + FMA); accepted ~78.5%: log ~12 FMA-class ops,
  // sqrt ~8, scaling 3 mult, sums 2 add, annulus 2 add/abs — averaged in.
  d.body.fp_at(FpOp::kMult) = 4;
  d.body.fp_at(FpOp::kFma) = 17;
  d.body.fp_at(FpOp::kAddSub) = 5;
  d.body.fp_at(FpOp::kDiv) = 1;  // -2*log(t)/t
  d.body.ls_at(LsOp::kLoadDouble) = 2;
  d.body.int_at(IntOp::kAlu) = 7;
  d.body.int_at(IntOp::kBranch) = 2;
  d.body.int_at(IntOp::kCall) = 3;  // log(), sqrt(), annulus helper
  d.vectorizable = 0.15;  // acceptance branch blocks packing
  d.has_calls = true;
  d.locality = isa::LocalityClass::kStreaming;
  return d;
}

class EpKernel final : public Kernel {
 public:
  explicit EpKernel(ProblemClass cls) : Kernel(cls) {}

  [[nodiscard]] Benchmark id() const noexcept override {
    return Benchmark::kEP;
  }

  void run(rt::RankCtx& ctx) const override {
    const u64 pairs = pairs_per_rank(class_);
    constexpr u64 kBatch = 2048;
    auto xs = ctx.alloc<double>(kBatch);
    auto ys = ctx.alloc<double>(kBatch);

    // Jump this rank's generator ahead of everyone below it (each pair
    // consumes two deviates).
    NasRng rng(NasRng::jump(NasRng::kDefaultSeed, NasRng::kDefaultA,
                            u64{ctx.rank()} * pairs * 2));

    double sx = 0.0, sy = 0.0;
    std::array<u64, 10> q{};
    u64 accepted = 0;

    for (u64 done = 0; done < pairs; done += kBatch) {
      const u64 n = std::min(kBatch, pairs - done);
      for (u64 i = 0; i < n; ++i) {
        xs[i] = 2.0 * rng.next() - 1.0;
        ys[i] = 2.0 * rng.next() - 1.0;
      }
      ctx.loop(generation_loop(n),
               {rt::MemRange{xs.addr(), n * 8, true},
                rt::MemRange{ys.addr(), n * 8, true}});

      for (u64 i = 0; i < n; ++i) {
        const double x = xs[i];
        const double y = ys[i];
        const double t = x * x + y * y;
        if (t <= 1.0 && t > 0.0) {
          const double z = std::sqrt(-2.0 * std::log(t) / t);
          const double gx = x * z;
          const double gy = y * z;
          sx += gx;
          sy += gy;
          const auto annulus = static_cast<unsigned>(
              std::min(9.0, std::floor(std::max(std::fabs(gx),
                                                std::fabs(gy)))));
          ++q[annulus];
          ++accepted;
        }
      }
      ctx.loop(polar_loop(n), {rt::MemRange{xs.addr(), n * 8, false},
                               rt::MemRange{ys.addr(), n * 8, false}});
    }

    // Global reductions (the kernel's only communication).
    const double gsx = ctx.allreduce_sum(sx);
    const double gsy = ctx.allreduce_sum(sy);
    const u64 gaccepted = ctx.allreduce_sum(accepted);
    u64 gq_total = 0;
    for (u64 c : q) gq_total += c;
    gq_total = ctx.allreduce_sum(gq_total);

    if (ctx.rank() == 0) {
      const double total =
          static_cast<double>(pairs) * static_cast<double>(ctx.size());
      const double ratio = static_cast<double>(gaccepted) / total;
      // pi/4 acceptance, 5-sigma statistical bounds on the Gaussian sums.
      const double sigma = 5.0 * std::sqrt(static_cast<double>(gaccepted));
      const bool ok_ratio = std::fabs(ratio - 0.7853981633974483) < 0.01;
      const bool ok_sums = std::fabs(gsx) < sigma && std::fabs(gsy) < sigma;
      const bool ok_counts = gq_total == gaccepted;
      record(ok_ratio && ok_sums && ok_counts,
             strfmt("ratio=%.6f sx=%.3f sy=%.3f accepted=%llu", ratio, gsx,
                    gsy, static_cast<unsigned long long>(gaccepted)));
    }
  }
};

}  // namespace

std::unique_ptr<Kernel> make_ep(ProblemClass cls) {
  return std::make_unique<EpKernel>(cls);
}

}  // namespace bgp::nas
