// Integration tests pinning the paper's characterization claims at test
// scale (class S — the bench harnesses check the same shapes at larger
// scale). These run the full stack: kernels -> compiler -> cores/caches ->
// UPC -> interface library -> dumps -> post-processing.
#include <gtest/gtest.h>

#include "nas/runner.hpp"
#include "postproc/metrics.hpp"

namespace bgp {
namespace {

nas::RunOutput run(nas::Benchmark b, unsigned nodes = 4,
                   sys::OpMode mode = sys::OpMode::kVnm,
                   const char* opt = "-O5 -qarch440d",
                   u64 l3_bytes = 8 * MiB) {
  nas::RunSpec cfg;
  cfg.bench = b;
  cfg.cls = nas::ProblemClass::kS;
  cfg.machine.num_nodes = nodes;
  cfg.machine.mode = mode;
  cfg.machine.opt = opt::OptConfig::parse(opt);
  cfg.machine.boot.l3_size_bytes = l3_bytes;
  return nas::run_benchmark(cfg);
}

TEST(Characterization, Fig6MgAndFtAreSimdDominated) {
  for (nas::Benchmark b : {nas::Benchmark::kMG, nas::Benchmark::kFT}) {
    const auto out = run(b);
    ASSERT_TRUE(out.result.verified) << out.result.detail;
    const double simd_share =
        out.record.fp.simd_instructions() / out.record.fp.total();
    EXPECT_GT(simd_share, 0.5) << nas::name(b);
  }
}

TEST(Characterization, Fig6OthersAreSingleFmaDominated) {
  for (nas::Benchmark b : {nas::Benchmark::kEP, nas::Benchmark::kCG,
                           nas::Benchmark::kLU, nas::Benchmark::kBT}) {
    const auto out = run(b);
    ASSERT_TRUE(out.result.verified) << out.result.detail;
    double max_frac = 0;
    isa::FpOp dominant = isa::FpOp::kAddSub;
    for (unsigned i = 0; i < isa::kNumFpOps; ++i) {
      const auto op = static_cast<isa::FpOp>(i);
      if (out.record.fp.fraction(op) > max_frac) {
        max_frac = out.record.fp.fraction(op);
        dominant = op;
      }
    }
    EXPECT_EQ(dominant, isa::FpOp::kFma) << nas::name(b);
  }
}

TEST(Characterization, Fig6DividesAreNegligible) {
  for (nas::Benchmark b : nas::all_benchmarks()) {
    const auto out = run(b);
    const double div_share = out.record.fp.fraction(isa::FpOp::kDiv) +
                             out.record.fp.fraction(isa::FpOp::kSimdDiv);
    // SP's band eliminations carry the most divides; still ~a tenth.
    EXPECT_LT(div_share, 0.10) << nas::name(b);
  }
}

TEST(Characterization, Fig7SimdAppearsOnlyWith440d) {
  const auto plain = run(nas::Benchmark::kFT, 4, sys::OpMode::kVnm, "-O5");
  const auto simd = run(nas::Benchmark::kFT);
  EXPECT_EQ(plain.record.fp.simd_instructions(), 0.0);
  EXPECT_GT(simd.record.fp.simd_instructions(), 0.0);
  EXPECT_LT(simd.record.exec_cycles, plain.record.exec_cycles);
}

TEST(Characterization, Fig9BaselineIsSlowestForEveryBenchmark) {
  for (nas::Benchmark b : nas::all_benchmarks()) {
    const auto base = run(b, 4, sys::OpMode::kVnm, "-O -qstrict");
    const auto best = run(b);
    if (!base.result.verified) continue;  // FT needs pow2 ranks: 16 ok
    EXPECT_LT(best.record.exec_cycles, base.record.exec_cycles)
        << nas::name(b);
  }
}

TEST(Characterization, Fig11NoL3MeansMoreTrafficThanBigL3) {
  for (nas::Benchmark b : {nas::Benchmark::kCG, nas::Benchmark::kMG,
                           nas::Benchmark::kIS}) {
    const auto no_l3 = run(b, 4, sys::OpMode::kVnm, "-O5 -qarch440d", 0);
    const auto big = run(b, 4, sys::OpMode::kVnm, "-O5 -qarch440d", 8 * MiB);
    EXPECT_GT(no_l3.record.ddr_traffic_bytes,
              2.0 * big.record.ddr_traffic_bytes)
        << nas::name(b);
    // Removing the L3 must also cost time.
    EXPECT_GT(no_l3.record.exec_cycles, big.record.exec_cycles)
        << nas::name(b);
  }
}

TEST(Characterization, Fig12VnmTrafficRatioBoundedByRankPacking) {
  // 16 ranks each way: VNM on 4 nodes vs SMP/1 on 16 nodes (L3=2MB).
  // Class W so there is real DDR traffic to compare (class S fits in L3);
  // at least 4 nodes so both node-card parities exist for memory counters.
  for (nas::Benchmark b : {nas::Benchmark::kCG, nas::Benchmark::kMG}) {
    nas::RunSpec vnm;
    vnm.bench = b;
    vnm.cls = nas::ProblemClass::kW;
    vnm.machine.num_nodes = 4;
    vnm.machine.mode = sys::OpMode::kVnm;
    const auto v = nas::run_benchmark(vnm);
    nas::RunSpec smp = vnm;
    smp.machine.num_nodes = 16;
    smp.machine.mode = sys::OpMode::kSmp1;
    smp.machine.boot.l3_size_bytes = 2 * MiB;
    const auto s = nas::run_benchmark(smp);
    ASSERT_TRUE(v.result.verified && s.result.verified);
    const double ratio =
        v.record.ddr_traffic_bytes / std::max(1.0, s.record.ddr_traffic_bytes);
    EXPECT_GT(ratio, 1.0) << nas::name(b);
    EXPECT_LE(ratio, 4.5) << nas::name(b);
    // Fig 14's bound: per-chip MFLOPS ratio in (1, 4.2].
    const double mflops_ratio =
        v.record.mflops_per_node / std::max(1.0, s.record.mflops_per_node);
    EXPECT_GT(mflops_ratio, 1.0) << nas::name(b);
    EXPECT_LE(mflops_ratio, 4.2) << nas::name(b);
  }
}

TEST(Characterization, EvenOddCardsSplitTheEventSpace) {
  const auto out = run(nas::Benchmark::kCG);
  unsigned mode0 = 0, mode1 = 0;
  for (const auto& d : out.dumps) {
    if (d.counter_mode == 0) ++mode0;
    if (d.counter_mode == 1) ++mode1;
  }
  // 4 nodes, 2 per card: two even-card and two odd-card nodes.
  EXPECT_EQ(mode0, 2u);
  EXPECT_EQ(mode1, 2u);
  // Merged view exposes both per-core and memory events in one run.
  EXPECT_GT(out.record.fp.total(), 0.0);
  EXPECT_GT(out.record.ddr_traffic_bytes + out.record.l3_read_miss_ratio,
            0.0);
}

TEST(Characterization, CycleCountMatchesMachineElapsedScale) {
  const auto out = run(nas::Benchmark::kMG);
  // The mean per-node CYCLE_COUNT cannot exceed the slowest node's clock,
  // and must be within 3x of it (nodes do symmetric work).
  EXPECT_LE(out.record.exec_cycles, static_cast<double>(out.elapsed));
  EXPECT_GT(out.record.exec_cycles, static_cast<double>(out.elapsed) / 3.0);
}

TEST(Characterization, FlopsAreOptimizationInvariant) {
  // The useful work must not depend on the option set (only its encoding
  // does) — checked end-to-end through the counters.
  const auto a = run(nas::Benchmark::kMG, 4, sys::OpMode::kVnm, "-O -qstrict");
  const auto b = run(nas::Benchmark::kMG);
  EXPECT_NEAR(a.record.fp.flops() / b.record.fp.flops(), 1.0, 0.01);
}

}  // namespace
}  // namespace bgp
