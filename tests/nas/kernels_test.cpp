// Every kernel must pass its own NPB-style verification — on one rank, on
// several ranks in VNM, and (for the parameterized suite) across operating
// modes. These are the strongest correctness tests in the repository: they
// exercise real numerics through the whole runtime.
#include <gtest/gtest.h>

#include "nas/kernel.hpp"
#include "nas/runner.hpp"

namespace bgp::nas {
namespace {

KernelResult run_plain(Benchmark b, unsigned nodes, sys::OpMode mode,
                       unsigned ranks_override = 0,
                       ProblemClass cls = ProblemClass::kS) {
  rt::MachineConfig mc;
  mc.num_nodes = nodes;
  mc.mode = mode;
  mc.num_ranks_override = ranks_override;
  rt::Machine m(mc);
  auto kernel = make_kernel(b, cls);
  m.run([&](rt::RankCtx& ctx) {
    ctx.mpi_init();
    kernel->run(ctx);
    ctx.mpi_finalize();
  });
  return kernel->result();
}

class SingleRank : public ::testing::TestWithParam<Benchmark> {};

TEST_P(SingleRank, VerifiesOnOneRank) {
  const auto res = run_plain(GetParam(), 1, sys::OpMode::kSmp1);
  EXPECT_TRUE(res.verified) << res.detail;
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, SingleRank, ::testing::ValuesIn(all_benchmarks()),
    [](const ::testing::TestParamInfo<Benchmark>& info) {
      return std::string(name(info.param));
    });

class VnmFourRanks : public ::testing::TestWithParam<Benchmark> {};

TEST_P(VnmFourRanks, VerifiesOnFourRanksOneNode) {
  const auto res = run_plain(GetParam(), 1, sys::OpMode::kVnm);
  EXPECT_TRUE(res.verified) << res.detail;
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, VnmFourRanks, ::testing::ValuesIn(all_benchmarks()),
    [](const ::testing::TestParamInfo<Benchmark>& info) {
      return std::string(name(info.param));
    });

class VnmEightRanks : public ::testing::TestWithParam<Benchmark> {};

TEST_P(VnmEightRanks, VerifiesOnTwoNodes) {
  const auto res = run_plain(GetParam(), 2, sys::OpMode::kVnm);
  EXPECT_TRUE(res.verified) << res.detail;
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, VnmEightRanks, ::testing::ValuesIn(all_benchmarks()),
    [](const ::testing::TestParamInfo<Benchmark>& info) {
      return std::string(name(info.param));
    });

TEST(Kernels, SpBtRunOnNonPowerOfTwoRankCounts) {
  // The paper runs SP/BT on 121 ranks; our decomposition must accept any
  // count. 3 ranks exercises the uneven block split.
  for (Benchmark b : {Benchmark::kSP, Benchmark::kBT}) {
    const auto res = run_plain(b, 1, sys::OpMode::kVnm, 3);
    EXPECT_TRUE(res.verified) << name(b) << ": " << res.detail;
  }
}

TEST(Kernels, FtRejectsNonPowerOfTwoGracefully) {
  const auto res = run_plain(Benchmark::kFT, 1, sys::OpMode::kVnm, 3);
  EXPECT_FALSE(res.verified);
  EXPECT_NE(res.detail.find("power-of-two"), std::string::npos);
}

TEST(Kernels, DualModeWorks) {
  const auto res = run_plain(Benchmark::kCG, 2, sys::OpMode::kDual);
  EXPECT_TRUE(res.verified) << res.detail;
}

TEST(Kernels, CgResultIsPinned) {
  // The golden digests pin CG's simulated addresses and gather order, not
  // the values its operator produces. These verification lines (residual
  // reduction and symmetry error) were recorded with the operator stored
  // as CSR arrays; a computed operator must reproduce them, boundary
  // entries and rank-edge halo couplings included.
  struct Case {
    ProblemClass cls;
    unsigned nodes;
    sys::OpMode mode;
    const char* detail;
  };
  const Case cases[] = {
      {ProblemClass::kS, 1, sys::OpMode::kSmp1,
       "residual reduced to 3.091e-01 of initial, sym_err=1.0e-14"},
      {ProblemClass::kS, 1, sys::OpMode::kVnm,
       "residual reduced to 2.911e-01 of initial, sym_err=2.6e-15"},
      {ProblemClass::kS, 2, sys::OpMode::kVnm,
       "residual reduced to 2.930e-01 of initial, sym_err=3.6e-14"},
      {ProblemClass::kW, 1, sys::OpMode::kVnm,
       "residual reduced to 1.916e-01 of initial, sym_err=9.2e-13"},
  };
  for (const Case& c : cases) {
    const auto res = run_plain(Benchmark::kCG, c.nodes, c.mode, 0, c.cls);
    EXPECT_TRUE(res.verified) << res.detail;
    EXPECT_EQ(res.detail, c.detail)
        << "class " << name(c.cls) << ", " << c.nodes << " node(s), "
        << sys::to_string(c.mode);
  }
}

TEST(Kernels, BlockDecompositionCoversEverythingOnce) {
  for (u64 total : {1ull, 7ull, 64ull, 121ull, 1000ull}) {
    for (unsigned parts : {1u, 2u, 3u, 7u, 16u}) {
      u64 covered = 0;
      u64 expected_begin = 0;
      for (unsigned i = 0; i < parts; ++i) {
        const Block blk = block_of(total, parts, i);
        EXPECT_EQ(blk.begin, expected_begin);
        expected_begin = blk.end;
        covered += blk.size();
      }
      EXPECT_EQ(covered, total);
    }
  }
}

TEST(Runner, ProducesVerifiedInstrumentedRun) {
  RunSpec cfg;
  cfg.bench = Benchmark::kCG;
  cfg.cls = ProblemClass::kS;
  cfg.machine.num_nodes = 2;
  cfg.machine.mode = sys::OpMode::kVnm;
  const RunOutput out = run_benchmark(cfg);
  EXPECT_TRUE(out.result.verified) << out.result.detail;
  EXPECT_EQ(out.dumps.size(), 2u);
  EXPECT_GT(out.elapsed, 0u);
  EXPECT_GT(out.record.exec_cycles, 0.0);
  EXPECT_GT(out.record.mflops_per_node, 0.0);
  EXPECT_GT(out.record.fp.total(), 0.0);
}

TEST(Runner, DeterministicAcrossRuns) {
  RunSpec cfg;
  cfg.bench = Benchmark::kMG;
  cfg.cls = ProblemClass::kS;
  cfg.machine.num_nodes = 2;
  const RunOutput a = run_benchmark(cfg);
  const RunOutput b = run_benchmark(cfg);
  EXPECT_EQ(a.elapsed, b.elapsed);
  EXPECT_EQ(a.record.exec_cycles, b.record.exec_cycles);
  EXPECT_EQ(a.record.ddr_traffic_bytes, b.record.ddr_traffic_bytes);
}

TEST(Runner, SimdMixRespondsToCompilerConfig) {
  RunSpec cfg;
  cfg.bench = Benchmark::kFT;
  cfg.cls = ProblemClass::kS;
  cfg.machine.num_nodes = 1;
  cfg.machine.opt = opt::OptConfig::parse("-O -qstrict");
  const RunOutput base = run_benchmark(cfg);
  cfg.machine.opt = opt::OptConfig::parse("-O5 -qarch440d");
  const RunOutput simd = run_benchmark(cfg);
  EXPECT_EQ(base.record.fp.simd_instructions(), 0.0);
  EXPECT_GT(simd.record.fp.simd_instructions(), 0.0);
  EXPECT_LT(simd.record.exec_cycles, base.record.exec_cycles);
}

TEST(Kernels, NamesRoundTrip) {
  for (Benchmark b : all_benchmarks()) {
    EXPECT_EQ(parse_benchmark(name(b)), b);
  }
  EXPECT_THROW((void)parse_benchmark("XX"), std::invalid_argument);
  EXPECT_EQ(parse_class("W"), ProblemClass::kW);
  EXPECT_THROW((void)parse_class("Z"), std::invalid_argument);
}

}  // namespace
}  // namespace bgp::nas
