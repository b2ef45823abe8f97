#include "compiler/compiler.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "cpu/core.hpp"

namespace bgp::opt {
namespace {

using isa::FpOp;
using isa::IntOp;
using isa::LoopDesc;
using isa::LsOp;

/// A daxpy-like loop: z[i] = a*x[i] + y[i], fully vectorizable.
LoopDesc daxpy(u64 trip = 1000) {
  LoopDesc d;
  d.name = "daxpy";
  d.trip = trip;
  d.body.fp_at(FpOp::kFma) = 1;
  d.body.ls_at(LsOp::kLoadDouble) = 2;
  d.body.ls_at(LsOp::kStoreDouble) = 1;
  d.body.int_at(IntOp::kAlu) = 4;
  d.body.int_at(IntOp::kBranch) = 1;
  d.vectorizable = 1.0;
  return d;
}

/// The block event vector is the one definition of what a bundle signals:
/// every nonzero op class in enum order, then INSTR_COMPLETED, as core-0
/// mode-0 ids. Expected counts are worked out by hand from daxpy(1000).
TEST(Compiler, BlockEventsAtBaseline) {
  const auto out = Compiler(OptConfig::parse("-O")).compile(daxpy());
  // -O: body x trip, nothing transformed.
  const std::vector<isa::EventCount> expected = {
      {isa::ev::fpu_op(0, FpOp::kFma), 1000},
      {isa::ev::ls_op(0, LsOp::kLoadDouble), 2000},
      {isa::ev::ls_op(0, LsOp::kStoreDouble), 1000},
      {isa::ev::int_op(0, IntOp::kAlu), 4000},
      {isa::ev::int_op(0, IntOp::kBranch), 1000},
      {isa::ev::instr_completed(0), 9000},
  };
  EXPECT_EQ(out.events, expected);
  for (const auto& batch : out.core_events) EXPECT_TRUE(batch.empty());
}

TEST(Compiler, BlockEventsAtO5Qarch440d) {
  const auto out =
      Compiler(OptConfig::parse("-O5 -qarch440d")).compile(daxpy());
  // Fully vectorizable at 100% SIMD efficiency: 1000 FMAs pair into 500
  // SIMD FMAs, 2000 double loads into 1000 quad loads, 1000 double stores
  // into 500 quad stores. ALU ops scale by 0.62 (4000 -> 2480), 8x
  // unrolling leaves floor(1007 / 8) = 125 branches, IPA has no calls to
  // remove. 500 + 1000 + 500 + 2480 + 125 = 4605 instructions.
  const std::vector<isa::EventCount> expected = {
      {isa::ev::fpu_op(0, FpOp::kSimdFma), 500},
      {isa::ev::ls_op(0, LsOp::kLoadQuad), 1000},
      {isa::ev::ls_op(0, LsOp::kStoreQuad), 500},
      {isa::ev::int_op(0, IntOp::kAlu), 2480},
      {isa::ev::int_op(0, IntOp::kBranch), 125},
      {isa::ev::instr_completed(0), 4605},
  };
  EXPECT_EQ(out.events, expected);
}

TEST(Compiler, BaselineKeepsScalarForm) {
  Compiler cc(OptConfig::parse("-O -qstrict"));
  const auto out = cc.compile(daxpy());
  EXPECT_EQ(out.ops.fp_at(FpOp::kFma), 1000u);
  EXPECT_EQ(out.ops.fp_at(FpOp::kSimdFma), 0u);
  EXPECT_EQ(out.ops.ls_at(LsOp::kLoadQuad), 0u);
  EXPECT_EQ(out.ops.int_at(IntOp::kBranch), 1000u);
}

TEST(Compiler, SimdizerPairsOpsAndLoads) {
  Compiler cc(OptConfig::parse("-O5 -qarch440d"));
  const auto out = cc.compile(daxpy());
  // Full vectorizable fraction at -O5: everything pairs.
  EXPECT_EQ(out.ops.fp_at(FpOp::kSimdFma), 500u);
  EXPECT_EQ(out.ops.fp_at(FpOp::kFma), 0u);
  EXPECT_EQ(out.ops.ls_at(LsOp::kLoadQuad), 1000u);
  EXPECT_EQ(out.ops.ls_at(LsOp::kLoadDouble), 0u);
  EXPECT_EQ(out.ops.ls_at(LsOp::kStoreQuad), 500u);
}

TEST(Compiler, SimdizationPreservesFlops) {
  const auto base = Compiler(OptConfig::parse("-O3")).compile(daxpy());
  const auto simd =
      Compiler(OptConfig::parse("-O5 -qarch440d")).compile(daxpy());
  EXPECT_EQ(base.ops.total_flops(), simd.ops.total_flops());
  EXPECT_EQ(base.ops.bytes_loaded(), simd.ops.bytes_loaded());
  EXPECT_EQ(base.ops.bytes_stored(), simd.ops.bytes_stored());
}

TEST(Compiler, NoSimdWithoutQarch440d) {
  for (const char* flags : {"-O3", "-O4", "-O5"}) {
    Compiler cc(OptConfig::parse(flags));
    const auto out = cc.compile(daxpy());
    EXPECT_EQ(out.ops.fp_at(FpOp::kSimdFma), 0u) << flags;
  }
}

TEST(Compiler, SimdNeedsO3Infrastructure) {
  // -qarch440d with plain -O produces no SIMD (the SIMDizer rides on the
  // higher-level loop framework).
  Compiler cc(OptConfig{OptLevel::kO, false, true});
  EXPECT_EQ(cc.simd_efficiency(), 0.0);
  EXPECT_EQ(cc.compile(daxpy()).ops.fp_at(FpOp::kSimdFma), 0u);
}

TEST(Compiler, SimdEfficiencyGrowsWithLevel) {
  const double e3 = Compiler(OptConfig::parse("-O3 -qarch440d")).simd_efficiency();
  const double e4 = Compiler(OptConfig::parse("-O4 -qarch440d")).simd_efficiency();
  const double e5 = Compiler(OptConfig::parse("-O5 -qarch440d")).simd_efficiency();
  EXPECT_LT(e3, e4);
  EXPECT_LT(e4, e5);
  EXPECT_EQ(e5, 1.0);
}

TEST(Compiler, PartialVectorizableLeavesResidue) {
  auto d = daxpy();
  d.vectorizable = 0.5;
  Compiler cc(OptConfig::parse("-O5 -qarch440d"));
  const auto out = cc.compile(d);
  EXPECT_EQ(out.ops.fp_at(FpOp::kSimdFma), 250u);
  EXPECT_EQ(out.ops.fp_at(FpOp::kFma), 500u);
}

TEST(Compiler, ReductionsVectorizeWithPenaltyAndNoStorePairing) {
  auto d = daxpy();
  d.reduction = true;
  Compiler cc(OptConfig::parse("-O5 -qarch440d"));
  const auto out = cc.compile(d);
  EXPECT_GT(out.ops.fp_at(FpOp::kSimdFma), 0u);
  EXPECT_LT(out.ops.fp_at(FpOp::kSimdFma), 500u);  // 0.9 efficiency
  EXPECT_EQ(out.ops.ls_at(LsOp::kStoreQuad), 0u);
}

TEST(Compiler, DividesStayScalar) {
  LoopDesc d;
  d.trip = 100;
  d.body.fp_at(FpOp::kDiv) = 2;
  d.vectorizable = 1.0;
  Compiler cc(OptConfig::parse("-O5 -qarch440d"));
  const auto out = cc.compile(d);
  EXPECT_EQ(out.ops.fp_at(FpOp::kDiv), 200u);
  EXPECT_EQ(out.ops.fp_at(FpOp::kSimdDiv), 0u);
}

TEST(Compiler, UnrollReducesBranches) {
  const auto o0 = Compiler(OptConfig::parse("-O")).compile(daxpy());
  const auto o3 = Compiler(OptConfig::parse("-O3")).compile(daxpy());
  const auto o4 = Compiler(OptConfig::parse("-O4")).compile(daxpy());
  EXPECT_GT(o0.ops.int_at(IntOp::kBranch), o3.ops.int_at(IntOp::kBranch));
  EXPECT_GT(o3.ops.int_at(IntOp::kBranch), o4.ops.int_at(IntOp::kBranch));
}

TEST(Compiler, IpaRemovesCalls) {
  LoopDesc d = daxpy();
  d.has_calls = true;
  d.body.int_at(IntOp::kCall) = 2;
  const auto o4 = Compiler(OptConfig::parse("-O4")).compile(d);
  const auto o5 = Compiler(OptConfig::parse("-O5")).compile(d);
  EXPECT_EQ(o4.ops.int_at(IntOp::kCall), 2000u);
  EXPECT_EQ(o5.ops.int_at(IntOp::kCall), 0u);
}

TEST(Compiler, QhotImprovesOverlapForStreamingLoops) {
  auto d = daxpy();
  d.locality = isa::LocalityClass::kStreaming;
  const auto o3 = Compiler(OptConfig::parse("-O3")).compile(d);
  const auto o4 = Compiler(OptConfig::parse("-O4")).compile(d);
  EXPECT_GT(o4.mem_overlap, o3.mem_overlap);

  d.locality = isa::LocalityClass::kRandom;
  const auto r3 = Compiler(OptConfig::parse("-O3")).compile(d);
  const auto r4 = Compiler(OptConfig::parse("-O4")).compile(d);
  EXPECT_EQ(r4.mem_overlap, r3.mem_overlap);
}

TEST(Compiler, ExecutionCyclesDropAcrossLevelsAndWith440d) {
  // The claims behind Figs 9/10: higher levels are never slower within a
  // series, and each -qarch440d variant beats its plain counterpart on a
  // vectorizable loop (a 440d variant may beat even the *next* plain level,
  // exactly as in the paper's charts).
  auto cycles = [](const char* flags) {
    const auto out = Compiler(OptConfig::parse(flags)).compile(daxpy());
    return cpu::Core::bundle_cycles(out.ops, cpu::CoreParams{});
  };
  EXPECT_GE(cycles("-O -qstrict"), cycles("-O3"));
  EXPECT_GE(cycles("-O3"), cycles("-O4"));
  EXPECT_GE(cycles("-O4"), cycles("-O5"));
  EXPECT_GT(cycles("-O3"), cycles("-O3 -qarch440d"));
  EXPECT_GT(cycles("-O4"), cycles("-O4 -qarch440d"));
  EXPECT_GT(cycles("-O5"), cycles("-O5 -qarch440d"));
  EXPECT_GE(cycles("-O3 -qarch440d"), cycles("-O5 -qarch440d"));
}

class CompileSweep
    : public ::testing::TestWithParam<std::tuple<double, bool, int>> {};

TEST_P(CompileSweep, FlopsAndBytesInvariantUnderAllOptions) {
  const auto [vec, reduction, cfg_idx] = GetParam();
  auto d = daxpy(12345);
  d.vectorizable = vec;
  d.reduction = reduction;
  const auto& cfg = OptConfig::paper_set()[static_cast<std::size_t>(cfg_idx)];
  const auto out = Compiler(cfg).compile(d);
  const auto base = Compiler(OptConfig::parse("-O")).compile(d);
  // Optimization never changes the useful work, only its encoding.
  EXPECT_EQ(out.ops.total_flops(), base.ops.total_flops());
  EXPECT_EQ(out.ops.bytes_loaded(), base.ops.bytes_loaded());
  EXPECT_EQ(out.ops.bytes_stored(), base.ops.bytes_stored());
}

INSTANTIATE_TEST_SUITE_P(
    Space, CompileSweep,
    ::testing::Combine(::testing::Values(0.0, 0.3, 0.7, 1.0),
                       ::testing::Bool(), ::testing::Range(0, 7)));

}  // namespace
}  // namespace bgp::opt
