#include "cpu/core.hpp"

#include <gtest/gtest.h>

namespace bgp::cpu {
namespace {

using isa::FpOp;
using isa::IntOp;
using isa::LsOp;
using isa::OpMix;

TEST(Core, EmptyBundleCostsNothing) {
  upc::UpcUnit upc;
  Core c(0, CoreParams{}, upc);
  EXPECT_EQ(c.execute_block(OpMix{}, {}), 0u);
  EXPECT_EQ(c.now(), 0u);
}

TEST(Core, DualIssueBound) {
  // 100 integer ops, nothing else: 2-way issue -> 50 cycles.
  OpMix m;
  m.int_at(IntOp::kAlu) = 100;
  EXPECT_EQ(Core::bundle_cycles(m, CoreParams{}), 50u);
}

TEST(Core, FpuOccupancyBound) {
  // 100 FMAs alone: FPU does 1/cycle -> 100 cycles despite 2-way issue.
  OpMix m;
  m.fp_at(FpOp::kFma) = 100;
  EXPECT_EQ(Core::bundle_cycles(m, CoreParams{}), 100u);
}

TEST(Core, SimdHalvesFpuOccupancy) {
  OpMix scalar;
  scalar.fp_at(FpOp::kFma) = 100;
  OpMix simd;
  simd.fp_at(FpOp::kSimdFma) = 50;  // same flops, half the instructions
  EXPECT_LT(Core::bundle_cycles(simd, CoreParams{}),
            Core::bundle_cycles(scalar, CoreParams{}));
  // And the same flops are reported.
  EXPECT_EQ(scalar.total_flops(), simd.total_flops());
}

TEST(Core, DividesAreUnpipelined) {
  OpMix m;
  m.fp_at(FpOp::kDiv) = 10;
  const CoreParams p{};
  EXPECT_EQ(Core::bundle_cycles(m, p), 10 * p.fp_div_cycles);
}

TEST(Core, LsuBound) {
  OpMix m;
  m.ls_at(LsOp::kLoadDouble) = 200;
  m.int_at(IntOp::kAlu) = 10;
  EXPECT_EQ(Core::bundle_cycles(m, CoreParams{}), 200u);
}

TEST(Core, QuadLoadsHalveLsuOccupancy) {
  OpMix dbl;
  dbl.ls_at(LsOp::kLoadDouble) = 200;
  OpMix quad;
  quad.ls_at(LsOp::kLoadQuad) = 100;  // same bytes
  EXPECT_EQ(dbl.bytes_loaded(), quad.bytes_loaded());
  EXPECT_LT(Core::bundle_cycles(quad, CoreParams{}),
            Core::bundle_cycles(dbl, CoreParams{}));
}

TEST(Core, BranchMispredictionPenalty) {
  CoreParams p;
  p.mispredict_rate = 0.5;
  p.mispredict_penalty = 7;
  OpMix m;
  m.int_at(IntOp::kBranch) = 100;
  // issue bound 50 + 50 mispredicts * 7.
  EXPECT_EQ(Core::bundle_cycles(m, p), 50u + 350u);
}

TEST(Core, ExecuteAccumulatesStatsAndTime) {
  // A block counts the event vector the compile cache built for it: the
  // instruction lines, weighted by flops per op, give the core's flops.
  // Every charged cycle, the block's and advance()'s, moves the clock and
  // CYCLE_COUNT together.
  upc::UpcUnit upc;
  Core c(1, CoreParams{}, upc);
  OpMix m;
  m.fp_at(FpOp::kSimdFma) = 10;
  m.ls_at(LsOp::kLoadQuad) = 5;
  const cycles_t cycles = Core::bundle_cycles(m, CoreParams{});
  const isa::EventCount block[] = {
      {isa::ev::fpu_op(1, FpOp::kSimdFma), 10},
      {isa::ev::ls_op(1, LsOp::kLoadQuad), 5},
      {isa::ev::instr_completed(1), 15},
      {isa::ev::cycle_count(1), cycles},
  };
  EXPECT_EQ(c.execute_block(m, block), cycles);
  EXPECT_EQ(upc.line_count(isa::ev::instr_completed(1)),
            m.total_instructions());
  u64 flops = 0;
  for (std::size_t i = 0; i < isa::kNumFpOps; ++i) {
    const auto op = static_cast<FpOp>(i);
    flops += upc.line_count(isa::ev::fpu_op(1, op)) * isa::flops_per_op(op);
  }
  EXPECT_EQ(flops, 40u);
  EXPECT_EQ(c.now(), cycles);
  c.advance(100);  // an exposed memory stall
  c.advance(50);   // time blocked in communication
  EXPECT_EQ(c.now(), cycles + 150);
  EXPECT_EQ(upc.line_count(isa::ev::cycle_count(1)), c.now());
}

TEST(Core, SignalsFpuAndCycleEvents) {
  // The block's event vector (built by the compile cache in a real run)
  // counts into the UPC unit as-is, and the core charges the bundle's
  // cycles.
  upc::UpcUnit upc;
  Core c(2, CoreParams{}, upc);
  OpMix m;
  m.fp_at(FpOp::kSimdAddSub) = 7;
  m.int_at(IntOp::kAlu) = 3;
  const isa::EventCount batch[] = {
      {isa::ev::fpu_op(2, FpOp::kSimdAddSub), 7},
      {isa::ev::int_op(2, IntOp::kAlu), 3},
      {isa::ev::instr_completed(2), 10},
      {isa::ev::cycle_count(2), 7},  // FPU-bound: 7 SIMD adds
  };
  EXPECT_EQ(c.execute_block(m, batch), 7u);
  EXPECT_EQ(upc.line_count(isa::ev::fpu_op(2, FpOp::kSimdAddSub)), 7u);
  EXPECT_EQ(upc.line_count(isa::ev::int_op(2, IntOp::kAlu)), 3u);
  EXPECT_EQ(upc.line_count(isa::ev::instr_completed(2)), 10u);
  EXPECT_EQ(upc.line_count(isa::ev::cycle_count(2)), 7u);
  EXPECT_EQ(c.now(), 7u);
}

TEST(Core, SyncToOnlyMovesForward) {
  upc::UpcUnit upc;
  Core c(0, CoreParams{}, upc);
  c.advance(100);
  c.sync_to(50);  // no-op
  EXPECT_EQ(c.now(), 100u);
  EXPECT_EQ(upc.line_count(isa::ev::cycle_count(0)), 100u);
  c.sync_to(250);  // the 150 skipped cycles count as cycles
  EXPECT_EQ(c.now(), 250u);
  EXPECT_EQ(upc.line_count(isa::ev::cycle_count(0)), 250u);
}

TEST(Core, TimebaseMatchesClockAndCountsReads) {
  upc::UpcUnit upc;
  Core c(0, CoreParams{}, upc);
  c.advance(123);
  EXPECT_EQ(c.read_timebase(), 123u);
  EXPECT_EQ(upc.line_count(isa::ev::system(isa::SysEvent::kTimebaseReads, 0)),
            1u);
}

TEST(Core, PeakSimdRateIsFourFlopsPerCycle) {
  // 13.6 GFLOPS node peak = 4 cores * 850 MHz * 4 flops: a pure SIMD-FMA
  // bundle must execute at 4 flops/cycle.
  OpMix m;
  m.fp_at(FpOp::kSimdFma) = 1000;
  const cycles_t cycles = Core::bundle_cycles(m, CoreParams{});
  EXPECT_EQ(m.total_flops() / cycles, 4u);
}

}  // namespace
}  // namespace bgp::cpu
