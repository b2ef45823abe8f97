// Tests of the OpenMP-style parallel_loop worksharing (the paper's §IX
// hybrid MPI+OpenMP direction): work splitting, shared-cache behaviour,
// fork/join timing and mode interactions.
#include <gtest/gtest.h>

#include "runtime/machine.hpp"
#include "runtime/rankctx.hpp"

namespace bgp::rt {
namespace {

isa::LoopDesc fma_loop(u64 trip) {
  isa::LoopDesc d;
  d.name = "work";
  d.trip = trip;
  d.body.fp_at(isa::FpOp::kFma) = 2;
  d.body.int_at(isa::IntOp::kAlu) = 1;
  return d;
}

/// Core `c`'s flops: its FP-op lines weighted by flops per op.
u64 flops(const sys::Node& node, unsigned c) {
  u64 f = 0;
  for (std::size_t i = 0; i < isa::kNumFpOps; ++i) {
    const auto op = static_cast<isa::FpOp>(i);
    f += node.upc().line_count(isa::ev::fpu_op(c, op)) * isa::flops_per_op(op);
  }
  return f;
}

MachineConfig smp4(unsigned nodes = 1) {
  MachineConfig cfg;
  cfg.num_nodes = nodes;
  cfg.mode = sys::OpMode::kSmp4;
  return cfg;
}

TEST(ParallelLoop, TeamSizeFollowsMode) {
  {
    Machine m(smp4());
    m.run([](RankCtx& ctx) { EXPECT_EQ(ctx.num_threads(), 4u); });
  }
  {
    MachineConfig cfg;
    cfg.num_nodes = 1;
    cfg.mode = sys::OpMode::kDual;
    Machine m(cfg);
    m.run([](RankCtx& ctx) { EXPECT_EQ(ctx.num_threads(), 2u); });
  }
  {
    MachineConfig cfg;
    cfg.num_nodes = 1;
    cfg.mode = sys::OpMode::kVnm;
    Machine m(cfg);
    m.run([](RankCtx& ctx) { EXPECT_EQ(ctx.num_threads(), 1u); });
  }
}

TEST(ParallelLoop, SplitsWorkAcrossAllFourCores) {
  Machine m(smp4());
  m.run([](RankCtx& ctx) { ctx.parallel_loop(fma_loop(100000)); });
  // Every core executed ~1/4 of the FMAs.
  auto& node = m.partition().node(0);
  for (unsigned c = 0; c < 4; ++c) {
    EXPECT_NEAR(static_cast<double>(flops(node, c)), 100000.0, 64.0)
        << "core " << c;  // 2 FMA/iter * 2 flops * trip/4
  }
}

TEST(ParallelLoop, FourThreadsBeatOneOnComputeBoundWork) {
  auto elapsed = [](unsigned nthreads) {
    Machine m(smp4());
    m.run([&](RankCtx& ctx) {
      ctx.parallel_loop(fma_loop(400000), {}, nthreads);
    });
    return m.elapsed();
  };
  const cycles_t t1 = elapsed(1);
  const cycles_t t4 = elapsed(4);
  EXPECT_LT(t4, t1);
  // Near-perfect scaling on compute-bound work (within fork/join overhead).
  EXPECT_NEAR(static_cast<double>(t1) / static_cast<double>(t4), 4.0, 0.3);
}

TEST(ParallelLoop, MemoryRangesAreSliced) {
  Machine m(smp4());
  m.run([](RankCtx& ctx) {
    auto arr = ctx.alloc<double>(64 * 1024);  // 512 KiB
    isa::LoopDesc d = fma_loop(64 * 1024);
    d.body.ls_at(isa::LsOp::kLoadDouble) = 1;
    ctx.parallel_loop(d, {MemRange{arr.addr(), arr.bytes(), false}});
  });
  // Each core's L1 saw roughly a quarter of the lines.
  auto& node = m.partition().node(0);
  const u64 total_lines = 512 * 1024 / 32;
  for (unsigned c = 0; c < 4; ++c) {
    const u64 reads = node.upc().line_count(
        isa::ev::l1d(c, isa::L1dEvent::kReadAccess));
    EXPECT_NEAR(static_cast<double>(reads),
                static_cast<double>(total_lines) / 4.0,
                static_cast<double>(total_lines) / 16.0)
        << "core " << c;
  }
}

TEST(ParallelLoop, OversubscriptionThrows) {
  Machine m(smp4());
  EXPECT_THROW(m.run([](RankCtx& ctx) {
    ctx.parallel_loop(fma_loop(100), {}, 5);
  }),
               std::invalid_argument);
}

TEST(ParallelLoop, SingleThreadEqualsLoop) {
  auto run_with = [](bool parallel) {
    MachineConfig cfg;
    cfg.num_nodes = 1;
    cfg.mode = sys::OpMode::kSmp1;
    Machine m(cfg);
    m.run([&](RankCtx& ctx) {
      if (parallel) {
        ctx.parallel_loop(fma_loop(5000), {}, 1);
      } else {
        ctx.loop(fma_loop(5000));
      }
    });
    return m.elapsed();
  };
  EXPECT_EQ(run_with(true), run_with(false));
}

TEST(ParallelLoop, DualModeTeamsDoNotOverlap) {
  MachineConfig cfg;
  cfg.num_nodes = 1;
  cfg.mode = sys::OpMode::kDual;  // 2 processes x 2 threads
  Machine m(cfg);
  m.run([](RankCtx& ctx) { ctx.parallel_loop(fma_loop(10000)); });
  // Process 0 used cores 0-1, process 1 used cores 2-3; all four carry
  // roughly equal work, none is idle.
  auto& node = m.partition().node(0);
  for (unsigned c = 0; c < 4; ++c) {
    EXPECT_GT(flops(node, c), 0u) << "core " << c;
  }
}

TEST(ParallelLoop, HybridMatchesVnmThroughputShape) {
  // The §IX question: 1 process x 4 threads vs 4 processes x 1 thread on
  // the same chip, same total work. Both must complete in the same order
  // of magnitude; hybrid pays fork/join, VNM pays MPI overheads.
  auto vnm_time = [] {
    MachineConfig cfg;
    cfg.num_nodes = 1;
    cfg.mode = sys::OpMode::kVnm;
    Machine m(cfg);
    m.run([](RankCtx& ctx) { ctx.loop(fma_loop(100000)); });  // 1/4 each
    return m.elapsed();
  }();
  auto smp4_time = [] {
    Machine m(smp4());
    m.run([](RankCtx& ctx) { ctx.parallel_loop(fma_loop(400000)); });
    return m.elapsed();
  }();
  EXPECT_LT(static_cast<double>(smp4_time),
            1.5 * static_cast<double>(vnm_time));
  EXPECT_LT(static_cast<double>(vnm_time),
            1.5 * static_cast<double>(smp4_time));
}

}  // namespace
}  // namespace bgp::rt
