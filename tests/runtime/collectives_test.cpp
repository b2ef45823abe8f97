#include <gtest/gtest.h>

#include <array>
#include <numeric>
#include <utility>
#include <vector>

#include "runtime/machine.hpp"
#include "runtime/rankctx.hpp"

namespace bgp::rt {
namespace {

MachineConfig small(unsigned nodes = 2, sys::OpMode mode = sys::OpMode::kVnm) {
  MachineConfig cfg;
  cfg.num_nodes = nodes;
  cfg.mode = mode;
  return cfg;
}

TEST(Collectives, BarrierSynchronizesClocks) {
  Machine m(small(2));
  m.run([](RankCtx& ctx) {
    // Unbalanced compute before the barrier.
    isa::LoopDesc d;
    d.trip = 1000 * (ctx.rank() + 1);
    d.body.int_at(isa::IntOp::kAlu) = 8;
    ctx.loop(d);
    ctx.barrier();
    // After the barrier every clock must be at least the slowest arrival.
    EXPECT_GE(ctx.now(), 4000u);
  });
}

TEST(Collectives, AllreduceSumScalar) {
  Machine m(small(2));
  m.run([](RankCtx& ctx) {
    const double s = ctx.allreduce_sum(static_cast<double>(ctx.rank() + 1));
    const double n = ctx.size();
    EXPECT_DOUBLE_EQ(s, n * (n + 1) / 2.0);
  });
}

TEST(Collectives, AllreduceSumVector) {
  Machine m(small(2));
  m.run([](RankCtx& ctx) {
    std::array<double, 3> v{1.0, double(ctx.rank()), -1.0};
    ctx.allreduce_sum(v);
    EXPECT_DOUBLE_EQ(v[0], double(ctx.size()));
    EXPECT_DOUBLE_EQ(v[1], double(ctx.size() * (ctx.size() - 1) / 2));
    EXPECT_DOUBLE_EQ(v[2], -double(ctx.size()));
  });
}

TEST(Collectives, AllreduceSumU64Exact) {
  Machine m(small(2));
  m.run([](RankCtx& ctx) {
    // Values that would lose precision in a double reduction.
    const u64 big = (1ull << 53) + 1 + ctx.rank();
    const u64 s = ctx.allreduce_sum(big);
    u64 expect = 0;
    for (unsigned r = 0; r < ctx.size(); ++r) expect += (1ull << 53) + 1 + r;
    EXPECT_EQ(s, expect);
  });
}

TEST(Collectives, AllreduceMax) {
  Machine m(small(2));
  m.run([](RankCtx& ctx) {
    const double mx = ctx.allreduce_max(ctx.rank() == 3 ? 99.5 : 1.0);
    EXPECT_DOUBLE_EQ(mx, 99.5);
  });
}

TEST(Collectives, Bcast) {
  Machine m(small(2));
  m.run([](RankCtx& ctx) {
    std::array<u64, 5> data{};
    if (ctx.rank() == 2) data = {10, 20, 30, 40, 50};
    ctx.bcast(std::as_writable_bytes(std::span(data)), /*root=*/2);
    EXPECT_EQ(data[0], 10u);
    EXPECT_EQ(data[4], 50u);
  });
}

TEST(Collectives, Alltoall) {
  Machine m(small(2));
  m.run([](RankCtx& ctx) {
    const unsigned p = ctx.size();
    std::vector<u64> send(p), recv(p);
    for (unsigned d = 0; d < p; ++d) send[d] = ctx.rank() * 100 + d;
    ctx.alltoall(std::as_bytes(std::span(send)),
                 std::as_writable_bytes(std::span(recv)), sizeof(u64));
    for (unsigned s = 0; s < p; ++s) {
      EXPECT_EQ(recv[s], s * 100 + ctx.rank());
    }
  });
}

TEST(Collectives, Allgather) {
  Machine m(small(2));
  m.run([](RankCtx& ctx) {
    const unsigned p = ctx.size();
    const u64 mine = 7000 + ctx.rank();
    std::vector<u64> all(p);
    ctx.allgather(std::as_bytes(std::span(&mine, 1)),
                  std::as_writable_bytes(std::span(all)));
    for (unsigned r = 0; r < p; ++r) EXPECT_EQ(all[r], 7000 + r);
  });
}

TEST(Collectives, MismatchedCollectiveKindsFail) {
  // One VNM node: ranks 0-3 arrive in rank order, so rank 0 is the first
  // arrival and rank 3 the last. A collective's size is part of its kind:
  // every combine sizes its copies by the first arrival's buffer.
  const auto allreduce_long_on = [](unsigned long_rank) {
    return [long_rank](RankCtx& ctx) {
      std::array<double, 4> v{1.0, 1.0, 1.0, 1.0};
      ctx.allreduce_sum(
          std::span<double>(v.data(), ctx.rank() == long_rank ? 4 : 1));
    };
  };
  const std::vector<std::pair<const char*, RankFn>> cases = {
      {"barrier vs allreduce",
       [](RankCtx& ctx) {
         if (ctx.rank() == 0) {
           ctx.barrier();
         } else {
           (void)ctx.allreduce_sum(1.0);
         }
       }},
      {"long allreduce on the first arrival", allreduce_long_on(0)},
      {"long allreduce on the last arrival", allreduce_long_on(3)},
      {"bcast of two sizes",
       [](RankCtx& ctx) {
         std::array<std::byte, 16> buf{};
         ctx.bcast(std::span(buf.data(), ctx.rank() == 0 ? 16 : 8), 0);
       }},
  };
  for (const auto& [name, program] : cases) {
    SCOPED_TRACE(name);
    Machine m(small(1));
    EXPECT_THROW(m.run(program), std::logic_error);
  }
}

TEST(Collectives, CollectiveLatencyGrowsWithPartition) {
  auto elapsed = [](unsigned nodes) {
    MachineConfig cfg;
    cfg.num_nodes = nodes;
    cfg.mode = sys::OpMode::kSmp1;
    Machine m(cfg);
    m.run([](RankCtx& ctx) {
      for (int i = 0; i < 50; ++i) (void)ctx.allreduce_sum(1.0);
    });
    return m.elapsed();
  };
  EXPECT_LT(elapsed(2), elapsed(16));
}

TEST(Collectives, MpiEventsLandInMode3) {
  MachineConfig cfg = small(1);
  Machine m(cfg);
  auto& node = m.partition().node(0);
  node.upc().set_mode(3);
  node.upc().start();
  m.run([](RankCtx& ctx) {
    ctx.barrier();
    (void)ctx.allreduce_sum(1.0);
    if (ctx.rank() == 0) {
      std::array<u64, 1> v{1};
      ctx.send_values<u64>(1, v);
    } else if (ctx.rank() == 1) {
      std::array<u64, 1> v{};
      ctx.recv_values<u64>(0, v);
    }
  });
  namespace ev = isa::ev;
  const auto coll0 =
      node.upc().read(isa::event_counter(ev::system(isa::SysEvent::kMpiCollectives, 0)));
  EXPECT_EQ(coll0, 2u);  // barrier + allreduce on rank slot 0
  const auto sends =
      node.upc().read(isa::event_counter(ev::system(isa::SysEvent::kMpiSends, 0)));
  EXPECT_EQ(sends, 1u);
  const auto recvs =
      node.upc().read(isa::event_counter(ev::system(isa::SysEvent::kMpiRecvs, 1)));
  EXPECT_EQ(recvs, 1u);
}

TEST(Collectives, SimArrayAllocationIsPerRankDisjoint) {
  Machine m(small(1));
  std::array<std::pair<addr_t, addr_t>, 4> regions;
  m.run([&](RankCtx& ctx) {
    auto a = ctx.alloc<double>(1000);
    auto b = ctx.alloc<float>(10);
    EXPECT_GE(b.addr(), a.addr() + 8000);
    EXPECT_EQ(a.addr() % 128, 0u);
    EXPECT_EQ(b.addr() % 128, 0u);
    regions[ctx.rank()] = {a.addr(), b.addr() + b.bytes()};
  });
  for (unsigned i = 0; i < 4; ++i) {
    for (unsigned j = i + 1; j < 4; ++j) {
      const bool disjoint = regions[i].second <= regions[j].first ||
                            regions[j].second <= regions[i].first;
      EXPECT_TRUE(disjoint) << i << "," << j;
    }
  }
}

TEST(Collectives, HeapExhaustionThrows) {
  Machine m(small(1));
  EXPECT_THROW(m.run([](RankCtx& ctx) {
    (void)ctx.alloc<double>(300 * MiB / 8 + 1);
  }),
               std::runtime_error);
}

}  // namespace
}  // namespace bgp::rt
