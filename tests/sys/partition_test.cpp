#include "sys/partition.hpp"

#include <gtest/gtest.h>

namespace bgp::sys {
namespace {

TEST(Node, CardParityFollowsBootOptions) {
  BootOptions boot;
  boot.nodes_per_card = 2;
  EXPECT_TRUE(Node(0, boot).even_card());
  EXPECT_TRUE(Node(1, boot).even_card());
  EXPECT_FALSE(Node(2, boot).even_card());
  EXPECT_FALSE(Node(3, boot).even_card());
  EXPECT_TRUE(Node(4, boot).even_card());
}

TEST(Node, BootOptionsControlL3) {
  BootOptions boot;
  boot.l3_size_bytes = 2 * MiB;
  Node n(0, boot);
  EXPECT_EQ(n.memory().l3().params().size_bytes, 2 * MiB);
  boot.l3_size_bytes = 0;
  Node n2(0, boot);
  EXPECT_FALSE(n2.memory().has_l3());
}

TEST(Node, HardwareEventsReachTheUpc) {
  Node n(0);
  n.upc().set_mode(0);
  n.upc().start();
  isa::OpMix m;
  m.fp_at(isa::FpOp::kSimdFma) = 42;
  const isa::EventCount batch[] = {
      {isa::ev::fpu_op(2, isa::FpOp::kSimdFma), 42}};
  n.core(2).execute_block(m, batch);
  const auto counter = isa::event_counter(isa::ev::fpu_op(2, isa::FpOp::kSimdFma));
  EXPECT_EQ(n.upc().read(counter), 42u);
}

TEST(Node, MemoryEventsReachTheUpcInMode1) {
  Node n(0);
  n.upc().set_mode(1);
  n.upc().start();
  // A read larger than all caches forces DDR traffic.
  for (addr_t a = 0; a < 64 * KiB; a += 128) n.memory().read(0, a, 128, 0);
  const auto counter = isa::event_counter(isa::ev::l3(isa::L3Event::kReadMiss));
  EXPECT_GT(n.upc().read(counter), 0u);
}

TEST(Node, TimebaseIsMaxOverCores) {
  Node n(0);
  n.core(0).advance(10);
  n.core(3).advance(99);
  EXPECT_EQ(n.timebase(), 99u);
}

TEST(Partition, RankCountsPerMode) {
  EXPECT_EQ(Partition(32, OpMode::kVnm).num_ranks(), 128u);
  EXPECT_EQ(Partition(32, OpMode::kSmp1).num_ranks(), 32u);
  EXPECT_EQ(Partition(16, OpMode::kDual).num_ranks(), 32u);
}

TEST(Partition, VnmPlacementPacksFourRanksPerNode) {
  Partition p(4, OpMode::kVnm);
  for (unsigned r = 0; r < 16; ++r) {
    const auto pl = p.placement(r);
    EXPECT_EQ(pl.node, r / 4);
    EXPECT_EQ(pl.core, r % 4);
  }
  EXPECT_THROW((void)p.placement(16), std::out_of_range);
}

TEST(Partition, DualPlacementUsesCorePairs) {
  Partition p(2, OpMode::kDual);
  EXPECT_EQ(p.placement(0).core, 0u);
  EXPECT_EQ(p.placement(1).core, 2u);
  EXPECT_EQ(p.placement(2).node, 1u);
}

TEST(Partition, Smp1LeavesCoresIdle) {
  Partition p(4, OpMode::kSmp1);
  for (unsigned r = 0; r < 4; ++r) {
    EXPECT_EQ(p.placement(r).node, r);
    EXPECT_EQ(p.placement(r).core, 0u);
  }
}

TEST(Partition, NetworksMatchNodeCount) {
  Partition p(32, OpMode::kVnm);
  EXPECT_EQ(p.torus().shape().nodes(), 32u);
  EXPECT_EQ(p.collective().nodes(), 32u);
}

TEST(Partition, TorusEventsLandOnNodeUpc) {
  Partition p(4, OpMode::kSmp1);
  p.node(0).upc().set_mode(2);
  p.node(0).upc().start();
  p.torus().record_transfer(0, 1, 256);
  const auto counter =
      isa::event_counter(isa::ev::torus(isa::TorusEvent::kPacketsSentXp));
  EXPECT_EQ(p.node(0).upc().read(counter), 1u);
}

TEST(Partition, ZeroNodesRejected) {
  EXPECT_THROW(Partition(0, OpMode::kVnm), std::invalid_argument);
}

}  // namespace
}  // namespace bgp::sys
