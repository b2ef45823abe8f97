#include "net/torus.hpp"

#include <gtest/gtest.h>

namespace bgp::net {
namespace {

TEST(Shape, FactorizationIsNearCubic) {
  EXPECT_EQ(Shape::for_nodes(8), (Shape{2, 2, 2}));
  EXPECT_EQ(Shape::for_nodes(32), (Shape{4, 4, 2}));
  EXPECT_EQ(Shape::for_nodes(64), (Shape{4, 4, 4}));
  EXPECT_EQ(Shape::for_nodes(128), (Shape{8, 4, 4}));
  EXPECT_EQ(Shape::for_nodes(1), (Shape{1, 1, 1}));
  EXPECT_EQ(Shape::for_nodes(7), (Shape{7, 1, 1}));  // prime: a ring
}

TEST(Shape, InvalidNodeCount) {
  EXPECT_THROW((void)Shape::for_nodes(0), std::invalid_argument);
}

TEST(Torus, CoordRoundTrip) {
  Torus t(Shape{4, 4, 2});
  for (unsigned n = 0; n < 32; ++n) {
    EXPECT_EQ(t.node_of(t.coord_of(n)), n);
  }
  EXPECT_THROW((void)t.coord_of(32), std::out_of_range);
}

TEST(Torus, HopsUseWraparound) {
  Torus t(Shape{8, 1, 1});
  EXPECT_EQ(t.hops(0, 1), 1u);
  EXPECT_EQ(t.hops(0, 4), 4u);  // halfway: either way is 4
  EXPECT_EQ(t.hops(0, 7), 1u);  // wraps
  EXPECT_EQ(t.hops(1, 6), 3u);  // wraps via 0
}

TEST(Torus, HopsAreSymmetricAndZeroOnSelf) {
  Torus t(Shape{4, 4, 2});
  for (unsigned a = 0; a < 32; a += 5) {
    EXPECT_EQ(t.hops(a, a), 0u);
    for (unsigned b = 0; b < 32; b += 3) {
      EXPECT_EQ(t.hops(a, b), t.hops(b, a));
    }
  }
}

TEST(Torus, TriangleInequality) {
  Torus t(Shape{4, 4, 4});
  for (unsigned a = 0; a < 64; a += 7) {
    for (unsigned b = 0; b < 64; b += 5) {
      for (unsigned c = 0; c < 64; c += 11) {
        EXPECT_LE(t.hops(a, c), t.hops(a, b) + t.hops(b, c));
      }
    }
  }
}

TEST(Torus, MaxHopsBoundedByShape) {
  Torus t(Shape{4, 4, 2});
  for (unsigned a = 0; a < 32; ++a) {
    for (unsigned b = 0; b < 32; ++b) {
      EXPECT_LE(t.hops(a, b), 2u + 2u + 1u);  // half of each dimension
    }
  }
}

TEST(Torus, TransferTimeGrowsWithDistanceAndSize) {
  Torus t(Shape{8, 8, 8});
  EXPECT_EQ(t.transfer_cycles(0, 0, 4096), 0u);
  const auto near = t.transfer_cycles(0, 1, 1024);
  const auto far = t.transfer_cycles(0, 7 * 8 * 8 / 2 + 4, 1024);
  EXPECT_LT(near, far);
  EXPECT_LT(t.transfer_cycles(0, 1, 1024), t.transfer_cycles(0, 1, 64 * 1024));
}

TEST(Torus, NearestNeighbourLatencyIsSubMicrosecond) {
  // BG/P nearest-neighbour latency is ~0.1 us; our model should be in that
  // ballpark for a small packet (< 2000 cycles at 850 MHz ~= 2.3 us).
  Torus t(Shape{8, 4, 4});
  EXPECT_LT(t.transfer_cycles(0, 1, 256), 2000u);
}

TEST(Torus, RecordsEventsOnBothEndpoints) {
  Torus t(Shape{4, 1, 1});
  upc::UpcUnit src, dst;
  t.attach_upc(0, &src);
  t.attach_upc(1, &dst);
  t.record_transfer(0, 1, 1024);  // 4 packets of 256 B
  namespace ev = isa::ev;
  EXPECT_EQ(src.line_count(ev::torus(isa::TorusEvent::kPacketsSentXp)), 4u);
  EXPECT_EQ(src.line_count(ev::torus(isa::TorusEvent::kBytesSent32B)), 32u);
  EXPECT_EQ(src.line_count(ev::torus(isa::TorusEvent::kHopsTotal)), 4u);
  EXPECT_EQ(dst.line_count(ev::torus(isa::TorusEvent::kPacketsReceived)), 4u);
  // Wrap-around direction: node 0 -> node 3 goes -x.
  t.record_transfer(0, 3, 256);
  EXPECT_EQ(src.line_count(ev::torus(isa::TorusEvent::kPacketsSentXm)), 1u);
}

}  // namespace
}  // namespace bgp::net
