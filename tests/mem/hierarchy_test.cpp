#include "mem/hierarchy.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace bgp::mem {
namespace {

namespace ev = isa::ev;
using isa::DdrEvent;
using isa::L1dEvent;

/// The count of DDR event `e` over both controllers.
u64 ddr(const upc::UpcUnit& upc, DdrEvent e) {
  return upc.line_count(ev::ddr(0, e)) + upc.line_count(ev::ddr(1, e));
}

TEST(Hierarchy, BuildsWithDefaults) {
  upc::UpcUnit upc;
  MemoryHierarchy h{HierarchyParams{}, upc};
  EXPECT_TRUE(h.has_l3());
  EXPECT_EQ(h.l3().params().size_bytes, 8 * MiB);
  EXPECT_EQ(h.l1d(0).params().size_bytes, 32 * KiB);
}

TEST(Hierarchy, RejectsAnL1dTheStoreWalkCannotModel) {
  // The store walk forwards every store below the L1 and never allocates:
  // the PPC450 policy. A write-back or write-allocate L1D is refused.
  upc::UpcUnit upc;
  HierarchyParams write_back;
  write_back.l1d.write_through = false;
  write_back.l1d.write_allocate = false;
  EXPECT_THROW(MemoryHierarchy(write_back, upc), std::invalid_argument);
  HierarchyParams allocating;
  allocating.l1d.write_allocate = true;
  EXPECT_THROW(MemoryHierarchy(allocating, upc), std::invalid_argument);
  HierarchyParams both;
  both.l1d.write_through = false;
  both.l1d.write_allocate = true;
  EXPECT_THROW(MemoryHierarchy(both, upc), std::invalid_argument);
  EXPECT_NO_THROW(MemoryHierarchy(HierarchyParams{}, upc));
}

TEST(Hierarchy, L3DisabledRoutesMissesToDdr) {
  HierarchyParams p;
  p.l3_size_bytes = 0;
  p.prefetch.depth = 0;
  upc::UpcUnit upc;
  MemoryHierarchy h{p, upc};
  EXPECT_FALSE(h.has_l3());
  h.read(0, 0x10000, 128, 0);
  EXPECT_GT(ddr(upc, DdrEvent::kReadReq), 0u);
}

TEST(Hierarchy, RepeatedReadsHitInL1) {
  upc::UpcUnit upc;
  MemoryHierarchy h{HierarchyParams{}, upc};
  h.read(0, 0x1000, 32, 0);
  const auto requests = [&upc] {
    return ddr(upc, DdrEvent::kReadReq) + ddr(upc, DdrEvent::kWriteReq);
  };
  const u64 ddr_before = requests();
  for (int i = 0; i < 100; ++i) h.read(0, 0x1000, 32, 0);
  EXPECT_EQ(requests(), ddr_before);
  EXPECT_EQ(upc.line_count(ev::l1d(0, L1dEvent::kReadAccess)), 101u);
  EXPECT_EQ(upc.line_count(ev::l1d(0, L1dEvent::kReadMiss)), 1u);
}

TEST(Hierarchy, MultiLineReadTouchesEveryLine) {
  HierarchyParams p;
  p.prefetch.depth = 0;
  upc::UpcUnit upc;
  MemoryHierarchy h{p, upc};
  h.read(0, 0, 1024, 0);  // 32 L1 lines
  EXPECT_EQ(upc.line_count(ev::l1d(0, L1dEvent::kReadAccess)), 32u);
}

TEST(Hierarchy, UnalignedReadCoversStraddledLines) {
  HierarchyParams p;
  p.prefetch.depth = 0;
  upc::UpcUnit upc;
  MemoryHierarchy h{p, upc};
  // 8 bytes starting 4 bytes before a 32 B boundary touch 2 lines.
  h.read(0, 28, 8, 0);
  EXPECT_EQ(upc.line_count(ev::l1d(0, L1dEvent::kReadAccess)), 2u);
}

TEST(Hierarchy, CoresHavePrivateL1s) {
  upc::UpcUnit upc;
  MemoryHierarchy h{HierarchyParams{}, upc};
  h.read(0, 0x1000, 32, 0);
  // Another core reading the same line misses its own L1.
  h.read(1, 0x1000, 32, 0);
  EXPECT_EQ(upc.line_count(ev::l1d(0, L1dEvent::kReadMiss)), 1u);
  EXPECT_EQ(upc.line_count(ev::l1d(1, L1dEvent::kReadMiss)), 1u);
}

TEST(Hierarchy, SharedL3ServicesSecondCoreFaster) {
  HierarchyParams p;
  p.prefetch.depth = 0;
  upc::UpcUnit upc;
  MemoryHierarchy h{p, upc};
  const auto first = h.read(0, 0x4000, 128, 0);
  const auto second = h.read(1, 0x4000, 128, 0);
  EXPECT_LT(second.latency, first.latency);   // L3 hit vs DDR
  EXPECT_EQ(second.serviced_by, 3);
}

TEST(Hierarchy, WritesReachL3NotDdrWhileCapacityHolds) {
  HierarchyParams p;
  p.prefetch.depth = 0;
  upc::UpcUnit upc;
  MemoryHierarchy h{p, upc};
  // Stream 64 KiB of stores: write-through L1/L2, absorbed by L3.
  for (addr_t a = 0; a < 64 * KiB; a += 32) h.write(0, a, 32, 0);
  EXPECT_GT(upc.line_count(ev::l3(isa::L3Event::kWriteAccess)), 0u);
  EXPECT_EQ(ddr(upc, DdrEvent::kWriteReq), 0u);
  // Reads for ownership (write-allocate fills) do hit DDR.
  EXPECT_GT(ddr(upc, DdrEvent::kReadReq), 0u);
}

TEST(Hierarchy, EvictedDirtyL3LinesProduceDdrWrites) {
  HierarchyParams p;
  p.l3_size_bytes = 512 * KiB;  // small L3 so we can overflow it quickly
  p.prefetch.depth = 0;
  upc::UpcUnit upc;
  MemoryHierarchy h{p, upc};
  for (addr_t a = 0; a < 2 * MiB; a += 32) h.write(0, a, 32, 0);
  EXPECT_GT(ddr(upc, DdrEvent::kWriteReq), 0u);
}

TEST(Hierarchy, SmallerL3MeansMoreDdrTraffic) {
  // Workload with two reuse scales: a 1 MiB hot region swept repeatedly
  // plus a 3 MiB cold region swept once per outer pass (total 4 MiB).
  auto traffic = [](u64 l3_size) {
    HierarchyParams p;
    p.l3_size_bytes = l3_size;
    upc::UpcUnit upc;
  MemoryHierarchy h{p, upc};
    for (int pass = 0; pass < 2; ++pass) {
      for (int rep = 0; rep < 5; ++rep) {
        for (addr_t a = 0; a < MiB; a += 128) h.read(0, a, 128, 0);
      }
      for (addr_t a = MiB; a < 4 * MiB; a += 128) h.read(0, a, 128, 0);
    }
    // The byte lines tick once per 16 B.
    return 16 * (ddr(upc, DdrEvent::kBytesRead16B) +
                 ddr(upc, DdrEvent::kBytesWritten16B));
  };
  const u64 t0 = traffic(0);
  const u64 t2 = traffic(2 * MiB);
  const u64 t4 = traffic(4 * MiB);
  const u64 t8 = traffic(8 * MiB);
  EXPECT_GT(t0, t2);   // hot region now fits
  EXPECT_GT(t2, t4);   // whole footprint now fits
  EXPECT_GE(t4, t8);   // beyond the footprint, little further benefit
}

TEST(Hierarchy, PrefetcherReducesDemandLatency) {
  auto total_latency = [](unsigned depth) {
    HierarchyParams p;
    p.prefetch.depth = depth;
    upc::UpcUnit upc;
  MemoryHierarchy h{p, upc};
    cycles_t now = 0;
    for (addr_t a = 0; a < MiB; a += 32) {
      now += h.read(0, a, 32, now).latency;
    }
    return now;
  };
  EXPECT_LT(total_latency(2), total_latency(0));
}

TEST(Hierarchy, SnoopSeesCrossCoreSharing) {
  upc::UpcUnit upc;
  MemoryHierarchy h{HierarchyParams{}, upc};
  h.read(0, 0x2000, 32, 0);
  h.read(1, 0x2000, 32, 0);
  h.write(0, 0x2000, 32, 0);
  EXPECT_EQ(upc.line_count(ev::snoop(isa::SnoopEvent::kInvalidatesSent)), 1u);
}

}  // namespace
}  // namespace bgp::mem
