#include "mem/hierarchy.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace bgp::mem {
namespace {

TEST(Hierarchy, BuildsWithDefaults) {
  MemoryHierarchy h{HierarchyParams{}};
  EXPECT_TRUE(h.has_l3());
  EXPECT_EQ(h.l3().params().size_bytes, 8 * MiB);
  EXPECT_EQ(h.l1d(0).params().size_bytes, 32 * KiB);
}

TEST(Hierarchy, RejectsAnL1dTheStoreWalkCannotModel) {
  // The store walk forwards every store below the L1 and never allocates:
  // the PPC450 policy. A write-back or write-allocate L1D is refused.
  HierarchyParams write_back;
  write_back.l1d.write_through = false;
  write_back.l1d.write_allocate = false;
  EXPECT_THROW(MemoryHierarchy{write_back}, std::invalid_argument);
  HierarchyParams allocating;
  allocating.l1d.write_allocate = true;
  EXPECT_THROW(MemoryHierarchy{allocating}, std::invalid_argument);
  HierarchyParams both;
  both.l1d.write_through = false;
  both.l1d.write_allocate = true;
  EXPECT_THROW(MemoryHierarchy{both}, std::invalid_argument);
  EXPECT_NO_THROW(MemoryHierarchy{HierarchyParams{}});
}

TEST(Hierarchy, L3DisabledRoutesMissesToDdr) {
  HierarchyParams p;
  p.l3_size_bytes = 0;
  p.prefetch.enabled = false;
  MemoryHierarchy h{p};
  EXPECT_FALSE(h.has_l3());
  h.read(0, 0x10000, 128, 0);
  EXPECT_GT(h.ddr().total().read_reqs, 0u);
}

TEST(Hierarchy, RepeatedReadsHitInL1) {
  MemoryHierarchy h{HierarchyParams{}};
  h.read(0, 0x1000, 32, 0);
  const u64 ddr_before = h.ddr().total().requests();
  for (int i = 0; i < 100; ++i) h.read(0, 0x1000, 32, 0);
  EXPECT_EQ(h.ddr().total().requests(), ddr_before);
  EXPECT_EQ(h.l1d(0).stats().read_access, 101u);
  EXPECT_EQ(h.l1d(0).stats().read_miss, 1u);
}

TEST(Hierarchy, MultiLineReadTouchesEveryLine) {
  HierarchyParams p;
  p.prefetch.enabled = false;
  MemoryHierarchy h{p};
  h.read(0, 0, 1024, 0);  // 32 L1 lines
  EXPECT_EQ(h.l1d(0).stats().read_access, 32u);
}

TEST(Hierarchy, UnalignedReadCoversStraddledLines) {
  HierarchyParams p;
  p.prefetch.enabled = false;
  MemoryHierarchy h{p};
  // 8 bytes starting 4 bytes before a 32 B boundary touch 2 lines.
  h.read(0, 28, 8, 0);
  EXPECT_EQ(h.l1d(0).stats().read_access, 2u);
}

TEST(Hierarchy, CoresHavePrivateL1s) {
  MemoryHierarchy h{HierarchyParams{}};
  h.read(0, 0x1000, 32, 0);
  // Another core reading the same line misses its own L1.
  h.read(1, 0x1000, 32, 0);
  EXPECT_EQ(h.l1d(0).stats().read_miss, 1u);
  EXPECT_EQ(h.l1d(1).stats().read_miss, 1u);
}

TEST(Hierarchy, SharedL3ServicesSecondCoreFaster) {
  HierarchyParams p;
  p.prefetch.enabled = false;
  MemoryHierarchy h{p};
  const auto first = h.read(0, 0x4000, 128, 0);
  const auto second = h.read(1, 0x4000, 128, 0);
  EXPECT_LT(second.latency, first.latency);   // L3 hit vs DDR
  EXPECT_EQ(second.serviced_by, 3);
}

TEST(Hierarchy, WritesReachL3NotDdrWhileCapacityHolds) {
  HierarchyParams p;
  p.prefetch.enabled = false;
  MemoryHierarchy h{p};
  // Stream 64 KiB of stores: write-through L1/L2, absorbed by L3.
  for (addr_t a = 0; a < 64 * KiB; a += 32) h.write(0, a, 32, 0);
  EXPECT_GT(h.l3().stats().write_access, 0u);
  EXPECT_EQ(h.ddr().total().write_reqs, 0u);
  // Reads for ownership (write-allocate fills) do hit DDR.
  EXPECT_GT(h.ddr().total().read_reqs, 0u);
}

TEST(Hierarchy, EvictedDirtyL3LinesProduceDdrWrites) {
  HierarchyParams p;
  p.l3_size_bytes = 512 * KiB;  // small L3 so we can overflow it quickly
  p.prefetch.enabled = false;
  MemoryHierarchy h{p};
  for (addr_t a = 0; a < 2 * MiB; a += 32) h.write(0, a, 32, 0);
  EXPECT_GT(h.ddr().total().write_reqs, 0u);
}

TEST(Hierarchy, SmallerL3MeansMoreDdrTraffic) {
  // Workload with two reuse scales: a 1 MiB hot region swept repeatedly
  // plus a 3 MiB cold region swept once per outer pass (total 4 MiB).
  auto traffic = [](u64 l3_size) {
    HierarchyParams p;
    p.l3_size_bytes = l3_size;
    MemoryHierarchy h{p};
    for (int pass = 0; pass < 2; ++pass) {
      for (int rep = 0; rep < 5; ++rep) {
        for (addr_t a = 0; a < MiB; a += 128) h.read(0, a, 128, 0);
      }
      for (addr_t a = MiB; a < 4 * MiB; a += 128) h.read(0, a, 128, 0);
    }
    return h.ddr().total().bytes();
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
  auto total_latency = [](bool enabled) {
    HierarchyParams p;
    p.prefetch.enabled = enabled;
    MemoryHierarchy h{p};
    cycles_t now = 0;
    for (addr_t a = 0; a < MiB; a += 32) {
      now += h.read(0, a, 32, now).latency;
    }
    return now;
  };
  EXPECT_LT(total_latency(true), total_latency(false));
}

TEST(Hierarchy, IfetchHitsAfterWarm) {
  MemoryHierarchy h{HierarchyParams{}};
  h.ifetch(0, 0x100, 0);
  const auto r = h.ifetch(0, 0x100, 0);
  EXPECT_EQ(r.latency, h.params().l1i.hit_latency);
}

TEST(Hierarchy, SnoopSeesCrossCoreSharing) {
  MemoryHierarchy h{HierarchyParams{}};
  h.read(0, 0x2000, 32, 0);
  h.read(1, 0x2000, 32, 0);
  h.write(0, 0x2000, 32, 0);
  EXPECT_EQ(h.snoop().stats().invalidates_sent, 1u);
}

}  // namespace
}  // namespace bgp::mem
