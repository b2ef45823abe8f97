// Ground-truth counts for the memory hierarchy (`ctest -L validate`): every
// expected value below is worked out from the cache geometry and the access
// pattern alone — 32 B L1 lines, 128 B L2/L3 lines, a 32 KiB L1D, two
// line-interleaved DDR controllers — never from another simulator path.
// Caches start cold, every event line's count is read from the UPC unit's
// free-running line counts, and the L2
// prefetcher is off unless a test says otherwise.
#include <gtest/gtest.h>

#include <array>
#include <random>

#include "../integration/golden.hpp"
#include "mem/hierarchy.hpp"

namespace bgp::mem {
namespace {

namespace ev = isa::ev;
using isa::L1dEvent;
using isa::L2Event;
using isa::L3Event;

/// Every count the hierarchy reported on each event line.
class Recorder {
 public:
  upc::UpcUnit unit;
  [[nodiscard]] u64 operator[](isa::EventId id) const {
    return unit.line_count(id);
  }
};

u64 ddr_bytes(const Recorder& r, unsigned ctrl, isa::DdrEvent e) {
  return r[ev::ddr(ctrl, e)] * 16;  // the byte counters tick per 16 B
}
u64 ddr_bytes(const Recorder& r, isa::DdrEvent e) {
  return ddr_bytes(r, 0, e) + ddr_bytes(r, 1, e);
}

HierarchyParams no_prefetch() {
  HierarchyParams p;
  p.prefetch.depth = 0;
  return p;
}

constexpr u64 kN = 1 * MiB;          // stream length
constexpr addr_t kBase = 64 * MiB;   // 128 B aligned
constexpr u64 kL1Lines = 32 * KiB / 32;

TEST(HierarchyOracle, ColdStreamReadMatchesLineArithmetic) {
  Recorder rec;
  MemoryHierarchy h(no_prefetch(), rec.unit);
  cycles_t now = 0;
  for (addr_t a = kBase; a < kBase + kN; a += 256) {
    now += h.read(0, a, 256, now).latency;
  }
  // L1D: every 32 B line misses once and is filled; once the 1024-line L1
  // is full each fill evicts one (clean) line.
  EXPECT_EQ(rec[ev::l1d(0, L1dEvent::kReadAccess)], kN / 32);
  EXPECT_EQ(rec[ev::l1d(0, L1dEvent::kReadMiss)], kN / 32);
  EXPECT_EQ(rec[ev::l1d(0, L1dEvent::kLineFill)], kN / 32);
  EXPECT_EQ(rec[ev::l1d(0, L1dEvent::kEvict)], kN / 32 - kL1Lines);
  EXPECT_EQ(rec[ev::l1d(0, L1dEvent::kWriteback)], 0u);
  // L2: four L1 misses per 128 B line, the first of which misses.
  EXPECT_EQ(rec[ev::l2(0, L2Event::kReadAccess)], kN / 32);
  EXPECT_EQ(rec[ev::l2(0, L2Event::kReadHit)], 3 * kN / 128);
  EXPECT_EQ(rec[ev::l2(0, L2Event::kReadMiss)], kN / 128);
  // L3: one cold miss and fill per 128 B line; 1 MiB evicts nothing.
  EXPECT_EQ(rec[ev::l3(L3Event::kReadAccess)], kN / 128);
  EXPECT_EQ(rec[ev::l3(L3Event::kReadMiss)], kN / 128);
  EXPECT_EQ(rec[ev::l3(L3Event::kReadHit)], 0u);
  EXPECT_EQ(rec[ev::l3(L3Event::kFillFromDdr)], kN / 128);
  EXPECT_EQ(rec[ev::l3(L3Event::kEvict)], 0u);
  EXPECT_EQ(rec[ev::l3(L3Event::kWriteAccess)], 0u);
  // DDR: the whole stream once, alternating controllers line by line.
  EXPECT_EQ(ddr_bytes(rec, 0, isa::DdrEvent::kBytesRead16B), kN / 2);
  EXPECT_EQ(ddr_bytes(rec, 1, isa::DdrEvent::kBytesRead16B), kN / 2);
  EXPECT_EQ(rec[ev::ddr(0, isa::DdrEvent::kReadReq)], kN / 256);
  EXPECT_EQ(rec[ev::ddr(1, isa::DdrEvent::kReadReq)], kN / 256);
  EXPECT_EQ(ddr_bytes(rec, isa::DdrEvent::kBytesWritten16B), 0u);
}

TEST(HierarchyOracle, BlockRereadMissesOnlyOnTheFirstPass) {
  // 16 KiB = 512 L1 lines, eight per set of the 64-set, 16-way L1D.
  constexpr u64 kBlock = 16 * KiB;
  constexpr u64 kPasses = 7;
  Recorder rec;
  MemoryHierarchy h(no_prefetch(), rec.unit);
  for (u64 p = 0; p < kPasses; ++p) h.read(1, kBase, kBlock, 0);
  EXPECT_EQ(rec[ev::l1d(1, L1dEvent::kReadAccess)], 512 * kPasses);
  EXPECT_EQ(rec[ev::l1d(1, L1dEvent::kReadMiss)], 512u);
  EXPECT_EQ(rec[ev::l2(1, L2Event::kReadAccess)], 512u);
  EXPECT_EQ(rec[ev::l3(L3Event::kReadAccess)], kBlock / 128);
  EXPECT_EQ(ddr_bytes(rec, isa::DdrEvent::kBytesRead16B), kBlock);
}

TEST(HierarchyOracle, WithoutL3EveryL2MissGoesToDdr) {
  HierarchyParams p = no_prefetch();
  p.l3_size_bytes = 0;
  Recorder rec;
  MemoryHierarchy h(p, rec.unit);
  h.read(2, kBase, kN, 0);
  for (unsigned e = 0; e < isa::kNumL3Events; ++e) {
    EXPECT_EQ(rec[ev::l3(L3Event(e))], 0u) << "L3 event " << e;
  }
  EXPECT_EQ(rec[ev::l2(2, L2Event::kReadMiss)], kN / 128);
  EXPECT_EQ(ddr_bytes(rec, isa::DdrEvent::kBytesRead16B), kN);
}

TEST(HierarchyOracle, StoreStreamWritesThroughToL3) {
  Recorder rec;
  MemoryHierarchy h(no_prefetch(), rec.unit);
  for (addr_t a = kBase; a < kBase + kN; a += 64) h.write(3, a, 64, 0);
  // Write-through, no-allocate L1 and L2: every 32 B store reaches the
  // L3 and neither private level ever holds the line.
  EXPECT_EQ(rec[ev::l1d(3, L1dEvent::kWriteAccess)], kN / 32);
  EXPECT_EQ(rec[ev::l1d(3, L1dEvent::kWriteMiss)], kN / 32);
  EXPECT_EQ(rec[ev::l1d(3, L1dEvent::kLineFill)], 0u);
  EXPECT_EQ(rec[ev::l2(3, L2Event::kWriteAccess)], kN / 32);
  EXPECT_EQ(rec[ev::l3(L3Event::kWriteAccess)], kN / 32);
  // The write-allocate L3 fetches each 128 B line once, on its first
  // store, and keeps it dirty: no DDR writes while it fits.
  EXPECT_EQ(rec[ev::l3(L3Event::kWriteMiss)], kN / 128);
  EXPECT_EQ(rec[ev::l3(L3Event::kWriteHit)], 3 * kN / 128);
  EXPECT_EQ(rec[ev::l3(L3Event::kFillFromDdr)], kN / 128);
  EXPECT_EQ(ddr_bytes(rec, isa::DdrEvent::kBytesRead16B), kN);
  EXPECT_EQ(ddr_bytes(rec, isa::DdrEvent::kBytesWritten16B), 0u);
  EXPECT_EQ(rec[ev::ddr(0, isa::DdrEvent::kWriteReq)] +
                rec[ev::ddr(1, isa::DdrEvent::kWriteReq)],
            0u);
}

TEST(HierarchyOracle, PrefetchesAreL3Reads) {
  Recorder rec;
  MemoryHierarchy h(HierarchyParams{}, rec.unit);
  // Four cores stream disjoint regions, interleaved line by line.
  for (addr_t off = 0; off < kN; off += 128) {
    for (unsigned c = 0; c < isa::kCoresPerNode; ++c) {
      h.read(c, kBase + c * 2 * kN + off, 128, 0);
    }
  }
  u64 expected = 0;
  u64 issued = 0;
  for (unsigned c = 0; c < isa::kCoresPerNode; ++c) {
    issued += rec[ev::l2(c, L2Event::kPrefetchIssued)];
    expected += rec[ev::l2(c, L2Event::kReadMiss)] +
                rec[ev::l2(c, L2Event::kPrefetchIssued)];
  }
  EXPECT_GT(issued, 0u);
  EXPECT_EQ(rec[ev::l3(L3Event::kReadAccess)], expected);
}

/// Mixed traffic: prefetch on, a 512 KiB L3 small enough to evict dirty
/// lines, and 40000 random reads and writes of 1-512 B from all four
/// cores, counted into `unit`.
void mixed_traffic(upc::UpcUnit& unit) {
  HierarchyParams p;
  p.l3_size_bytes = 512 * KiB;
  MemoryHierarchy h(p, unit);
  std::mt19937_64 rng(14);
  cycles_t now = 0;
  for (int i = 0; i < 40000; ++i) {
    const unsigned core = static_cast<unsigned>(rng() % isa::kCoresPerNode);
    const addr_t a = kBase + rng() % (4 * MiB);
    const u64 bytes = 1 + rng() % 512;
    const AccessResult r = (rng() % 3 == 0) ? h.write(core, a, bytes, now)
                                            : h.read(core, a, bytes, now);
    now += r.latency;
  }
}

TEST(HierarchyOracle, FillAndDdrIdentitiesOnMixedTraffic) {
  Recorder rec;
  mixed_traffic(rec.unit);
  const u64 fills = rec[ev::l3(L3Event::kFillFromDdr)];
  const u64 writebacks = rec[ev::l3(L3Event::kWritebackToDdr)];
  EXPECT_GT(writebacks, 0u);
  EXPECT_EQ(fills, rec[ev::l3(L3Event::kReadMiss)] +
                       rec[ev::l3(L3Event::kWriteMiss)]);
  EXPECT_EQ(rec[ev::l3(L3Event::kReadAccess)],
            rec[ev::l3(L3Event::kReadHit)] + rec[ev::l3(L3Event::kReadMiss)]);
  EXPECT_EQ(rec[ev::l3(L3Event::kWriteAccess)],
            rec[ev::l3(L3Event::kWriteHit)] +
                rec[ev::l3(L3Event::kWriteMiss)]);
  EXPECT_EQ(ddr_bytes(rec, isa::DdrEvent::kBytesRead16B), 128 * fills);
  EXPECT_EQ(ddr_bytes(rec, isa::DdrEvent::kBytesWritten16B),
            128 * writebacks);
}

/// The digest of the (line, count) sequence a unit in `mode` sees over the
/// mixed traffic, through interrupts alone: every counter is armed one
/// above its count, so each report fires, and the listener folds the
/// report's line and count into the digest before it re-arms.
u64 armed_report_digest(u8 mode) {
  upc::UpcUnit unit;
  unit.set_mode(mode);
  upc::CounterConfig armed;
  armed.interrupt_enable = true;
  armed.threshold = 1;
  for (unsigned c = 0; c < upc::UpcUnit::kNumCounters; ++c) {
    unit.configure(static_cast<u8>(c), armed);
  }
  std::array<u64, upc::UpcUnit::kNumCounters> seen{};
  u64 digest = golden::kSeed;
  unit.add_threshold_listener([&](u8 counter, u64 value) {
    digest = golden::add(digest, u64{mode} * isa::kCountersPerUnit + counter);
    digest = golden::add(digest, value - seen[counter]);
    seen[counter] = value;
    upc::CounterConfig cfg = unit.config(counter);
    cfg.threshold = value + 1;
    unit.configure(counter, cfg);
  });
  unit.start();
  mixed_traffic(unit);
  return digest;
}

// The order in which a walk reports its events is observable through an
// armed counter: its interrupt fires at one report of the sequence. The
// digests pin that sequence for each mode the hierarchy reports in; they
// were recorded from the per-walk batches of an earlier delivery path,
// filtered to each mode's lines.
TEST(HierarchyOracle, ReportOrderSeenByArmedCountersIsPinned) {
  constexpr u64 kGoldenMode0 = 0xf9c18e09fb99e566;
  constexpr u64 kGoldenMode1 = 0xe56dce36ce79b50a;
  const u64 mode0 = armed_report_digest(0);
  const u64 mode1 = armed_report_digest(1);
  EXPECT_EQ(mode0, kGoldenMode0) << "mode 0 digest is " << golden::hex(mode0);
  EXPECT_EQ(mode1, kGoldenMode1) << "mode 1 digest is " << golden::hex(mode1);
}

}  // namespace
}  // namespace bgp::mem
