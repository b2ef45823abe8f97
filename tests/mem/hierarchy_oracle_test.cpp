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

TEST(HierarchyOracle, LongReadMissesEveryLinePastTheL1Capacity) {
  // Lines 0-255 and 1500-1755 of the walk are resident first: eight
  // lines in every set of the 64-set, 16-way L1D.
  Recorder rec;
  MemoryHierarchy h(no_prefetch(), rec.unit);
  const auto l1 = [&rec](L1dEvent e) { return rec[ev::l1d(0, e)]; };
  h.read(0, kBase, 8 * KiB, 0);
  h.read(0, kBase + 1500 * 32, 8 * KiB, 0);
  const u64 access0 = l1(L1dEvent::kReadAccess);
  const u64 miss0 = l1(L1dEvent::kReadMiss);
  const u64 fill0 = l1(L1dEvent::kLineFill);
  const u64 evict0 = l1(L1dEvent::kEvict);
  EXPECT_EQ(miss0, 512u);
  EXPECT_EQ(evict0, 0u);

  // A 3,072-line walk: lines 0-255 hit and 256-1023 miss, twelve per
  // set, the last four of which evict lines 1500-1755 (the least recently
  // used). From line 1,024 on every set holds only lines of the walk, so
  // each of the 2,048 lines left misses and evicts.
  h.read(0, kBase, 3 * kL1Lines * 32, 0);
  EXPECT_EQ(l1(L1dEvent::kReadAccess) - access0, 3072u);
  EXPECT_EQ(l1(L1dEvent::kReadMiss) - miss0, 2816u);
  EXPECT_EQ(l1(L1dEvent::kLineFill) - fill0, 2816u);
  EXPECT_EQ(l1(L1dEvent::kEvict) - evict0, 2304u);
  EXPECT_EQ(l1(L1dEvent::kWriteback), 0u);

  // The L1 ends holding exactly the walk's last 1,024 lines, ranked in
  // walk order: they all hit, and line 0 misses and evicts line 2048, the
  // least recently used line of set 0, while line 2112 stays.
  const u64 miss1 = l1(L1dEvent::kReadMiss);
  h.read(0, kBase + 2 * kL1Lines * 32, kL1Lines * 32, 0);
  EXPECT_EQ(l1(L1dEvent::kReadMiss), miss1);
  h.read(0, kBase, 1, 0);
  EXPECT_EQ(l1(L1dEvent::kReadMiss), miss1 + 1);
  h.read(0, kBase + 2112 * 32, 1, 0);
  EXPECT_EQ(l1(L1dEvent::kReadMiss), miss1 + 1);
  h.read(0, kBase + 2048 * 32, 1, 0);
  EXPECT_EQ(l1(L1dEvent::kReadMiss), miss1 + 2);
}

TEST(HierarchyOracle, LongReadSearchesUpToItsLastPossibleHit) {
  // Line 1,023 of a 2,048-line walk, the last that can still hit, is
  // resident: its set holds it and the walk's 15 earlier lines there.
  Recorder rec;
  MemoryHierarchy h(no_prefetch(), rec.unit);
  h.read(0, kBase + 1023 * 32, 1, 0);
  h.read(0, kBase, 2 * kL1Lines * 32, 0);
  EXPECT_EQ(rec[ev::l1d(0, L1dEvent::kReadAccess)], 1 + 2 * kL1Lines);
  EXPECT_EQ(rec[ev::l1d(0, L1dEvent::kReadMiss)], 1 + 2 * kL1Lines - 1);
}

TEST(HierarchyOracle, RepeatReadAfterRunAheadIntoItsSetIsRanked) {
  // Depth 32 on the 16-set, 8-way L2: run_ahead(A) installs A+16 and A+32
  // into A's set. The next three L1 misses read A again; the first of them
  // must make A the most recently used line of its set once more.
  HierarchyParams p;
  p.prefetch.depth = 32;
  Recorder rec;
  MemoryHierarchy h(p, rec.unit);
  const auto l2 = [&rec](L2Event e) { return rec[ev::l2(0, e)]; };
  const addr_t a = kBase / 128 + 1;  // A - 1 and A: a stream from A on
  h.read(0, (a - 1) * 128, 256, 0);
  EXPECT_EQ(l2(L2Event::kPrefetchIssued), 32u);
  // Six far lines of A's set: after five the set is full, and the sixth
  // evicts its least recently used line, A + 16 (A + 32 came after it,
  // and A was read after both).
  for (addr_t k = 0; k < 6; ++k) h.read(0, (a + 16 * (100 + k)) * 128, 32, 0);
  h.read(0, (a + 16) * 128, 32, 0);
  EXPECT_EQ(l2(L2Event::kReadAccess), 8 + 6 + 1u);
  EXPECT_EQ(l2(L2Event::kReadHit), 6u);
  EXPECT_EQ(l2(L2Event::kReadMiss), 2 + 6 + 1u);
  EXPECT_EQ(l2(L2Event::kPrefetchHit), 0u);
}

TEST(HierarchyOracle, RepeatReadAfterAStoreHitInItsSetIsRanked) {
  // A store that hits line B of A's L2 set, between two L2 reads of A,
  // makes B the set's most recently used line: the second read of A must
  // rank A first once more.
  Recorder rec;
  MemoryHierarchy h(no_prefetch(), rec.unit);
  const auto l2 = [&rec](L2Event e) { return rec[ev::l2(0, e)]; };
  const addr_t a = kBase / 128;  // L2 line A; A + 16 k share its set
  const addr_t b = a + 16;
  h.read(0, b * 128, 32, 0);
  h.read(0, a * 128, 32, 0);
  h.write(0, b * 128, 8, 0);       // an L2 write hit on B
  h.read(0, a * 128 + 32, 32, 0);  // A again, through a new L1 line
  // Seven far lines of the set: six fill its empty ways, and the seventh
  // evicts its least recently used line, B, so A is still there.
  for (addr_t k = 2; k < 9; ++k) h.read(0, (a + 16 * k) * 128, 32, 0);
  h.read(0, a * 128 + 64, 32, 0);
  EXPECT_EQ(l2(L2Event::kWriteAccess), 1u);
  EXPECT_EQ(l2(L2Event::kWriteMiss), 0u);
  EXPECT_EQ(l2(L2Event::kReadAccess), 2 + 1 + 7 + 1u);
  EXPECT_EQ(l2(L2Event::kReadHit), 2u);
  EXPECT_EQ(l2(L2Event::kReadMiss), 2 + 7u);
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

/// Seeded random reads and writes (one in three a write) from all four
/// cores over `range` bytes, each of 1 to `max_bytes` B.
struct Traffic {
  HierarchyParams params;
  int ops;
  u64 max_bytes;
  u64 range;
};

/// Mixed traffic: prefetch on, a 512 KiB L3 small enough to evict dirty
/// lines, and 40000 accesses of 1-512 B.
Traffic mixed() {
  HierarchyParams p;
  p.l3_size_bytes = 512 * KiB;
  return {p, 40000, 512, 4 * MiB};
}

/// Long walks: 300 accesses of 1 B-96 KiB, so reads pass the L1's 1,024
/// lines often; prefetch depth 32, twice the L2's 16 sets, so run_ahead
/// installs into the demanded line's set; and a 6 MiB L3, whose 6,144
/// sets are not a power of two.
Traffic long_walks() {
  HierarchyParams p;
  p.prefetch.depth = 32;
  p.l3_size_bytes = 6 * MiB;
  return {p, 300, 96 * KiB, 16 * MiB};
}

/// Run `t` through a fresh hierarchy that counts into `unit`.
void run_traffic(upc::UpcUnit& unit, const Traffic& t) {
  MemoryHierarchy h(t.params, unit);
  std::mt19937_64 rng(14);
  cycles_t now = 0;
  for (int i = 0; i < t.ops; ++i) {
    const unsigned core = static_cast<unsigned>(rng() % isa::kCoresPerNode);
    const addr_t a = kBase + rng() % t.range;
    const u64 bytes = 1 + rng() % t.max_bytes;
    const AccessResult r = (rng() % 3 == 0) ? h.write(core, a, bytes, now)
                                            : h.read(core, a, bytes, now);
    now += r.latency;
  }
}

/// L3 fills are its misses, reads and writes each split into hits and
/// misses, and DDR moves 128 B per fill and per writeback.
void expect_fill_and_ddr_identities(const Traffic& t) {
  Recorder rec;
  run_traffic(rec.unit, t);
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

TEST(HierarchyOracle, FillAndDdrIdentitiesOnMixedTraffic) {
  expect_fill_and_ddr_identities(mixed());
}

TEST(HierarchyOracle, FillAndDdrIdentitiesOnLongWalks) {
  expect_fill_and_ddr_identities(long_walks());
}

/// The digest of the (line, count) sequence a unit in `mode` sees over
/// `t`, through interrupts alone: every counter is armed one
/// above its count, so each report fires, and the listener folds the
/// report's line and count into the digest before it re-arms.
u64 armed_report_digest(u8 mode, const Traffic& t) {
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
  run_traffic(unit, t);
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
  const u64 mode0 = armed_report_digest(0, mixed());
  const u64 mode1 = armed_report_digest(1, mixed());
  EXPECT_EQ(mode0, kGoldenMode0) << "mode 0 digest is " << golden::hex(mode0);
  EXPECT_EQ(mode1, kGoldenMode1) << "mode 1 digest is " << golden::hex(mode1);
}

// The same pin over long walks, which reach the parts of the walk that
// skip tag searches line arithmetic already decides (docs/perf.md). The
// digests were recorded from the walk that searched every line.
TEST(HierarchyOracle, ReportOrderOnLongWalksIsPinned) {
  constexpr u64 kGoldenMode0 = 0xb4393fd7aa8dc1cc;
  constexpr u64 kGoldenMode1 = 0xe05b87c00dbf1be7;
  const u64 mode0 = armed_report_digest(0, long_walks());
  const u64 mode1 = armed_report_digest(1, long_walks());
  EXPECT_EQ(mode0, kGoldenMode0) << "mode 0 digest is " << golden::hex(mode0);
  EXPECT_EQ(mode1, kGoldenMode1) << "mode 1 digest is " << golden::hex(mode1);
}

}  // namespace
}  // namespace bgp::mem
