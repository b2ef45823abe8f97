// Ground-truth counts for the memory hierarchy (`ctest -L validate`): every
// expected value below is worked out from the cache geometry and the access
// pattern alone — 32 B L1 lines, 128 B L2/L3 lines, a 32 KiB L1D, two
// line-interleaved DDR controllers — never from another simulator path.
// Caches start cold, a recording sink sees every event, and the L2
// prefetcher is off unless a test says otherwise.
#include <gtest/gtest.h>

#include <array>
#include <random>
#include <vector>

#include "../integration/golden.hpp"
#include "mem/hierarchy.hpp"

namespace bgp::mem {
namespace {

namespace ev = isa::ev;
using isa::L1dEvent;
using isa::L2Event;
using isa::L3Event;

/// Sums every reported count per event id.
class Recorder final : public EventSink {
 public:
  void events(const isa::EventCount* batch, std::size_t n) override {
    for (std::size_t i = 0; i < n; ++i) {
      counts_.at(batch[i].id) += batch[i].count;
    }
  }
  [[nodiscard]] u64 operator[](isa::EventId id) const {
    return counts_.at(id);
  }

 private:
  std::array<u64, isa::kNumEvents> counts_{};
};

u64 ddr_bytes(const Recorder& r, unsigned ctrl, isa::DdrEvent e) {
  return r[ev::ddr(ctrl, e)] * 16;  // the byte counters tick per 16 B
}
u64 ddr_bytes(const Recorder& r, isa::DdrEvent e) {
  return ddr_bytes(r, 0, e) + ddr_bytes(r, 1, e);
}

HierarchyParams no_prefetch() {
  HierarchyParams p;
  p.prefetch.enabled = false;
  return p;
}

constexpr u64 kN = 1 * MiB;          // stream length
constexpr addr_t kBase = 64 * MiB;   // 128 B aligned
constexpr u64 kL1Lines = 32 * KiB / 32;

TEST(HierarchyOracle, ColdStreamReadMatchesLineArithmetic) {
  Recorder rec;
  MemoryHierarchy h(no_prefetch(), &rec);
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
  MemoryHierarchy h(no_prefetch(), &rec);
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
  MemoryHierarchy h(p, &rec);
  h.read(2, kBase, kN, 0);
  for (unsigned e = 0; e < isa::kNumL3Events; ++e) {
    EXPECT_EQ(rec[ev::l3(L3Event(e))], 0u) << "L3 event " << e;
  }
  EXPECT_EQ(rec[ev::l2(2, L2Event::kReadMiss)], kN / 128);
  EXPECT_EQ(ddr_bytes(rec, isa::DdrEvent::kBytesRead16B), kN);
}

TEST(HierarchyOracle, StoreStreamWritesThroughToL3) {
  Recorder rec;
  MemoryHierarchy h(no_prefetch(), &rec);
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
  MemoryHierarchy h(HierarchyParams{}, &rec);
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
/// cores. `after_walk()` runs after every walk.
template <class AfterWalk>
void mixed_traffic(EventSink& sink, AfterWalk after_walk) {
  HierarchyParams p;
  p.l3_size_bytes = 512 * KiB;
  MemoryHierarchy h(p, &sink);
  std::mt19937_64 rng(14);
  cycles_t now = 0;
  for (int i = 0; i < 40000; ++i) {
    const unsigned core = static_cast<unsigned>(rng() % isa::kCoresPerNode);
    const addr_t a = kBase + rng() % (4 * MiB);
    const u64 bytes = 1 + rng() % 512;
    const AccessResult r = (rng() % 3 == 0) ? h.write(core, a, bytes, now)
                                            : h.read(core, a, bytes, now);
    now += r.latency;
    after_walk();
  }
}

TEST(HierarchyOracle, FillAndDdrIdentitiesOnMixedTraffic) {
  Recorder rec;
  mixed_traffic(rec, [] {});
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

/// Folds every delivered (id, count) entry, in order, into one digest and
/// keeps the entry count of each events() call.
class SequenceRecorder final : public EventSink {
 public:
  void events(const isa::EventCount* batch, std::size_t n) override {
    calls.push_back(n);
    for (std::size_t i = 0; i < n; ++i) {
      digest = golden::add(digest, u64{batch[i].id});
      digest = golden::add(digest, batch[i].count);
    }
  }
  u64 digest = golden::kSeed;
  std::vector<std::size_t> calls;  ///< entries per call since the last walk
};

// The order in which a walk reports its events is observable: a threshold
// interrupt on a memory event fires at one entry of the sequence. The
// digest pins the concatenated sequence of the mixed traffic above; it
// was recorded with one events() call per report, and a walk must deliver
// the same sequence in one call, plus one per full batch.
TEST(HierarchyOracle, DeliveryOrderIsPinnedAndEachWalkDeliversOnce) {
  constexpr u64 kGolden = 0xfdedc110bb62a13d;
  SequenceRecorder rec;
  u64 walks = 0, bad_walks = 0, split_walks = 0;
  mixed_traffic(rec, [&] {
    // One call per walk, plus one per batch that filled before the end.
    bool ok = !rec.calls.empty() && rec.calls.back() <= EventBatch::kCapacity;
    for (std::size_t i = 0; i + 1 < rec.calls.size(); ++i) {
      ok = ok && rec.calls[i] == EventBatch::kCapacity;
    }
    ++walks;
    bad_walks += ok ? 0 : 1;
    split_walks += rec.calls.size() > 1 ? 1 : 0;
    rec.calls.clear();
  });
  EXPECT_EQ(walks, 40000u);
  EXPECT_EQ(bad_walks, 0u);
  EXPECT_GT(split_walks, 0u) << "no walk filled a batch";
  EXPECT_EQ(rec.digest, kGolden) << "digest is " << golden::hex(rec.digest);
}

}  // namespace
}  // namespace bgp::mem
