#include "mem/prefetch.hpp"

#include <gtest/gtest.h>

namespace bgp::mem {
namespace {

namespace ev = isa::ev;
using isa::L2Event;

CacheParams l2_params() {
  return CacheParams{.size_bytes = 16 * KiB,
                     .line_bytes = 128,
                     .assoc = 8,
                     .hit_latency = 12,
                     .write_through = true,
                     .write_allocate = false};
}

/// An L2 over `next` that counts into core 0's L2 event lines of its own
/// UPC unit; n(e) is the count it reported on event `e`.
struct Counted {
  Counted(unsigned depth, MemLevel* next)
      : l2("l2", l2_params(), PrefetchParams{.depth = depth}, next, upc,
           L2Unit::EventIds{
               .read_access = ev::l2(0, L2Event::kReadAccess),
               .read_hit = ev::l2(0, L2Event::kReadHit),
               .read_miss = ev::l2(0, L2Event::kReadMiss),
               .write_access = ev::l2(0, L2Event::kWriteAccess),
               .write_miss = ev::l2(0, L2Event::kWriteMiss),
               .prefetch_issued = ev::l2(0, L2Event::kPrefetchIssued),
               .prefetch_hit = ev::l2(0, L2Event::kPrefetchHit),
               .stream_detected = ev::l2(0, L2Event::kStreamDetected),
           }) {}
  [[nodiscard]] u64 n(L2Event e) const { return upc.line_count(ev::l2(0, e)); }

  upc::UpcUnit upc;
  L2Unit l2;
};

TEST(L2Prefetch, SequentialStreamDetected) {
  Backstop mem(100);
  Counted t(2, &mem);
  L2Unit& l2 = t.l2;
  // Sequential line-sized reads: miss, miss (stream detected), then the
  // prefetcher runs ahead and later lines hit.
  for (addr_t a = 0; a < 16 * 128; a += 128) {
    l2.access(a, AccessType::kRead, 0, 0);
  }
  EXPECT_GE(t.n(L2Event::kStreamDetected), 1u);
  EXPECT_GT(t.n(L2Event::kPrefetchIssued), 0u);
  EXPECT_GT(t.n(L2Event::kPrefetchHit), 0u);
  // Steady state: most accesses after detection are prefetch hits.
  EXPECT_LE(t.n(L2Event::kReadMiss), 4u);
}

TEST(L2Prefetch, DisabledPrefetcherMissesEveryColdLine) {
  Backstop mem(100);
  Counted t(/*depth=*/0, &mem);
  L2Unit& l2 = t.l2;
  for (addr_t a = 0; a < 16 * 128; a += 128) {
    l2.access(a, AccessType::kRead, 0, 0);
  }
  EXPECT_EQ(t.n(L2Event::kReadMiss), 16u);
  EXPECT_EQ(t.n(L2Event::kPrefetchIssued), 0u);
}

TEST(L2Prefetch, RandomAccessesDoNotTriggerStreams) {
  Backstop mem(100);
  Counted t(2, &mem);
  L2Unit& l2 = t.l2;
  // Strided by 3 lines: never two consecutive lines.
  for (addr_t a = 0; a < 64 * 128; a += 3 * 128) {
    l2.access(a, AccessType::kRead, 0, 0);
  }
  EXPECT_EQ(t.n(L2Event::kStreamDetected), 0u);
  EXPECT_EQ(t.n(L2Event::kPrefetchIssued), 0u);
}

TEST(L2Prefetch, DeeperPrefetchHidesMoreLatency) {
  // A consumer that spends 20 cycles per 128 B line against a 100-cycle
  // memory: a 1-deep prefetcher cannot stay ahead (each hit still pays
  // most of the fill residue); an 8-deep one hides the latency fully.
  auto run = [](unsigned depth) {
    Backstop mem(100);
    Counted t(depth, &mem);
    L2Unit& l2 = t.l2;
    cycles_t now = 0;
    cycles_t total = 0;
    for (addr_t a = 0; a < 64 * 128; a += 128) {
      total += l2.access(a, AccessType::kRead, 0, now).latency;
      now += 20;
    }
    return total;
  };
  EXPECT_LT(run(8), run(1));
}

TEST(L2Prefetch, PrefetchConsumesDownstreamBandwidth) {
  Backstop mem(100);
  Counted t(2, &mem);
  L2Unit& l2 = t.l2;
  for (addr_t a = 0; a < 32 * 128; a += 128) {
    l2.access(a, AccessType::kRead, 0, 0);
  }
  // Downstream sees demand misses + prefetches, at least one per line.
  EXPECT_GE(mem.accesses(), 32u);
}

TEST(L2Prefetch, MultipleConcurrentStreams) {
  Backstop mem(100);
  Counted t(2, &mem);
  L2Unit& l2 = t.l2;
  // Interleave two distant sequential streams (like x[i] and y[i] in a dot
  // product); both must be tracked.
  for (unsigned i = 0; i < 32; ++i) {
    l2.access(0x00000 + addr_t{i} * 128, AccessType::kRead, 0, 0);
    l2.access(0x80000 + addr_t{i} * 128, AccessType::kRead, 0, 0);
  }
  EXPECT_GE(t.n(L2Event::kStreamDetected), 2u);
  EXPECT_GT(t.n(L2Event::kPrefetchHit), 20u);
}

TEST(L2Prefetch, WritesBypassPrefetcher) {
  Backstop mem(100);
  Counted t(4, &mem);
  L2Unit& l2 = t.l2;
  for (addr_t a = 0; a < 32 * 128; a += 128) {
    l2.access(a, AccessType::kWrite, 0, 0);
  }
  EXPECT_EQ(t.n(L2Event::kStreamDetected), 0u);
  EXPECT_EQ(mem.writes(), 32u);
}

// The prefetcher tracks at most 8193 undemanded prefetches: an insert
// that finds more than 8192 pending clears the whole table first. That is
// simulated behaviour (it decides whether a demand counts as a prefetch
// hit and pays the residual fill latency), so the exact boundary is pinned.
TEST(L2Prefetch, PendingTableClearsWhenMoreThan8192ArePending) {
  constexpr unsigned kDepth = 16;
  constexpr cycles_t kStep = 1000;
  Backstop mem(100);
  Counted t(kDepth, &mem);
  L2Unit& l2 = t.l2;
  // Region r: demand misses on lines L and L+1 establish a stream, whose
  // run-ahead prefetches L+2 .. L+17. Nothing prefetched is demanded, so
  // after 512 regions exactly 8192 prefetches are pending.
  const auto region = [&](unsigned r) {
    const addr_t line = addr_t{r} * 64;
    l2.access(line * 128, AccessType::kRead, 0, r * kStep);
    l2.access((line + 1) * 128, AccessType::kRead, 0, r * kStep);
    return line;
  };
  for (unsigned r = 0; r < 512; ++r) region(r);
  ASSERT_EQ(t.n(L2Event::kPrefetchIssued), 512u * kDepth);
  ASSERT_EQ(t.n(L2Event::kPrefetchHit), 0u);
  // Region 512's first prefetch (L+2) makes 8193 pending; its second
  // finds more than 8192 and clears the table, so only L+3 .. L+17 remain.
  const addr_t line = region(512);
  const cycles_t issued_at = 512 * kStep;
  const u64 issued = t.n(L2Event::kPrefetchIssued);
  ASSERT_EQ(issued, 513u * kDepth);

  // L+2 is still resident but no longer pending: a plain L2 hit, with no
  // prefetch hit and no run-ahead.
  const AccessResult plain =
      l2.access((line + 2) * 128, AccessType::kRead, 0, issued_at + 30);
  EXPECT_EQ(plain.latency, 12u);
  EXPECT_EQ(plain.serviced_by, 2);
  EXPECT_EQ(t.n(L2Event::kPrefetchHit), 0u);
  EXPECT_EQ(t.n(L2Event::kPrefetchIssued), issued);

  // L+3 was prefetched after the clear: a prefetch hit that pays the rest
  // of its 100-cycle fill and keeps the stream running (L+18, L+19).
  const AccessResult pending =
      l2.access((line + 3) * 128, AccessType::kRead, 0, issued_at + 30);
  EXPECT_EQ(pending.latency, 12u + 70u);
  EXPECT_EQ(pending.serviced_by, 2);
  EXPECT_EQ(t.n(L2Event::kPrefetchHit), 1u);
  EXPECT_EQ(t.n(L2Event::kPrefetchIssued), issued + 2);
}

}  // namespace
}  // namespace bgp::mem
