#include "mem/cache.hpp"

#include <gtest/gtest.h>

#include <tuple>

namespace bgp::mem {
namespace {

namespace ev = isa::ev;
using isa::L3Event;

CacheParams small_wb() {
  // 4 sets * 2 ways * 64 B = 512 B write-back cache for easy conflict tests.
  return CacheParams{.size_bytes = 512,
                     .line_bytes = 64,
                     .assoc = 2,
                     .hit_latency = 3,
                     .write_through = false,
                     .write_allocate = true};
}

/// A cache over `next` that counts into the L3 event lines of its own UPC
/// unit; n(e) is the count it reported on event `e`.
struct Counted {
  explicit Counted(MemLevel* next, const CacheParams& params = small_wb())
      : c("c", params, next, upc,
          CacheEventIds{
              .read_access = ev::l3(L3Event::kReadAccess),
              .read_hit = ev::l3(L3Event::kReadHit),
              .read_miss = ev::l3(L3Event::kReadMiss),
              .write_access = ev::l3(L3Event::kWriteAccess),
              .write_hit = ev::l3(L3Event::kWriteHit),
              .write_miss = ev::l3(L3Event::kWriteMiss),
              .line_fill = ev::l3(L3Event::kFillFromDdr),
              .evict = ev::l3(L3Event::kEvict),
              .writeback = ev::l3(L3Event::kWritebackToDdr),
          }) {}
  [[nodiscard]] u64 n(L3Event e) const { return upc.line_count(ev::l3(e)); }

  upc::UpcUnit upc;
  Cache c;
};

TEST(Cache, GeometryValidation) {
  Backstop mem;
  upc::UpcUnit upc;
  CacheParams bad = small_wb();
  bad.size_bytes = 500;  // not sets*assoc*line
  EXPECT_THROW(Cache("bad", bad, &mem, upc), std::invalid_argument);
  CacheParams odd_line = small_wb();
  odd_line.line_bytes = 48;  // sets*assoc*line, but not a power of two
  odd_line.size_bytes = 4 * 2 * 48;
  EXPECT_THROW(Cache("odd line", odd_line, &mem, upc), std::invalid_argument);
  CacheParams too_wide = small_wb();
  too_wide.assoc = 128;
  too_wide.size_bytes = 128 * 64;
  EXPECT_THROW(Cache("too wide", too_wide, &mem, upc), std::invalid_argument);
  CacheParams no_ways = small_wb();
  no_ways.assoc = 0;
  EXPECT_THROW(Cache("no ways", no_ways, &mem, upc), std::invalid_argument);
  EXPECT_EQ(small_wb().num_sets(), 4u);
}

TEST(Cache, ColdMissThenHit) {
  Backstop mem(100);
  Counted t(&mem);
  Cache& c = t.c;
  const auto miss = c.access(0x1000, AccessType::kRead, 0, 0);
  EXPECT_EQ(miss.latency, 103u);  // hit latency + backstop
  EXPECT_EQ(miss.serviced_by, 4);
  const auto hit = c.access(0x1000, AccessType::kRead, 0, 0);
  EXPECT_EQ(hit.latency, 3u);
  EXPECT_EQ(hit.serviced_by, 1);
  EXPECT_EQ(t.n(L3Event::kReadAccess), 2u);
  EXPECT_EQ(t.n(L3Event::kReadMiss), 1u);
}

TEST(Cache, SameLineDifferentOffsetsHit) {
  Backstop mem;
  Counted t(&mem);
  Cache& c = t.c;
  c.access(0x1000, AccessType::kRead, 0, 0);
  EXPECT_EQ(c.access(0x103F, AccessType::kRead, 0, 0).latency, 3u);
  EXPECT_EQ(t.n(L3Event::kReadMiss), 1u);
}

TEST(Cache, LruEvictionWithinSet) {
  Backstop mem;
  Counted t(&mem);
  Cache& c = t.c;
  // Three lines mapping to the same set (set stride = 4 lines * 64 B = 256).
  const addr_t a = 0x0000, b = 0x0100, d = 0x0200;
  c.access(a, AccessType::kRead, 0, 0);
  c.access(b, AccessType::kRead, 0, 0);
  c.access(a, AccessType::kRead, 0, 0);  // a is now MRU
  c.access(d, AccessType::kRead, 0, 0);  // evicts b (LRU)
  EXPECT_TRUE(c.probe(a));
  EXPECT_FALSE(c.probe(b));
  EXPECT_TRUE(c.probe(d));
  EXPECT_EQ(t.n(L3Event::kEvict), 1u);
}

TEST(Cache, WritebackOfDirtyVictim) {
  Backstop mem;
  Counted t(&mem);
  Cache& c = t.c;
  const addr_t a = 0x0000, b = 0x0100, d = 0x0200;
  c.access(a, AccessType::kWrite, 0, 0);  // allocate dirty
  c.access(b, AccessType::kRead, 0, 0);
  c.access(d, AccessType::kRead, 0, 0);  // evicts dirty a -> writeback
  EXPECT_EQ(t.n(L3Event::kWritebackToDdr), 1u);
  EXPECT_EQ(mem.writes(), 1u);
}

TEST(Cache, CleanVictimNoWriteback) {
  Backstop mem;
  Counted t(&mem);
  Cache& c = t.c;
  const addr_t a = 0x0000, b = 0x0100, d = 0x0200;
  c.access(a, AccessType::kRead, 0, 0);
  c.access(b, AccessType::kRead, 0, 0);
  c.access(d, AccessType::kRead, 0, 0);
  EXPECT_EQ(t.n(L3Event::kWritebackToDdr), 0u);
  EXPECT_EQ(mem.writes(), 0u);
}

TEST(Cache, WriteThroughForwardsEveryWrite) {
  Backstop mem;
  CacheParams wt = small_wb();
  wt.write_through = true;
  wt.write_allocate = false;
  Counted t(&mem, wt);
  Cache& c = t.c;
  c.access(0x1000, AccessType::kRead, 0, 0);   // fill
  c.access(0x1000, AccessType::kWrite, 0, 0);  // write hit: forwarded
  c.access(0x2000, AccessType::kWrite, 0, 0);  // write miss: forwarded, no allocate
  EXPECT_EQ(mem.writes(), 2u);
  EXPECT_FALSE(c.probe(0x2000));
  EXPECT_EQ(t.n(L3Event::kWritebackToDdr), 0u);
}

TEST(Cache, WriteBackAbsorbsWriteHits) {
  Backstop mem;
  Counted t(&mem);
  Cache& c = t.c;
  c.access(0x1000, AccessType::kRead, 0, 0);
  for (int i = 0; i < 100; ++i) c.access(0x1000, AccessType::kWrite, 0, 0);
  EXPECT_EQ(mem.writes(), 0u);  // dirty line stays until eviction
}

TEST(Cache, InstallDoesNotDoubleInsert) {
  // The prefetch path probes before it installs, so a line goes in once
  // and installing charges nothing below.
  Backstop mem;
  Counted t(&mem);
  Cache& c = t.c;
  EXPECT_FALSE(c.probe(0x1000));
  c.install(0x1000, 0, 0);
  EXPECT_TRUE(c.probe(0x1000));
  EXPECT_EQ(c.resident_lines(), 1u);
  EXPECT_EQ(t.n(L3Event::kFillFromDdr), 1u);
  EXPECT_EQ(c.access(0x1000, AccessType::kRead, 0, 0).latency, 3u);
  EXPECT_EQ(mem.accesses(), 0u);
}

TEST(Cache, FlushWritesBackDirtyLines) {
  Backstop mem;
  Counted t(&mem);
  Cache& c = t.c;
  c.access(0x0000, AccessType::kWrite, 0, 0);
  c.access(0x1000, AccessType::kRead, 0, 0);
  c.flush(0, 0);
  EXPECT_EQ(mem.writes(), 1u);
  EXPECT_EQ(c.resident_lines(), 0u);
  EXPECT_FALSE(c.probe(0x0000));
}

TEST(Cache, CapacityBehaviour) {
  // Working set of exactly the cache size must fit after one pass.
  Backstop mem;
  Counted t(&mem);
  Cache& c = t.c;
  for (addr_t a = 0; a < 512; a += 64) c.access(a, AccessType::kRead, 0, 0);
  const u64 misses_after_fill = t.n(L3Event::kReadMiss);
  for (addr_t a = 0; a < 512; a += 64) c.access(a, AccessType::kRead, 0, 0);
  EXPECT_EQ(t.n(L3Event::kReadMiss), misses_after_fill);
  EXPECT_EQ(c.resident_lines(), 8u);
}

TEST(Cache, ThrashingBeyondCapacity) {
  // A working set of 2x the cache size in the same sets must keep missing.
  Backstop mem;
  Counted t(&mem);
  Cache& c = t.c;
  for (int pass = 0; pass < 3; ++pass) {
    for (addr_t a = 0; a < 1024; a += 64) c.access(a, AccessType::kRead, 0, 0);
  }
  // LRU on a cyclic pattern of 4 lines/set into 2 ways: every access misses.
  EXPECT_EQ(t.n(L3Event::kReadMiss), t.n(L3Event::kReadAccess));
}

TEST(Cache, EventsEmittedToSink) {
  upc::UpcUnit upc;
  Backstop mem;
  CacheEventIds ids;
  ids.read_access = 7;
  ids.read_miss = 8;
  Cache c("c", small_wb(), &mem, upc, ids);
  c.access(0x0, AccessType::kRead, 0, 0);
  c.access(0x0, AccessType::kRead, 0, 0);
  EXPECT_EQ(upc.line_count(7), 2u);
  EXPECT_EQ(upc.line_count(8), 1u);
}

TEST(Cache, MissWithNoNextLevelIsWiringBug) {
  upc::UpcUnit upc;
  Cache c("c", small_wb(), nullptr, upc);
  EXPECT_THROW(c.access(0x0, AccessType::kRead, 0, 0), std::logic_error);
}

class CacheSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(CacheSweep, MissRateNeverExceedsOneAndFitsWhenSized) {
  const auto [size_kb, assoc] = GetParam();
  Backstop mem;
  CacheParams p{.size_bytes = static_cast<u64>(size_kb) * KiB,
                .line_bytes = 64,
                .assoc = static_cast<u32>(assoc),
                .hit_latency = 3,
                .write_through = false,
                .write_allocate = true};
  Counted t(&mem, p);
  Cache& c = t.c;
  // Stream half the capacity twice: second pass must be all hits.
  const addr_t span = p.size_bytes / 2;
  for (addr_t a = 0; a < span; a += 64) c.access(a, AccessType::kRead, 0, 0);
  const u64 m1 = t.n(L3Event::kReadMiss);
  for (addr_t a = 0; a < span; a += 64) c.access(a, AccessType::kRead, 0, 0);
  EXPECT_EQ(t.n(L3Event::kReadMiss), m1);
  const u64 misses = t.n(L3Event::kReadMiss) + t.n(L3Event::kWriteMiss);
  const u64 accesses = t.n(L3Event::kReadAccess) + t.n(L3Event::kWriteAccess);
  EXPECT_LE(static_cast<double>(misses) / static_cast<double>(accesses), 1.0);
  EXPECT_EQ(m1, span / 64);  // cold misses exactly once per line
}

// 48 KiB gives 48 to 768 sets: set counts that are not a power of two.
INSTANTIATE_TEST_SUITE_P(Geometries, CacheSweep,
                         ::testing::Combine(::testing::Values(4, 32, 48, 256),
                                            ::testing::Values(1, 2, 8, 16)));

}  // namespace
}  // namespace bgp::mem
