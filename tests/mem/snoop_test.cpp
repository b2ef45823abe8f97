#include "mem/snoop.hpp"

#include <gtest/gtest.h>

namespace bgp::mem {
namespace {

namespace ev = isa::ev;
using isa::SnoopEvent;

/// A filter that counts into the snoop event lines of its own UPC unit;
/// n(e) is the count it reported on event `e`.
struct Counted {
  explicit Counted(std::size_t table_entries = 16384)
      : f(table_entries, upc,
          SnoopFilter::EventIds{
              .requests = ev::snoop(SnoopEvent::kRequests),
              .filter_hits = ev::snoop(SnoopEvent::kFilterHits),
              .invalidates_sent = ev::snoop(SnoopEvent::kInvalidatesSent),
              .invalidates_received =
                  ev::snoop(SnoopEvent::kInvalidatesReceived),
          }) {}
  [[nodiscard]] u64 n(SnoopEvent e) const {
    return upc.line_count(ev::snoop(e));
  }

  upc::UpcUnit upc;
  SnoopFilter f;
};

TEST(Snoop, WriteWithNoSharersIsFiltered) {
  Counted t;
  EXPECT_EQ(t.f.on_write(0, 100), 0u);
  EXPECT_EQ(t.n(SnoopEvent::kRequests), 1u);
  EXPECT_EQ(t.n(SnoopEvent::kFilterHits), 1u);
  EXPECT_EQ(t.n(SnoopEvent::kInvalidatesSent), 0u);
}

TEST(Snoop, WriteInvalidatesOtherSharers) {
  Counted t;
  SnoopFilter& f = t.f;
  f.record_fill(0, 100);
  f.record_fill(1, 100);
  f.record_fill(2, 100);
  EXPECT_EQ(f.on_write(0, 100), 2u);  // cores 1 and 2
  EXPECT_EQ(t.n(SnoopEvent::kInvalidatesSent), 2u);
  // After invalidation only the writer holds the line.
  EXPECT_EQ(f.on_write(0, 100), 0u);
}

TEST(Snoop, OwnCopyDoesNotSelfInvalidate) {
  Counted t;
  SnoopFilter& f = t.f;
  f.record_fill(3, 77);
  EXPECT_EQ(f.on_write(3, 77), 0u);
}

TEST(Snoop, DistinctLinesTrackedIndependently) {
  Counted t;
  SnoopFilter& f = t.f;
  f.record_fill(1, 10);
  f.record_fill(2, 11);
  EXPECT_EQ(f.on_write(0, 10), 1u);
  EXPECT_EQ(f.on_write(0, 11), 1u);
}

TEST(Snoop, DirectMappedCollisionLosesOldEntryConservatively) {
  Counted t(/*table_entries=*/16);
  SnoopFilter& f = t.f;
  f.record_fill(1, 5);
  f.record_fill(2, 5 + 16);  // collides with line 5, displaces it
  // The displaced line's sharers are forgotten: write is filtered.
  EXPECT_EQ(f.on_write(0, 5), 0u);
  // The resident entry still works.
  EXPECT_EQ(f.on_write(0, 5 + 16), 1u);
}

TEST(Snoop, PrivateWorkingSetsGenerateNoInvalidates) {
  // Ranks use disjoint address regions (the runtime's layout); the filter
  // must stay quiet then.
  Counted t;
  SnoopFilter& f = t.f;
  for (unsigned core = 0; core < 4; ++core) {
    const addr_t base = addr_t{core} << 20;
    for (addr_t l = 0; l < 256; ++l) {
      f.record_fill(core, base + l);
      f.on_write(core, base + l);
    }
  }
  EXPECT_EQ(t.n(SnoopEvent::kInvalidatesSent), 0u);
}

}  // namespace
}  // namespace bgp::mem
