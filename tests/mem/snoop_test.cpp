#include "mem/snoop.hpp"

#include <gtest/gtest.h>

namespace bgp::mem {
namespace {

TEST(Snoop, WriteWithNoSharersIsFiltered) {
  SnoopFilter f;
  EXPECT_EQ(f.on_write(0, 100), 0u);
  EXPECT_EQ(f.stats().requests, 1u);
  EXPECT_EQ(f.stats().filter_hits, 1u);
  EXPECT_EQ(f.stats().invalidates_sent, 0u);
}

TEST(Snoop, WriteInvalidatesOtherSharers) {
  SnoopFilter f;
  f.record_fill(0, 100);
  f.record_fill(1, 100);
  f.record_fill(2, 100);
  EXPECT_EQ(f.on_write(0, 100), 2u);  // cores 1 and 2
  EXPECT_EQ(f.stats().invalidates_sent, 2u);
  // After invalidation only the writer holds the line.
  EXPECT_EQ(f.on_write(0, 100), 0u);
}

TEST(Snoop, OwnCopyDoesNotSelfInvalidate) {
  SnoopFilter f;
  f.record_fill(3, 77);
  EXPECT_EQ(f.on_write(3, 77), 0u);
}

TEST(Snoop, DistinctLinesTrackedIndependently) {
  SnoopFilter f;
  f.record_fill(1, 10);
  f.record_fill(2, 11);
  EXPECT_EQ(f.on_write(0, 10), 1u);
  EXPECT_EQ(f.on_write(0, 11), 1u);
}

TEST(Snoop, DirectMappedCollisionLosesOldEntryConservatively) {
  SnoopFilter f(/*table_entries=*/16);
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
  SnoopFilter f;
  for (unsigned core = 0; core < 4; ++core) {
    const addr_t base = addr_t{core} << 20;
    for (addr_t l = 0; l < 256; ++l) {
      f.record_fill(core, base + l);
      f.on_write(core, base + l);
    }
  }
  EXPECT_EQ(f.stats().invalidates_sent, 0u);
}

}  // namespace
}  // namespace bgp::mem
