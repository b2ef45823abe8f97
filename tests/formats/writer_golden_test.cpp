// Writer digests: fixed inputs through every binary writer, folded into
// FNV-1a digests (integration/golden.hpp). The record codec must leave each
// format's bytes exactly as they were; a mismatch prints the new digest.
// `.bgps` span files are not pinned here: version 2 ends with a seal.
#include <gtest/gtest.h>

#include "../integration/golden.hpp"
#include "artifacts.hpp"

namespace bgp::formats {
namespace {

u64 digest(const std::vector<std::byte>& bytes) {
  return golden::add(golden::kSeed, bytes);
}

void expect_digest(const char* what, const std::vector<std::byte>& bytes,
                   u64 want) {
  EXPECT_EQ(digest(bytes), want)
      << what << ": new digest " << golden::hex(digest(bytes)) << " over "
      << bytes.size() << " bytes";
}

TEST(WriterGolden, DumpsV2AndV3) {
  expect_digest("dump v2", pc::NodeMonitor::serialize(sample_dump(false)),
                0xe8dae48ef07af85cull);
  expect_digest("dump v3", pc::NodeMonitor::serialize(sample_dump(true)),
                0xb30ae069b31cb006ull);
}

TEST(WriterGolden, TraceHeaderChunksAndFooter) {
  const fs::path dir = test_dir();
  // 37 records in chunks of 16: two full chunks and a short one.
  expect_digest("sealed trace",
                file_bytes(write_sample_trace(dir, 6, 37, 16, true)),
                0xe98d4141d431fac2ull);
  fs::remove_all(dir);
}

TEST(WriterGolden, JournalHeaderAndFrames) {
  const fs::path dir = test_dir();
  {
    daemon::JournalWriter w(dir / "journal");
    for (unsigned i = 0; i < 3; ++i) w.append(sample_journal_record(i));
  }
  expect_digest("journal", file_bytes(dir / "journal"),
                0x12e59aa7bab90440ull);
  expect_digest("journal frame",
                daemon::encode_journal_frame(sample_journal_record(4)),
                0xb126fe4c543a5eedull);
  fs::remove_all(dir);
}

TEST(WriterGolden, SnapshotHeaderAndSlots) {
  const fs::path dir = test_dir();
  daemon::SnapshotWriter w(dir / "counters.bgpsnap", "CG", "sess-7",
                           kSnapNodes, kSnapMetricsBytes);
  publish_sample_snapshot(w);
  // v2: the header is one sealed section padded to a whole word.
  expect_digest("snapshot", file_bytes(dir / "counters.bgpsnap"),
                0x1232a6bb126d3742ull);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace bgp::formats
