// The sectioned BGPT trace format: header/chunk/footer round-trips, the
// partial → sealed rename protocol, clean truncation of crashed traces
// (complete chunks survive, torn tails are discarded) and CRC rejection of
// silent corruption.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "common/binio.hpp"
#include "trace/trace_io.hpp"

namespace bgp::trace {
namespace {

namespace fs = std::filesystem;

TraceMeta test_meta() {
  TraceMeta m;
  m.node_id = 7;
  m.card_id = 3;
  m.counter_mode = 0;
  m.app_name = "iotest";
  m.interval_cycles = 4'000;
  m.pacer_event = isa::ev::cycle_count(0);
  m.events = {isa::ev::cycle_count(0), isa::ev::instr_completed(0),
              isa::ev::fpu_op(0, isa::FpOp::kFma)};
  return m;
}

IntervalRecord rec(u64 index, u32 spanned = 1) {
  IntervalRecord r;
  r.index = index;
  r.spanned = spanned;
  r.t_begin = index * 4'000;
  r.t_end = (index + spanned) * 4'000;
  r.values = {4'000 * spanned, 2'000 * spanned, index};
  return r;
}

class TraceIo : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per test: ctest -j runs fixture tests concurrently.
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::temp_directory_path() /
           (std::string("bgpc_trace_io_") + info->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

TEST_F(TraceIo, SealedRoundTripPreservesEverything) {
  const fs::path base = dir_ / "iotest.node0007";
  TraceTotals totals;
  totals.intervals = 150;
  totals.dropped = 3;
  totals.samples = 150;
  totals.overhead_cycles = 150 * 64;
  {
    TraceWriter w(base, test_meta());
    EXPECT_TRUE(fs::exists(w.partial_path()));
    for (u64 i = 0; i < 150; ++i) w.append(rec(i));
    const fs::path sealed = w.finalize(totals);
    EXPECT_EQ(sealed, base.string() + kTraceSuffix);
    EXPECT_TRUE(w.finalized());
    EXPECT_EQ(w.intervals_written(), 150u);
  }
  // The rename is atomic: no partial left behind.
  EXPECT_FALSE(fs::exists(base.string() + kPartialSuffix));

  TraceReader r(base.string() + kTraceSuffix);
  EXPECT_EQ(r.meta().node_id, 7u);
  EXPECT_EQ(r.meta().card_id, 3u);
  EXPECT_EQ(r.meta().app_name, "iotest");
  EXPECT_EQ(r.meta().interval_cycles, 4'000u);
  EXPECT_EQ(r.meta().pacer_event, isa::ev::cycle_count(0));
  ASSERT_EQ(r.meta().events, test_meta().events);
  for (u64 i = 0; i < 150; ++i) {
    auto got = r.next();
    ASSERT_TRUE(got.has_value()) << "record " << i;
    EXPECT_EQ(got->index, i);
    EXPECT_EQ(got->values, rec(i).values);
  }
  EXPECT_FALSE(r.next().has_value());
  ASSERT_TRUE(r.sealed());
  EXPECT_FALSE(r.truncated());
  EXPECT_EQ(r.totals()->intervals, 150u);
  EXPECT_EQ(r.totals()->dropped, 3u);
  EXPECT_EQ(r.totals()->overhead_cycles, 150u * 64u);
}

TEST_F(TraceIo, SpannedRecordsRoundTrip) {
  const fs::path base = dir_ / "iotest.node0007";
  {
    TraceWriter w(base, test_meta());
    w.append(rec(0, 4));
    w.append(rec(4, 1));
    w.finalize({});
  }
  TraceReader r(base.string() + kTraceSuffix);
  auto a = r.next();
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->spanned, 4u);
  EXPECT_EQ(a->t_end, 4u * 4'000u);
  auto b = r.next();
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->index, 4u);
}

TEST_F(TraceIo, CrashedPartialKeepsCompleteChunks) {
  const fs::path base = dir_ / "iotest.node0007";
  const fs::path partial = base.string() + kPartialSuffix;
  {
    // 100 records with 32-record chunks: 3 committed chunks (96 records)
    // and 4 still buffered when the "node dies" (writer destroyed without
    // finalize — the destructor flushes what it has but writes no footer).
    TraceWriter w(base, test_meta(), 32);
    for (u64 i = 0; i < 100; ++i) w.append(rec(i));
  }
  ASSERT_TRUE(fs::exists(partial));

  TraceReader r(partial);
  u64 count = 0;
  while (r.next().has_value()) ++count;
  EXPECT_EQ(count, 100u);  // the destructor's final flush committed the tail
  EXPECT_TRUE(r.truncated());  // ...but there is no footer
  EXPECT_FALSE(r.sealed());
}

TEST_F(TraceIo, HeaderAloneIsAParseablePartial) {
  // A node can die before its first chunk commits; the header is flushed
  // eagerly so even that trace establishes its identity.
  const fs::path base = dir_ / "iotest.node0007";
  TraceWriter w(base, test_meta());
  TraceReader r(w.partial_path());
  EXPECT_EQ(r.meta().node_id, 7u);
  EXPECT_FALSE(r.next().has_value());
  EXPECT_TRUE(r.truncated());
}

TEST_F(TraceIo, TornTailIsDiscardedCleanly) {
  const fs::path base = dir_ / "iotest.node0007";
  const fs::path sealed = base.string() + kTraceSuffix;
  {
    TraceWriter w(base, test_meta(), 16);
    for (u64 i = 0; i < 48; ++i) w.append(rec(i));
    w.finalize({});
  }
  // Tear the file mid-way through the last chunk (simulates a crash while
  // the OS was flushing): the two complete chunks must still parse.
  fs::resize_file(sealed, fs::file_size(sealed) - 200);
  TraceReader r(sealed);
  u64 count = 0;
  while (r.next().has_value()) ++count;
  EXPECT_EQ(count, 32u);
  EXPECT_TRUE(r.truncated());
  EXPECT_FALSE(r.sealed());
}

TEST_F(TraceIo, CorruptChunkFailsItsCrc) {
  const fs::path base = dir_ / "iotest.node0007";
  const fs::path sealed = base.string() + kTraceSuffix;
  {
    TraceWriter w(base, test_meta(), 16);
    for (u64 i = 0; i < 16; ++i) w.append(rec(i));
    w.finalize({});
  }
  // Flip one byte inside the chunk payload (well past the header).
  const auto size = fs::file_size(sealed);
  std::fstream f(sealed, std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(static_cast<std::streamoff>(size / 2));
  char b = 0;
  f.seekg(static_cast<std::streamoff>(size / 2));
  f.read(&b, 1);
  b = static_cast<char>(b ^ 0x40);
  f.seekp(static_cast<std::streamoff>(size / 2));
  f.write(&b, 1);
  f.close();

  TraceReader r(sealed);  // header is intact
  EXPECT_THROW(
      {
        while (r.next().has_value()) {
        }
      },
      BinIoError);
}

TEST_F(TraceIo, CorruptHeaderIsRejectedAtOpen) {
  const fs::path base = dir_ / "iotest.node0007";
  const fs::path sealed = base.string() + kTraceSuffix;
  {
    TraceWriter w(base, test_meta());
    w.append(rec(0));
    w.finalize({});
  }
  std::fstream f(sealed, std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(12);  // inside the CRC-covered header region
  const char junk = 0x5A;
  f.write(&junk, 1);
  f.close();
  EXPECT_THROW(TraceReader{sealed}, BinIoError);
}

TEST_F(TraceIo, NotATraceIsRejected) {
  const fs::path bogus = dir_ / "bogus.bgpt";
  std::ofstream(bogus) << "definitely not a trace";
  EXPECT_THROW(TraceReader{bogus}, BinIoError);
}

TEST_F(TraceIo, AppendAfterFinalizeThrows) {
  const fs::path base = dir_ / "iotest.node0007";
  TraceWriter w(base, test_meta());
  w.append(rec(0));
  w.finalize({});
  EXPECT_THROW(w.append(rec(1)), BinIoError);
}

// The writer refuses what TraceReader would reject, before it reaches the
// file: a zero interval in the header, a record that spans no interval, a
// record whose span disagrees with its cycle stamps.
TEST_F(TraceIo, WriterRefusesZeroIntervalAndZeroSpan) {
  const fs::path base = dir_ / "iotest.node0007";
  TraceMeta zero = test_meta();
  zero.interval_cycles = 0;
  EXPECT_THROW(TraceWriter(base, zero), BinIoError);
  EXPECT_FALSE(fs::exists(base.string() + kPartialSuffix));

  TraceWriter w(base, test_meta(), 1);  // chunk of 1: append flushes
  IntervalRecord empty = rec(0);
  empty.spanned = 0;
  EXPECT_THROW(w.append(empty), BinIoError);
  IntervalRecord wide = rec(0);
  wide.spanned = 2'000'000;  // t_end stays one interval past 0
  EXPECT_THROW(w.append(wide), BinIoError);
  w.append(rec(0));
  w.finalize({});
  TraceReader r(base.string() + kTraceSuffix);
  ASSERT_TRUE(r.next().has_value());
  EXPECT_FALSE(r.next().has_value());
}

TEST_F(TraceIo, MismatchedValueCountIsRejected) {
  const fs::path base = dir_ / "iotest.node0007";
  TraceWriter w(base, test_meta(), 1);  // chunk of 1: append flushes
  IntervalRecord bad = rec(0);
  bad.values.pop_back();
  EXPECT_THROW(w.append(bad), BinIoError);
}

}  // namespace
}  // namespace bgp::trace
