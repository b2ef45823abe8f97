// The reader corpus (`ctest -L fuzz`): every on-disk reader against every
// truncation of a sample artifact plus 1,000 seeded flips of 1-3 bits,
// applied through the fault injector's dump corruption. Per mutant the
// reader must return its documented typed error or the original value.
// Where a torn tail is legal (traces, journal tails) a reported prefix is
// allowed too, and a parse with changed values only where the format
// carries no checksum (JSON, Prometheus text).
// Never a crash, never another exception type. Each test prints its tally.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <optional>
#include <random>

#include "artifacts.hpp"
#include "daemon/json.hpp"
#include "fault/fault.hpp"
#include "obs/promtext.hpp"
#include "obs/span_io.hpp"
#include "trace/tracer.hpp"

namespace bgp::formats {
namespace {

enum class Outcome {
  kClean,    ///< the original value
  kTyped,    ///< the reader's documented error
  kPrefix,   ///< a legal torn tail: fewer records, all original
  kChanged,  ///< different values from a format without a checksum
  kWrong,    ///< anything else: a property violation
};

constexpr unsigned kFlipMutants = 1000;

struct Mutant {
  fault::FaultPlan plan;
  std::vector<std::byte> bytes;
};

/// Every truncation of `original`, then kFlipMutants mutants of 1-3 seeded
/// bit flips, each applied with FaultInjector::corrupt_dump.
std::vector<Mutant> mutants(const std::vector<std::byte>& original, u64 seed) {
  std::vector<fault::FaultPlan> plans;
  for (u32 keep = 0; keep < original.size(); ++keep) {
    fault::FaultEvent cut;
    cut.kind = fault::FaultKind::kDumpTruncate;
    cut.keep_bytes = keep;
    plans.emplace_back().add(cut);
  }
  std::mt19937_64 rng(seed);
  for (unsigned m = 0; m < kFlipMutants; ++m) {
    fault::FaultPlan& plan = plans.emplace_back();
    for (u64 flips = 1 + rng() % 3; flips > 0; --flips) {
      fault::FaultEvent flip;
      flip.kind = fault::FaultKind::kDumpBitFlip;
      flip.byte_offset = static_cast<u32>(rng() % original.size());
      flip.bit = static_cast<u8>(rng() % 8);
      plan.add(flip);
    }
  }
  std::vector<Mutant> out;
  for (fault::FaultPlan& plan : plans) {
    std::vector<std::byte> bytes = original;
    (void)fault::FaultInjector(plan).corrupt_dump(0, bytes);
    out.push_back({std::move(plan), std::move(bytes)});
  }
  return out;
}

std::string describe(const fault::FaultPlan& plan) {
  std::string out;
  for (const fault::FaultEvent& e : plan.events()) {
    out += (out.empty() ? "" : ", ") + fault::describe(e);
  }
  return out;
}

/// Run `read` over every mutant of `original`, fail the test on any
/// property violation, and print the tally.
void run_corpus(const char* reader, const std::vector<std::byte>& original,
                u64 seed,
                const std::function<Outcome(const std::vector<std::byte>&)>&
                    read) {
  ASSERT_EQ(read(original), Outcome::kClean) << reader << ": original";
  unsigned counts[5] = {};
  const std::vector<Mutant> all = mutants(original, seed);
  for (const Mutant& m : all) {
    Outcome o = Outcome::kWrong;
    std::string error = "wrong value";
    try {
      o = read(m.bytes);
    } catch (const std::exception& e) {
      error = std::string("untyped exception: ") + e.what();
    }
    ++counts[static_cast<int>(o)];
    EXPECT_NE(o, Outcome::kWrong)
        << reader << ": " << error << " after " << describe(m.plan);
  }
  std::printf("corpus %-26s %6zu mutants: %5u typed errors, %5u clean, "
              "%4u prefixes, %4u changed (no checksum)\n",
              reader, all.size(), counts[1], counts[0], counts[2], counts[3]);
}

// ---- dumps ----------------------------------------------------------------

void dump_corpus(const char* reader, const pc::NodeDump& dump, u64 seed) {
  const std::vector<std::byte> original = pc::NodeMonitor::serialize(dump);
  run_corpus(reader, original, seed, [&](const std::vector<std::byte>& b) {
    pc::NodeDump got;
    try {
      got = pc::NodeMonitor::parse(b);
    } catch (const BinIoError&) {
      return Outcome::kTyped;
    }
    return pc::NodeMonitor::serialize(got) == original ? Outcome::kClean
                                                       : Outcome::kWrong;
  });
}

TEST(ReaderFuzz, DumpV2) {
  dump_corpus("dump v2", sample_dump(false), 0xD2);
}

TEST(ReaderFuzz, DumpV3) {
  dump_corpus("dump v3", sample_dump(true), 0xD3);
}

// ---- BGPT -------------------------------------------------------------------

bool same(const trace::IntervalRecord& a, const trace::IntervalRecord& b) {
  return a.index == b.index && a.spanned == b.spanned &&
         a.t_begin == b.t_begin && a.t_end == b.t_end && a.values == b.values;
}

bool same(const trace::TraceMeta& a, const trace::TraceMeta& b) {
  return a.node_id == b.node_id && a.card_id == b.card_id &&
         a.counter_mode == b.counter_mode && a.app_name == b.app_name &&
         a.interval_cycles == b.interval_cycles &&
         a.pacer_event == b.pacer_event && a.events == b.events;
}

void trace_corpus(const char* reader, bool seal, u64 seed) {
  const fs::path dir = test_dir();
  constexpr unsigned kEvents = 6;
  constexpr u64 kRecords = 37;
  const std::vector<std::byte> original =
      file_bytes(write_sample_trace(dir, kEvents, kRecords, 16, seal));
  const fs::path path = dir / (seal ? "m.bgpt" : "m.bgpt.partial");
  run_corpus(reader, original, seed, [&](const std::vector<std::byte>& b) {
    write_file(path, b);
    std::vector<trace::IntervalRecord> got;
    std::optional<trace::TraceReader> r;
    try {
      r.emplace(path);
      while (auto rec = r->next()) got.push_back(std::move(*rec));
    } catch (const BinIoError&) {
      return Outcome::kTyped;
    }
    if (!same(r->meta(), sample_trace_meta(kEvents)) ||
        got.size() > kRecords) {
      return Outcome::kWrong;
    }
    for (u64 i = 0; i < got.size(); ++i) {
      if (!same(got[i], sample_interval(i, kEvents))) return Outcome::kWrong;
    }
    if (r->sealed() != r->truncated() && got.size() == kRecords &&
        r->sealed() == seal) {
      const trace::TraceTotals want = sample_totals(kRecords);
      return !seal || (r->totals()->intervals == want.intervals &&
                       r->totals()->dropped == want.dropped &&
                       r->totals()->samples == want.samples &&
                       r->totals()->overhead_cycles == want.overhead_cycles)
                 ? Outcome::kClean
                 : Outcome::kWrong;
    }
    return r->truncated() && !r->sealed() ? Outcome::kPrefix
                                          : Outcome::kWrong;
  });
  fs::remove_all(dir);
}

TEST(ReaderFuzz, TraceSealed) { trace_corpus("bgpt sealed", true, 0xB1); }

TEST(ReaderFuzz, TracePartial) {
  trace_corpus("bgpt .partial", false, 0xB2);
}

// An 80-event trace (the `default` preset) whose first chunk count has bit
// 23 flipped claims 2^23 + 8 records, 5.6 GB for a 5.6 KB file. The count
// is bounded by the bytes left before anything is sized from it, and a
// chunk the file cannot hold reads as a torn tail.
TEST(ReaderFuzz, TraceChunkCountIsBoundedByTheFile) {
  const fs::path dir = test_dir();
  trace::TraceMeta meta = sample_trace_meta(0);
  meta.events = trace::preset_trace_events("default", 0);
  ASSERT_EQ(meta.events.size(), 80u);
  std::size_t header_bytes = 0;
  fs::path sealed;
  {
    trace::TraceWriter w(dir / "MG.node0003", meta);
    header_bytes = static_cast<std::size_t>(fs::file_size(w.partial_path()));
    for (u64 i = 0; i < 8; ++i) w.append(sample_interval(i, 80));
    sealed = w.finalize(sample_totals(8));
  }
  std::vector<std::byte> bytes = file_bytes(sealed);
  bytes[header_bytes + 2] ^= std::byte{0x80};  // bit 23 of the count
  write_file(sealed, bytes);

  trace::TraceReader r(sealed);
  EXPECT_FALSE(r.next().has_value());
  EXPECT_TRUE(r.truncated());
  EXPECT_FALSE(r.sealed());
  fs::remove_all(dir);
}

// ---- .bgps ------------------------------------------------------------------

TEST(ReaderFuzz, SpanFile) {
  const fs::path dir = test_dir();
  const fs::path path = dir / "EP.node0003.bgps";
  std::vector<obs::SpanRec> spans;
  for (u32 i = 0; i < 12; ++i) {
    spans.push_back({i % 3 == 0 ? "region.EP" : "coll.allreduce",
                     i % 3 == 0 ? obs::SpanCat::kRegion
                                : obs::SpanCat::kCollective,
                     3, i % 4, i % 2, 100 * u64{i}, 100 * u64{i} + 40,
                     7'000 * u64{i}, 7'000 * u64{i} + 999});
  }
  const std::vector<obs::InstantRec> instants = {
      {"fault.death", obs::SpanCat::kFault, 3, 1, 1234, 98'765},
      {"ft.shrink", obs::SpanCat::kFt, 3, 0, 5678, 99'001}};
  obs::write_span_file(path, "EP", 3, spans, instants, 5);
  const std::vector<std::byte> original = file_bytes(path);

  // A load is the original when writing it back gives the same bytes.
  const auto same_file = [&](const obs::SpanFile& f) {
    const fs::path again = dir / "again.bgps";
    obs::write_span_file(again, f.app, f.node, f.spans, f.instants,
                         f.dropped);
    return file_bytes(again) == original;
  };
  run_corpus(".bgps", original, 0x5B, [&](const std::vector<std::byte>& b) {
    write_file(path, b);
    try {
      return same_file(obs::load_span_file(path)) ? Outcome::kClean
                                                  : Outcome::kWrong;
    } catch (const std::runtime_error&) {
      return Outcome::kTyped;
    }
  });
  fs::remove_all(dir);
}

// ---- BGPSNAP ----------------------------------------------------------------

bool same(const daemon::NodeSnapshot& a, const daemon::NodeSnapshot& b) {
  return a.node_id == b.node_id && a.card_id == b.card_id &&
         a.mode == b.mode && a.state == b.state &&
         a.published_cycle == b.published_cycle && a.counters == b.counters;
}

TEST(ReaderFuzz, Snapshot) {
  const fs::path dir = test_dir();
  const fs::path path = dir / "counters.bgpsnap";
  {
    daemon::SnapshotWriter w(path, "CG", "sess-7", kSnapNodes,
                             kSnapMetricsBytes);
    publish_sample_snapshot(w);
  }
  const std::vector<std::byte> original = file_bytes(path);
  std::vector<daemon::NodeSnapshot> want(kSnapNodes);
  {
    const auto r = daemon::SnapshotReader::open_file(path);
    for (unsigned n = 0; n < kSnapNodes; ++n) {
      ASSERT_TRUE(r.read_node(n, want[n]));
    }
  }
  const fs::path mutant = dir / "m.bgpsnap";
  // The header is sealed, names included: a changed label is wrong too.
  run_corpus("bgpsnap", original, 0x5A, [&](const std::vector<std::byte>& b) {
    write_file(mutant, b);
    std::optional<daemon::SnapshotReader> r;
    try {
      r.emplace(daemon::SnapshotReader::open_file(mutant));
    } catch (const std::runtime_error&) {
      return Outcome::kTyped;
    }
    if (r->num_nodes() != kSnapNodes || r->app() != "CG" ||
        r->session() != "sess-7") {
      return Outcome::kWrong;
    }
    Outcome o = Outcome::kClean;
    for (unsigned n = 0; n < kSnapNodes; ++n) {
      daemon::NodeSnapshot got;
      const daemon::SnapReadStatus st = r->read_node_status(n, got, 4);
      if (st != daemon::SnapReadStatus::kOk) {
        o = Outcome::kTyped;
      } else if (!same(got, want[n])) {
        return Outcome::kWrong;
      }
    }
    std::string metrics;
    if (!r->read_metrics(metrics, 4)) return Outcome::kTyped;
    return metrics == kSnapMetrics ? o : Outcome::kWrong;
  });
  fs::remove_all(dir);
}

// A flipped bit in the app name (header byte 48) once opened the file
// under another name; the header seal turns it into a typed error.
TEST(ReaderFuzz, SnapshotNameFlipIsATypedError) {
  const fs::path dir = test_dir();
  const fs::path path = dir / "counters.bgpsnap";
  {
    daemon::SnapshotWriter w(path, "CG", "sess-7", kSnapNodes,
                             kSnapMetricsBytes);
    publish_sample_snapshot(w);
  }
  std::vector<std::byte> bytes = file_bytes(path);
  ASSERT_EQ(bytes[48], std::byte{'C'});
  bytes[48] ^= std::byte{0x01};  // "CG" would read as "BG"
  write_file(path, bytes);
  EXPECT_THROW((void)daemon::SnapshotReader::open_file(path), BinIoError);
  fs::remove_all(dir);
}

// ---- BGPJRNL ----------------------------------------------------------------

// Also the journal's exact-prefix properties: a truncation at any point
// yields exactly the records whose frames survived whole, and a flip past
// the header yields exactly the records before the first damaged frame.
TEST(ReaderFuzz, Journal) {
  const fs::path dir = test_dir();
  const fs::path path = dir / "journal";
  constexpr unsigned kRecords = 8;
  std::vector<std::size_t> ends;  // file size after each append
  {
    daemon::JournalWriter w(path);
    for (unsigned i = 0; i < kRecords; ++i) {
      w.append(sample_journal_record(i));
      ends.push_back(static_cast<std::size_t>(fs::file_size(path)));
    }
  }
  const std::vector<std::byte> original = file_bytes(path);
  const fs::path mutant = dir / "m.journal";
  run_corpus("bgpjrnl", original, 0x7A, [&](const std::vector<std::byte>& b) {
    write_file(mutant, b);
    daemon::JournalReplay replay;
    try {
      replay = daemon::replay_journal(mutant);
    } catch (const daemon::JournalError&) {
      return Outcome::kTyped;
    }
    // The first byte the mutant lost or changed; frames ending at or
    // before it are the committed prefix.
    const auto diff = std::mismatch(b.begin(), b.end(), original.begin());
    const std::size_t first_bad =
        static_cast<std::size_t>(diff.first - b.begin());
    const std::size_t committed = static_cast<std::size_t>(
        std::upper_bound(ends.begin(), ends.end(), first_bad) - ends.begin());
    if (replay.records.size() != committed ||
        replay.valid_bytes + replay.dropped_bytes != b.size()) {
      return Outcome::kWrong;
    }
    for (unsigned i = 0; i < committed; ++i) {
      if (replay.records[i].to_json().dump() !=
          sample_journal_record(i).to_json().dump()) {
        return Outcome::kWrong;
      }
    }
    if (committed == kRecords) return Outcome::kClean;
    // A flip is always reported; a cut on a frame boundary cannot be.
    return b.size() < original.size() || !replay.tail_error.empty()
               ? Outcome::kPrefix
               : Outcome::kWrong;
  });
  fs::remove_all(dir);
}

// ---- JSON and Prometheus text ----------------------------------------------

std::vector<std::byte> text_bytes(std::string_view text) {
  const auto* p = reinterpret_cast<const std::byte*>(text.data());
  return {p, p + text.size()};
}

std::string_view as_text(const std::vector<std::byte>& b) {
  return {reinterpret_cast<const char*>(b.data()), b.size()};
}

TEST(ReaderFuzz, Json) {
  const std::string original =
      R"({"op":"admit","session":"s-1","body":{"bench":"CG","class":"A",)"
      R"("nodes":16,"ranks":[0,1,-2,3.5e3],"seed":18446744073709551615,)"
      R"("ft":{"on":true,"deaths":null},"note":"tab\tnew\nline é\"q\""}})";
  const std::string canonical = daemon::json::Value::parse(original).dump();
  run_corpus("json", text_bytes(original), 0x15,
             [&](const std::vector<std::byte>& b) {
               try {
                 return daemon::json::Value::parse(as_text(b)).dump() ==
                                canonical
                            ? Outcome::kClean
                            : Outcome::kChanged;
               } catch (const daemon::json::JsonError&) {
                 return Outcome::kTyped;
               }
             });
}

TEST(ReaderFuzz, PrometheusText) {
  obs::MetricsRegistry reg;
  reg.counter("bgpc_dump_writes_total", "dump writes").add(16);
  reg.counter("bgpc_upc_calls_total", "calls", {{"call", "start"}}).add(64);
  reg.gauge("bgpc_sessions", "live sessions", {{"state", "run\"ning\n"}})
      .set(2.5);
  obs::Histogram& h = reg.histogram("bgpcd_http_request_seconds", "latency",
                                    {0.001, 0.01, 0.1}, {{"path", "/metrics"}});
  for (const double v : {0.0005, 0.002, 0.02, 0.5}) h.observe(v);
  const std::string original = obs::render_prometheus(reg);
  const auto samples = obs::parse_prometheus(original);
  const auto histograms = obs::parse_prometheus_histograms(original);
  const auto same_histograms = [&](const auto& got) {
    if (got.size() != histograms.size()) return false;
    for (const auto& [key, want] : histograms) {
      const auto it = got.find(key);
      if (it == got.end() || it->second.buckets != want.buckets ||
          it->second.sum != want.sum || it->second.count != want.count) {
        return false;
      }
    }
    return true;
  };
  run_corpus("prometheus samples", text_bytes(original), 0x9A,
             [&](const std::vector<std::byte>& b) {
               try {
                 return obs::parse_prometheus(as_text(b)) == samples
                            ? Outcome::kClean
                            : Outcome::kChanged;
               } catch (const std::runtime_error&) {
                 return Outcome::kTyped;
               }
             });
  run_corpus("prometheus histograms", text_bytes(original), 0x9B,
             [&](const std::vector<std::byte>& b) {
               try {
                 return same_histograms(
                            obs::parse_prometheus_histograms(as_text(b)))
                            ? Outcome::kClean
                            : Outcome::kChanged;
               } catch (const std::runtime_error&) {
                 return Outcome::kTyped;
               }
             });
}

}  // namespace
}  // namespace bgp::formats
