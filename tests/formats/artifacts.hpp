// Fixed sample artifacts of every on-disk format, built through the real
// writers. The writer digests pin their bytes; the reader corpus mutates
// them.
#pragma once

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/strfmt.hpp"
#include "core/node_monitor.hpp"
#include "daemon/journal.hpp"
#include "daemon/snapfile.hpp"
#include "trace/trace_io.hpp"

namespace bgp::formats {

namespace fs = std::filesystem;

/// A fresh directory named after the running test.
inline fs::path test_dir() {
  const auto* info = testing::UnitTest::GetInstance()->current_test_info();
  fs::path dir = fs::temp_directory_path() /
                 (std::string("bgp_formats_") + info->test_suite_name() +
                  "_" + info->name());
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

inline std::vector<std::byte> file_bytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  const std::vector<char> chars{std::istreambuf_iterator<char>(in),
                                std::istreambuf_iterator<char>()};
  std::vector<std::byte> out(chars.size());
  std::memcpy(out.data(), chars.data(), chars.size());
  return out;
}

inline void write_file(const fs::path& path,
                       const std::vector<std::byte>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// Two counter sets; with `recovery`, three FT recovery events (a v3 dump).
inline pc::NodeDump sample_dump(bool recovery) {
  pc::NodeDump d;
  d.node_id = 5;
  d.card_id = 2;
  d.counter_mode = 1;
  d.app_name = "CG";
  for (u32 set = 0; set < 2; ++set) {
    pc::SetDump s;
    s.set_id = set;
    s.pairs = 3 + set;
    s.first_start_cycle = 1000 + set;
    s.last_stop_cycle = 900'000 + 7 * set;
    for (unsigned c = 0; c < isa::kCountersPerUnit; ++c) {
      s.deltas[c] = u64{c} * 1'000'003 + set;
    }
    d.sets.push_back(s);
  }
  if (recovery) {
    for (u32 k = 0; k < 3; ++k) {
      ft::RecoveryEvent e;
      e.kind = static_cast<ft::RecoveryKind>(k);
      e.node = k == 0 ? 3 : ft::RecoveryEvent::kNoNode;
      e.rank = 4 * k + 1;
      e.cycle = 50'000 + k;
      e.cost = 700 + k;
      e.aux = 11 * k;
      d.recovery.push_back(e);
    }
  }
  return d;
}

inline trace::TraceMeta sample_trace_meta(unsigned num_events) {
  trace::TraceMeta m;
  m.node_id = 3;
  m.card_id = 1;
  m.counter_mode = 0;
  m.app_name = "MG";
  m.interval_cycles = 10'000;
  m.pacer_event = 7;
  for (unsigned e = 0; e < num_events; ++e) {
    m.events.push_back(static_cast<isa::EventId>(e * 3));
  }
  return m;
}

inline trace::IntervalRecord sample_interval(u64 i, std::size_t values) {
  trace::IntervalRecord r;
  r.index = 2 * i;
  r.spanned = 1 + static_cast<u32>(i % 2);
  r.t_begin = r.index * 10'000;
  r.t_end = (r.index + r.spanned) * 10'000;
  for (std::size_t v = 0; v < values; ++v) r.values.push_back(i * 97 + v);
  return r;
}

inline trace::TraceTotals sample_totals(u64 records) {
  return {records, 2, records + 1, 64 * (records + 1)};
}

/// `records` intervals in chunks of `chunk`: a sealed `.bgpt` when `seal`,
/// else the `.bgpt.partial` a node that died after its last flush leaves.
inline fs::path write_sample_trace(const fs::path& dir, unsigned num_events,
                                   u64 records, std::size_t chunk,
                                   bool seal) {
  const trace::TraceMeta meta = sample_trace_meta(num_events);
  trace::TraceWriter w(dir / "MG.node0003", meta, chunk);
  for (u64 i = 0; i < records; ++i) {
    w.append(sample_interval(i, meta.events.size()));
  }
  if (seal) return w.finalize(sample_totals(records));
  w.flush();
  return w.partial_path();
}

inline daemon::JournalRecord sample_journal_record(unsigned i) {
  daemon::JournalRecord rec;
  rec.op = i % 2 == 0 ? daemon::journal_op::kAdmit
                      : daemon::journal_op::kFinish;
  rec.session = strfmt("s%u", i);
  daemon::json::Value body = daemon::json::Value::object();
  body.set("i", daemon::json::Value(u64{i}));
  body.set("text", daemon::json::Value(std::string(i * 7, 'x')));
  rec.body = body;
  return rec;
}

inline std::array<u64, isa::kCountersPerUnit> sample_counters(u64 stamp) {
  std::array<u64, isa::kCountersPerUnit> c{};
  for (unsigned i = 0; i < c.size(); ++i) c[i] = stamp * 1'000 + i;
  return c;
}

inline constexpr unsigned kSnapNodes = 2;
inline constexpr std::size_t kSnapMetricsBytes = 256;
inline constexpr const char* kSnapMetrics =
    "# TYPE bgpc_x counter\nbgpc_x 17\n";

/// Publishes node 0 twice and node 1 once (so node 0's inactive slot holds
/// an older, CRC-valid snapshot), then the metrics text.
inline void publish_sample_snapshot(daemon::SnapshotWriter& w) {
  w.publish_node(0, 0, 0, 1, daemon::SnapState::kCounting, 5'000,
                 sample_counters(1));
  w.publish_node(0, 0, 0, 1, daemon::SnapState::kCounting, 9'000,
                 sample_counters(2));
  w.publish_node(1, 1, 1, 1, daemon::SnapState::kFinal, 12'000,
                 sample_counters(3));
  w.publish_metrics(kSnapMetrics);
}

}  // namespace bgp::formats
