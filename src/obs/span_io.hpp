// Per-node span files (<app>.node<N>.bgps): line-oriented text written
// next to the counter dumps when the flight recorder is on, and read back
// by bgpc_obs to merge a whole partition's spans and print a self-profile.
// A header line, one `S` line per completed span and one `I` line per
// instant event, sealed with the CRC32 of the text (layout:
// docs/formats.md).
#pragma once

#include <filesystem>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "obs/span_recorder.hpp"

namespace bgp::obs {

class FlightRecorder;

inline constexpr unsigned kSpanFormatVersion = 2;

[[nodiscard]] std::filesystem::path span_file_path(
    const std::filesystem::path& dir, std::string_view app, unsigned node);

/// Write one node's spans/instants (throws on I/O error).
void write_span_file(const std::filesystem::path& path, std::string_view app,
                     unsigned node, std::span<const SpanRec> spans,
                     std::span<const InstantRec> instants, u64 dropped);
/// Convenience: exports fr.node_spans(node) / fr.node_instants(node).
void write_span_file(const std::filesystem::path& path, std::string_view app,
                     unsigned node, const FlightRecorder& fr);

struct SpanFile {
  std::string app;
  unsigned node = 0;
  u64 dropped = 0;
  std::vector<SpanRec> spans;
  std::vector<InstantRec> instants;
};

/// Parse one .bgps file (throws std::runtime_error on malformed input,
/// including a broken seal and version 1 files).
[[nodiscard]] SpanFile load_span_file(const std::filesystem::path& path);

/// All of `app`'s span files under `dir`, merged and ordered by
/// (node, core, begin time).
struct SpanSet {
  std::vector<unsigned> nodes;  ///< nodes a file was found for, ascending
  std::vector<SpanRec> spans;
  std::vector<InstantRec> instants;
  u64 dropped = 0;
};
[[nodiscard]] SpanSet load_span_dir(const std::filesystem::path& dir,
                                    std::string_view app);

/// Aggregated self-profile: one row per span name, sorted by inclusive
/// simulated cycles (descending).
struct ProfileRow {
  std::string name;
  SpanCat cat = SpanCat::kRegion;
  u64 calls = 0;
  u64 cycles = 0;   ///< total inclusive simulated cycles
  u64 host_ns = 0;  ///< total inclusive host nanoseconds
};
[[nodiscard]] std::vector<ProfileRow> self_profile(
    std::span<const SpanRec> spans);

}  // namespace bgp::obs
