#include "obs/span_io.hpp"

#include <algorithm>
#include <charconv>
#include <map>
#include <stdexcept>

#include "common/binio.hpp"
#include "common/strfmt.hpp"
#include "obs/obs.hpp"

namespace bgp::obs {

namespace {

/// Span names are single tokens in the file format.
std::string sanitize(std::string_view name) {
  std::string out(name);
  for (char& c : out) {
    if (c == ' ' || c == '\t' || c == '\n') c = '_';
  }
  return out.empty() ? std::string("_") : out;
}

[[noreturn]] void malformed(const std::filesystem::path& path,
                            const char* what) {
  throw std::runtime_error(
      strfmt("%s: malformed span file (%s)", path.string().c_str(), what));
}

/// The space-separated fields of one line.
std::vector<std::string_view> fields(std::string_view line) {
  std::vector<std::string_view> out;
  std::size_t pos = 0;
  while (pos <= line.size()) {
    const std::size_t end = std::min(line.find(' ', pos), line.size());
    out.push_back(line.substr(pos, end - pos));
    pos = end + 1;
  }
  return out;
}

/// A whole field as an unsigned decimal that fits T, or a malformed file.
template <typename T>
T number(const std::filesystem::path& path, std::string_view field) {
  T v = 0;
  const char* end = field.data() + field.size();
  const auto [ptr, ec] = std::from_chars(field.data(), end, v);
  if (field.empty() || ec != std::errc() || ptr != end) {
    malformed(path, "bad number");
  }
  return v;
}

}  // namespace

std::filesystem::path span_file_path(const std::filesystem::path& dir,
                                     std::string_view app, unsigned node) {
  return dir / strfmt("%s.node%04u.bgps", std::string(app).c_str(), node);
}

void write_span_file(const std::filesystem::path& path, std::string_view app,
                     unsigned node, std::span<const SpanRec> spans,
                     std::span<const InstantRec> instants, u64 dropped) {
  std::string text =
      strfmt("bgpspans %u %s node=%u spans=%zu instants=%zu dropped=%llu\n",
             kSpanFormatVersion, sanitize(app).c_str(), node, spans.size(),
             instants.size(), static_cast<unsigned long long>(dropped));
  for (const SpanRec& s : spans) {
    text += strfmt("S %s %s %u %u %llu %llu %llu %llu\n",
                   sanitize(s.name).c_str(),
                   std::string(to_string(s.cat)).c_str(), s.core, s.depth,
                   static_cast<unsigned long long>(s.begin_cycles),
                   static_cast<unsigned long long>(s.end_cycles),
                   static_cast<unsigned long long>(s.begin_host_ns),
                   static_cast<unsigned long long>(s.end_host_ns));
  }
  for (const InstantRec& i : instants) {
    text += strfmt("I %s %s %u %llu %llu\n", sanitize(i.name).c_str(),
                   std::string(to_string(i.cat)).c_str(), i.core,
                   static_cast<unsigned long long>(i.cycles),
                   static_cast<unsigned long long>(i.host_ns));
  }
  BinaryWriter w;
  w.put_array(std::span<const char>(text));
  w.seal();
  w.write_file(path);
}

void write_span_file(const std::filesystem::path& path, std::string_view app,
                     unsigned node, const FlightRecorder& fr) {
  u64 dropped = 0;
  for (unsigned c = 0; c < fr.cores_per_node(); ++c) {
    dropped += fr.rank(node, c).spans_dropped() +
               fr.rank(node, c).instants_dropped();
  }
  const auto spans = fr.node_spans(node);
  const auto instants = fr.node_instants(node);
  write_span_file(path, app, node, spans, instants, dropped);
}

SpanFile load_span_file(const std::filesystem::path& path) {
  // The whole file is one sealed section: the text, then its CRC32.
  BinaryReader r(path);
  std::string text(r.remaining() < sizeof(u32) ? 0
                                                : r.remaining() - sizeof(u32),
                   '\0');
  r.get_array(std::span(text));
  if (!text.starts_with("bgpspans ")) malformed(path, "bad header");
  if (!text.starts_with(strfmt("bgpspans %u ", kSpanFormatVersion))) {
    malformed(path, "unsupported version");
  }
  r.check_seal("span file");

  SpanFile out;
  std::size_t claimed_spans = 0;
  std::size_t claimed_instants = 0;
  std::size_t pos = 0;
  for (bool header = true; pos < text.size(); header = false) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) malformed(path, "unterminated line");
    const std::vector<std::string_view> f =
        fields(std::string_view(text).substr(pos, eol - pos));
    pos = eol + 1;
    if (header) {
      if (f.size() != 7 || !f[3].starts_with("node=") ||
          !f[4].starts_with("spans=") || !f[5].starts_with("instants=") ||
          !f[6].starts_with("dropped=")) {
        malformed(path, "bad header fields");
      }
      out.app = f[2];
      out.node = number<u32>(path, f[3].substr(5));
      claimed_spans = number<std::size_t>(path, f[4].substr(6));
      claimed_instants = number<std::size_t>(path, f[5].substr(9));
      out.dropped = number<u64>(path, f[6].substr(8));
      continue;
    }
    SpanCat cat;
    if (f.size() < 3 || !parse_span_cat(f[2], cat)) {
      malformed(path, "bad record");
    }
    if (f[0] == "S" && f.size() == 9) {
      out.spans.push_back({std::string(f[1]), cat, out.node,
                           number<u32>(path, f[3]), number<u32>(path, f[4]),
                           number<u64>(path, f[5]), number<u64>(path, f[6]),
                           number<u64>(path, f[7]), number<u64>(path, f[8])});
    } else if (f[0] == "I" && f.size() == 6) {
      out.instants.push_back({std::string(f[1]), cat, out.node,
                              number<u32>(path, f[3]), number<u64>(path, f[4]),
                              number<u64>(path, f[5])});
    } else {
      malformed(path, "bad record");
    }
  }
  if (out.spans.size() != claimed_spans ||
      out.instants.size() != claimed_instants) {
    malformed(path, "record count differs from the header");
  }
  return out;
}

SpanSet load_span_dir(const std::filesystem::path& dir, std::string_view app) {
  std::vector<std::filesystem::path> paths;
  const std::string prefix = std::string(app) + ".node";
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    const std::string fname = entry.path().filename().string();
    if (entry.path().extension() == ".bgps" && fname.rfind(prefix, 0) == 0) {
      paths.push_back(entry.path());
    }
  }
  std::sort(paths.begin(), paths.end());
  SpanSet out;
  for (const auto& path : paths) {
    SpanFile file = load_span_file(path);
    out.nodes.push_back(file.node);
    out.dropped += file.dropped;
    out.spans.insert(out.spans.end(),
                     std::make_move_iterator(file.spans.begin()),
                     std::make_move_iterator(file.spans.end()));
    out.instants.insert(out.instants.end(),
                        std::make_move_iterator(file.instants.begin()),
                        std::make_move_iterator(file.instants.end()));
  }
  std::sort(out.nodes.begin(), out.nodes.end());
  std::stable_sort(out.spans.begin(), out.spans.end(),
                   [](const SpanRec& a, const SpanRec& b) {
                     if (a.node != b.node) return a.node < b.node;
                     if (a.core != b.core) return a.core < b.core;
                     if (a.begin_cycles != b.begin_cycles) {
                       return a.begin_cycles < b.begin_cycles;
                     }
                     return a.depth < b.depth;
                   });
  std::stable_sort(out.instants.begin(), out.instants.end(),
                   [](const InstantRec& a, const InstantRec& b) {
                     if (a.node != b.node) return a.node < b.node;
                     if (a.core != b.core) return a.core < b.core;
                     return a.cycles < b.cycles;
                   });
  return out;
}

std::vector<ProfileRow> self_profile(std::span<const SpanRec> spans) {
  std::map<std::string, ProfileRow> by_name;
  for (const SpanRec& s : spans) {
    ProfileRow& row = by_name[s.name];
    if (row.calls == 0) {
      row.name = s.name;
      row.cat = s.cat;
    }
    ++row.calls;
    row.cycles +=
        s.end_cycles > s.begin_cycles ? s.end_cycles - s.begin_cycles : 0;
    row.host_ns +=
        s.end_host_ns > s.begin_host_ns ? s.end_host_ns - s.begin_host_ns : 0;
  }
  std::vector<ProfileRow> rows;
  rows.reserve(by_name.size());
  for (auto& [_, row] : by_name) rows.push_back(std::move(row));
  std::stable_sort(rows.begin(), rows.end(),
                   [](const ProfileRow& a, const ProfileRow& b) {
                     if (a.cycles != b.cycles) return a.cycles > b.cycles;
                     return a.name < b.name;
                   });
  return rows;
}

}  // namespace bgp::obs
