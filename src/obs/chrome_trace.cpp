#include "obs/chrome_trace.hpp"

#include <fstream>
#include <set>
#include <stdexcept>
#include <utility>

#include "common/strfmt.hpp"
#include "common/types.hpp"
#include "obs/obs.hpp"

namespace bgp::obs {

namespace {

constexpr double kCyclesPerUs = kCoreClockHz / 1e6;  // 850

std::string us(cycles_t cycles) {
  return strfmt("%.3f", static_cast<double>(cycles) / kCyclesPerUs);
}

}  // namespace

std::string render_chrome_trace(std::span<const SpanRec> spans,
                                std::span<const InstantRec> instants,
                                std::string_view app) {
  std::string out;
  out += "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"app\":\"";
  out += json_escape(app);
  out += "\"},\"traceEvents\":[";
  bool first = true;
  const auto emit = [&](std::string event) {
    if (!first) out += ',';
    first = false;
    out += "\n";
    out += event;
  };

  // Name the processes/threads Perfetto shows: pid = node, tid = core.
  std::set<unsigned> nodes;
  std::set<std::pair<unsigned, unsigned>> cores;
  for (const SpanRec& s : spans) {
    nodes.insert(s.node);
    cores.insert({s.node, s.core});
  }
  for (const InstantRec& i : instants) {
    nodes.insert(i.node);
    cores.insert({i.node, i.core});
  }
  for (const unsigned n : nodes) {
    emit(strfmt("{\"ph\":\"M\",\"pid\":%u,\"name\":\"process_name\","
                "\"args\":{\"name\":\"node%04u\"}}",
                n, n));
  }
  for (const auto& [n, c] : cores) {
    emit(strfmt("{\"ph\":\"M\",\"pid\":%u,\"tid\":%u,"
                "\"name\":\"thread_name\",\"args\":{\"name\":\"core%u\"}}",
                n, c, c));
  }

  for (const SpanRec& s : spans) {
    const cycles_t dur =
        s.end_cycles > s.begin_cycles ? s.end_cycles - s.begin_cycles : 0;
    emit(strfmt("{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                "\"pid\":%u,\"tid\":%u,\"ts\":%s,\"dur\":%s,"
                "\"args\":{\"bc\":%llu,\"ec\":%llu,\"depth\":%u}}",
                json_escape(s.name).c_str(),
                std::string(to_string(s.cat)).c_str(), s.node, s.core,
                us(s.begin_cycles).c_str(), us(dur).c_str(),
                static_cast<unsigned long long>(s.begin_cycles),
                static_cast<unsigned long long>(s.end_cycles), s.depth));
  }
  for (const InstantRec& i : instants) {
    emit(strfmt("{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"i\",\"s\":\"t\","
                "\"pid\":%u,\"tid\":%u,\"ts\":%s,\"args\":{\"c\":%llu}}",
                json_escape(i.name).c_str(),
                std::string(to_string(i.cat)).c_str(), i.node, i.core,
                us(i.cycles).c_str(),
                static_cast<unsigned long long>(i.cycles)));
  }
  out += "\n]}\n";
  return out;
}

void write_chrome_trace_file(const std::filesystem::path& path,
                             std::span<const SpanRec> spans,
                             std::span<const InstantRec> instants,
                             std::string_view app) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << render_chrome_trace(spans, instants, app);
  out.flush();
  if (!out) {
    throw std::runtime_error(
        strfmt("failed to write %s", path.string().c_str()));
  }
}

void write_chrome_trace_file(const std::filesystem::path& path,
                             const FlightRecorder& fr, std::string_view app) {
  const auto spans = fr.all_spans();
  const auto instants = fr.all_instants();
  write_chrome_trace_file(path, spans, instants, app);
}

}  // namespace bgp::obs
