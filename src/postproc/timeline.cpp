#include "postproc/timeline.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>

#include "common/csv.hpp"
#include "common/strfmt.hpp"

namespace bgp::post {

namespace {

/// What one count of an event contributes to the derived metrics.
struct EventWeight {
  double flops = 0;     ///< flops per count
  double fp_instr = 0;  ///< FP instructions per count
  double simd_instr = 0;
  double ls_instr = 0;
  double instr = 0;     ///< completed instructions per count
  double ddr_read = 0;  ///< DDR bytes read per count
  double ddr_write = 0;
};

/// Every event's weight, laid out by the isa::ev event map: FP classes,
/// load/store classes and completed instructions on each core, and the two
/// DDR controllers' 16-byte transfer counts. Other events weigh nothing.
const std::array<EventWeight, isa::kNumEvents>& event_weights() {
  static const auto table = [] {
    std::array<EventWeight, isa::kNumEvents> t{};
    for (unsigned core = 0; core < isa::kCoresPerNode; ++core) {
      for (std::size_t i = 0; i < isa::kNumFpOps; ++i) {
        const auto op = static_cast<isa::FpOp>(i);
        EventWeight& w = t[isa::ev::fpu_op(core, op)];
        w.flops = isa::flops_per_op(op);
        w.fp_instr = 1;
        w.simd_instr = isa::is_simd(op) ? 1 : 0;
      }
      for (std::size_t i = 0; i < isa::kNumLsOps; ++i) {
        t[isa::ev::ls_op(core, static_cast<isa::LsOp>(i))].ls_instr = 1;
      }
      t[isa::ev::instr_completed(core)].instr = 1;
    }
    for (unsigned ctrl = 0; ctrl < isa::kNumDdrControllers; ++ctrl) {
      t[isa::ev::ddr(ctrl, isa::DdrEvent::kBytesRead16B)].ddr_read = 16;
      t[isa::ev::ddr(ctrl, isa::DdrEvent::kBytesWritten16B)].ddr_write = 16;
    }
    return t;
  }();
  return table;
}

/// The weights of a trace's events, parallel to its header's event list;
/// ids outside the event space (a corrupt header) weigh nothing.
std::vector<EventWeight> resolve_weights(
    const std::vector<isa::EventId>& events) {
  std::vector<EventWeight> w;
  w.reserve(events.size());
  for (const isa::EventId e : events) {
    w.push_back(e < isa::kNumEvents ? event_weights()[e] : EventWeight{});
  }
  return w;
}

/// One open trace in the merge: the reader, its weights and the pending
/// (not yet fully consumed) record. At most one record is held per trace.
struct MergeSource {
  std::unique_ptr<trace::TraceReader> reader;
  std::vector<EventWeight> weights;
  std::optional<trace::IntervalRecord> cur;
  /// Leading intervals of `cur` already folded into the timeline (a
  /// coalesced record is consumed one covered interval at a time).
  u32 consumed = 0;
  bool failed = false;

  /// First interval index this source still covers, or nullopt when drained.
  [[nodiscard]] std::optional<u64> next_index() const {
    if (!cur.has_value()) return std::nullopt;
    return cur->index + consumed;
  }
};

void advance(MergeSource& src, std::vector<std::string>& problems) {
  src.consumed = 0;
  try {
    auto rec = src.reader->next();
    if (rec.has_value()) {
      src.cur = std::move(rec);
    } else {
      src.cur.reset();
    }
  } catch (const std::exception& e) {
    // Mid-file corruption: keep what was merged so far, drop the rest of
    // this trace (degraded mode), and report it.
    problems.push_back(e.what());
    src.cur.reset();
    src.failed = true;
  }
}

/// Signature used for change-point detection, each component in [0, 1]
/// after normalization against the timeline maxima.
struct Signature {
  double mflops = 0;
  double ddr = 0;
  double fp = 0;
  double ls = 0;
  double simd = 0;

  [[nodiscard]] double distance(const Signature& o) const noexcept {
    return std::abs(mflops - o.mflops) + std::abs(ddr - o.ddr) +
           std::abs(fp - o.fp) + std::abs(ls - o.ls) +
           std::abs(simd - o.simd);
  }
};

Signature signature_of(const IntervalMetrics& m, double mflops_max,
                       double ddr_max) {
  Signature s;
  s.mflops = mflops_max > 0 ? m.mflops / mflops_max : 0;
  s.ddr = ddr_max > 0 ? (m.ddr_read_mbs + m.ddr_write_mbs) / ddr_max : 0;
  s.fp = m.fp_fraction;
  s.ls = m.ls_fraction;
  s.simd = m.simd_fraction;
  return s;
}

void detect_phases(TimelineReport& report, const TimelineOptions& opts) {
  const auto& iv = report.intervals;
  if (iv.empty()) return;
  double mflops_max = 0;
  double ddr_max = 0;
  for (const IntervalMetrics& m : iv) {
    mflops_max = std::max(mflops_max, m.mflops);
    ddr_max = std::max(ddr_max, m.ddr_read_mbs + m.ddr_write_mbs);
  }

  // Walk the timeline keeping a running mean signature for the open phase;
  // an interval far from that mean opens a new phase, provided the open
  // phase is long enough to stand on its own (short excursions are folded
  // back in, which smooths single-interval spikes).
  std::vector<std::size_t> boundaries = {0};
  Signature mean = signature_of(iv[0], mflops_max, ddr_max);
  std::size_t phase_len = 1;
  for (std::size_t i = 1; i < iv.size(); ++i) {
    const Signature s = signature_of(iv[i], mflops_max, ddr_max);
    if (s.distance(mean) > opts.change_threshold &&
        phase_len >= opts.min_phase_intervals) {
      boundaries.push_back(i);
      mean = s;
      phase_len = 1;
      continue;
    }
    // Fold into the running mean.
    const double k = 1.0 / static_cast<double>(phase_len + 1);
    mean.mflops += (s.mflops - mean.mflops) * k;
    mean.ddr += (s.ddr - mean.ddr) * k;
    mean.fp += (s.fp - mean.fp) * k;
    mean.ls += (s.ls - mean.ls) * k;
    mean.simd += (s.simd - mean.simd) * k;
    ++phase_len;
  }
  boundaries.push_back(iv.size());

  for (std::size_t b = 0; b + 1 < boundaries.size(); ++b) {
    const std::size_t begin = boundaries[b];
    const std::size_t end = boundaries[b + 1];
    PhaseRecord ph;
    ph.id = static_cast<unsigned>(b);
    ph.first_interval = iv[begin].index;
    ph.last_interval = iv[end - 1].index;
    ph.t_begin = iv[begin].t_begin;
    ph.t_end = iv[end - 1].t_end;
    const double n = static_cast<double>(end - begin);
    for (std::size_t i = begin; i < end; ++i) {
      ph.mflops += iv[i].mflops / n;
      ph.ddr_read_mbs += iv[i].ddr_read_mbs / n;
      ph.ddr_write_mbs += iv[i].ddr_write_mbs / n;
      ph.fp_fraction += iv[i].fp_fraction / n;
      ph.ls_fraction += iv[i].ls_fraction / n;
      ph.simd_fraction += iv[i].simd_fraction / n;
    }
    report.phases.push_back(ph);
  }
}

}  // namespace

std::vector<std::filesystem::path> list_trace_files(
    const std::filesystem::path& dir, const std::string& app,
    bool include_partial) {
  if (!std::filesystem::is_directory(dir)) {
    throw BinIoError(
        strfmt("trace directory %s does not exist", dir.string().c_str()));
  }
  std::vector<std::filesystem::path> files;
  const std::string prefix = app.empty() ? "" : app + ".node";
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    const bool sealed = name.ends_with(trace::kTraceSuffix);
    const bool partial = name.ends_with(trace::kPartialSuffix);
    if (!sealed && !partial) continue;
    if (partial && !include_partial) continue;
    if (!prefix.empty() && !name.starts_with(prefix)) continue;
    files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

TimelineReport mine_timeline(const std::filesystem::path& dir,
                             const std::string& app,
                             const TimelineOptions& opts) {
  std::vector<std::filesystem::path> files;
  try {
    files = list_trace_files(dir, app, opts.include_partial);
  } catch (const std::exception& e) {
    TimelineReport report;
    report.problems.push_back(e.what());
    return report;
  }
  return mine_timeline(files, opts);
}

TimelineReport mine_timeline(const std::vector<std::filesystem::path>& files,
                             const TimelineOptions& opts) {
  TimelineReport report;
  report.coverage.expected = opts.expected_nodes;

  std::vector<MergeSource> sources;
  unsigned max_node = 0;
  for (const auto& file : files) {
    MergeSource src;
    try {
      src.reader = std::make_unique<trace::TraceReader>(file);
    } catch (const std::exception& e) {
      report.problems.push_back(e.what());
      continue;
    }
    const trace::TraceMeta& meta = src.reader->meta();
    max_node = std::max(max_node, meta.node_id);
    if (report.interval_cycles == 0) {
      report.interval_cycles = meta.interval_cycles;
    } else if (meta.interval_cycles != report.interval_cycles) {
      report.problems.push_back(strfmt(
          "%s: interval geometry mismatch (%llu cycles vs batch %llu)",
          file.string().c_str(),
          static_cast<unsigned long long>(meta.interval_cycles),
          static_cast<unsigned long long>(report.interval_cycles)));
      continue;
    }
    src.weights = resolve_weights(meta.events);
    sources.push_back(std::move(src));
  }
  report.coverage.loaded = static_cast<unsigned>(sources.size());
  if (report.coverage.expected == 0 && !sources.empty()) {
    report.coverage.expected = max_node + 1;
  }

  // Prime every source, then merge: repeatedly take the smallest interval
  // index any source still covers, fold in every covering source's
  // (span-prorated) deltas, and advance the sources whose record is spent.
  // Memory stays at one pending record per trace.
  for (MergeSource& src : sources) advance(src, report.problems);

  while (true) {
    u64 index = std::numeric_limits<u64>::max();
    for (const MergeSource& src : sources) {
      if (const auto ni = src.next_index(); ni.has_value()) {
        index = std::min(index, *ni);
      }
    }
    if (index == std::numeric_limits<u64>::max()) break;

    IntervalMetrics m;
    m.index = index;
    m.t_begin = index * report.interval_cycles;
    m.t_end = (index + 1) * report.interval_cycles;
    double flops = 0, fp_instr = 0, simd_instr = 0;
    double ls_instr = 0, instr = 0, ddr_rd = 0, ddr_wr = 0;
    for (MergeSource& src : sources) {
      if (!src.cur.has_value()) continue;
      const trace::IntervalRecord& rec = *src.cur;
      if (rec.index > index) continue;
      // A coalesced record spreads its deltas evenly over its span.
      const double frac = 1.0 / static_cast<double>(rec.spanned);
      for (std::size_t j = 0; j < rec.values.size(); ++j) {
        const double v = static_cast<double>(rec.values[j]) * frac;
        const EventWeight& w = src.weights[j];
        flops += v * w.flops;
        fp_instr += v * w.fp_instr;
        simd_instr += v * w.simd_instr;
        ls_instr += v * w.ls_instr;
        instr += v * w.instr;
        ddr_rd += v * w.ddr_read;
        ddr_wr += v * w.ddr_write;
      }
      ++m.nodes;
      src.consumed = static_cast<u32>(index + 1 - rec.index);
      if (src.consumed >= rec.spanned) {
        advance(src, report.problems);
      }
    }

    const double secs = cycles_to_seconds(report.interval_cycles);
    m.flops = flops;
    m.instructions = instr;
    m.mflops = secs > 0 ? flops / secs / 1e6 : 0;
    m.ddr_read_mbs = secs > 0 ? ddr_rd / secs / 1e6 : 0;
    m.ddr_write_mbs = secs > 0 ? ddr_wr / secs / 1e6 : 0;
    m.fp_fraction = instr > 0 ? fp_instr / instr : 0;
    m.ls_fraction = instr > 0 ? ls_instr / instr : 0;
    m.simd_fraction = fp_instr > 0 ? simd_instr / fp_instr : 0;
    report.intervals.push_back(m);
  }

  unsigned mined = 0;
  for (const MergeSource& src : sources) {
    if (src.failed) continue;
    ++mined;
    const trace::TraceReader& r = *src.reader;
    if (r.truncated()) {
      report.truncated_nodes.push_back(r.meta().node_id);
    }
    if (r.totals().has_value()) {
      report.dropped_intervals += r.totals()->dropped;
      report.overhead_cycles += r.totals()->overhead_cycles;
    }
  }
  std::sort(report.truncated_nodes.begin(), report.truncated_nodes.end());
  report.coverage.mined = mined;
  report.ok = mined > 0 && !report.intervals.empty();
  detect_phases(report, opts);
  return report;
}

std::string interval_csv(const TimelineReport& report) {
  CsvWriter csv;
  csv.header({"interval", "t_begin_cycles", "t_end_cycles", "nodes", "mflops",
              "ddr_read_mbs", "ddr_write_mbs", "fp_fraction", "ls_fraction",
              "simd_fraction"});
  for (const IntervalMetrics& m : report.intervals) {
    csv.row({strfmt("%llu", static_cast<unsigned long long>(m.index)),
             strfmt("%llu", static_cast<unsigned long long>(m.t_begin)),
             strfmt("%llu", static_cast<unsigned long long>(m.t_end)),
             strfmt("%u", m.nodes), strfmt("%.3f", m.mflops),
             strfmt("%.3f", m.ddr_read_mbs), strfmt("%.3f", m.ddr_write_mbs),
             strfmt("%.4f", m.fp_fraction), strfmt("%.4f", m.ls_fraction),
             strfmt("%.4f", m.simd_fraction)});
  }
  return csv.text();
}

std::string phase_csv(const TimelineReport& report) {
  CsvWriter csv;
  csv.header({"phase", "first_interval", "last_interval", "t_begin_cycles",
              "t_end_cycles", "mflops", "ddr_read_mbs", "ddr_write_mbs",
              "fp_fraction", "ls_fraction", "simd_fraction"});
  for (const PhaseRecord& p : report.phases) {
    csv.row({strfmt("%u", p.id),
             strfmt("%llu", static_cast<unsigned long long>(p.first_interval)),
             strfmt("%llu", static_cast<unsigned long long>(p.last_interval)),
             strfmt("%llu", static_cast<unsigned long long>(p.t_begin)),
             strfmt("%llu", static_cast<unsigned long long>(p.t_end)),
             strfmt("%.3f", p.mflops), strfmt("%.3f", p.ddr_read_mbs),
             strfmt("%.3f", p.ddr_write_mbs), strfmt("%.4f", p.fp_fraction),
             strfmt("%.4f", p.ls_fraction), strfmt("%.4f", p.simd_fraction)});
  }
  return csv.text();
}

std::string render_timeline(const TimelineReport& report) {
  std::string out;
  out += strfmt("timeline: %zu intervals of %llu cycles, %zu phases\n",
                report.intervals.size(),
                static_cast<unsigned long long>(report.interval_cycles),
                report.phases.size());
  out += "coverage: " + report.coverage.to_string() + "\n";
  if (!report.truncated_nodes.empty()) {
    out += strfmt("truncated traces (dead nodes): %zu [",
                  report.truncated_nodes.size());
    for (std::size_t i = 0; i < report.truncated_nodes.size(); ++i) {
      out += strfmt(i == 0 ? "%u" : " %u", report.truncated_nodes[i]);
    }
    out += "]\n";
  }
  if (report.dropped_intervals > 0) {
    out += strfmt("dropped intervals (ring overflow): %llu\n",
                  static_cast<unsigned long long>(report.dropped_intervals));
  }
  out += strfmt("modeled sampling overhead: %llu cycles\n",
                static_cast<unsigned long long>(report.overhead_cycles));
  for (const PhaseRecord& p : report.phases) {
    out += strfmt(
        "phase %2u  intervals %5llu..%-5llu  %9.1f MFLOPS  "
        "ddr %7.1f/%7.1f MB/s  fp %4.1f%%  ls %4.1f%%  simd %4.1f%%\n",
        p.id, static_cast<unsigned long long>(p.first_interval),
        static_cast<unsigned long long>(p.last_interval), p.mflops,
        p.ddr_read_mbs, p.ddr_write_mbs, 100.0 * p.fp_fraction,
        100.0 * p.ls_fraction, 100.0 * p.simd_fraction);
  }
  for (const std::string& p : report.problems) {
    out += "problem: " + p + "\n";
  }
  return out;
}

}  // namespace bgp::post
