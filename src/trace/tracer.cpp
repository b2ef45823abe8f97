#include "trace/tracer.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/strfmt.hpp"
#include "obs/obs.hpp"

namespace bgp::trace {

namespace {

/// Mode 0 FP-side events for one core (the Figure-6 instruction classes).
void add_core_fp(std::vector<isa::EventId>& out, unsigned core) {
  for (unsigned op = 0; op < isa::kNumFpOps; ++op) {
    out.push_back(isa::ev::fpu_op(core, static_cast<isa::FpOp>(op)));
  }
  out.push_back(isa::ev::instr_completed(core));
  out.push_back(isa::ev::cycle_count(core));
}

void add_core_ls(std::vector<isa::EventId>& out, unsigned core) {
  for (unsigned op = 0; op < isa::kNumLsOps; ++op) {
    out.push_back(isa::ev::ls_op(core, static_cast<isa::LsOp>(op)));
  }
}

void add_core_mem(std::vector<isa::EventId>& out, unsigned core) {
  out.push_back(isa::ev::l1d(core, isa::L1dEvent::kReadAccess));
  out.push_back(isa::ev::l1d(core, isa::L1dEvent::kReadMiss));
  out.push_back(isa::ev::l1d(core, isa::L1dEvent::kWriteAccess));
  out.push_back(isa::ev::l2(core, isa::L2Event::kReadMiss));
  out.push_back(isa::ev::l2(core, isa::L2Event::kPrefetchHit));
}

/// Mode 1 chip-level memory set: the L3↔DDR traffic the paper's bandwidth
/// figures are built from.
std::vector<isa::EventId> mode1_events() {
  std::vector<isa::EventId> out;
  out.push_back(isa::ev::l3(isa::L3Event::kReadAccess));
  out.push_back(isa::ev::l3(isa::L3Event::kReadHit));
  out.push_back(isa::ev::l3(isa::L3Event::kReadMiss));
  out.push_back(isa::ev::l3(isa::L3Event::kWriteAccess));
  out.push_back(isa::ev::l3(isa::L3Event::kFillFromDdr));
  out.push_back(isa::ev::l3(isa::L3Event::kWritebackToDdr));
  for (unsigned ctrl = 0; ctrl < isa::kNumDdrControllers; ++ctrl) {
    out.push_back(isa::ev::ddr(ctrl, isa::DdrEvent::kBytesRead16B));
    out.push_back(isa::ev::ddr(ctrl, isa::DdrEvent::kBytesWritten16B));
    out.push_back(isa::ev::ddr(ctrl, isa::DdrEvent::kBusyCycles));
  }
  return out;
}

std::vector<isa::EventId> mode2_events() {
  std::vector<isa::EventId> out;
  out.push_back(isa::ev::torus(isa::TorusEvent::kBytesSent32B));
  out.push_back(isa::ev::torus(isa::TorusEvent::kBytesRecv32B));
  out.push_back(isa::ev::torus(isa::TorusEvent::kPacketsReceived));
  out.push_back(isa::ev::collective(isa::CollectiveEvent::kOperations));
  out.push_back(isa::ev::collective(isa::CollectiveEvent::kBytes32B));
  out.push_back(isa::ev::barrier(isa::BarrierEvent::kEntries));
  out.push_back(isa::ev::barrier(isa::BarrierEvent::kWaitCycles));
  return out;
}

std::vector<isa::EventId> mode3_events() {
  std::vector<isa::EventId> out;
  out.push_back(isa::ev::system(isa::SysEvent::kMpiSends));
  out.push_back(isa::ev::system(isa::SysEvent::kMpiRecvs));
  out.push_back(isa::ev::system(isa::SysEvent::kMpiCollectives));
  out.push_back(isa::ev::system(isa::SysEvent::kMpiWaitCycles));
  out.push_back(isa::ev::system(isa::SysEvent::kRankActiveCycles));
  out.push_back(isa::ev::system(isa::SysEvent::kRankIdleCycles));
  return out;
}

TraceMeta make_meta(const sys::Node& node, const TraceConfig& config,
                    const std::string& app_name, u8 mode) {
  TraceMeta meta;
  meta.node_id = node.id();
  meta.card_id = node.card_id();
  meta.counter_mode = mode;
  meta.app_name = app_name;
  meta.interval_cycles = config.interval_cycles;
  meta.pacer_event =
      sys::interrupt_paced(mode) ? u32{sys::kPacerEvent} : kPacerTimebase;
  meta.events = preset_trace_events(config.preset, mode);
  return meta;
}

}  // namespace

const std::vector<std::string>& trace_preset_names() {
  static const std::vector<std::string> names = {"default", "fp", "mix",
                                                 "mem"};
  return names;
}

std::vector<isa::EventId> preset_trace_events(std::string_view preset,
                                              u8 mode) {
  if (mode >= isa::kNumCounterModes) {
    throw std::invalid_argument(
        strfmt("counter mode %u out of range", unsigned{mode}));
  }
  const std::vector<std::string>& names = trace_preset_names();
  if (std::find(names.begin(), names.end(), preset) == names.end()) {
    throw std::invalid_argument(
        strfmt("unknown trace preset '%.*s' (try --list)",
               static_cast<int>(preset.size()), preset.data()));
  }
  // Only mode 0 has per-core event families to choose between; the other
  // modes each have one sensible chip-level set.
  if (mode == 1) return mode1_events();
  if (mode == 2) return mode2_events();
  if (mode == 3) return mode3_events();

  std::vector<isa::EventId> out;
  for (unsigned core = 0; core < isa::kCoresPerNode; ++core) {
    add_core_fp(out, core);
    if (preset == "default" || preset == "mix") {
      add_core_ls(out, core);
      for (unsigned op = 0; op < isa::kNumIntOps; ++op) {
        out.push_back(isa::ev::int_op(core, static_cast<isa::IntOp>(op)));
      }
    }
    if (preset == "mem") {
      add_core_ls(out, core);
      add_core_mem(out, core);
    }
  }
  return out;
}

std::filesystem::path trace_file_base(const std::filesystem::path& dir,
                                      const std::string& app, unsigned node) {
  return dir / strfmt("%s.node%04u", app.c_str(), node);
}

NodeTracer::NodeTracer(sys::Node& node, const TraceConfig& config,
                       const std::string& app_name, u8 mode)
    : node_(node),
      writer_(trace_file_base(config.trace_dir, app_name, node.id()),
              make_meta(node, config, app_name, mode)) {
  node.pacer().add({config.interval_cycles, kSampleOverheadCycles,
                    [this] { last_snapshot_ = snapshot_counters(); },
                    [this](u64 from, u64 to) { sample(from, to); }});
}

std::vector<u64> NodeTracer::snapshot_counters() const {
  // Reads go through the memory-mapped path, like a monitoring thread's
  // (or the interrupt service routine's) would.
  const auto& upc = node_.upc();
  const std::vector<isa::EventId>& events = writer_.meta().events;
  std::vector<u64> values;
  values.reserve(events.size());
  for (const isa::EventId ev : events) {
    const u8 counter = isa::event_counter(ev);
    values.push_back(upc.mmio_read64(upc.mmio_base() + 8ull * counter));
  }
  return values;
}

void NodeTracer::sample(u64 from, u64 to) {
  const cycles_t interval = writer_.meta().interval_cycles;
  std::vector<u64> now_values = snapshot_counters();
  IntervalRecord rec;
  rec.index = from;
  rec.spanned = static_cast<u32>(to - from);
  rec.t_begin = from * interval;
  rec.t_end = to * interval;
  rec.values.resize(now_values.size());
  for (std::size_t i = 0; i < now_values.size(); ++i) {
    rec.values[i] = now_values[i] - last_snapshot_[i];
  }
  last_snapshot_ = std::move(now_values);
  ++samples_;
  // Every 64th record commits a chunk to the .partial file.
  writer_.append(std::move(rec));
}

std::filesystem::path NodeTracer::seal() {
  if (sealed()) return writer_.final_path();
  node_.pacer().stop();
  TraceTotals totals;
  totals.intervals = samples_;
  totals.samples = samples_;
  totals.overhead_cycles = overhead_cycles();
  if (auto* fr = obs::recorder()) {
    fr->wk().trace_seals->add(1);
    fr->wk().trace_samples->add(totals.samples);
    fr->wk().trace_intervals->add(totals.intervals);
  }
  return writer_.finalize(totals);
}

}  // namespace bgp::trace
