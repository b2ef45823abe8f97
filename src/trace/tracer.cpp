#include "trace/tracer.hpp"

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
  const bool known =
      preset == "default" || preset == "fp" || preset == "mix" ||
      preset == "mem";
  if (!known) {
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

namespace {

TraceMeta make_meta(const sys::Node& node, const TraceConfig& config,
                    const std::string& app_name, u8 mode,
                    std::vector<isa::EventId> events) {
  TraceMeta meta;
  meta.node_id = node.id();
  meta.card_id = node.card_id();
  meta.counter_mode = mode;
  meta.app_name = app_name;
  meta.interval_cycles = config.interval_cycles;
  const isa::EventId pacer = isa::ev::cycle_count(0);
  meta.pacer_event =
      isa::event_mode(pacer) == mode ? u32{pacer} : kPacerTimebase;
  meta.events = std::move(events);
  return meta;
}

SamplerConfig make_sampler_config(const TraceConfig& config,
                                  const std::vector<isa::EventId>& events) {
  SamplerConfig sc;
  sc.interval_cycles = config.interval_cycles;
  sc.events = events;
  return sc;
}

}  // namespace

NodeTracer::NodeTracer(sys::Node& node, const TraceConfig& config,
                       const std::string& app_name, u8 mode)
    : buffer_(config.buffer_capacity),
      writer_(trace_file_base(config.trace_dir, app_name, node.id()),
              make_meta(node, config, app_name, mode,
                        preset_trace_events(config.preset, mode))),
      sampler_(node, make_sampler_config(config, writer_.meta().events),
               buffer_) {}

void NodeTracer::start() { sampler_.arm(); }

void NodeTracer::drain() {
  while (!buffer_.empty()) {
    writer_.append(buffer_.front());
    buffer_.pop_front();
  }
}

cycles_t NodeTracer::pulse() {
  sampler_.poll();
  drain();
  return sampler_.take_pending_overhead();
}

std::filesystem::path NodeTracer::seal() {
  if (writer_.finalized()) return writer_.final_path();
  sampler_.disarm();
  drain();
  TraceTotals totals;
  totals.intervals = buffer_.total_pushed();
  totals.dropped = buffer_.dropped();
  totals.samples = sampler_.samples();
  totals.overhead_cycles = sampler_.overhead_cycles();
  if (auto* fr = obs::recorder()) {
    fr->wk().trace_seals->add(1);
    fr->wk().trace_samples->add(totals.samples);
    fr->wk().trace_intervals->add(totals.intervals);
    fr->wk().trace_drops->add(totals.dropped);
  }
  return writer_.finalize(totals);
}

}  // namespace bgp::trace
