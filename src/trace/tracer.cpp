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

/// The pacer of an interrupt-paced tracer: the core-0 cycle counter.
constexpr isa::EventId kPacer = isa::ev::cycle_count(0);
constexpr u8 kPacerCounter = isa::event_counter(kPacer);

TraceMeta make_meta(const sys::Node& node, const TraceConfig& config,
                    const std::string& app_name, u8 mode) {
  TraceMeta meta;
  meta.node_id = node.id();
  meta.card_id = node.card_id();
  meta.counter_mode = mode;
  meta.app_name = app_name;
  meta.interval_cycles = config.interval_cycles;
  // Pace by the core-0 cycle counter when the programmed mode covers it;
  // otherwise fall back to Time-Base polling from instrumentation points.
  meta.pacer_event =
      isa::event_mode(kPacer) == mode ? u32{kPacer} : kPacerTimebase;
  meta.events = preset_trace_events(config.preset, mode);
  return meta;
}

}  // namespace

NodeTracer::NodeTracer(sys::Node& node, const TraceConfig& config,
                       const std::string& app_name, u8 mode)
    : node_(node),
      writer_(trace_file_base(config.trace_dir, app_name, node.id()),
              make_meta(node, config, app_name, mode)) {}

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

cycles_t NodeTracer::pacer_clock() const {
  if (!interrupt_paced()) return node_.timebase();
  const auto& upc = node_.upc();
  return upc.mmio_read64(upc.mmio_base() + 8ull * kPacerCounter);
}

void NodeTracer::start() {
  if (armed_ || sealed()) return;
  armed_ = true;
  pacer_origin_ = pacer_clock();
  last_snapshot_ = snapshot_counters();
  if (interrupt_paced()) {
    auto& upc = node_.upc();
    upc.add_threshold_listener(
        [this](u8 counter, u64 /*value*/) { on_threshold(counter); });
    upc::CounterConfig cfg = upc.config(kPacerCounter);
    cfg.interrupt_enable = true;
    cfg.threshold = pacer_origin_ + writer_.meta().interval_cycles;
    upc.configure(kPacerCounter, cfg);
  }
}

void NodeTracer::on_threshold(u8 counter) {
  if (!armed_ || in_advance_ || counter != kPacerCounter) return;
  advance();
}

void NodeTracer::poll() {
  if (!armed_ || in_advance_ || !node_.upc().running()) return;
  advance();
}

cycles_t NodeTracer::pulse() {
  poll();
  const cycles_t overhead = pending_overhead_;
  pending_overhead_ = 0;
  return overhead;
}

void NodeTracer::advance() {
  const cycles_t interval = writer_.meta().interval_cycles;
  const u64 closed = (pacer_clock() - pacer_origin_) / interval;
  if (closed <= intervals_closed_) return;
  in_advance_ = true;
  std::vector<u64> now_values = snapshot_counters();
  IntervalRecord rec;
  rec.index = intervals_closed_;
  rec.spanned = static_cast<u32>(closed - intervals_closed_);
  rec.t_begin = intervals_closed_ * interval;
  rec.t_end = closed * interval;
  rec.values.resize(now_values.size());
  for (std::size_t i = 0; i < now_values.size(); ++i) {
    rec.values[i] = now_values[i] - last_snapshot_[i];
  }
  last_snapshot_ = std::move(now_values);
  intervals_closed_ = closed;
  ++samples_;
  overhead_cycles_ += kSampleOverheadCycles;
  pending_overhead_ += kSampleOverheadCycles;
  if (interrupt_paced()) {
    // Re-arm by rewriting the threshold register over the MMIO path,
    // exactly as an interrupt service routine on the real unit would; the
    // new threshold is strictly above the current count, so the write
    // itself never re-fires.
    auto& upc = node_.upc();
    upc.mmio_write64(upc.mmio_base() + upc::UpcUnit::kThresholdOffset +
                         8ull * kPacerCounter,
                     pacer_origin_ + (closed + 1) * interval);
  }
  in_advance_ = false;
  // Every 64th record commits a chunk to the .partial file.
  writer_.append(std::move(rec));
}

std::filesystem::path NodeTracer::seal() {
  if (sealed()) return writer_.final_path();
  if (armed_) {
    poll();  // final catch-up; the tail past the last boundary is dropped
    if (interrupt_paced()) {
      auto& upc = node_.upc();
      upc::CounterConfig cfg = upc.config(kPacerCounter);
      cfg.interrupt_enable = false;
      cfg.threshold = 0;
      upc.configure(kPacerCounter, cfg);
    }
    armed_ = false;
  }
  TraceTotals totals;
  totals.intervals = samples_;
  totals.samples = samples_;
  totals.overhead_cycles = overhead_cycles_;
  if (auto* fr = obs::recorder()) {
    fr->wk().trace_seals->add(1);
    fr->wk().trace_samples->add(totals.samples);
    fr->wk().trace_intervals->add(totals.intervals);
  }
  return writer_.finalize(totals);
}

}  // namespace bgp::trace
