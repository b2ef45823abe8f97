#include "trace/sampler.hpp"

#include <stdexcept>

#include "trace/traceformat.hpp"

namespace bgp::trace {

Sampler::Sampler(sys::Node& node, SamplerConfig config, TraceBuffer& buffer)
    : node_(node), config_(std::move(config)), buffer_(buffer) {
  if (config_.interval_cycles == 0) {
    throw std::invalid_argument("sampler interval must be positive");
  }
  if (config_.events.empty()) {
    throw std::invalid_argument("sampler needs at least one event to watch");
  }
}

std::vector<u64> Sampler::snapshot_counters() const {
  // Reads go through the memory-mapped path, like a monitoring thread's
  // (or the interrupt service routine's) would.
  const auto& upc = node_.upc();
  std::vector<u64> values;
  values.reserve(config_.events.size());
  for (const isa::EventId ev : config_.events) {
    const u8 counter = isa::event_counter(ev);
    values.push_back(upc.mmio_read64(upc.mmio_base() + 8ull * counter));
  }
  return values;
}

void Sampler::arm() {
  if (armed_) return;
  auto& upc = node_.upc();
  // Pace by the core-0 cycle counter when the programmed mode covers it;
  // otherwise fall back to Time-Base polling from instrumentation points.
  const isa::EventId pacer = isa::ev::cycle_count(0);
  interrupt_driven_ = isa::event_mode(pacer) == upc.mode();
  pacer_counter_ = isa::event_counter(pacer);
  pacer_event_ = interrupt_driven_ ? pacer : kPacerTimebase;
  armed_ = true;
  pacer_origin_ = 0;  // set below, pacer_now() needs armed state
  pacer_origin_ = interrupt_driven_
                      ? upc.mmio_read64(upc.mmio_base() + 8ull * pacer_counter_)
                      : node_.timebase();
  intervals_closed_ = 0;
  last_snapshot_ = snapshot_counters();
  if (interrupt_driven_) {
    if (!listener_installed_) {
      upc.add_threshold_listener(
          [this](u8 counter, u64 /*value*/) { on_threshold(counter); });
      listener_installed_ = true;
    }
    upc::CounterConfig cfg = upc.config(pacer_counter_);
    cfg.interrupt_enable = true;
    cfg.threshold = pacer_origin_ + config_.interval_cycles;
    upc.configure(pacer_counter_, cfg);
  }
}

void Sampler::disarm() {
  if (!armed_) return;
  poll();
  if (interrupt_driven_) {
    auto& upc = node_.upc();
    upc::CounterConfig cfg = upc.config(pacer_counter_);
    cfg.interrupt_enable = false;
    cfg.threshold = 0;
    upc.configure(pacer_counter_, cfg);
  }
  armed_ = false;
}

cycles_t Sampler::pacer_now() const {
  if (interrupt_driven_) {
    const auto& upc = node_.upc();
    return upc.mmio_read64(upc.mmio_base() + 8ull * pacer_counter_) -
           pacer_origin_;
  }
  return node_.timebase() - pacer_origin_;
}

void Sampler::on_threshold(u8 counter) {
  if (!armed_ || in_advance_ || counter != pacer_counter_) return;
  advance_to(pacer_now());
}

unsigned Sampler::poll() {
  if (!armed_ || in_advance_ || !node_.upc().running()) return 0;
  return advance_to(pacer_now());
}

void Sampler::rearm_threshold() {
  auto& upc = node_.upc();
  // Re-arm by rewriting the threshold register over the MMIO path, exactly
  // as an interrupt service routine on the real unit would; the new
  // threshold is strictly above the current count, so the write itself
  // never re-fires.
  upc.mmio_write64(
      upc.mmio_base() + upc::UpcUnit::kThresholdOffset + 8ull * pacer_counter_,
      pacer_origin_ + (intervals_closed_ + 1) * config_.interval_cycles);
}

unsigned Sampler::advance_to(cycles_t rel_now) {
  const u64 closed = rel_now / config_.interval_cycles;
  if (closed <= intervals_closed_) return 0;
  in_advance_ = true;
  std::vector<u64> now_values = snapshot_counters();
  IntervalRecord rec;
  rec.index = intervals_closed_;
  rec.spanned = static_cast<u32>(closed - intervals_closed_);
  rec.t_begin = intervals_closed_ * config_.interval_cycles;
  rec.t_end = closed * config_.interval_cycles;
  rec.values.resize(now_values.size());
  for (std::size_t i = 0; i < now_values.size(); ++i) {
    rec.values[i] = now_values[i] - last_snapshot_[i];
  }
  last_snapshot_ = std::move(now_values);
  intervals_closed_ = closed;
  buffer_.push(std::move(rec));
  ++samples_;
  overhead_cycles_ += kSampleOverheadCycles;
  pending_overhead_ += kSampleOverheadCycles;
  if (interrupt_driven_) rearm_threshold();
  in_advance_ = false;
  return 1;
}

}  // namespace bgp::trace
