#include "upc/upc_unit.hpp"

#include "common/strfmt.hpp"

namespace bgp::upc {

u32 CounterConfig::encode() const noexcept {
  u32 w = static_cast<u32>(signal) & 0b11u;
  if (interrupt_enable) w |= 1u << 2;
  if (enabled) w |= 1u << 3;
  return w;
}

CounterConfig CounterConfig::decode(u32 word) noexcept {
  CounterConfig cfg;
  cfg.signal = static_cast<SignalMode>(word & 0b11u);
  cfg.interrupt_enable = (word >> 2) & 1u;
  cfg.enabled = (word >> 3) & 1u;
  return cfg;
}

UpcUnit::UpcUnit(addr_t mmio_base) noexcept : mmio_base_(mmio_base) {
  masks_.fill(~u64{0});
  refresh_derived();  // power-on configs count edges
}

void UpcUnit::set_counter_width(u8 counter, unsigned bits) {
  if (bits == 0 || bits > 64) {
    throw UpcError(strfmt("invalid counter width %u", bits));
  }
  const u64 mask = bits == 64 ? ~u64{0} : (u64{1} << bits) - 1;
  const u8 c = check_counter(counter);
  masks_[c] = mask;
  counters_[c] &= mask;
}

u64 UpcUnit::counter_mask(u8 counter) const {
  return masks_[check_counter(counter)];
}

void UpcUnit::set_mode(u8 mode) {
  if (mode >= isa::kNumCounterModes) {
    throw UpcError(strfmt("invalid counter mode %u", mode));
  }
  mode_ = mode;
}

void UpcUnit::reset_counters() noexcept { counters_.fill(0); }

void UpcUnit::reset_config() noexcept {
  configs_.fill(CounterConfig{});
  refresh_derived();
}

void UpcUnit::refresh_derived() noexcept {
  armed_thresholds_ = 0;
  for (unsigned c = 0; c < kNumCounters; ++c) {
    const CounterConfig& cfg = configs_[c];
    edge_countable_[c] = cfg.enabled && (cfg.signal == SignalMode::kEdgeRise ||
                                         cfg.signal == SignalMode::kEdgeFall);
    if (cfg.interrupt_enable && cfg.threshold != 0) ++armed_thresholds_;
  }
}

u8 UpcUnit::check_counter(unsigned counter) {
  if (counter >= kNumCounters) {
    throw UpcError(strfmt("counter index %u out of range", counter));
  }
  return static_cast<u8>(counter);
}

void UpcUnit::configure(u8 counter, const CounterConfig& cfg) {
  const u8 c = check_counter(counter);
  const CounterConfig old = configs_[c];
  configs_[c] = cfg;
  refresh_derived();
  maybe_fire_on_arm(c, old);
}

const CounterConfig& UpcUnit::config(u8 counter) const {
  return configs_[check_counter(counter)];
}

void UpcUnit::fire_threshold(u8 counter) {
  ++threshold_interrupts_;
  if (threshold_handler_) {
    threshold_handler_(counter, counters_[counter]);
  }
  // Handlers may reconfigure the counter (re-arming writes a new
  // threshold), so iterate by index: a listener registered mid-delivery is
  // not called for this interrupt.
  const std::size_t n = threshold_listeners_.size();
  for (std::size_t i = 0; i < n; ++i) {
    threshold_listeners_[i](counter, counters_[counter]);
  }
}

void UpcUnit::maybe_fire_on_arm(u8 counter, const CounterConfig& old_cfg) {
  const CounterConfig& cfg = configs_[counter];
  if (!cfg.interrupt_enable || !cfg.enabled || cfg.threshold == 0) return;
  if (counters_[counter] < cfg.threshold) return;
  // Already past the old threshold with interrupts on: that crossing was
  // delivered when it happened; re-writing the registers must not repeat it.
  const bool old_observed = old_cfg.interrupt_enable && old_cfg.enabled &&
                            old_cfg.threshold != 0 &&
                            counters_[counter] >= old_cfg.threshold;
  if (old_observed) return;
  fire_threshold(counter);
}

void UpcUnit::bump(u8 counter, u64 amount) {
  if (amount == 0) return;
  const CounterConfig& cfg = configs_[counter];
  const u64 before = counters_[counter];
  // Full-width counters wrap (benignly) at 2^64; a narrowed counter wraps
  // at its injected width and the loss is visible to the dump consumers.
  counters_[counter] = (before + amount) & masks_[counter];
  // Crossing detection uses the unwrapped sum: an increment that carries a
  // narrowed counter across its threshold AND past its wrap point must
  // still raise the interrupt (the crossing physically happened), while a
  // wrap that starts above the threshold must not re-raise it.
  if (cfg.interrupt_enable && cfg.threshold != 0 && before < cfg.threshold &&
      before + amount >= cfg.threshold) {
    fire_threshold(counter);
  }
}

void UpcUnit::signal(isa::EventId id, u64 count) {
  const isa::EventCount one{id, count};
  signal_batch(&one, 1);
}

void UpcUnit::signal_batch(const isa::EventCount* batch, std::size_t n) {
  if (!running_) return;
  if (armed_thresholds_ != 0) {
    signal_armed(batch, n);
    return;
  }
  const u16 lo = static_cast<u16>(mode_) * isa::kCountersPerUnit;
  // No configured counter can fire a threshold interrupt, so a countable
  // entry reduces to one masked add (counters are kept masked by every
  // writer, so re-masking an unchanged value is a no-op). This is the
  // steady-state loop: shipped samplers arm thresholds rarely or never.
  // restrict-qualified pointers tell the compiler the counter stores
  // cannot alias the batch, so it need not reload batch[i] after every
  // store — without them the loop serializes on the aliasing check.
  const isa::EventCount* __restrict__ b = batch;
  u64* __restrict__ ctr = counters_.data();
  const u64* __restrict__ msk = masks_.data();
  const u8* __restrict__ countable = edge_countable_.data();
  for (std::size_t i = 0; i < n; ++i) {
    const u16 rel = static_cast<u16>(b[i].id - lo);
    if (rel >= isa::kCountersPerUnit) continue;  // other mode's event
    const u8 counter = static_cast<u8>(rel);
    if (!countable[counter]) continue;  // disabled or level-configured
    ctr[counter] = (ctr[counter] + b[i].count) & msk[counter];
  }
}

void UpcUnit::signal_armed(const isa::EventCount* batch, std::size_t n) {
  // A counter may fire mid-batch, and its handler may stop the unit,
  // switch its mode or reconfigure counters. So count entry by entry
  // through bump(), re-reading that state for every entry: the batch
  // counts exactly what the same reports delivered one by one would.
  for (std::size_t i = 0; i < n && running_; ++i) {
    const u16 lo = static_cast<u16>(mode_) * isa::kCountersPerUnit;
    const u16 rel = static_cast<u16>(batch[i].id - lo);
    if (rel >= isa::kCountersPerUnit) continue;
    const u8 counter = static_cast<u8>(rel);
    if (!edge_countable_[counter]) continue;
    bump(counter, batch[i].count);
  }
}

void UpcUnit::signal_level(isa::EventId id, u64 cycles_high, u64 window) {
  if (!running_ || isa::event_mode(id) != mode_) return;
  if (cycles_high > window) cycles_high = window;
  const u8 counter = isa::event_counter(id);
  const CounterConfig& cfg = configs_[counter];
  if (!cfg.enabled) return;
  switch (cfg.signal) {
    case SignalMode::kLevelHigh:
      bump(counter, cycles_high);
      break;
    case SignalMode::kLevelLow:
      bump(counter, window - cycles_high);
      break;
    case SignalMode::kEdgeRise:
    case SignalMode::kEdgeFall:
      // An observation window in which the signal was ever asserted
      // contributes one transition.
      if (cycles_high > 0) bump(counter, 1);
      break;
  }
}

u64 UpcUnit::read(u8 counter) const { return counters_[check_counter(counter)]; }

void UpcUnit::write(u8 counter, u64 value) {
  const u8 c = check_counter(counter);
  counters_[c] = value & masks_[c];
}

u64 UpcUnit::mmio_read64(addr_t addr) const {
  if (!owns_address(addr)) throw UpcError("MMIO read outside UPC window");
  const addr_t off = addr - mmio_base_;
  if (off < kConfigOffset) {
    if (off % 8 != 0) throw UpcError("unaligned counter MMIO read");
    return read(check_counter(static_cast<unsigned>(off / 8)));
  }
  if (off >= kThresholdOffset) {
    const addr_t toff = off - kThresholdOffset;
    if (toff % 8 != 0) throw UpcError("unaligned threshold MMIO read");
    return configs_[check_counter(static_cast<unsigned>(toff / 8))].threshold;
  }
  throw UpcError("64-bit MMIO read in 32-bit config region");
}

void UpcUnit::mmio_write64(addr_t addr, u64 value) {
  if (!owns_address(addr)) throw UpcError("MMIO write outside UPC window");
  const addr_t off = addr - mmio_base_;
  if (off < kConfigOffset) {
    if (off % 8 != 0) throw UpcError("unaligned counter MMIO write");
    write(check_counter(static_cast<unsigned>(off / 8)), value);
    return;
  }
  if (off >= kThresholdOffset) {
    const addr_t toff = off - kThresholdOffset;
    if (toff % 8 != 0) throw UpcError("unaligned threshold MMIO write");
    const u8 counter = check_counter(static_cast<unsigned>(toff / 8));
    const CounterConfig old = configs_[counter];
    configs_[counter].threshold = value;
    refresh_derived();
    maybe_fire_on_arm(counter, old);
    return;
  }
  throw UpcError("64-bit MMIO write in 32-bit config region");
}

u32 UpcUnit::mmio_read32(addr_t addr) const {
  if (!owns_address(addr)) throw UpcError("MMIO read outside UPC window");
  const addr_t off = addr - mmio_base_;
  if (off < kConfigOffset || off >= kThresholdOffset) {
    throw UpcError("32-bit MMIO access is only defined for config registers");
  }
  const addr_t coff = off - kConfigOffset;
  if (coff % 4 != 0) throw UpcError("unaligned config MMIO read");
  return configs_[check_counter(static_cast<unsigned>(coff / 4))].encode();
}

void UpcUnit::mmio_write32(addr_t addr, u32 value) {
  if (!owns_address(addr)) throw UpcError("MMIO write outside UPC window");
  const addr_t off = addr - mmio_base_;
  if (off < kConfigOffset || off >= kThresholdOffset) {
    throw UpcError("32-bit MMIO access is only defined for config registers");
  }
  const addr_t coff = off - kConfigOffset;
  if (coff % 4 != 0) throw UpcError("unaligned config MMIO write");
  const u8 counter = check_counter(static_cast<unsigned>(coff / 4));
  const CounterConfig old = configs_[counter];
  configs_[counter] = CounterConfig::decode(value);
  configs_[counter].threshold = old.threshold;  // set via threshold registers
  refresh_derived();
  maybe_fire_on_arm(counter, old);
}

}  // namespace bgp::upc
