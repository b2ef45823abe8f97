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
}

void UpcUnit::set_counter_width(u8 counter, unsigned bits) {
  if (bits == 0 || bits > 64) {
    throw UpcError(strfmt("invalid counter width %u", bits));
  }
  const u64 mask = bits == 64 ? ~u64{0} : (u64{1} << bits) - 1;
  const u8 c = check_counter(counter);
  settle(c);
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
  settle();
  mode_ = mode;
  refresh();
}

void UpcUnit::start() noexcept {
  settle();
  running_ = true;
  refresh();
}

void UpcUnit::stop() noexcept {
  settle();
  running_ = false;
  refresh();
}

void UpcUnit::reset_counters() noexcept {
  settle();
  counters_.fill(0);
}

void UpcUnit::reset_config() noexcept {
  settle();
  configs_.fill(CounterConfig{});
  refresh();
}

void UpcUnit::refresh(u8 counter) noexcept {
  const CounterConfig& cfg = configs_[counter];
  marks_[counter] = window()[counter];
  const bool live = running_ && cfg.enabled &&
                    (cfg.signal == SignalMode::kEdgeRise ||
                     cfg.signal == SignalMode::kEdgeFall);
  live_[counter] = live;
  watched_[std::size_t{mode_} * kNumCounters + counter] =
      live && cfg.interrupt_enable && cfg.threshold != 0;
}

void UpcUnit::settle() noexcept {
  for (unsigned c = 0; c < kNumCounters; ++c) settle(static_cast<u8>(c));
}

void UpcUnit::refresh() noexcept {
  watched_.fill(0);  // the old mode's lines, after a mode switch
  for (unsigned c = 0; c < kNumCounters; ++c) refresh(static_cast<u8>(c));
}

u8 UpcUnit::check_counter(unsigned counter) {
  if (counter >= kNumCounters) {
    throw UpcError(strfmt("counter index %u out of range", counter));
  }
  return static_cast<u8>(counter);
}

void UpcUnit::configure(u8 counter, const CounterConfig& cfg) {
  const u8 c = check_counter(counter);
  settle(c);
  const CounterConfig old = configs_[c];
  configs_[c] = cfg;
  refresh(c);
  maybe_fire_on_arm(c, old);
}

const CounterConfig& UpcUnit::config(u8 counter) const {
  return configs_[check_counter(counter)];
}

void UpcUnit::fire_threshold(u8 counter) {
  ++threshold_interrupts_;
  // Listeners may reconfigure the counter (re-arming writes a new
  // threshold), so iterate by index: a listener registered mid-delivery is
  // not called for this interrupt.
  const std::size_t n = threshold_listeners_.size();
  for (std::size_t i = 0; i < n; ++i) {
    threshold_listeners_[i](counter, value(counter));
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

void UpcUnit::check_crossing(u8 counter, u64 before, u64 amount) {
  const CounterConfig& cfg = configs_[counter];
  if (cfg.interrupt_enable && cfg.threshold != 0 && before < cfg.threshold &&
      before + amount >= cfg.threshold) {
    fire_threshold(counter);
  }
}

void UpcUnit::signal_watched(isa::EventId id, u64 count) {
  const u8 counter = isa::event_counter(id);
  const u64 before = value(counter);
  lines_[id] += count;
  check_crossing(counter, before, count);
}

void UpcUnit::signal_level(isa::EventId id, u64 cycles_high, u64 window) {
  if (!running_ || isa::event_mode(id) != mode_) return;
  if (cycles_high > window) cycles_high = window;
  const u8 counter = isa::event_counter(id);
  const CounterConfig& cfg = configs_[counter];
  if (!cfg.enabled) return;
  u64 amount = 0;
  switch (cfg.signal) {
    case SignalMode::kLevelHigh:
      amount = cycles_high;
      break;
    case SignalMode::kLevelLow:
      amount = window - cycles_high;
      break;
    case SignalMode::kEdgeRise:
    case SignalMode::kEdgeFall:
      // An observation window in which the signal was ever asserted
      // contributes one transition.
      amount = cycles_high > 0 ? 1 : 0;
      break;
  }
  settle(counter);
  const u64 before = counters_[counter];
  counters_[counter] = (before + amount) & masks_[counter];
  check_crossing(counter, before, amount);
}

u64 UpcUnit::read(u8 counter) const { return value(check_counter(counter)); }

void UpcUnit::write(u8 counter, u64 value) {
  const u8 c = check_counter(counter);
  settle(c);
  counters_[c] = value & masks_[c];
}

std::array<u64, UpcUnit::kNumCounters> UpcUnit::snapshot() const noexcept {
  std::array<u64, kNumCounters> snap;
  for (unsigned c = 0; c < kNumCounters; ++c) {
    snap[c] = value(static_cast<u8>(c));
  }
  return snap;
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
    settle(counter);
    const CounterConfig old = configs_[counter];
    configs_[counter].threshold = value;
    refresh(counter);
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
  settle(counter);
  const CounterConfig old = configs_[counter];
  configs_[counter] = CounterConfig::decode(value);
  configs_[counter].threshold = old.threshold;  // set via threshold registers
  refresh(counter);
  maybe_fire_on_arm(counter, old);
}

}  // namespace bgp::upc
