// Model of the Blue Gene/P Universal Performance Counter (UPC) unit
// (paper §III-A): 256 64-bit counters, four counter modes of 256 events
// each, per-counter configuration registers with the paper's 2-bit
// edge/level encodings and an interrupt-enable bit, memory-mapped access to
// all counters and configuration registers, and thresholding interrupts.
//
// The unit is its node's one counter store. Every hardware model counts
// straight into it: like the hardware, it sees all 1024 event lines, and
// its counter mode picks the 256 whose counts reach the counters.
#pragma once

#include <array>
#include <functional>
#include <stdexcept>
#include <vector>

#include "isa/events.hpp"

namespace bgp::upc {

/// Counter-event signaling selection (paper §III-A encoding):
///   00 LEVEL_HIGH, 01 EDGE_RISE, 10 EDGE_FALL, 11 LEVEL_LOW.
enum class SignalMode : u8 {
  kLevelHigh = 0b00,  ///< BGP_UPC_CFG_LEVEL_HIGH
  kEdgeRise = 0b01,   ///< BGP_UPC_CFG_EDGE_RISE
  kEdgeFall = 0b10,   ///< BGP_UPC_CFG_EDGE_FALL
  kLevelLow = 0b11,   ///< BGP_UPC_CFG_LEVEL_LOW
};

/// Per-counter configuration: the 4 configuration bits of the paper
/// (2 signal-mode bits + interrupt enable; the 4th bit arms the counter)
/// plus the 64-bit threshold register.
struct CounterConfig {
  SignalMode signal = SignalMode::kEdgeRise;
  bool interrupt_enable = false;
  bool enabled = true;
  u64 threshold = 0;

  /// Pack into the low bits of a configuration word:
  /// bits [1:0] signal mode, bit 2 interrupt enable, bit 3 counter enable.
  [[nodiscard]] u32 encode() const noexcept;
  [[nodiscard]] static CounterConfig decode(u32 word) noexcept;

  bool operator==(const CounterConfig&) const = default;
};

/// Raised on programming errors (bad counter index, bad MMIO address).
class UpcError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One UPC unit (one per node).
///
/// Hardware units report activity via signal() / signal_level(). signal()
/// advances the reported line's free-running count; the counters are
/// derived from their mode's window of those counts when they are read,
/// and settled whenever the unit's state changes. So a report counts iff,
/// at that report, the unit is running, set to the event's mode, and the
/// counter is enabled with an edge signal mode.
class UpcUnit {
 public:
  static constexpr unsigned kNumCounters = isa::kCountersPerUnit;

  /// MMIO map (offsets from mmio_base): counters are 64-bit at +8*i,
  /// config words 32-bit at +kConfigOffset+4*i, thresholds 64-bit at
  /// +kThresholdOffset+8*i.
  static constexpr addr_t kDefaultMmioBase = 0x7FFF'0000;
  static constexpr addr_t kConfigOffset = 0x1000;
  static constexpr addr_t kThresholdOffset = 0x2000;
  static constexpr addr_t kMmioSpan = 0x3000;

  using ThresholdListener = std::function<void(u8 counter, u64 value)>;

  explicit UpcUnit(addr_t mmio_base = kDefaultMmioBase) noexcept;

  // -- mode / run control -----------------------------------------------
  /// Select which 256-event set the unit counts. Resets nothing.
  void set_mode(u8 mode);
  [[nodiscard]] u8 mode() const noexcept { return mode_; }

  void start() noexcept;
  void stop() noexcept;
  [[nodiscard]] bool running() const noexcept { return running_; }

  /// Zero all counters (configuration is preserved).
  void reset_counters() noexcept;
  /// Restore all configuration registers to power-on defaults.
  void reset_config() noexcept;

  // -- configuration ------------------------------------------------------
  void configure(u8 counter, const CounterConfig& cfg);
  [[nodiscard]] const CounterConfig& config(u8 counter) const;

  /// Interrupt delivery for thresholding (paper: "raising an interrupt when
  /// specific counters reach corresponding thresholds"). Listeners are
  /// called in registration order and persist for the unit's lifetime.
  void add_threshold_listener(ThresholdListener listener) {
    threshold_listeners_.push_back(std::move(listener));
  }
  [[nodiscard]] u64 threshold_interrupts() const noexcept {
    return threshold_interrupts_;
  }

  // -- event input from hardware units -------------------------------------
  /// Report `count` edge events on line `id`. Ids outside the 1024-line
  /// event space (isa::kNoEvent) and zero counts count nothing. A line
  /// whose counter is armed for a threshold interrupt in the current mode
  /// is watched: its report checks the crossing at once, so a threshold
  /// listener sees every report made before it and none after.
  void signal(isa::EventId id, u64 count = 1) {
    if (id >= isa::kNumEvents) return;
    if (watched_[id] != 0) [[unlikely]] {
      signal_watched(id, count);
      return;
    }
    lines_[id] += count;
  }

  /// Report a level signal observation: the signal was high for
  /// `cycles_high` of a `window`-cycle observation window. LEVEL_HIGH
  /// configs accumulate cycles_high, LEVEL_LOW accumulate window−cycles_high,
  /// edge configs count one rising transition if the signal was ever high.
  void signal_level(isa::EventId id, u64 cycles_high, u64 window);

  /// Every edge count line `id` has reported since construction, whatever
  /// the unit's state.
  [[nodiscard]] u64 line_count(isa::EventId id) const { return lines_.at(id); }

  // -- counter access -------------------------------------------------------
  [[nodiscard]] u64 read(u8 counter) const;
  void write(u8 counter, u64 value);

  /// Narrow a counter to `bits` wide (1..64): it wraps at 2^bits instead of
  /// 2^64. Models a defective/misconfigured counter for fault injection;
  /// reset_counters()/reset_config() do not undo it (the defect persists).
  void set_counter_width(u8 counter, unsigned bits);
  [[nodiscard]] u64 counter_mask(u8 counter) const;

  /// Snapshot of all 256 counters.
  [[nodiscard]] std::array<u64, kNumCounters> snapshot() const noexcept;

  // -- memory-mapped access -------------------------------------------------
  [[nodiscard]] addr_t mmio_base() const noexcept { return mmio_base_; }
  [[nodiscard]] bool owns_address(addr_t addr) const noexcept {
    return addr >= mmio_base_ && addr < mmio_base_ + kMmioSpan;
  }
  [[nodiscard]] u64 mmio_read64(addr_t addr) const;
  void mmio_write64(addr_t addr, u64 value);
  [[nodiscard]] u32 mmio_read32(addr_t addr) const;
  void mmio_write32(addr_t addr, u32 value);

 private:
  /// The current mode's 256 line counts.
  [[nodiscard]] const u64* window() const noexcept {
    return lines_.data() + std::size_t{mode_} * kNumCounters;
  }
  /// What `counter` holds now: its settled value plus, while it counts,
  /// what its line reported since the last settle, wrapped at its width.
  [[nodiscard]] u64 value(u8 counter) const noexcept {
    const u64 live_mask = 0 - u64{live_[counter]};  // all ones or zero
    const u64 window_reports =
        (window()[counter] - marks_[counter]) & live_mask;
    return (counters_[counter] + window_reports) & masks_[counter];
  }
  /// Fold `counter`'s window into its settled value and restart the window
  /// at its line's count. Runs before every change to the counter's state.
  void settle(u8 counter) noexcept {
    counters_[counter] = value(counter);
    marks_[counter] = window()[counter];
  }
  /// Restart `counter`'s window in the current mode and re-derive its live_
  /// and watched_ flags, after a settle() and a change of state.
  void refresh(u8 counter) noexcept;
  /// settle() / refresh() of every counter, around a change of mode or run
  /// state.
  void settle() noexcept;
  void refresh() noexcept;
  /// signal() on a watched line: count it and raise the interrupt if this
  /// report carries the counter across its threshold.
  void signal_watched(isa::EventId id, u64 count);
  /// Interrupt rule: fire when `amount` carries the counter from `before`
  /// to or past its threshold. The sum is unwrapped, so a narrowed counter
  /// crossing its threshold and its wrap in one report still fires, while
  /// a wrap that starts above the threshold does not fire again.
  void check_crossing(u8 counter, u64 before, u64 amount);
  void fire_threshold(u8 counter);
  /// A threshold (re)write that lands at or below the current count raises
  /// the interrupt immediately unless the old configuration had already
  /// observed that crossing.
  void maybe_fire_on_arm(u8 counter, const CounterConfig& old_cfg);
  [[nodiscard]] static u8 check_counter(unsigned counter);

  addr_t mmio_base_;
  u8 mode_ = 0;
  bool running_ = false;
  /// Free-running count of each event line.
  std::array<u64, isa::kNumEvents> lines_{};
  /// Counter values as of the last settle(), masked to their width.
  std::array<u64, kNumCounters> counters_{};
  /// The window's line counts at the last settle().
  std::array<u64, kNumCounters> marks_{};
  std::array<u64, kNumCounters> masks_;  ///< per-counter width mask
  std::array<CounterConfig, kNumCounters> configs_{};
  /// 1 while the counter counts its line's reports: the unit is running
  /// and the counter is enabled with an edge signal mode.
  std::array<u8, kNumCounters> live_{};
  /// Line is in the current mode and its counter is live and armed
  /// (interrupt_enable with a nonzero threshold).
  std::array<u8, isa::kNumEvents> watched_{};
  std::vector<ThresholdListener> threshold_listeners_;
  u64 threshold_interrupts_ = 0;
};

}  // namespace bgp::upc
