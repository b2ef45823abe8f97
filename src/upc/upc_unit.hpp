// Model of the Blue Gene/P Universal Performance Counter (UPC) unit
// (paper §III-A): 256 64-bit counters, four counter modes of 256 events
// each, per-counter configuration registers with the paper's 2-bit
// edge/level encodings and an interrupt-enable bit, memory-mapped access to
// all counters and configuration registers, and thresholding interrupts.
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
/// Hardware units report activity via signal_batch() / signal_level();
/// whether a given report increments a physical counter depends on the
/// unit's counter mode, the counter's enable bit and its signal-mode
/// configuration.
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

  using ThresholdHandler = std::function<void(u8 counter, u64 value)>;

  explicit UpcUnit(addr_t mmio_base = kDefaultMmioBase) noexcept;

  // -- mode / run control -----------------------------------------------
  /// Select which 256-event set the unit counts. Resets nothing.
  void set_mode(u8 mode);
  [[nodiscard]] u8 mode() const noexcept { return mode_; }

  void start() noexcept { running_ = true; }
  void stop() noexcept { running_ = false; }
  [[nodiscard]] bool running() const noexcept { return running_; }

  /// Zero all counters (configuration is preserved).
  void reset_counters() noexcept;
  /// Restore all configuration registers to power-on defaults.
  void reset_config() noexcept;

  // -- configuration ------------------------------------------------------
  void configure(u8 counter, const CounterConfig& cfg);
  [[nodiscard]] const CounterConfig& config(u8 counter) const;

  /// Interrupt delivery for thresholding (paper: "raising an interrupt when
  /// specific counters reach corresponding thresholds").
  void set_threshold_handler(ThresholdHandler handler) {
    threshold_handler_ = std::move(handler);
  }
  /// Additional interrupt subscribers (the sampling layer taps the same
  /// line without displacing the user's handler). Listeners fire after the
  /// handler, in registration order, and persist for the unit's lifetime.
  void add_threshold_listener(ThresholdHandler listener) {
    threshold_listeners_.push_back(std::move(listener));
  }
  [[nodiscard]] u64 threshold_interrupts() const noexcept {
    return threshold_interrupts_;
  }

  // -- event input from hardware units -------------------------------------
  /// Report a batch of edge events in one call, entry by entry in order.
  /// An entry is counted iff the unit is running, set to the event's mode,
  /// and the counter is enabled and configured for an edge signal mode, at
  /// that entry: a threshold handler that stops the unit or switches its
  /// mode mid-batch acts on the entries after it, so a batch counts
  /// exactly as the same reports one by one. Every event source reaches
  /// the unit through here (sys::Node's sink).
  void signal_batch(const isa::EventCount* batch, std::size_t n);

  /// Report `count` edge events for `id`: a one-entry signal_batch().
  void signal(isa::EventId id, u64 count = 1);

  /// Report a level signal observation: the signal was high for
  /// `cycles_high` of a `window`-cycle observation window. LEVEL_HIGH
  /// configs accumulate cycles_high, LEVEL_LOW accumulate window−cycles_high,
  /// edge configs count one rising transition if the signal was ever high.
  void signal_level(isa::EventId id, u64 cycles_high, u64 window);

  // -- counter access -------------------------------------------------------
  [[nodiscard]] u64 read(u8 counter) const;
  void write(u8 counter, u64 value);

  /// Narrow a counter to `bits` wide (1..64): it wraps at 2^bits instead of
  /// 2^64. Models a defective/misconfigured counter for fault injection;
  /// reset_counters()/reset_config() do not undo it (the defect persists).
  void set_counter_width(u8 counter, unsigned bits);
  [[nodiscard]] u64 counter_mask(u8 counter) const;

  /// Snapshot of all 256 counters.
  [[nodiscard]] std::array<u64, kNumCounters> snapshot() const noexcept {
    return counters_;
  }

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
  void bump(u8 counter, u64 amount);
  /// signal_batch() with a threshold armed. Kept out of line so the
  /// interrupt-free loop stays a leaf call that pays no register spills
  /// for the bump() path it does not take.
  [[gnu::noinline]] void signal_armed(const isa::EventCount* batch,
                                      std::size_t n);
  void fire_threshold(u8 counter);
  /// A threshold (re)write that lands at or below the current count raises
  /// the interrupt immediately unless the old configuration had already
  /// observed that crossing.
  void maybe_fire_on_arm(u8 counter, const CounterConfig& old_cfg);
  /// Recompute the per-counter fast-path flags below after any config or
  /// threshold write (cold; the writes all happen at set-up time).
  void refresh_derived() noexcept;
  [[nodiscard]] static u8 check_counter(unsigned counter);

  addr_t mmio_base_;
  u8 mode_ = 0;
  bool running_ = false;
  std::array<u64, kNumCounters> counters_{};
  std::array<u64, kNumCounters> masks_;  ///< per-counter width mask
  std::array<CounterConfig, kNumCounters> configs_{};
  /// Derived from configs_: counter is enabled with an edge signal mode,
  /// i.e. a signal_batch() report lands in it. Lets the batch loop reduce
  /// a countable entry to one masked add.
  std::array<u8, kNumCounters> edge_countable_{};
  /// Counters whose config could fire a threshold interrupt
  /// (interrupt_enable with a nonzero threshold). Zero on every shipped
  /// configuration that does not arm thresholds, which unlocks the
  /// interrupt-free batch loop.
  unsigned armed_thresholds_ = 0;
  ThresholdHandler threshold_handler_;
  std::vector<ThresholdHandler> threshold_listeners_;
  u64 threshold_interrupts_ = 0;
};

}  // namespace bgp::upc
