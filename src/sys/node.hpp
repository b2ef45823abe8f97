// One Blue Gene/P compute node (paper Fig 2): four PPC450 cores with their
// SIMD FPUs, the private L1/L2 caches, the shared L3, two DDR controllers,
// the snoop filter and the node's UPC unit. Every hardware event source
// counts straight into the UPC unit, the node's one counter store.
//
// The node's Pacer is its one periodic counter reader (paper §III): each
// consumer (the trace, the snapshot publisher) gives it a period, a bill
// and a boundary action. A node whose programmed mode counts the core-0
// cycle counter is paced by that counter's threshold interrupt, re-armed at
// the earliest consumer deadline; any other node polls the Time Base when
// the runtime pulses it (the paper's monitoring-thread pattern). A clock
// step past several boundaries gives a consumer one action spanning them.
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "cpu/core.hpp"
#include "mem/hierarchy.hpp"
#include "upc/upc_unit.hpp"

namespace bgp::sys {

/// Boot-time configuration, the moral equivalent of the paper's "svchost
/// options while booting a node" (§VIII uses them to resize the L3).
struct BootOptions {
  /// Shared L3 capacity; 0 disables the L3 entirely. Must keep the cache
  /// geometry valid (multiple of line*assoc).
  u64 l3_size_bytes = 8 * MiB;
  /// L2 stream-prefetcher settings (paper §IX: "vary the prefetch amount").
  mem::PrefetchParams prefetch{};
  /// Nodes per node card; card parity selects which half of the event space
  /// a node monitors (§IV's 512-events-in-one-run scheme).
  unsigned nodes_per_card = 2;

  bool operator==(const BootOptions&) const = default;
};

class Node;

/// The event whose counter paces an interrupt-paced node.
inline constexpr isa::EventId kPacerEvent = isa::ev::cycle_count(0);

/// Whether a node programmed to counter `mode` is paced by kPacerEvent's
/// threshold interrupt (else it polls the Time Base).
[[nodiscard]] constexpr bool interrupt_paced(u8 mode) noexcept {
  return isa::event_mode(kPacerEvent) == mode;
}

/// One periodic reader of the node's counters.
struct PacerConsumer {
  cycles_t period = 0;  ///< boundary spacing in clock cycles, > 0
  cycles_t bill = 0;    ///< modeled cycles per action
  std::function<void()> on_start;  ///< optional: where the grid begins
  /// The clock passed boundaries from + 1 .. to (counted from start()).
  std::function<void(u64 from, u64 to)> on_boundary;
};

/// The node's one periodic counter reader (see the file comment).
class Pacer {
 public:
  explicit Pacer(Node& node) noexcept : node_(node) {}
  /// The UPC unit's threshold listener keeps `this`.
  Pacer(const Pacer&) = delete;
  Pacer& operator=(const Pacer&) = delete;

  /// Register before start(); the pacer keeps the actions until stop().
  void add(PacerConsumer consumer);
  /// BGP_Start: pick the clock by the programmed mode, start every grid at
  /// its value, run each on_start and arm the threshold at the earliest
  /// deadline. Idempotent; a no-op without consumers.
  void start();
  /// The node's counting is over: a final catch-up, then disarm and drop
  /// every consumer. Idempotent.
  void stop();
  /// Instrumentation-point pulse: close every boundary the clock passed,
  /// then hand over the bills accrued since the last pulse. One branch
  /// while the pacer is idle.
  cycles_t pulse() {
    if (!started_) return 0;
    poll();
    return std::exchange(bill_, 0);
  }

 private:
  static constexpr u8 kCounter = isa::event_counter(kPacerEvent);

  /// Catch up unless mid-action or the counters are stopped.
  void poll();
  void advance();
  [[nodiscard]] cycles_t clock() const;
  /// Origin plus the earliest boundary a consumer has not closed.
  [[nodiscard]] cycles_t next_due() const;

  Node& node_;
  std::vector<PacerConsumer> consumers_;
  std::vector<u64> closed_;  ///< boundaries closed, per consumer
  bool started_ = false;
  bool counter_clock_ = false;  ///< interrupt-paced (else Time Base)
  bool in_advance_ = false;     ///< reentrancy guard
  cycles_t origin_ = 0;
  cycles_t bill_ = 0;  ///< accrued since the last pulse
};

/// One compute node.
class Node {
 public:
  Node(unsigned id, const BootOptions& boot = {});
  // The memory system and the cores hold the address of upc_.
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  [[nodiscard]] unsigned id() const noexcept { return id_; }
  [[nodiscard]] unsigned card_id() const noexcept {
    return id_ / boot_.nodes_per_card;
  }
  /// Even-numbered node cards monitor the first half of the event space
  /// (modes 0-1), odd cards the second half (modes 2-3) — or whichever
  /// split the interface library programs.
  [[nodiscard]] bool even_card() const noexcept { return card_id() % 2 == 0; }

  [[nodiscard]] upc::UpcUnit& upc() noexcept { return upc_; }
  [[nodiscard]] const upc::UpcUnit& upc() const noexcept { return upc_; }
  [[nodiscard]] mem::MemoryHierarchy& memory() noexcept { return *mem_; }
  [[nodiscard]] const mem::MemoryHierarchy& memory() const noexcept {
    return *mem_;
  }
  [[nodiscard]] cpu::Core& core(unsigned i) { return *cores_.at(i); }
  [[nodiscard]] const cpu::Core& core(unsigned i) const {
    return *cores_.at(i);
  }
  [[nodiscard]] const BootOptions& boot() const noexcept { return boot_; }

  /// Node Time Base: the maximum core clock (cores are kept loosely in sync
  /// by the runtime; TB is globally synchronized on real hardware).
  [[nodiscard]] cycles_t timebase() const noexcept;

  /// The runtime pulses it at instrumentation points.
  [[nodiscard]] Pacer& pacer() noexcept { return pacer_; }

 private:
  unsigned id_;
  BootOptions boot_;
  upc::UpcUnit upc_;
  Pacer pacer_{*this};
  std::unique_ptr<mem::MemoryHierarchy> mem_;
  std::array<std::unique_ptr<cpu::Core>, isa::kCoresPerNode> cores_;
};

}  // namespace bgp::sys
