// One Blue Gene/P compute node (paper Fig 2): four PPC450 cores with their
// SIMD FPUs, the private L1/L2 caches, the shared L3, two DDR controllers,
// the snoop filter and the node's UPC unit. Every hardware event source
// counts straight into the UPC unit, the node's one counter store.
#pragma once

#include <array>
#include <functional>
#include <memory>
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

  /// Instrumentation pulse hook: monitoring agents (the trace::NodeTracer,
  /// the snapshot publisher) register here and the runtime pulses the node
  /// at instrumentation points (loop boundaries). Each hook returns the
  /// modeled overhead in cycles the pulsing core must absorb (0 when
  /// nothing was due); multiple agents stack and their overheads add.
  using PulseHook = std::function<cycles_t(cycles_t now)>;
  /// Register an agent without displacing the ones already installed (the
  /// tracer and the snapshot publisher coexist).
  void add_pulse_hook(PulseHook hook) {
    if (hook) pulse_hooks_.push_back(std::move(hook));
  }
  [[nodiscard]] bool has_pulse_hook() const noexcept {
    return !pulse_hooks_.empty();
  }
  /// Deliver a pulse; cheap no-op when no hook is installed.
  cycles_t pulse(cycles_t now) {
    cycles_t overhead = 0;
    for (auto& hook : pulse_hooks_) overhead += hook(now);
    return overhead;
  }

 private:
  unsigned id_;
  BootOptions boot_;
  upc::UpcUnit upc_;
  std::vector<PulseHook> pulse_hooks_;
  std::unique_ptr<mem::MemoryHierarchy> mem_;
  std::array<std::unique_ptr<cpu::Core>, isa::kCoresPerNode> cores_;
};

}  // namespace bgp::sys
