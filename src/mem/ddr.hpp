// Off-chip DDR2 model: two independent controllers, line-interleaved, each a
// FCFS bandwidth server with a base access latency. Queueing at the
// controllers is what produces the paper's Fig 12/13 behaviour: four cores
// in Virtual Node Mode contend for the same two controllers and see both
// more traffic and longer effective latency.
#pragma once

#include <array>
#include <cmath>
#include <memory>

#include "mem/cache.hpp"

namespace bgp::mem {

struct DdrParams {
  /// Uncontended access latency in core cycles (row activation + transfer
  /// start); BG/P DDR2 latency is on the order of 100 core cycles.
  cycles_t base_latency = 104;
  /// Controller streaming bandwidth in bytes per core cycle. The two BG/P
  /// controllers together deliver 13.6 GB/s at an 850 MHz core clock:
  /// 16 B/cycle total, 8 per controller.
  double bytes_per_cycle = 8.0;
  /// Transfer granularity (the L3 line size); a power of two.
  u32 line_bytes = 128;
  /// Cap on modelled queueing delay, as a multiple of the service time, to
  /// keep transient inter-core time skew from exploding the model.
  u32 max_queue_services = 64;
};

/// UPC event wiring for a DdrController.
struct DdrEventIds {
  isa::EventId read_req = isa::kNoEvent;
  isa::EventId write_req = isa::kNoEvent;
  isa::EventId bytes_read_16b = isa::kNoEvent;
  isa::EventId bytes_written_16b = isa::kNoEvent;
  isa::EventId busy_cycles = isa::kNoEvent;
  isa::EventId queue_stall_cycles = isa::kNoEvent;
};

/// One DDR controller.
class DdrController final : public MemLevel {
 public:
  using EventIds = DdrEventIds;

  /// Events count into `upc`, the node's UPC unit.
  DdrController(const DdrParams& params, upc::UpcUnit& upc,
                const EventIds& events) noexcept
      : params_(params),
        upc_(upc),
        events_(events),
        service_(static_cast<cycles_t>(
            std::llround(params.line_bytes / params.bytes_per_cycle))) {}

  AccessResult access(addr_t addr, AccessType type, unsigned core,
                      cycles_t now) override;

 private:
  DdrParams params_;
  upc::UpcUnit& upc_;
  EventIds events_;
  cycles_t service_;  ///< cycles to stream one line
  cycles_t busy_until_ = 0;
};

/// The pair of controllers, interleaved by line address; controller i
/// counts into the DDR<i> event lines of `upc`.
class DdrSystem final : public MemLevel {
 public:
  DdrSystem(const DdrParams& params, upc::UpcUnit& upc);

  AccessResult access(addr_t addr, AccessType type, unsigned core,
                      cycles_t now) override {
    const auto ctrl = static_cast<std::size_t>(addr >> line_shift_);
    return ctrls_[ctrl % ctrls_.size()]->access(addr, type, core, now);
  }

 private:
  u32 line_shift_;
  std::array<std::unique_ptr<DdrController>, isa::kNumDdrControllers> ctrls_;
};

}  // namespace bgp::mem
