#include "mem/ddr.hpp"

#include <algorithm>
#include <bit>

namespace bgp::mem {

AccessResult DdrController::access(addr_t, AccessType type, unsigned,
                                   cycles_t now) {
  const cycles_t start = std::max(now, busy_until_);
  cycles_t queue_wait = start - now;
  queue_wait = std::min<cycles_t>(queue_wait,
                                  u64{params_.max_queue_services} * service_);
  busy_until_ = start + service_;

  upc_.signal(events_.busy_cycles, service_);
  upc_.signal(events_.queue_stall_cycles, queue_wait);

  if (type == AccessType::kRead) {
    upc_.signal(events_.read_req);
    upc_.signal(events_.bytes_read_16b, params_.line_bytes / 16);
  } else {
    upc_.signal(events_.write_req);
    upc_.signal(events_.bytes_written_16b, params_.line_bytes / 16);
  }

  const cycles_t latency =
      (type == AccessType::kRead) ? queue_wait + params_.base_latency + service_
                                  // Writes are posted; only queue pressure
                                  // shows up on the requester's path.
                                  : std::min<cycles_t>(queue_wait, service_);
  return {latency, /*serviced_by=*/4};
}

DdrSystem::DdrSystem(const DdrParams& params, upc::UpcUnit& upc)
    : line_shift_(static_cast<u32>(std::countr_zero(params.line_bytes))) {
  for (unsigned i = 0; i < isa::kNumDdrControllers; ++i) {
    DdrController::EventIds ids{
        .read_req = isa::ev::ddr(i, isa::DdrEvent::kReadReq),
        .write_req = isa::ev::ddr(i, isa::DdrEvent::kWriteReq),
        .bytes_read_16b = isa::ev::ddr(i, isa::DdrEvent::kBytesRead16B),
        .bytes_written_16b = isa::ev::ddr(i, isa::DdrEvent::kBytesWritten16B),
        .busy_cycles = isa::ev::ddr(i, isa::DdrEvent::kBusyCycles),
        .queue_stall_cycles = isa::ev::ddr(i, isa::DdrEvent::kQueueStallCycles),
    };
    ctrls_[i] = std::make_unique<DdrController>(params, upc, ids);
  }
}

}  // namespace bgp::mem
