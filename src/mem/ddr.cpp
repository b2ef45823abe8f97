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

  stats_.busy_cycles += service_;
  stats_.queue_stall_cycles += queue_wait;
  report(events_.busy_cycles, service_);
  report(events_.queue_stall_cycles, queue_wait);

  if (type == AccessType::kRead) {
    ++stats_.read_reqs;
    stats_.bytes_read += params_.line_bytes;
    report(events_.read_req, 1);
    report(events_.bytes_read_16b, params_.line_bytes / 16);
  } else {
    ++stats_.write_reqs;
    stats_.bytes_written += params_.line_bytes;
    report(events_.write_req, 1);
    report(events_.bytes_written_16b, params_.line_bytes / 16);
  }

  const cycles_t latency =
      (type == AccessType::kRead) ? queue_wait + params_.base_latency + service_
                                  // Writes are posted; only queue pressure
                                  // shows up on the requester's path.
                                  : std::min<cycles_t>(queue_wait, service_);
  return {latency, /*serviced_by=*/4};
}

DdrSystem::DdrSystem(const DdrParams& params, upc::UpcUnit* upc)
    : MemLevel(upc),
      line_shift_(static_cast<u32>(std::countr_zero(params.line_bytes))) {
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

DdrStats DdrSystem::total() const noexcept {
  DdrStats t;
  for (const auto& c : ctrls_) {
    const DdrStats& s = c->stats();
    t.read_reqs += s.read_reqs;
    t.write_reqs += s.write_reqs;
    t.bytes_read += s.bytes_read;
    t.bytes_written += s.bytes_written;
    t.busy_cycles += s.busy_cycles;
    t.queue_stall_cycles += s.queue_stall_cycles;
  }
  return t;
}

}  // namespace bgp::mem
