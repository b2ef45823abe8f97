#include "net/collective.hpp"

#include <bit>
#include <cmath>

#include "obs/obs.hpp"

namespace bgp::net {

namespace ev = isa::ev;

CollectiveNet::CollectiveNet(unsigned nodes, const CollectiveParams& params)
    : params_(params), upcs_(nodes, nullptr) {}

unsigned CollectiveNet::depth() const noexcept { return depth_for(nodes()); }

unsigned CollectiveNet::depth_for(unsigned live) noexcept {
  if (live <= 1) return 0;
  return static_cast<unsigned>(std::bit_width(live - 1));  // ceil(log2)
}

cycles_t CollectiveNet::op_cycles(u64 bytes) const {
  return op_cycles_live(bytes, nodes());
}

cycles_t CollectiveNet::op_cycles_live(u64 bytes, unsigned live) const {
  const auto serialization = static_cast<cycles_t>(
      std::llround(static_cast<double>(bytes) / params_.bytes_per_cycle));
  return params_.sw_overhead +
         cycles_t{depth_for(live)} * params_.level_latency + serialization;
}

void CollectiveNet::attach_upc(unsigned node, upc::UpcUnit* upc) {
  upcs_.at(node) = upc;
}

void CollectiveNet::record_operation(u64 bytes, cycles_t latency) {
  if (auto* fr = obs::recorder()) {
    fr->wk().coll_ops->add(1);
    fr->wk().coll_bytes->add(bytes);
  }
  const u64 chunks32 = (bytes + 31) / 32;
  for (upc::UpcUnit* u : upcs_) {
    if (u == nullptr) continue;
    u->signal(ev::collective(isa::CollectiveEvent::kOperations), 1);
    u->signal(ev::collective(isa::CollectiveEvent::kBytes32B), chunks32);
    u->signal(ev::collective(isa::CollectiveEvent::kLatencyCycles), latency);
  }
}

BarrierNet::BarrierNet(unsigned nodes, const BarrierParams& params)
    : nodes_(nodes), params_(params), upcs_(nodes, nullptr) {}

cycles_t BarrierNet::barrier_cycles() const noexcept {
  return barrier_cycles_live(nodes_);
}

cycles_t BarrierNet::barrier_cycles_live(unsigned live) const noexcept {
  if (live <= 1) return params_.base_latency;
  const auto levels = static_cast<cycles_t>(std::bit_width(live - 1));
  return params_.base_latency + levels * params_.per_level_latency;
}

void BarrierNet::attach_upc(unsigned node, upc::UpcUnit* upc) {
  upcs_.at(node) = upc;
}

void BarrierNet::record_barrier(cycles_t wait_cycles_total) {
  if (auto* fr = obs::recorder()) {
    fr->wk().barrier_entries->add(1);
  }
  const u64 per_node =
      upcs_.empty() ? 0 : wait_cycles_total / upcs_.size();
  for (upc::UpcUnit* u : upcs_) {
    if (u == nullptr) continue;
    u->signal(ev::barrier(isa::BarrierEvent::kEntries), 1);
    u->signal(ev::barrier(isa::BarrierEvent::kWaitCycles), per_node);
  }
}

}  // namespace bgp::net
