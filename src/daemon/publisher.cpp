#include "daemon/publisher.hpp"

#include "obs/host_clock.hpp"
#include "obs/promtext.hpp"

namespace bgp::daemon {

SnapshotPublisher::SnapshotPublisher(pc::Session& session,
                                     const std::filesystem::path& path,
                                     const std::string& session_name,
                                     const PublisherConfig& config)
    : session_(session), config_(config) {
  sys::Partition& part = session.machine().partition();
  writer_ = std::make_unique<SnapshotWriter>(
      path, session.options().app_name, session_name, part.num_nodes(),
      kSnapMetricsCapacity, config.faults);
  if (config_.period_cycles == 0) return;  // final-only snapshots
  for (unsigned node = 0; node < part.num_nodes(); ++node) {
    part.node(node).pacer().add(
        {config_.period_cycles, kSnapshotOverheadCycles, nullptr,
         [this, node](u64, u64) { publish(node, SnapState::kCounting); }});
  }
}

void SnapshotPublisher::publish(unsigned node, SnapState state) {
  const obs::ScopedHostTimer host_cost(config_.host_publish_seconds);
  sys::Node& n = session_.machine().partition().node(node);
  const auto& upc = n.upc();
  writer_->publish_node(node, n.id(), n.card_id(), upc.mode(), state,
                        n.timebase(), upc.snapshot());
  if (state == SnapState::kCounting) {
    publishes_.fetch_add(1, std::memory_order_relaxed);
  }
  obs::FlightRecorder* fr = session_.flight_recorder();
  if (node == 0 && fr != nullptr) {
    writer_->publish_metrics(obs::render_prometheus(fr->metrics()));
  }
}

void SnapshotPublisher::publish_final() {
  sys::Partition& part = session_.machine().partition();
  for (unsigned node = 0; node < part.num_nodes(); ++node) {
    part.node(node).pacer().stop();
    publish(node, SnapState::kFinal);
  }
}

}  // namespace bgp::daemon
