#include "daemon/publisher.hpp"

#include "obs/host_clock.hpp"
#include "obs/promtext.hpp"
#include "sys/node.hpp"

namespace bgp::daemon {

SnapshotPublisher::SnapshotPublisher(rt::Machine& machine,
                                     const std::filesystem::path& path,
                                     const std::string& app,
                                     const std::string& session,
                                     const PublisherConfig& config)
    : machine_(machine), config_(config) {
  const unsigned n = machine.partition().num_nodes();
  writer_ = std::make_unique<SnapshotWriter>(path, app, session, n,
                                             kSnapMetricsCapacity,
                                             config.faults);
  next_due_.assign(n, config_.period_cycles);
  if (config_.period_cycles == 0) return;  // final-only snapshots
  for (unsigned node = 0; node < n; ++node) {
    machine.partition().node(node).add_pulse_hook(
        [this, node](cycles_t now) { return on_pulse(node, now); });
  }
}

cycles_t SnapshotPublisher::on_pulse(unsigned node, cycles_t now) {
  if (now < next_due_[node]) return 0;
  // Publish once per pulse no matter how many periods elapsed (a long
  // compute segment skips deadlines, exactly like the node tracer's
  // catch-up), then re-arm at the next period boundary after `now`.
  publish_node_now(node, SnapState::kCounting, now);
  next_due_[node] = (now / config_.period_cycles + 1) * config_.period_cycles;
  publishes_.fetch_add(1, std::memory_order_relaxed);
  return kSnapshotOverheadCycles;
}

void SnapshotPublisher::publish_node_now(unsigned node, SnapState state,
                                         cycles_t now) {
  const obs::ScopedHostTimer host_cost(config_.host_publish_seconds);
  sys::Node& n = machine_.partition().node(node);
  const auto& upc = n.upc();
  const SnapState st =
      state == SnapState::kCounting && !upc.running() ? SnapState::kIdle
                                                      : state;
  writer_->publish_node(node, n.id(), n.card_id(), upc.mode(), st, now,
                        upc.snapshot());
  if (node == 0 && metrics_ != nullptr) {
    writer_->publish_metrics(obs::render_prometheus(*metrics_));
  }
}

void SnapshotPublisher::publish_final() {
  for (unsigned node = 0; node < machine_.partition().num_nodes(); ++node) {
    publish_node_now(node, SnapState::kFinal, machine_.node_time(node));
  }
  if (metrics_ != nullptr) {
    writer_->publish_metrics(obs::render_prometheus(*metrics_));
  }
}

}  // namespace bgp::daemon
