// Snapshot publisher: periodically copies each node's UPC counters (and
// optionally a metrics registry's Prometheus exposition) into the session's
// snapshot file. Pacing runs on the *simulated* timeline through the node
// pulse-hook mechanism — the same instrumentation points the node's tracer
// uses — so each publication bills a modeled overhead to the pulsing core
// and the run stays deterministic: two runs with the same options publish
// at the same cycles and dump identical bytes.
//
// Thread safety: a node's pulse hook only ever runs on the thread currently
// executing that node (the scheduler runs one rank per node at a time), so
// per-node publisher state needs no locks and reading the node's plain
// counter array is race-free. Cross-thread publication into the mmap goes
// through SnapshotWriter's seqlocked slots.
#pragma once

#include <atomic>
#include <memory>
#include <vector>

#include "daemon/snapfile.hpp"
#include "runtime/machine.hpp"

namespace bgp::obs {
class Histogram;
class MetricsRegistry;
}

namespace bgp::daemon {

/// Modeled cost billed to the pulsing core per publication: cheaper than a
/// trace sample, since the seqlocked double-buffer write has no ring push
/// or drain. bench/tab_overhead holds it to the 96-cycle per-publication
/// budget of docs/bgpcd.md, the trace sample's budget.
inline constexpr cycles_t kSnapshotOverheadCycles = 48;

struct PublisherConfig {
  /// Publication period in simulated cycles (0 = no periodic publishing;
  /// publish_final still writes the end-of-run snapshot). 500 us of
  /// simulated time by default — frequent enough for live attach, ~200
  /// snapshots over a class-A CG run.
  cycles_t period_cycles = 425'000;
  /// Optional daemon fault injector (torn-publish crash simulation);
  /// forwarded to the SnapshotWriter. Not owned.
  fault::DaemonFaultInjector* faults = nullptr;
  /// Optional host-latency histogram: the real (steady-clock) seconds one
  /// seqlocked publication takes. Purely host-side — the simulated cost
  /// stays kSnapshotOverheadCycles and the timeline is unchanged. Not owned.
  obs::Histogram* host_publish_seconds = nullptr;
};

class SnapshotPublisher {
 public:
  /// Creates the snapshot file and installs a pulse hook on every node of
  /// `machine`'s partition. The publisher must outlive the machine's run.
  SnapshotPublisher(rt::Machine& machine, const std::filesystem::path& path,
                    const std::string& app, const std::string& session,
                    const PublisherConfig& config = {});

  /// Attach a metrics registry whose Prometheus exposition is published
  /// alongside node 0's counters (and at publish_final). Not owned; call
  /// before the run starts.
  void set_metrics_source(const obs::MetricsRegistry* reg) noexcept {
    metrics_ = reg;
  }

  /// Publish every node's final counter state (state = kFinal). Call after
  /// Machine::run() returned or threw; bills nothing (the run is over).
  void publish_final();

  [[nodiscard]] const SnapshotWriter& writer() const noexcept {
    return *writer_;
  }
  /// Total periodic publications so far (all nodes).
  [[nodiscard]] u64 publishes() const noexcept {
    return publishes_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] const PublisherConfig& config() const noexcept {
    return config_;
  }

 private:
  cycles_t on_pulse(unsigned node, cycles_t now);
  void publish_node_now(unsigned node, SnapState state, cycles_t now);

  rt::Machine& machine_;
  PublisherConfig config_;
  std::unique_ptr<SnapshotWriter> writer_;
  const obs::MetricsRegistry* metrics_ = nullptr;
  /// Next publication deadline per node; only the node's executing thread
  /// touches its entry.
  std::vector<cycles_t> next_due_;
  std::atomic<u64> publishes_{0};
};

}  // namespace bgp::daemon
