// Snapshot publisher: copies each node's UPC counters (and the session's
// flight-recorder metrics, when it has one) into the session's snapshot
// file. Periodic publication is one consumer of each node's pacer
// (sys::Pacer), so it runs on the trace's clock from BGP_Start, bills a
// modeled overhead to the node and stays deterministic: two runs with the
// same options publish at the same cycles and dump identical bytes. A
// node's pacer acts only on the thread executing that node; across threads
// the mmap is published through SnapshotWriter's seqlocked slots.
#pragma once

#include <atomic>
#include <memory>

#include "core/session.hpp"
#include "daemon/snapfile.hpp"

namespace bgp::obs {
class Histogram;
}

namespace bgp::daemon {

/// Modeled cost billed to the node per publication, one seqlocked
/// double-buffer write. bench/tab_overhead holds it to the 96-cycle
/// per-publication budget of docs/bgpcd.md, the trace sample's budget.
inline constexpr cycles_t kSnapshotOverheadCycles = 48;

struct PublisherConfig {
  /// Publication period in cycles of the node's pacer clock, from
  /// BGP_Start (0 = only publish_final's end-of-run snapshot). 500 us of
  /// simulated time by default: ~200 snapshots over a class-A CG run.
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
  /// Creates the snapshot file, labelled with the session's app name and
  /// `session_name`, and with a nonzero period joins the pacer of every
  /// node of the session's machine. Construct before the run starts; the
  /// pacers keep `this` until publish_final stops them.
  SnapshotPublisher(pc::Session& session, const std::filesystem::path& path,
                    const std::string& session_name,
                    const PublisherConfig& config = {});
  SnapshotPublisher(const SnapshotPublisher&) = delete;
  SnapshotPublisher& operator=(const SnapshotPublisher&) = delete;

  /// Stop every node's pacer and publish its final counter state (state =
  /// kFinal). Call after Machine::run() returned or threw; bills nothing
  /// (the run is over).
  void publish_final();

  /// Total periodic publications so far (all nodes).
  [[nodiscard]] u64 publishes() const noexcept {
    return publishes_.load(std::memory_order_relaxed);
  }

 private:
  /// One node's counters; node 0 also publishes the session's
  /// flight-recorder metrics, when it has a recorder.
  void publish(unsigned node, SnapState state);

  pc::Session& session_;
  PublisherConfig config_;
  std::unique_ptr<SnapshotWriter> writer_;
  std::atomic<u64> publishes_{0};
};

}  // namespace bgp::daemon
