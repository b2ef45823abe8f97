// A partition: a set of nodes booted together in one operating mode, with
// the torus / collective / barrier networks wired to every node's UPC unit,
// and the rank → (node, core) placement for the selected mode.
#pragma once

#include <memory>
#include <vector>

#include "net/collective.hpp"
#include "net/torus.hpp"
#include "sys/mode.hpp"
#include "sys/node.hpp"

namespace bgp::sys {

/// Placement of an MPI rank.
struct Placement {
  unsigned node = 0;
  unsigned core = 0;  ///< first core of the owning process
};

class Partition {
 public:
  Partition(unsigned num_nodes, OpMode mode, const BootOptions& boot = {});

  [[nodiscard]] unsigned num_nodes() const noexcept {
    return static_cast<unsigned>(nodes_.size());
  }
  [[nodiscard]] OpMode mode() const noexcept { return mode_; }
  [[nodiscard]] const BootOptions& boot() const noexcept { return boot_; }

  /// Total MPI ranks the partition hosts in its mode.
  [[nodiscard]] unsigned num_ranks() const noexcept {
    return num_nodes() * processes_per_node(mode_);
  }

  /// Block placement: rank r lives on node r / ppn, process r % ppn.
  [[nodiscard]] Placement placement(unsigned rank) const;

  [[nodiscard]] Node& node(unsigned i) { return *nodes_.at(i); }
  [[nodiscard]] const Node& node(unsigned i) const { return *nodes_.at(i); }

  [[nodiscard]] net::Torus& torus() noexcept { return *torus_; }
  [[nodiscard]] net::CollectiveNet& collective() noexcept { return *coll_; }
  [[nodiscard]] net::BarrierNet& barrier_net() noexcept { return *barrier_; }

 private:
  OpMode mode_;
  BootOptions boot_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::unique_ptr<net::Torus> torus_;
  std::unique_ptr<net::CollectiveNet> coll_;
  std::unique_ptr<net::BarrierNet> barrier_;
};

}  // namespace bgp::sys
