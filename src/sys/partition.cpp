#include "sys/partition.hpp"

#include <stdexcept>

#include "common/strfmt.hpp"

namespace bgp::sys {

Partition::Partition(unsigned num_nodes, OpMode mode, const BootOptions& boot)
    : mode_(mode), boot_(boot) {
  if (num_nodes == 0) {
    throw std::invalid_argument("partition needs at least one node");
  }
  nodes_.reserve(num_nodes);
  for (unsigned i = 0; i < num_nodes; ++i) {
    nodes_.push_back(std::make_unique<Node>(i, boot));
  }
  torus_ = std::make_unique<net::Torus>(net::Shape::for_nodes(num_nodes));
  coll_ = std::make_unique<net::CollectiveNet>(num_nodes);
  barrier_ = std::make_unique<net::BarrierNet>(num_nodes);
  for (unsigned i = 0; i < num_nodes; ++i) {
    torus_->attach_upc(i, &nodes_[i]->upc());
    coll_->attach_upc(i, &nodes_[i]->upc());
    barrier_->attach_upc(i, &nodes_[i]->upc());
  }
}

Placement Partition::placement(unsigned rank) const {
  const unsigned ppn = processes_per_node(mode_);
  if (rank >= num_ranks()) {
    throw std::out_of_range(
        strfmt("rank %u out of range (%u ranks)", rank, num_ranks()));
  }
  return Placement{rank / ppn, first_core_of_process(mode_, rank % ppn)};
}

}  // namespace bgp::sys
