#include "sys/node.hpp"

namespace bgp::sys {

Node::Node(unsigned id, const BootOptions& boot)
    : id_(id), boot_(boot) {
  mem::HierarchyParams hp;
  hp.l3_size_bytes = boot.l3_size_bytes;
  hp.prefetch = boot.prefetch;
  mem_ = std::make_unique<mem::MemoryHierarchy>(hp, &upc_);
  for (unsigned c = 0; c < isa::kCoresPerNode; ++c) {
    cores_[c] = std::make_unique<cpu::Core>(c, cpu::CoreParams{}, &upc_);
  }
}

cycles_t Node::timebase() const noexcept {
  cycles_t t = 0;
  for (const auto& c : cores_) {
    t = std::max(t, c->now());
  }
  return t;
}

}  // namespace bgp::sys
