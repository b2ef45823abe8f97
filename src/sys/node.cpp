#include "sys/node.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace bgp::sys {

Node::Node(unsigned id, const BootOptions& boot)
    : id_(id), boot_(boot) {
  mem::HierarchyParams hp;
  hp.l3_size_bytes = boot.l3_size_bytes;
  hp.prefetch = boot.prefetch;
  mem_ = std::make_unique<mem::MemoryHierarchy>(hp, upc_);
  for (unsigned c = 0; c < isa::kCoresPerNode; ++c) {
    cores_[c] = std::make_unique<cpu::Core>(c, cpu::CoreParams{}, upc_);
  }
}

cycles_t Node::timebase() const noexcept {
  cycles_t t = 0;
  for (const auto& c : cores_) {
    t = std::max(t, c->now());
  }
  return t;
}

void Pacer::add(PacerConsumer consumer) {
  if (started_) throw std::logic_error("pacer consumer added after start");
  consumers_.push_back(std::move(consumer));
  closed_.push_back(0);
}

void Pacer::start() {
  if (started_ || consumers_.empty()) return;
  started_ = true;
  counter_clock_ = interrupt_paced(node_.upc().mode());
  origin_ = clock();
  for (const PacerConsumer& c : consumers_) {
    if (c.on_start) c.on_start();
  }
  if (!counter_clock_) return;
  auto& upc = node_.upc();
  upc.add_threshold_listener([this](u8 counter, u64 /*value*/) {
    if (counter == kCounter && !in_advance_) advance();
  });
  upc::CounterConfig cfg = upc.config(kCounter);
  cfg.interrupt_enable = true;
  cfg.threshold = next_due();
  upc.configure(kCounter, cfg);
}

void Pacer::stop() {
  if (started_ && !consumers_.empty()) {
    poll();  // the tail past the last boundary is dropped
    if (counter_clock_) {
      auto& upc = node_.upc();
      upc::CounterConfig cfg = upc.config(kCounter);
      cfg.interrupt_enable = false;
      cfg.threshold = 0;
      upc.configure(kCounter, cfg);
    }
  }
  consumers_.clear();
  closed_.clear();
}

void Pacer::poll() {
  if (in_advance_ || !node_.upc().running()) return;
  advance();
}

void Pacer::advance() {
  const cycles_t elapsed = clock() - origin_;
  in_advance_ = true;
  const struct Reset {
    bool& flag;
    ~Reset() { flag = false; }
  } reset{in_advance_};
  bool closed_any = false;
  for (std::size_t i = 0; i < consumers_.size(); ++i) {
    const PacerConsumer& c = consumers_[i];
    if (elapsed / c.period <= closed_[i]) continue;
    const u64 from = std::exchange(closed_[i], elapsed / c.period);
    bill_ += c.bill;
    closed_any = true;
    c.on_boundary(from, closed_[i]);
  }
  if (closed_any && counter_clock_) {
    // Re-arm over MMIO, as an interrupt service routine would. The new
    // threshold lies above the current count, so the write never fires.
    auto& upc = node_.upc();
    upc.mmio_write64(upc.mmio_base() + upc::UpcUnit::kThresholdOffset +
                         8ull * kCounter,
                     next_due());
  }
}

cycles_t Pacer::clock() const {
  if (!counter_clock_) return node_.timebase();
  const auto& upc = node_.upc();
  return upc.mmio_read64(upc.mmio_base() + 8ull * kCounter);
}

cycles_t Pacer::next_due() const {
  cycles_t due = std::numeric_limits<cycles_t>::max();
  for (std::size_t i = 0; i < consumers_.size(); ++i) {
    due = std::min(due, (closed_[i] + 1) * consumers_[i].period);
  }
  return origin_ + due;
}

}  // namespace bgp::sys
