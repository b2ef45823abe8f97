#include "net/torus.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace bgp::net {

namespace ev = isa::ev;

Shape Shape::for_nodes(unsigned n) {
  if (n == 0) throw std::invalid_argument("torus needs at least one node");
  // Search for the factorization x*y*z == n minimizing max dimension.
  Shape best{n, 1, 1};
  unsigned best_max = n;
  unsigned best_min = 1;
  for (unsigned x = 1; x <= n; ++x) {
    if (n % x != 0) continue;
    const unsigned yz = n / x;
    for (unsigned y = 1; y <= yz; ++y) {
      if (yz % y != 0) continue;
      const unsigned z = yz / y;
      const unsigned hi = std::max({x, y, z});
      const unsigned lo = std::min({x, y, z});
      // Prefer the smallest maximum dimension; tie-break on the largest
      // minimum (8x4x4 over 8x8x2 for 128 nodes).
      if (hi < best_max || (hi == best_max && lo > best_min)) {
        best = Shape{x, y, z};
        best_max = hi;
        best_min = lo;
      }
    }
  }
  // Canonical order: x >= y >= z.
  std::array<unsigned, 3> d{best.x, best.y, best.z};
  std::sort(d.begin(), d.end(), std::greater<>());
  return Shape{d[0], d[1], d[2]};
}

Torus::Torus(Shape shape, const TorusParams& params)
    : shape_(shape), params_(params), upcs_(shape.nodes(), nullptr) {}

Coord Torus::coord_of(unsigned node) const {
  if (node >= shape_.nodes()) throw std::out_of_range("node id");
  return Coord{node % shape_.x, (node / shape_.x) % shape_.y,
               node / (shape_.x * shape_.y)};
}

unsigned Torus::node_of(const Coord& c) const {
  if (c.x >= shape_.x || c.y >= shape_.y || c.z >= shape_.z) {
    throw std::out_of_range("torus coordinate");
  }
  return c.x + shape_.x * (c.y + shape_.y * c.z);
}

namespace {
unsigned ring_distance(unsigned a, unsigned b, unsigned dim) {
  const unsigned d = a > b ? a - b : b - a;
  return std::min(d, dim - d);
}
}  // namespace

unsigned Torus::hops(unsigned a, unsigned b) const {
  const Coord ca = coord_of(a), cb = coord_of(b);
  return ring_distance(ca.x, cb.x, shape_.x) +
         ring_distance(ca.y, cb.y, shape_.y) +
         ring_distance(ca.z, cb.z, shape_.z);
}

cycles_t Torus::transfer_cycles(unsigned a, unsigned b, u64 bytes) const {
  if (a == b) return 0;  // self-sends short-circuit in memory
  const unsigned h = hops(a, b);
  const auto serialization = static_cast<cycles_t>(std::llround(
      static_cast<double>(bytes) / params_.link_bytes_per_cycle));
  return cycles_t{h} * params_.hop_latency + serialization;
}

void Torus::attach_upc(unsigned node, upc::UpcUnit* upc) {
  upcs_.at(node) = upc;
}

unsigned Torus::first_hop_direction(unsigned src, unsigned dst) const {
  const Coord a = coord_of(src), b = coord_of(dst);
  auto dir = [](unsigned from, unsigned to, unsigned dim) -> int {
    if (from == to) return -1;
    const unsigned fwd = (to + dim - from) % dim;  // +direction distance
    return (fwd <= dim - fwd) ? 0 : 1;             // 0 = plus, 1 = minus
  };
  // Dimension-order: x first, then y, then z.
  if (int d = dir(a.x, b.x, shape_.x); d >= 0) return 0 + unsigned(d);
  if (int d = dir(a.y, b.y, shape_.y); d >= 0) return 2 + unsigned(d);
  if (int d = dir(a.z, b.z, shape_.z); d >= 0) return 4 + unsigned(d);
  return 0;
}

void Torus::record_transfer(unsigned src, unsigned dst, u64 bytes) {
  if (src == dst) return;
  const u64 packets =
      (bytes + params_.packet_bytes - 1) / params_.packet_bytes;
  const u64 chunks32 = (bytes + 31) / 32;
  if (upc::UpcUnit* u = upcs_.at(src)) {
    const unsigned dir = first_hop_direction(src, dst);
    const auto send_event = static_cast<isa::TorusEvent>(
        static_cast<unsigned>(isa::TorusEvent::kPacketsSentXp) + dir);
    u->signal(ev::torus(send_event), packets);
    u->signal(ev::torus(isa::TorusEvent::kBytesSent32B), chunks32);
    u->signal(ev::torus(isa::TorusEvent::kHopsTotal),
              packets * hops(src, dst));
  }
  if (upc::UpcUnit* u = upcs_.at(dst)) {
    u->signal(ev::torus(isa::TorusEvent::kPacketsReceived), packets);
    u->signal(ev::torus(isa::TorusEvent::kBytesRecv32B), chunks32);
  }
}

}  // namespace bgp::net
