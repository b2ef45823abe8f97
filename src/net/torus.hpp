// The main BG/P data network: a 3D torus with dimension-order routing,
// nearest-neighbour links and wrap-around (paper §III). The model provides
// hop counts, transfer-time estimates for the MiniMPI point-to-point path
// and per-node UPC event emission (mode 2 counters).
#pragma once

#include <array>
#include <vector>

#include "upc/upc_unit.hpp"

namespace bgp::net {

/// Torus dimensions.
struct Shape {
  unsigned x = 1, y = 1, z = 1;

  [[nodiscard]] unsigned nodes() const noexcept { return x * y * z; }
  bool operator==(const Shape&) const = default;

  /// Near-cubic factorization for `n` nodes (largest dims first).
  [[nodiscard]] static Shape for_nodes(unsigned n);
};

/// Coordinates of a node on the torus.
struct Coord {
  unsigned x = 0, y = 0, z = 0;
  bool operator==(const Coord&) const = default;
};

struct TorusParams {
  /// Per-hop router latency in core cycles (~75 ns on BG/P hardware).
  cycles_t hop_latency = 64;
  /// Per-direction link bandwidth in bytes per core cycle
  /// (425 MB/s at 850 MHz = 0.5 B/cycle).
  double link_bytes_per_cycle = 0.5;
  /// Torus packet payload granularity.
  u32 packet_bytes = 256;
  /// Software send/receive overhead charged to each endpoint.
  cycles_t sw_overhead = 600;
};

class Torus {
 public:
  Torus(Shape shape, const TorusParams& params = {});

  [[nodiscard]] const Shape& shape() const noexcept { return shape_; }
  [[nodiscard]] const TorusParams& params() const noexcept { return params_; }

  [[nodiscard]] Coord coord_of(unsigned node) const;
  [[nodiscard]] unsigned node_of(const Coord& c) const;

  /// Shortest per-dimension distance with wrap-around.
  [[nodiscard]] unsigned hops(unsigned a, unsigned b) const;

  /// Time for a `bytes` message from `a` to `b` (hop latency + serialization
  /// on the narrowest link), excluding software overhead.
  [[nodiscard]] cycles_t transfer_cycles(unsigned a, unsigned b,
                                         u64 bytes) const;

  /// Attach the UPC unit of `node` (its mode-2 events count there).
  void attach_upc(unsigned node, upc::UpcUnit* upc);

  /// Account a message send on the counters of both endpoints.
  void record_transfer(unsigned src, unsigned dst, u64 bytes);

 private:
  /// +x/-x/+y/-y/+z/-z direction of the first hop (dimension-order).
  [[nodiscard]] unsigned first_hop_direction(unsigned src, unsigned dst) const;

  Shape shape_;
  TorusParams params_;
  std::vector<upc::UpcUnit*> upcs_;
};

}  // namespace bgp::net
