// Assembles one Blue Gene/P node's on-chip memory system (paper Fig 2):
// four cores each with a private L1 data cache and a private prefetching L2,
// a large shared L3 whose size is boot-configurable (0–8 MB; Fig 11 sweeps
// it), a snoop filter, and two line-interleaved DDR controllers.
#pragma once

#include <array>
#include <memory>
#include <optional>

#include "mem/cache.hpp"
#include "mem/ddr.hpp"
#include "mem/prefetch.hpp"
#include "mem/snoop.hpp"

namespace bgp::mem {

struct HierarchyParams {
  /// Private 32 KB, 32 B-line, highly associative L1D at 3-cycle latency.
  /// Instruction fetch is not modelled (the compiled op bundles carry no
  /// code addresses), so there is no L1I.
  CacheParams l1d{.size_bytes = 32 * KiB,
                  .line_bytes = 32,
                  .assoc = 16,
                  .hit_latency = 3,
                  .write_through = true,
                  .write_allocate = false};
  /// Private L2: small line store feeding the stream prefetcher, 128 B lines.
  CacheParams l2{.size_bytes = 16 * KiB,
                 .line_bytes = 128,
                 .assoc = 8,
                 .hit_latency = 12,
                 .write_through = true,
                 .write_allocate = false,
                 .level_tag = 2};
  PrefetchParams prefetch{};
  /// Shared L3; size 0 disables it (Fig 11's "no L3" point) and L2 misses
  /// then go straight to DDR. Non-zero sizes must keep sets*assoc*line.
  u64 l3_size_bytes = 8 * MiB;
  u32 l3_line_bytes = 128;
  u32 l3_assoc = 8;
  cycles_t l3_hit_latency = 46;
  DdrParams ddr{};
};

/// One node's memory system. Thread-compatible: the runtime guarantees only
/// one rank executes at a time, so no internal locking.
class MemoryHierarchy {
 public:
  /// Every level counts its events into `upc`, the node's UPC unit.
  /// Throws std::invalid_argument unless `l1d` is write-through and
  /// no-write-allocate (the PPC450 policy; the store walk assumes it).
  MemoryHierarchy(const HierarchyParams& params, upc::UpcUnit& upc);

  /// Data read of `bytes` starting at `addr` by `core`; walks L1 lines and
  /// returns the summed latency (callers model overlap/MLP on top).
  AccessResult read(unsigned core, addr_t addr, u64 bytes, cycles_t now);

  /// Data write (store) path.
  AccessResult write(unsigned core, addr_t addr, u64 bytes, cycles_t now);

  // -- component access for tests -----------------------------------------
  [[nodiscard]] const Cache& l1d(unsigned core) const {
    return *cores_.at(core).l1d;
  }
  [[nodiscard]] bool has_l3() const noexcept { return l3_ != nullptr; }
  [[nodiscard]] const Cache& l3() const { return *l3_; }
  [[nodiscard]] const HierarchyParams& params() const noexcept {
    return params_;
  }

 private:
  struct PerCore {
    std::unique_ptr<Cache> l1d;
    std::unique_ptr<L2Unit> l2;
  };

  HierarchyParams params_;
  std::unique_ptr<DdrSystem> ddr_;
  std::unique_ptr<Cache> l3_;  // null when l3_size_bytes == 0
  std::unique_ptr<SnoopFilter> snoop_;
  std::array<PerCore, isa::kCoresPerNode> cores_;
};

}  // namespace bgp::mem
