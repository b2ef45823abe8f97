#include "mem/hierarchy.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/strfmt.hpp"

namespace bgp::mem {

namespace {
namespace ev = isa::ev;

CacheEventIds l1d_events(unsigned core) {
  return CacheEventIds{
      .read_access = ev::l1d(core, isa::L1dEvent::kReadAccess),
      .read_miss = ev::l1d(core, isa::L1dEvent::kReadMiss),
      .write_access = ev::l1d(core, isa::L1dEvent::kWriteAccess),
      .write_miss = ev::l1d(core, isa::L1dEvent::kWriteMiss),
      .line_fill = ev::l1d(core, isa::L1dEvent::kLineFill),
      .evict = ev::l1d(core, isa::L1dEvent::kEvict),
      .writeback = ev::l1d(core, isa::L1dEvent::kWriteback),
  };
}

L2Unit::EventIds l2_events(unsigned core) {
  return L2Unit::EventIds{
      .read_access = ev::l2(core, isa::L2Event::kReadAccess),
      .read_hit = ev::l2(core, isa::L2Event::kReadHit),
      .read_miss = ev::l2(core, isa::L2Event::kReadMiss),
      .write_access = ev::l2(core, isa::L2Event::kWriteAccess),
      .write_miss = ev::l2(core, isa::L2Event::kWriteMiss),
      .prefetch_issued = ev::l2(core, isa::L2Event::kPrefetchIssued),
      .prefetch_hit = ev::l2(core, isa::L2Event::kPrefetchHit),
      .stream_detected = ev::l2(core, isa::L2Event::kStreamDetected),
  };
}

CacheEventIds l3_events() {
  return CacheEventIds{
      .read_access = ev::l3(isa::L3Event::kReadAccess),
      .read_hit = ev::l3(isa::L3Event::kReadHit),
      .read_miss = ev::l3(isa::L3Event::kReadMiss),
      .write_access = ev::l3(isa::L3Event::kWriteAccess),
      .write_hit = ev::l3(isa::L3Event::kWriteHit),
      .write_miss = ev::l3(isa::L3Event::kWriteMiss),
      .line_fill = ev::l3(isa::L3Event::kFillFromDdr),
      .evict = ev::l3(isa::L3Event::kEvict),
      .writeback = ev::l3(isa::L3Event::kWritebackToDdr),
  };
}

SnoopFilter::EventIds snoop_events() {
  return SnoopFilter::EventIds{
      .requests = ev::snoop(isa::SnoopEvent::kRequests),
      .filter_hits = ev::snoop(isa::SnoopEvent::kFilterHits),
      .invalidates_sent = ev::snoop(isa::SnoopEvent::kInvalidatesSent),
      .invalidates_received = ev::snoop(isa::SnoopEvent::kInvalidatesReceived),
  };
}

}  // namespace

MemoryHierarchy::MemoryHierarchy(const HierarchyParams& params,
                                 upc::UpcUnit& upc)
    : params_(params) {
  if (!params_.l1d.write_through || params_.l1d.write_allocate) {
    throw std::invalid_argument(
        "L1D must be write-through and no-write-allocate");
  }
  ddr_ = std::make_unique<DdrSystem>(params_.ddr, upc);
  snoop_ = std::make_unique<SnoopFilter>(16384, upc, snoop_events());

  MemLevel* below_l2 = ddr_.get();
  if (params_.l3_size_bytes > 0) {
    CacheParams l3p{.size_bytes = params_.l3_size_bytes,
                    .line_bytes = params_.l3_line_bytes,
                    .assoc = params_.l3_assoc,
                    .hit_latency = params_.l3_hit_latency,
                    .write_through = false,
                    .write_allocate = true,
                    .level_tag = 3};
    l3_ = std::make_unique<Cache>("L3", l3p, ddr_.get(), upc, l3_events());
    below_l2 = l3_.get();
  }

  for (unsigned c = 0; c < isa::kCoresPerNode; ++c) {
    auto& pc = cores_[c];
    pc.l2 = std::make_unique<L2Unit>(strfmt("core%u.L2", c), params_.l2,
                                     params_.prefetch, below_l2, upc,
                                     l2_events(c));
    pc.l1d = std::make_unique<Cache>(strfmt("core%u.L1D", c), params_.l1d,
                                     pc.l2.get(), upc, l1d_events(c));
  }
}

// ---- cache walk -------------------------------------------------------------
// The hot loop of the whole simulator: every simulated load/store lands
// here. Each level searches its tags at most once per access (the L1 read
// hit check is inline, and Cache::read_miss carries on without searching
// again), and every level, the snoop filter included, counts its events
// straight into the node's UPC unit. L1 read hits are counted in bulk just
// before the next miss and at the end of the walk. A read searches only
// its first C lines, C being the L1's capacity in lines: by then every set
// holds only lines of this walk, so each later line misses, and of those
// only the last C are filled, as a later line evicts every other one
// (docs/perf.md).

AccessResult MemoryHierarchy::read(unsigned core, addr_t addr, u64 bytes,
                                   cycles_t now) {
  Cache& l1 = *cores_.at(core).l1d;
  const cycles_t l1_lat = params_.l1d.hit_latency;
  const addr_t capacity = params_.l1d.size_bytes / params_.l1d.line_bytes;
  AccessResult total{0, 1};
  const auto miss = [&](addr_t line, bool keep) {
    const AccessResult r = l1.read_miss(line, core, now, keep);
    snoop_->record_fill(core, line);
    total.latency += r.latency;
    total.serviced_by = std::max(total.serviced_by, r.serviced_by);
    now += r.latency;
  };
  addr_t line = l1.line_of(addr);
  const addr_t last = l1.line_of(addr + (bytes == 0 ? 0 : bytes - 1));
  const addr_t searched = std::min(last, line + capacity - 1);
  u64 hits = 0;
  for (; line <= searched; ++line) {
    if (l1.read_hit(line)) {
      ++hits;
      total.latency += l1_lat;
      now += l1_lat;
      continue;
    }
    l1.count_read_hits(hits);
    hits = 0;
    miss(line, /*keep=*/true);
  }
  l1.count_read_hits(hits);
  for (; line <= last; ++line) miss(line, /*keep=*/last - line < capacity);
  return total;
}

AccessResult MemoryHierarchy::write(unsigned core, addr_t addr, u64 bytes,
                                    cycles_t now) {
  Cache& l1 = *cores_.at(core).l1d;
  AccessResult total{0, 1};
  const addr_t last = l1.line_of(addr + (bytes == 0 ? 0 : bytes - 1));
  for (addr_t line = l1.line_of(addr); line <= last; ++line) {
    snoop_->on_write(core, line);
    // The L1 is write-through / no-allocate (the constructor enforces it):
    // the store retires at L1 speed whether it hit or not, and the write
    // always goes below.
    const AccessResult r = l1.access(line * params_.l1d.line_bytes,
                                     AccessType::kWrite, core, now);
    total.latency += r.latency;
    total.serviced_by = std::max(total.serviced_by, r.serviced_by);
    now += r.latency;
  }
  return total;
}

}  // namespace bgp::mem
