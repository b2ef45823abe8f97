#include "mem/hierarchy.hpp"

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

CacheEventIds l1i_events(unsigned core) {
  return CacheEventIds{
      .read_access = ev::l1i(core, isa::L1iEvent::kAccess),
      .read_miss = ev::l1i(core, isa::L1iEvent::kMiss),
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
                                 EventSink* sink)
    : params_(params), sink_(sink) {
  if (!params_.l1d.write_through || params_.l1d.write_allocate) {
    throw std::invalid_argument(
        "L1D must be write-through and no-write-allocate");
  }
  ddr_ = std::make_unique<DdrSystem>(params_.ddr, sink);
  snoop_ = std::make_unique<SnoopFilter>(16384, sink, snoop_events());

  MemLevel* below_l2 = ddr_.get();
  if (params_.l3_size_bytes > 0) {
    CacheParams l3p{.size_bytes = params_.l3_size_bytes,
                    .line_bytes = params_.l3_line_bytes,
                    .assoc = params_.l3_assoc,
                    .hit_latency = params_.l3_hit_latency,
                    .write_through = false,
                    .write_allocate = true,
                    .level_tag = 3};
    l3_ = std::make_unique<Cache>("L3", l3p, ddr_.get(), sink, l3_events());
    below_l2 = l3_.get();
  }

  for (unsigned c = 0; c < isa::kCoresPerNode; ++c) {
    auto& pc = cores_[c];
    pc.l2 = std::make_unique<L2Unit>(strfmt("core%u.L2", c), params_.l2,
                                     params_.prefetch, below_l2, sink,
                                     l2_events(c));
    pc.l1d = std::make_unique<Cache>(strfmt("core%u.L1D", c), params_.l1d,
                                     pc.l2.get(), sink, l1d_events(c));
    pc.l1i = std::make_unique<Cache>(strfmt("core%u.L1I", c), params_.l1i,
                                     pc.l2.get(), sink, l1i_events(c));
  }
}

// ---- cache walk -------------------------------------------------------------
// The hot loop of the whole simulator: every simulated load/store lands
// here. L1 hits are handled inline (Cache::read_hit_fast /
// write_note_fast: one tag search per line) and their counter increments
// accumulate in a per-walk EventBatch flushed once at the end, so an
// all-hits walk costs zero virtual calls on the cache side and at most one
// on the sink side. A read miss flushes the batch (keeping walk-order
// delivery) and takes the virtual MemLevel::access() chain below the L1,
// which reports its events one at a time. Batching moves only the moment
// an L1-hit count lands within one walk, which an armed threshold
// interrupt could observe; the totals are those of per-event delivery.

AccessResult MemoryHierarchy::read(unsigned core, addr_t addr, u64 bytes,
                                   cycles_t now) {
  auto& pc = cores_.at(core);
  Cache* const l1 = pc.l1d.get();
  const u32 line = params_.l1d.line_bytes;
  const cycles_t l1_lat = params_.l1d.hit_latency;
  AccessResult total{0, 1};
  addr_t a = addr & ~addr_t{line - 1};
  const addr_t end = addr + (bytes == 0 ? 1 : bytes);
  EventBatch batch(sink_);
  for (; a < end; a += line) {
    if (l1->read_hit_fast(a, batch)) {
      total.latency += l1_lat;
      now += l1_lat;
      continue;
    }
    batch.flush();
    const AccessResult r = l1->access(a, AccessType::kRead, core, now);
    snoop_->record_fill(core, a / line);
    total.latency += r.latency;
    total.serviced_by = std::max(total.serviced_by, r.serviced_by);
    now += r.latency;
  }
  batch.flush();
  return total;
}

AccessResult MemoryHierarchy::write(unsigned core, addr_t addr, u64 bytes,
                                    cycles_t now) {
  auto& pc = cores_.at(core);
  Cache* const l1 = pc.l1d.get();
  L2Unit* const l2 = pc.l2.get();
  const u32 line = params_.l1d.line_bytes;
  const cycles_t l1_lat = params_.l1d.hit_latency;
  AccessResult total{0, 1};
  addr_t a = addr & ~addr_t{line - 1};
  const addr_t end = addr + (bytes == 0 ? 1 : bytes);
  EventBatch batch(sink_);
  for (; a < end; a += line) {
    snoop_->on_write(core, a / line);
    // The L1 is write-through / no-allocate (the constructor enforces it):
    // the store retires at L1 speed whether it hit or not, and the write
    // always goes below. Do the L1 bookkeeping inline and forward straight
    // into the concrete L2 (final, so the call devirtualizes).
    const bool hit = l1->write_note_fast(a, batch);
    batch.flush();
    const AccessResult below = l2->access(a, AccessType::kWrite, core, now);
    total.latency += l1_lat;
    if (!hit) total.serviced_by = std::max(total.serviced_by, below.serviced_by);
    now += l1_lat;
  }
  batch.flush();
  return total;
}

AccessResult MemoryHierarchy::ifetch(unsigned core, addr_t addr,
                                     cycles_t now) {
  return cores_.at(core).l1i->access(addr, AccessType::kRead, core, now);
}

}  // namespace bgp::mem
