// Snoop filter model. The BG/P chip places a snoop filter in front of each
// write-through L1 so that stores by one core invalidate stale copies in the
// others without broadcasting every write. We track per-line sharer masks in
// a bounded direct-mapped table: precise enough for the UPC snoop counters,
// cheap enough to sit on the store path.
#pragma once

#include <bit>
#include <vector>

#include "upc/upc_unit.hpp"

namespace bgp::mem {

/// UPC event wiring for the snoop filter.
struct SnoopEventIds {
  isa::EventId requests = isa::kNoEvent;
  isa::EventId filter_hits = isa::kNoEvent;
  isa::EventId invalidates_sent = isa::kNoEvent;
  isa::EventId invalidates_received = isa::kNoEvent;
};

class SnoopFilter {
 public:
  using EventIds = SnoopEventIds;

  /// The table has `table_entries` rounded up to a power of two; events
  /// count into `upc`, the node's UPC unit.
  SnoopFilter(std::size_t table_entries, upc::UpcUnit& upc,
              const EventIds& events = {})
      : upc_(upc), events_(events), table_(std::bit_ceil(table_entries)) {}

  /// Record that `core` now holds a copy of `line` (L1 fill path).
  void record_fill(unsigned core, addr_t line) noexcept;

  /// A store by `core` to `line`: returns the number of *other* cores whose
  /// copies had to be invalidated.
  unsigned on_write(unsigned core, addr_t line);

 private:
  struct Entry {
    addr_t line = 0;
    u8 sharers = 0;
    bool valid = false;
  };

  [[nodiscard]] Entry& slot(addr_t line) noexcept {
    return table_[static_cast<std::size_t>(line) & (table_.size() - 1)];
  }

  upc::UpcUnit& upc_;
  EventIds events_;
  std::vector<Entry> table_;
};

}  // namespace bgp::mem
