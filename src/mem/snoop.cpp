#include "mem/snoop.hpp"

#include <bit>

namespace bgp::mem {

void SnoopFilter::record_fill(unsigned core, addr_t line) noexcept {
  Entry& e = slot(line);
  if (!e.valid || e.line != line) {
    // Direct-mapped replacement: the displaced entry's sharer info is lost,
    // which errs toward extra (conservative) snoops — same as real filters.
    e = Entry{line, 0, true};
  }
  e.sharers |= static_cast<u8>(1u << core);
}

unsigned SnoopFilter::on_write(unsigned core, addr_t line) {
  upc_.signal(events_.requests);

  Entry& e = slot(line);
  const u8 self = static_cast<u8>(1u << core);
  if (!e.valid || e.line != line || (e.sharers & ~self) == 0) {
    upc_.signal(events_.filter_hits);
    return 0;
  }
  const unsigned others =
      static_cast<unsigned>(std::popcount(static_cast<unsigned>(e.sharers & ~self)));
  upc_.signal(events_.invalidates_sent, others);
  upc_.signal(events_.invalidates_received, others);
  e.sharers = self;
  return others;
}

}  // namespace bgp::mem
