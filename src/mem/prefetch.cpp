#include "mem/prefetch.hpp"

#include <algorithm>
#include <bit>

namespace bgp::mem {

bool PendingPrefetches::take(addr_t line, cycles_t& ready) noexcept {
  if (size_ == 0) return false;
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = home(line);
  for (; slots_[i].line != line; i = (i + 1) & mask) {
    if (slots_[i].line == kEmpty) return false;
  }
  ready = slots_[i].ready;
  // Close the gap: move each later entry of the probe run whose home lies
  // cyclically at or before the gap into it, so no tombstones are needed.
  for (std::size_t j = (i + 1) & mask; slots_[j].line != kEmpty;
       j = (j + 1) & mask) {
    if (((j - home(slots_[j].line)) & mask) >= ((j - i) & mask)) {
      slots_[i] = slots_[j];
      i = j;
    }
  }
  slots_[i].line = kEmpty;
  --size_;
  return true;
}

void PendingPrefetches::put(addr_t line, cycles_t ready) {
  if (4 * (size_ + 1) > 3 * slots_.size()) grow();
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = home(line);
  while (slots_[i].line != kEmpty && slots_[i].line != line) i = (i + 1) & mask;
  if (slots_[i].line == kEmpty) ++size_;
  slots_[i] = {line, ready};
}

void PendingPrefetches::clear() noexcept {
  slots_.assign(slots_.size(), Slot{});
  size_ = 0;
}

void PendingPrefetches::grow() {
  std::vector<Slot> old(std::max<std::size_t>(16, 2 * slots_.size()));
  old.swap(slots_);
  shift_ = 64 - static_cast<unsigned>(std::countr_zero(slots_.size()));
  size_ = 0;
  for (const Slot& s : old) {
    if (s.line != kEmpty) put(s.line, s.ready);
  }
}

L2Unit::L2Unit(std::string name, const CacheParams& cache_params,
               const PrefetchParams& pf, MemLevel* next, upc::UpcUnit& upc,
               const EventIds& events)
    : cache_(std::move(name), cache_params, next, upc,
             CacheEventIds{
                 .read_access = events.read_access,
                 .read_hit = events.read_hit,
                 .read_miss = events.read_miss,
                 .write_access = events.write_access,
                 .write_miss = events.write_miss,
             }),
      pf_(pf),
      next_(next),
      upc_(upc),
      events_(events) {
  miss_history_.fill(kNoLine);
}

void L2Unit::run_ahead(addr_t line, unsigned core, cycles_t now) {
  const u32 line_bytes = cache_.params().line_bytes;
  for (unsigned d = 1; d <= pf_.depth; ++d) {
    const addr_t pf_line = line + d;
    const addr_t pf_addr = pf_line * line_bytes;
    if (cache_.probe(pf_addr)) continue;
    // The prefetch consumes downstream bandwidth; a demand arriving before
    // the fill completes pays the residual latency.
    const AccessResult fill =
        next_->access(pf_addr, AccessType::kRead, core, now);
    cache_.install(pf_addr, core, now);
    // The fill leads its set now; the last read's line may not.
    if (cache_.same_set(pf_line, last_read_)) last_read_ = kNoLine;
    // Bound the tracking table: lines evicted before being demanded would
    // otherwise accumulate forever.
    if (pending_.size() > 8192) pending_.clear();
    pending_.put(pf_line, now + fill.latency);
    upc_.signal(events_.prefetch_issued);
  }
}

AccessResult L2Unit::access(addr_t addr, AccessType type, unsigned core,
                            cycles_t now) {
  const addr_t line = cache_.line_of(addr);
  // Writes pass through (the L2 is write-through toward the L3, which is
  // the point of coherence on the chip). A hit re-ranks its set, so the
  // last read's line may no longer lead it.
  if (type == AccessType::kWrite) {
    if (line != last_read_ && cache_.same_set(line, last_read_)) {
      last_read_ = kNoLine;
    }
    return cache_.access(addr, type, core, now);
  }

  // A repeat of the previous demand read is a plain hit on its set's most
  // recently used line, which needs no search and no re-ranking: that read
  // left the line there and took it out of the pending table, run_ahead
  // never queues the line it runs ahead of, and a fill or store into the
  // set since would have cleared last_read_.
  if (line == last_read_) {
    cache_.count_read_hits(1);
    return {cache_.params().hit_latency, 2, /*hit=*/true};
  }
  last_read_ = line;
  cycles_t prefetch_ready = 0;
  const bool was_prefetched = pending_.take(line, prefetch_ready);
  AccessResult r = cache_.access(addr, type, core, now);
  if (r.hit) {
    if (was_prefetched) {
      upc_.signal(events_.prefetch_hit);
      // In-flight fill: the demand pays the remaining latency.
      if (prefetch_ready > now) r.latency += prefetch_ready - now;
      // A confirmed prefetch hit keeps the stream running ahead.
      run_ahead(line, core, now);
    }
    r.serviced_by = 2;
    return r;
  }

  // Demand miss: update the stream table.
  if (pf_.depth > 0) {
    bool matched = false;
    for (auto& s : streams_) {
      if (s.valid && s.next_line == line) {
        s.next_line = line + 1;
        s.last_use = ++use_tick_;
        matched = true;
        break;
      }
    }
    if (!matched && line != 0) {
      // Two misses on consecutive lines (not necessarily back to back in
      // time) establish a new stream in the LRU stream slot.
      for (const addr_t past : miss_history_) {
        if (past != kNoLine && past + 1 == line) {
          auto* slot = &streams_[0];
          for (auto& s : streams_) {
            if (!s.valid) {
              slot = &s;
              break;
            }
            if (s.last_use < slot->last_use) slot = &s;
          }
          *slot = Stream{line + 1, ++use_tick_, true};
          upc_.signal(events_.stream_detected);
          matched = true;
          break;
        }
      }
    }
    if (matched) run_ahead(line, core, now);
    miss_history_[miss_history_pos_] = line;
    miss_history_pos_ = (miss_history_pos_ + 1) % miss_history_.size();
  }
  return r;
}

}  // namespace bgp::mem
