#include "mem/cache.hpp"

#include <bit>
#include <cassert>
#include <stdexcept>

namespace bgp::mem {

namespace {

/// The high bit of the lowest zero byte of `v` is set (higher bytes may
/// be flagged spuriously, never lower ones).
constexpr u64 zero_bytes(u64 v) noexcept {
  constexpr u64 kOnes = 0x0101010101010101ull;
  return (v - kOnes) & ~v & (kOnes << 7);
}

}  // namespace

Cache::Cache(std::string name, const CacheParams& params, MemLevel* next,
             upc::UpcUnit& upc, const CacheEventIds& events)
    : name_(std::move(name)),
      params_(params),
      next_(next),
      upc_(upc),
      events_(events),
      sets_(params.num_sets()),
      line_shift_(static_cast<u32>(std::countr_zero(params.line_bytes))),
      pow2_sets_(std::has_single_bit(sets_)),
      set_mask_(sets_ - 1),
      rank_words_((params.assoc + 7) / 8) {
  // At most 64 ways: dirty_ holds one bit per way in a u64.
  if (params_.assoc == 0 || params_.assoc > 64 ||
      !std::has_single_bit(params_.line_bytes) ||
      params_.size_bytes % (u64{params_.line_bytes} * params_.assoc) != 0 ||
      sets_ == 0) {
    throw std::invalid_argument("cache size must be sets*assoc*line, with "
                                "a power-of-two line and at most 64 ways");
  }
  tags_.assign(std::size_t{sets_} * params_.assoc, kNoTag);
  ranks_.assign(std::size_t{sets_} * rank_words_, kOnes * kIdle);
  dirty_.assign(sets_, 0);
}

u32 Cache::victim(u32 set) const noexcept {
  const std::size_t base = std::size_t{set} * rank_words_;
  // Only a full set holds rank assoc-1, and that way is the least recently
  // used. A set with room has an idle byte, and since valid ways are a
  // prefix, the first idle byte is the first invalid way.
  for (const u64 rank : {u64{params_.assoc} - 1, kIdle}) {
    for (u32 i = 0; i < rank_words_; ++i) {
      const u64 m = zero_bytes(ranks_[base + i] ^ (kOnes * rank));
      if (m != 0) return 8 * i + static_cast<u32>(std::countr_zero(m)) / 8;
    }
  }
  return 0;  // unreachable: a set with room has an idle way
}

void Cache::fill(u32 set, addr_t line, bool dirty, unsigned core,
                 cycles_t now) {
  const u32 w = victim(set);
  const std::size_t slot = std::size_t{set} * params_.assoc + w;
  const u64 bit = u64{1} << w;
  if (tags_[slot] != kNoTag) {
    upc_.signal(events_.evict);
    if (dirty_[set] & bit) {
      upc_.signal(events_.writeback);
      // Tags store the full line number, so the victim's address is exact.
      if (next_ != nullptr) {
        next_->access(tags_[slot] << line_shift_, AccessType::kWrite, core,
                      now);
      }
    }
  }
  tags_[slot] = line;
  dirty_[set] = dirty ? dirty_[set] | bit : dirty_[set] & ~bit;
  touch(set, w);
  upc_.signal(events_.line_fill);
}

AccessResult Cache::read_miss(addr_t line, unsigned core, cycles_t now,
                              bool keep) {
  upc_.signal(events_.read_access);
  upc_.signal(events_.read_miss);
  if (next_ == nullptr) {
    // No backing level configured (L3-disabled bypass handles this above
    // the cache, so reaching here is a wiring bug).
    throw std::logic_error(name_ + ": miss with no next level");
  }
  const AccessResult below =
      next_->access(line << line_shift_, AccessType::kRead, core, now);
  if (keep) {
    fill(set_of(line), line, /*dirty=*/false, core, now);
  } else {
    upc_.signal(events_.evict);
    upc_.signal(events_.line_fill);
  }
  return {params_.hit_latency + below.latency, below.serviced_by};
}

AccessResult Cache::access(addr_t addr, AccessType type, unsigned core,
                           cycles_t now) {
  const addr_t line = line_of(addr);
  if (type == AccessType::kRead) {
    if (!read_hit(line)) return read_miss(line, core, now);
    count_read_hits(1);
    return {params_.hit_latency, params_.level_tag, /*hit=*/true};
  }

  upc_.signal(events_.write_access);
  const u32 set = set_of(line);
  const int w = find(set, line);
  if (w >= 0) {
    touch(set, static_cast<u32>(w));
    upc_.signal(events_.write_hit);
    if (params_.write_through) {
      // Write-through: the write also goes below, but the store itself
      // retires at L1 speed (the store queue hides the downstream time).
      assert(next_ != nullptr);
      next_->access(addr, AccessType::kWrite, core, now);
    } else {
      dirty_[set] |= u64{1} << w;
    }
    return {params_.hit_latency, params_.level_tag, /*hit=*/true};
  }

  upc_.signal(events_.write_miss);
  if (next_ == nullptr) {
    throw std::logic_error(name_ + ": miss with no next level");
  }
  if (params_.write_through || !params_.write_allocate) {
    // No-allocate write miss: forward the write below; its latency is
    // absorbed by the store queue.
    const AccessResult below =
        next_->access(addr, AccessType::kWrite, core, now);
    return {params_.hit_latency, below.serviced_by};
  }
  // Allocating write miss: fetch the line from below, then dirty it.
  const AccessResult below = next_->access(addr, AccessType::kRead, core, now);
  fill(set, line, /*dirty=*/true, core, now);
  return {params_.hit_latency + below.latency, below.serviced_by};
}

void Cache::flush(unsigned core, cycles_t now) {
  for (u32 set = 0; set < sets_; ++set) {
    for (u32 w = 0; w < params_.assoc; ++w) {
      const addr_t tag = tags_[std::size_t{set} * params_.assoc + w];
      if (tag != kNoTag && (dirty_[set] >> w & 1) && next_ != nullptr) {
        upc_.signal(events_.writeback);
        next_->access(tag << line_shift_, AccessType::kWrite, core, now);
      }
    }
  }
  tags_.assign(tags_.size(), kNoTag);
  ranks_.assign(ranks_.size(), kOnes * kIdle);
  dirty_.assign(dirty_.size(), 0);
}

u64 Cache::resident_lines() const noexcept {
  u64 n = 0;
  for (const addr_t tag : tags_) n += tag != kNoTag ? 1 : 0;
  return n;
}

}  // namespace bgp::mem
