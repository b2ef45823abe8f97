// Generic set-associative cache model with LRU replacement, used for the
// private L1 instruction/data caches (write-through, no write-allocate, as
// on the PPC450) and for the shared L3 (write-back, write-allocate).
#pragma once

#include <string>
#include <vector>

#include "upc/upc_unit.hpp"

namespace bgp::mem {

enum class AccessType : u8 { kRead, kWrite };

/// Result of a memory access: total latency and the level that serviced it
/// (1 = L1, 2 = L2/prefetch buffer, 3 = L3, 4 = DDR).
struct AccessResult {
  cycles_t latency = 0;
  u8 serviced_by = 0;
  /// The cache that was asked held the line.
  bool hit = false;
};

/// Interface to "whatever is below" a cache level.
class MemLevel {
 public:
  virtual ~MemLevel() = default;

  /// Access one line-aligned block. `core` identifies the requesting core,
  /// `now` is the requester's current cycle time (used by queueing models).
  virtual AccessResult access(addr_t line_addr, AccessType type,
                              unsigned core, cycles_t now) = 0;
};

/// Static cache geometry and policy.
struct CacheParams {
  u64 size_bytes = 32 * KiB;
  u32 line_bytes = 32;
  u32 assoc = 16;
  cycles_t hit_latency = 3;
  /// Write-through caches forward every write below and never hold dirty
  /// lines; they also do not allocate on write misses (PPC450 L1 behaviour).
  bool write_through = false;
  /// Write-back caches allocate on write miss when true.
  bool write_allocate = true;
  /// Reported in AccessResult::serviced_by on hits (1=L1, 2=L2, 3=L3).
  u8 level_tag = 1;

  [[nodiscard]] u32 num_sets() const noexcept {
    const u64 way_bytes = u64{line_bytes} * assoc;  // 0: no sets, no UB
    return way_bytes == 0 ? 0 : static_cast<u32>(size_bytes / way_bytes);
  }
};

/// UPC events a cache instance is wired to (kNoEvent leaves a hook dark).
struct CacheEventIds {
  isa::EventId read_access = isa::kNoEvent;
  isa::EventId read_hit = isa::kNoEvent;
  isa::EventId read_miss = isa::kNoEvent;
  isa::EventId write_access = isa::kNoEvent;
  isa::EventId write_hit = isa::kNoEvent;
  isa::EventId write_miss = isa::kNoEvent;
  isa::EventId line_fill = isa::kNoEvent;
  isa::EventId evict = isa::kNoEvent;
  isa::EventId writeback = isa::kNoEvent;
};

/// Set-associative LRU cache.
class Cache final : public MemLevel {
 public:
  /// `next` must outlive the cache and services misses (and write-through /
  /// writeback traffic). It may be null only for caches that never miss
  /// (not the usual case; tests use a Backstop). Events count into `upc`,
  /// the node's UPC unit. Line sizes must be powers of two and
  /// associativity at most 64; the set count may be anything.
  Cache(std::string name, const CacheParams& params, MemLevel* next,
        upc::UpcUnit& upc, const CacheEventIds& events = {});

  AccessResult access(addr_t addr, AccessType type, unsigned core,
                      cycles_t now) override;

  /// True if the line holding `addr` is currently resident (no LRU update).
  [[nodiscard]] bool probe(addr_t addr) const noexcept {
    const addr_t line = line_of(addr);
    return find(set_of(line), line) >= 0;
  }

  /// Insert the line holding `addr`, which probe() has just reported
  /// absent, without charging latency (the prefetch fill path).
  void install(addr_t addr, unsigned core, cycles_t now) {
    const addr_t line = line_of(addr);
    fill(set_of(line), line, /*dirty=*/false, core, now);
  }

  // -- the L1 read side of the cache walk (mem/hierarchy.cpp) ---------------
  [[nodiscard]] addr_t line_of(addr_t addr) const noexcept {
    return addr >> line_shift_;
  }
  /// True if line numbers `a` and `b` map to the same set.
  [[nodiscard]] bool same_set(addr_t a, addr_t b) const noexcept {
    return set_of(a) == set_of(b);
  }

  /// One tag search for a read of line number `line`. A hit makes the line
  /// most recently used and returns true; the walk counts its hits and
  /// reports them in bulk with count_read_hits(). A miss changes nothing,
  /// and the walk goes on with read_miss(), which does not search again.
  [[nodiscard]] bool read_hit(addr_t line) noexcept {
    const u32 set = set_of(line);
    const int w = find(set, line);
    if (w < 0) return false;
    touch(set, static_cast<u32>(w));
    return true;
  }
  void count_read_hits(u64 n) {
    upc_.signal(events_.read_access, n);
    upc_.signal(events_.read_hit, n);
  }
  /// The rest of a read that read_hit() found missing: count it, fetch the
  /// line from below and fill it. With `keep` false the caller knows the
  /// set is full of clean lines and a later line of its walk evicts this
  /// one: the fill and its eviction are counted, the set is left alone.
  AccessResult read_miss(addr_t line, unsigned core, cycles_t now,
                         bool keep = true);

  /// Drop every line, writing back dirty ones.
  void flush(unsigned core, cycles_t now);

  [[nodiscard]] const CacheParams& params() const noexcept { return params_; }
  [[nodiscard]] u64 resident_lines() const noexcept;

 private:
  [[nodiscard]] u32 set_of(addr_t line) const noexcept {
    return pow2_sets_ ? static_cast<u32>(line) & set_mask_
                      : static_cast<u32>(line % sets_);
  }
  /// Find the way holding `line` in `set`, or -1.
  [[nodiscard]] int find(u32 set, addr_t line) const noexcept {
    const std::size_t base = std::size_t{set} * params_.assoc;
    for (u32 w = 0; w < params_.assoc; ++w) {
      if (tags_[base + w] == line) return static_cast<int>(w);
    }
    return -1;
  }
  /// Make way `w` of `set` the most recently used: every way more recent
  /// than it ages by one, and it becomes rank 0. Touching an invalid way
  /// (a fill, x = kIdle) ages every valid way.
  void touch(u32 set, u32 w) noexcept {
    const std::size_t base = std::size_t{set} * rank_words_;
    const u32 shift = 8 * (w % 8);
    const u64 x = (ranks_[base + w / 8] >> shift) & 0xFF;
    // Per byte, (0x7F + x) - rank has its high bit set iff rank < x; no
    // byte borrows from its neighbour, as ranks and kIdle are <= 0x7F.
    const u64 bound = kOnes * (0x7F + x);
    for (u32 i = 0; i < rank_words_; ++i) {
      u64& r = ranks_[base + i];
      r += ((bound - r) & kHigh) >> 7;
    }
    ranks_[base + w / 8] &= ~(u64{0xFF} << shift);
  }
  /// The way a fill of `set` replaces: the first invalid way, else the
  /// least recently used.
  [[nodiscard]] u32 victim(u32 set) const noexcept;
  /// Fill `line` into `set`, evicting (and writing back) as needed.
  void fill(u32 set, addr_t line, bool dirty, unsigned core, cycles_t now);

  static constexpr addr_t kNoTag = ~addr_t{0};  // no line number is ~0
  static constexpr u64 kOnes = 0x0101010101010101ull;  // 1 in every byte
  static constexpr u64 kHigh = kOnes << 7;
  static constexpr u64 kIdle = 0x7F;  // the rank byte of an invalid way

  std::string name_;
  CacheParams params_;
  MemLevel* next_;
  upc::UpcUnit& upc_;
  CacheEventIds events_;
  u32 sets_;
  u32 line_shift_;
  bool pow2_sets_;
  u32 set_mask_;
  u32 rank_words_;  // ceil(assoc / 8)
  /// sets_ * assoc line numbers, row-major by set; kNoTag marks an invalid
  /// way. Nothing invalidates a single line (only flush() empties the
  /// cache), so a set's valid ways are always a prefix.
  std::vector<addr_t> tags_;
  /// Exact LRU state, kept apart from the tags: one recency rank byte per
  /// way (0 = most recently used, kIdle = invalid), eight to a word,
  /// rank_words_ words per set.
  std::vector<u64> ranks_;
  std::vector<u64> dirty_;  // one bit per way, per set
};

/// Terminal MemLevel with fixed latency; unit-test backstop standing in for
/// an infinite memory.
class Backstop final : public MemLevel {
 public:
  explicit Backstop(cycles_t latency = 100, u8 level_tag = 4) noexcept
      : latency_(latency), level_tag_(level_tag) {}

  AccessResult access(addr_t, AccessType type, unsigned, cycles_t) override {
    ++accesses_;
    if (type == AccessType::kWrite) ++writes_;
    return {latency_, level_tag_};
  }

  [[nodiscard]] u64 accesses() const noexcept { return accesses_; }
  [[nodiscard]] u64 writes() const noexcept { return writes_; }

 private:
  cycles_t latency_;
  u8 level_tag_;
  u64 accesses_ = 0;
  u64 writes_ = 0;
};

}  // namespace bgp::mem
