// Generic set-associative cache model with LRU replacement, used for the
// private L1 instruction/data caches (write-through, no write-allocate, as
// on the PPC450) and for the shared L3 (write-back, write-allocate).
#pragma once

#include <string>
#include <vector>

#include "mem/sink.hpp"

namespace bgp::mem {

enum class AccessType : u8 { kRead, kWrite };

/// Result of a memory access: total latency and the level that serviced it
/// (1 = L1, 2 = L2/prefetch buffer, 3 = L3, 4 = DDR).
struct AccessResult {
  cycles_t latency = 0;
  u8 serviced_by = 0;
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
    return static_cast<u32>(size_bytes / (u64{line_bytes} * assoc));
  }
};

/// UPC events a cache instance is wired to (kNoEvent leaves a hook dark).
struct CacheEventIds {
  isa::EventId read_access = kNoEvent;
  isa::EventId read_hit = kNoEvent;
  isa::EventId read_miss = kNoEvent;
  isa::EventId write_access = kNoEvent;
  isa::EventId write_hit = kNoEvent;
  isa::EventId write_miss = kNoEvent;
  isa::EventId line_fill = kNoEvent;
  isa::EventId evict = kNoEvent;
  isa::EventId writeback = kNoEvent;
};

/// Aggregate statistics (kept independently of UPC wiring so unit tests and
/// the ablation benches can interrogate a cache directly).
struct CacheStats {
  u64 read_access = 0;
  u64 read_miss = 0;
  u64 write_access = 0;
  u64 write_miss = 0;
  u64 line_fills = 0;
  u64 evictions = 0;
  u64 writebacks = 0;

  [[nodiscard]] u64 accesses() const noexcept {
    return read_access + write_access;
  }
  [[nodiscard]] u64 misses() const noexcept { return read_miss + write_miss; }
  [[nodiscard]] double miss_rate() const noexcept {
    const u64 a = accesses();
    return a ? static_cast<double>(misses()) / static_cast<double>(a) : 0.0;
  }
};

/// Set-associative LRU cache.
class Cache final : public MemLevel {
 public:
  /// `next` must outlive the cache and services misses (and write-through /
  /// writeback traffic). It may be null only for caches that never miss
  /// (not the usual case; tests use a Backstop).
  Cache(std::string name, const CacheParams& params, MemLevel* next,
        EventSink* sink = nullptr, const CacheEventIds& events = {});

  AccessResult access(addr_t addr, AccessType type, unsigned core,
                      cycles_t now) override;

  /// True if the line holding `addr` is currently resident (no LRU update).
  [[nodiscard]] bool probe(addr_t addr) const noexcept;

  // -- inline L1 paths of the cache walk (mem/hierarchy.cpp) ----------------
  // These do one tag search and accumulate counter increments into an
  // EventBatch instead of per-event virtual calls. They perform exactly
  // the bookkeeping access() would (stats, LRU clock, event totals), so
  // either path leaves the cache in the same state.

  /// Read hit path: on hit, touch LRU, count the access, and return true;
  /// on miss return false having changed *nothing* — the caller then calls
  /// the virtual access(), which counts the access from the top.
  [[nodiscard]] bool read_hit_fast(addr_t addr, EventBatch& batch) noexcept {
    const addr_t line = fast_line_of(addr);
    const std::size_t base = std::size_t{fast_set_of(line)} * params_.assoc;
    for (u32 w = 0; w < params_.assoc; ++w) {
      Line& l = lines_[base + w];
      if (l.valid && l.tag == line) {
        l.lru = ++tick_;
        ++stats_.read_access;
        batch.add(events_.read_access, 1);
        batch.add(events_.read_hit, 1);
        return true;
      }
    }
    return false;
  }

  /// Store path for write-through / no-allocate caches: does the full
  /// L1-side bookkeeping for a store (access + hit LRU touch or miss
  /// count; neither case allocates) and reports whether it hit. The caller
  /// forwards the write below either way — exactly what access() does for
  /// this policy. Only call on a write-through, no-write-allocate cache
  /// (MemoryHierarchy rejects any other L1D).
  [[nodiscard]] bool write_note_fast(addr_t addr, EventBatch& batch) noexcept {
    const addr_t line = fast_line_of(addr);
    const std::size_t base = std::size_t{fast_set_of(line)} * params_.assoc;
    ++stats_.write_access;
    batch.add(events_.write_access, 1);
    for (u32 w = 0; w < params_.assoc; ++w) {
      Line& l = lines_[base + w];
      if (l.valid && l.tag == line) {
        l.lru = ++tick_;
        batch.add(events_.write_hit, 1);
        return true;
      }
    }
    ++stats_.write_miss;
    batch.add(events_.write_miss, 1);
    return false;
  }

  /// Insert a line without charging latency (prefetch fill path). Returns
  /// false if the line was already resident.
  bool install(addr_t addr, unsigned core, cycles_t now);

  /// Drop every line, writing back dirty ones.
  void flush(unsigned core, cycles_t now);

  [[nodiscard]] const CacheStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const CacheParams& params() const noexcept { return params_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] u64 resident_lines() const noexcept;

 private:
  struct Line {
    addr_t tag = 0;
    u64 lru = 0;
    bool valid = false;
    bool dirty = false;
  };

  [[nodiscard]] addr_t line_of(addr_t addr) const noexcept {
    return addr / params_.line_bytes;
  }
  [[nodiscard]] u32 set_of(addr_t line) const noexcept {
    return static_cast<u32>(line % sets_);
  }
  // Shift/mask forms of line_of/set_of for the fast paths: the divisors
  // are runtime values the compiler cannot strength-reduce, so power-of-
  // two geometries (every real BG/P cache) precompute shifts in the
  // constructor. Non-pow2 test geometries fall back to the division.
  [[nodiscard]] addr_t fast_line_of(addr_t addr) const noexcept {
    return pow2_geometry_ ? addr >> line_shift_ : line_of(addr);
  }
  [[nodiscard]] u32 fast_set_of(addr_t line) const noexcept {
    return pow2_geometry_ ? static_cast<u32>(line) & set_mask_ : set_of(line);
  }

  /// Find the way holding `line` in `set`, or -1.
  [[nodiscard]] int find(u32 set, addr_t line) const noexcept;
  /// Choose a victim way in `set` (invalid first, else LRU).
  [[nodiscard]] int victim(u32 set) const noexcept;

  /// Fill `line` into the cache, evicting as needed; returns extra latency
  /// charged for the fill bookkeeping (0 — fill latency is the miss path).
  void fill(addr_t line, bool dirty, unsigned core, cycles_t now);

  std::string name_;
  CacheParams params_;
  MemLevel* next_;
  EventSink* sink_;
  CacheEventIds events_;
  u32 sets_;
  bool pow2_geometry_ = false;
  u32 line_shift_ = 0;
  u32 set_mask_ = 0;
  std::vector<Line> lines_;  // sets_ * assoc, row-major by set
  u64 tick_ = 0;             // LRU clock
  CacheStats stats_;
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
