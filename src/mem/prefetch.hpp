// The BG/P private L2 is primarily a prefetch engine: a small line store
// plus sequential stream detection that runs ahead of demand misses. L2Unit
// models it as a small write-through cache combined with a multi-stream
// sequential prefetcher whose depth is configurable (the paper's §IX floats
// varying the prefetch amount as follow-on work; bench/abl_prefetch_sweep
// does exactly that).
#pragma once

#include <array>
#include <vector>

#include "mem/cache.hpp"

namespace bgp::mem {

struct PrefetchParams {
  /// Lines fetched ahead of a confirmed stream; 0 turns the prefetcher
  /// off, stream detection included.
  unsigned depth = 2;

  bool operator==(const PrefetchParams&) const = default;
};

/// UPC event wiring for an L2Unit.
struct L2EventIds {
  isa::EventId read_access = isa::kNoEvent;
  isa::EventId read_hit = isa::kNoEvent;
  isa::EventId read_miss = isa::kNoEvent;
  isa::EventId write_access = isa::kNoEvent;
  isa::EventId write_miss = isa::kNoEvent;
  isa::EventId prefetch_issued = isa::kNoEvent;
  isa::EventId prefetch_hit = isa::kNoEvent;
  isa::EventId stream_detected = isa::kNoEvent;
};

/// Lines brought in by prefetch and not yet demanded, each with the cycle
/// its fill completes: an open-addressed map (linear probing, backward-
/// shift deletion) from line number to cycle. It starts empty and doubles
/// when three quarters full, so an L2 that never prefetches much stays
/// small; clear() empties it in place.
class PendingPrefetches {
 public:
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  /// If `line` is pending, remove it and return true with its ready cycle.
  bool take(addr_t line, cycles_t& ready) noexcept;
  /// Insert `line`, or replace its ready cycle.
  void put(addr_t line, cycles_t ready);
  void clear() noexcept;

 private:
  static constexpr addr_t kEmpty = ~addr_t{0};  // no line number
  struct Slot {
    addr_t line = kEmpty;
    cycles_t ready = 0;
  };
  [[nodiscard]] std::size_t home(addr_t line) const noexcept {
    return static_cast<std::size_t>((line * 0x9E3779B97F4A7C15ull) >> shift_);
  }
  void grow();

  std::vector<Slot> slots_;  // a power of two, or empty
  std::size_t size_ = 0;
  unsigned shift_ = 0;  // 64 - log2(slots_.size())
};

/// Per-core L2: small cache + stream prefetcher.
class L2Unit final : public MemLevel {
 public:
  using EventIds = L2EventIds;

  /// Concurrent sequential streams tracked.
  static constexpr unsigned kStreams = 8;

  /// Events count into `upc`, the node's UPC unit.
  L2Unit(std::string name, const CacheParams& cache_params,
         const PrefetchParams& pf, MemLevel* next, upc::UpcUnit& upc,
         const EventIds& events);

  AccessResult access(addr_t addr, AccessType type, unsigned core,
                      cycles_t now) override;

 private:
  struct Stream {
    addr_t next_line = 0;  ///< next line number expected on this stream
    u64 last_use = 0;
    bool valid = false;
  };

  /// Issue prefetches for lines [line+1, line+depth] along a stream.
  void run_ahead(addr_t line, unsigned core, cycles_t now);

  Cache cache_;
  PrefetchParams pf_;
  MemLevel* next_;
  upc::UpcUnit& upc_;
  EventIds events_;
  std::array<Stream, kStreams> streams_{};
  static constexpr addr_t kNoLine = ~addr_t{0};
  /// Recent demand-miss lines; a miss adjacent to any of them establishes a
  /// stream (so interleaved streams, e.g. x[i] and y[i] of a dot product,
  /// are both detected).
  std::array<addr_t, 8> miss_history_;
  unsigned miss_history_pos_ = 0;
  /// The line of the previous demand read while it is still its set's most
  /// recently used line; kNoLine once a prefetch fill or a store into that
  /// set may have re-ranked it.
  addr_t last_read_ = kNoLine;
  u64 use_tick_ = 0;
  /// A demand before a pending line's fill completes pays the residue;
  /// this is why deeper prefetch hides more latency.
  PendingPrefetches pending_;
};

}  // namespace bgp::mem
