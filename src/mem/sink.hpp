// Event delivery interface between the hardware models and the UPC unit.
// Every cache / DDR / network model reports through an EventSink so the
// models stay testable in isolation (tests plug in a recording sink).
//
// One entry point: events(batch, n) delivers a batch of edge-event reports
// in one virtual call. Batching is sum-preserving for edge-configured
// counters (the UPC adds the counts either way), so a per-block or per-walk
// batch is indistinguishable from the stream of single reports it replaces
// except for costing one virtual dispatch instead of n. A single report is
// a one-entry batch (emit()).
#pragma once

#include <cstddef>

#include "isa/events.hpp"

namespace bgp::mem {

/// Sentinel meaning "this event is not wired to a counter".
inline constexpr isa::EventId kNoEvent = 0xFFFF;

/// Receiver of hardware event reports (normally the node's UpcUnit).
class EventSink {
 public:
  virtual ~EventSink() = default;
  /// Report a batch of edge events: `batch[i].count` occurrences of
  /// `batch[i].id` for each entry, in order. An entry with kNoEvent or a
  /// zero count changes nothing.
  virtual void events(const isa::EventCount* batch, std::size_t n) = 0;
};

/// Sink that drops everything (for unwired unit tests).
class NullSink final : public EventSink {
 public:
  void events(const isa::EventCount*, std::size_t) override {}
};

/// Report `count` occurrences of `id` as a one-entry batch; only when the
/// hook is wired.
inline void emit(EventSink* sink, isa::EventId id, u64 count) {
  if (sink != nullptr && id != kNoEvent && count != 0) {
    const isa::EventCount one{id, count};
    sink->events(&one, 1);
  }
}

/// Fixed-capacity accumulator for the devirtualized cache walk: levels add
/// their counter increments here during a walk and the whole batch is
/// flushed through one events() call at the end. Capacity covers a full
/// miss chain's distinct ids (L1 + L2 + L3 + both DDR controllers + snoop
/// is under 48); a fuller batch self-flushes, so counts are never dropped.
class EventBatch {
 public:
  static constexpr std::size_t kCapacity = 48;

  explicit EventBatch(EventSink* sink) noexcept : sink_(sink) {}

  /// Add `count` to `id`'s pending total. Duplicate ids coalesce via a
  /// tail-first linear scan (a walk re-reports the same few ids per line,
  /// so the match is almost always near the end) — allocation-free.
  void add(isa::EventId id, u64 count) {
    if (id == kNoEvent || count == 0 || sink_ == nullptr) return;
    for (std::size_t i = n_; i-- > 0;) {
      if (ev_[i].id == id) {
        ev_[i].count += count;
        return;
      }
    }
    if (n_ == kCapacity) flush();
    ev_[n_] = {id, count};
    ++n_;
  }

  [[nodiscard]] std::size_t size() const noexcept { return n_; }
  [[nodiscard]] const isa::EventCount* data() const noexcept { return ev_; }

  /// Deliver everything accumulated so far and reset.
  void flush() {
    if (n_ == 0) return;
    sink_->events(ev_, n_);
    n_ = 0;
  }

 private:
  EventSink* sink_;
  isa::EventCount ev_[kCapacity];
  std::size_t n_ = 0;
};

}  // namespace bgp::mem
