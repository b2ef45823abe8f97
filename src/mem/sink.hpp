// Event delivery interface between the hardware models and the UPC unit.
// Every cache / DDR / network model reports through an EventSink so the
// models stay testable in isolation (tests plug in a recording sink).
//
// One entry point: events(batch, n) delivers a batch of edge-event reports
// in one virtual call. The UPC counts a batch entry by entry, threshold
// interrupts included, so a per-block or per-walk batch is
// indistinguishable from the stream of single reports it replaces except
// for costing one virtual dispatch instead of n. A single report is a
// one-entry batch (emit()).
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

/// One walk's event reports, in the order the levels make them. Every
/// level of a walk appends to the same batch (passed down the chain by
/// reference), and the walk ends with one flush(): one events() call per
/// walk instead of one per report. A full batch flushes itself first, so
/// a long walk makes one more call per kCapacity entries. The sink sees
/// exactly the sequence of single reports it replaces, cut into calls.
class EventBatch {
 public:
  static constexpr std::size_t kCapacity = 64;

  explicit EventBatch(EventSink* sink) noexcept : sink_(sink) {}
  EventBatch(const EventBatch&) = delete;
  EventBatch& operator=(const EventBatch&) = delete;

  /// Append `count` occurrences of `id`; an unwired hook or a zero count
  /// appends nothing, as with emit().
  void append(isa::EventId id, u64 count) {
    if (id == kNoEvent || count == 0) return;
    if (end_ == ev_ + kCapacity) flush();
    *end_++ = {id, count};
  }

  /// Deliver everything appended so far and reset.
  void flush() {
    if (end_ != ev_ && sink_ != nullptr) {
      sink_->events(ev_, static_cast<std::size_t>(end_ - ev_));
    }
    end_ = ev_;
  }

 private:
  EventSink* sink_;
  // A pointer, not a count: the levels' u64 statistics updates between
  // appends cannot alias it, so it stays in a register.
  isa::EventCount* end_ = ev_;
  isa::EventCount ev_[kCapacity];
};

}  // namespace bgp::mem
