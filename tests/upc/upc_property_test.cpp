// Property-style sweeps over the UPC unit's full configuration space:
// every (mode, counter) cell of the 4x256 event grid must behave
// identically, and events of inactive modes must never leak into the
// active mode's physical counters.
#include <gtest/gtest.h>

#include <array>
#include <random>
#include <utility>
#include <vector>

#include "upc/upc_unit.hpp"

namespace bgp::upc {
namespace {

class ModeSweep : public ::testing::TestWithParam<int> {};

TEST_P(ModeSweep, EveryCounterCountsItsOwnModeOnly) {
  const u8 mode = static_cast<u8>(GetParam());
  UpcUnit u;
  u.set_mode(mode);
  u.start();
  // Signal one event in every mode at a few representative counters.
  for (unsigned counter : {0u, 1u, 17u, 128u, 255u}) {
    for (u8 m = 0; m < isa::kNumCounterModes; ++m) {
      const auto id = static_cast<isa::EventId>(m * isa::kCountersPerUnit +
                                                counter);
      u.signal(id, 10 + m);
    }
  }
  for (unsigned counter : {0u, 1u, 17u, 128u, 255u}) {
    EXPECT_EQ(u.read(static_cast<u8>(counter)), 10u + mode)
        << "mode " << int(mode) << " counter " << counter;
  }
}

INSTANTIATE_TEST_SUITE_P(AllModes, ModeSweep, ::testing::Range(0, 4));

TEST(UpcProperty, ModeSwitchPreservesPhysicalCounters) {
  // The paper: "usually, the whole UPC unit is set to a particular mode,
  // which decides the purpose for which each of the counters is used."
  // Switching modes must not clear the physical counters — software decides
  // when to reset.
  UpcUnit u;
  u.start();
  u.signal(isa::ev::fpu_op(0, isa::FpOp::kFma), 5);
  const u8 c = isa::event_counter(isa::ev::fpu_op(0, isa::FpOp::kFma));
  u.set_mode(1);
  EXPECT_EQ(u.read(c), 5u);  // stale but preserved
  u.set_mode(0);
  u.signal(isa::ev::fpu_op(0, isa::FpOp::kFma), 5);
  EXPECT_EQ(u.read(c), 10u);
}

TEST(UpcProperty, EveryCounterSupportsThresholding) {
  UpcUnit u;
  u.set_mode(2);
  u.start();
  unsigned fired = 0;
  u.add_threshold_listener([&](u8, u64) { ++fired; });
  for (unsigned counter = 0; counter < UpcUnit::kNumCounters; counter += 37) {
    CounterConfig cfg;
    cfg.interrupt_enable = true;
    cfg.threshold = 3;
    u.configure(static_cast<u8>(counter), cfg);
    const auto id =
        static_cast<isa::EventId>(2 * isa::kCountersPerUnit + counter);
    u.signal(id, 5);
  }
  EXPECT_EQ(fired, (UpcUnit::kNumCounters + 36) / 37);
}

TEST(UpcProperty, ConfigEncodingIsStableAcrossAllSixteenWords) {
  // decode(encode(x)) == x for the full 4-bit configuration space, via the
  // MMIO path.
  UpcUnit u;
  for (u32 word = 0; word < 16; ++word) {
    const addr_t a = u.mmio_base() + UpcUnit::kConfigOffset + 4 * (word % 7);
    u.mmio_write32(a, word);
    EXPECT_EQ(u.mmio_read32(a), word);
  }
}

TEST(UpcProperty, StopStartPairsNeverLoseCounts) {
  UpcUnit u;
  u.start();
  const auto id = isa::ev::int_op(3, isa::IntOp::kBranch);
  u64 expect = 0;
  for (int i = 0; i < 100; ++i) {
    u.signal(id, 7);
    expect += 7;
    u.stop();
    u.signal(id, 1000);  // must be dropped
    u.start();
  }
  EXPECT_EQ(u.read(isa::event_counter(id)), expect);
}

/// The per-report counting rule, applied eagerly: the reference the
/// store's lazily derived counters must match after every report. A report counts
/// iff the unit is running, set to the event's mode, and the counter is
/// enabled with an edge signal mode, all read back from the unit at that
/// report; the add is masked to the counter's width, and the interrupt is
/// due on the unwrapped crossing.
struct Reference {
  const UpcUnit& unit;
  std::array<u64, UpcUnit::kNumCounters> values;
  std::vector<std::pair<u8, u64>> interrupts;

  explicit Reference(const UpcUnit& u) : unit(u), values(u.snapshot()) {}

  /// Count one report made to `unit` in its current state.
  void report(isa::EventId id, u64 count) {
    if (!unit.running() || id >= isa::kNumEvents ||
        isa::event_mode(id) != unit.mode()) {
      return;
    }
    const u8 c = isa::event_counter(id);
    const CounterConfig& cfg = unit.config(c);
    if (!cfg.enabled || (cfg.signal != SignalMode::kEdgeRise &&
                         cfg.signal != SignalMode::kEdgeFall)) {
      return;
    }
    const u64 before = values[c];
    values[c] = (before + count) & unit.counter_mask(c);
    if (cfg.interrupt_enable && cfg.threshold != 0 &&
        before < cfg.threshold && before + count >= cfg.threshold) {
      interrupts.emplace_back(c, values[c]);
    }
  }
};

/// A unit in mode 1 with a mix of counter configurations: level-
/// configured and disabled counters, optionally armed thresholds (one of
/// them re-armed by the listener so it fires repeatedly), and one counter
/// narrowed to 12 bits and preloaded just below its wrap.
struct MixedFixture {
  UpcUnit unit;
  std::vector<std::pair<u8, u64>> interrupts;

  MixedFixture(const MixedFixture&) = delete;  // the listener holds `this`
  MixedFixture& operator=(const MixedFixture&) = delete;

  explicit MixedFixture(bool armed) {
    unit.set_mode(1);
    CounterConfig level;
    level.signal = SignalMode::kLevelHigh;
    CounterConfig disabled;
    disabled.enabled = false;
    for (u8 c = 0; c < 8; ++c) unit.configure(c, level);
    for (u8 c = 8; c < 16; ++c) unit.configure(c, disabled);
    unit.set_counter_width(200, 12);
    unit.write(200, 4000);  // wraps at 4096
    if (armed) {
      for (u8 c : {u8{20}, u8{40}, u8{200}, u8{255}}) {
        CounterConfig cfg;
        cfg.interrupt_enable = true;
        cfg.threshold = c == 200 ? 4090 : 500;
        unit.configure(c, cfg);
      }
    }
    unit.add_threshold_listener([this](u8 counter, u64 value) {
      interrupts.emplace_back(counter, value);
      if (counter == 40) {  // re-arm: fire again 500 counts later
        CounterConfig cfg = unit.config(counter);
        cfg.threshold = value + 500;
        unit.configure(counter, cfg);
      }
    });
    unit.start();
  }
};

/// n reports mixing own-mode (1) and other-mode ids, level-configured,
/// disabled, narrowed and threshold counters, the counters the test
/// reprograms mid-stream (30, 60, 61), kNoEvent and zero counts.
std::vector<isa::EventCount> mixed_reports(std::size_t n, u64 seed) {
  constexpr isa::EventId kReprogrammed[] = {256 + 30, 256 + 60, 256 + 61};
  std::mt19937_64 rng(seed);
  std::vector<isa::EventCount> reports;
  reports.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const u64 r = rng();
    isa::EventId id;
    switch (r % 8) {
      case 0: id = isa::kNoEvent; break;
      case 1: id = static_cast<isa::EventId>(rng() % isa::kNumEvents); break;
      case 2: id = static_cast<isa::EventId>(256 + rng() % 16); break;
      case 3: id = 256 + 200; break;
      case 4: id = rng() % 2 == 0 ? 256 + 20 : 256 + 40; break;
      case 5: id = kReprogrammed[rng() % 3]; break;
      default: id = static_cast<isa::EventId>(256 + rng() % 256); break;
    }
    const u64 count = (r >> 8) % 4 == 0 ? 0 : 1 + (r >> 16) % 90;
    reports.push_back({id, count});
  }
  return reports;
}

/// A unit in mode 1 whose counter 5 interrupts at 10, with a listener that
/// either stops the unit or switches it to mode 2: the reports after the
/// interrupt count in the unit's new state.
struct ControlFixture {
  enum class OnFire { kStop, kSetMode2 };
  UpcUnit unit;
  std::vector<std::pair<u8, u64>> interrupts;

  ControlFixture(const ControlFixture&) = delete;  // the listener holds `this`
  ControlFixture& operator=(const ControlFixture&) = delete;

  explicit ControlFixture(OnFire on_fire) {
    unit.set_mode(1);
    CounterConfig cfg;
    cfg.interrupt_enable = true;
    cfg.threshold = 10;
    unit.configure(5, cfg);
    unit.add_threshold_listener([this, on_fire](u8 counter, u64 value) {
      interrupts.emplace_back(counter, value);
      if (on_fire == OnFire::kStop) {
        unit.stop();
      } else {
        unit.set_mode(2);
      }
    });
    unit.start();
  }
};

/// 20 x {counter 5, 1} + {counter 7, 3} in mode 1, then the same shape in
/// mode 2.
std::vector<isa::EventCount> control_reports() {
  std::vector<isa::EventCount> reports;
  for (const isa::EventId base : {isa::EventId{256}, isa::EventId{512}}) {
    for (int i = 0; i < 20; ++i) reports.push_back({isa::EventId(base + 5), 1});
    reports.push_back({isa::EventId(base + 7), 3});
  }
  return reports;
}

/// Report to the unit and the reference, then compare everything a reader
/// can see.
::testing::AssertionResult report_both(
    UpcUnit& unit, Reference& ref,
    const std::vector<std::pair<u8, u64>>& interrupts,
    const isa::EventCount& e) {
  ref.report(e.id, e.count);  // reads the state before the report
  unit.signal(e.id, e.count);
  if (unit.snapshot() != ref.values) {
    return ::testing::AssertionFailure() << "counters differ";
  }
  if (interrupts != ref.interrupts ||
      unit.threshold_interrupts() != ref.interrupts.size()) {
    return ::testing::AssertionFailure()
           << "interrupts differ: " << interrupts.size() << " delivered, "
           << unit.threshold_interrupts() << " counted, "
           << ref.interrupts.size() << " due";
  }
  return ::testing::AssertionSuccess();
}

TEST(UpcProperty, StoreMatchesAReferenceCounterReportByReport) {
  for (const auto on_fire :
       {ControlFixture::OnFire::kStop, ControlFixture::OnFire::kSetMode2}) {
    const char* what =
        on_fire == ControlFixture::OnFire::kStop ? "stop" : "set_mode";
    ControlFixture f(on_fire);
    Reference ref(f.unit);
    const auto reports = control_reports();
    for (std::size_t i = 0; i < reports.size(); ++i) {
      ASSERT_TRUE(report_both(f.unit, ref, f.interrupts, reports[i]))
          << what << " report " << i;
    }
    // The interrupt lands on the tenth count of counter 5; only a unit
    // switched to mode 2 counts the rest.
    const bool stopped = on_fire == ControlFixture::OnFire::kStop;
    EXPECT_EQ(f.unit.read(5), stopped ? 10u : 30u) << what;
    EXPECT_EQ(f.unit.read(7), stopped ? 0u : 3u) << what;
  }

  for (const bool armed : {false, true}) {
    const char* what = armed ? "armed" : "unarmed";
    const auto reports = mixed_reports(2000, armed ? 2 : 1);
    MixedFixture f(armed);
    Reference ref(f.unit);
    const addr_t config30 =
        f.unit.mmio_base() + UpcUnit::kConfigOffset + 4 * 30;
    CounterConfig level;
    level.signal = SignalMode::kLevelHigh;
    u64 sum200 = 0;
    for (std::size_t i = 0; i < reports.size(); ++i) {
      // The store settles at each of these; the reference applies them to
      // its eager counts.
      switch (i) {
        case 500:
          f.unit.write(60, 0xABC);
          ref.values[60] = 0xABC;
          break;
        case 900:  // counter 61 narrows to 6 bits and wraps at 64...
          f.unit.set_counter_width(61, 6);
          ref.values[61] &= 0x3F;
          break;
        case 980:  // ...until it widens again, keeping its wraps
          f.unit.set_counter_width(61, 64);
          break;
        case 1000:
          f.unit.reset_counters();
          f.unit.write(200, 4000);
          ref.values.fill(0);
          ref.values[200] = 4000;
          sum200 = 4000;
          break;
        case 1300:  // counter 30 stops counting edges...
          f.unit.mmio_write32(config30, level.encode());
          break;
        case 1500:  // ...and resumes
          f.unit.mmio_write32(config30, CounterConfig{}.encode());
          break;
        default:
          break;
      }
      ASSERT_TRUE(report_both(f.unit, ref, f.interrupts, reports[i]))
          << what << " report " << i;
      if (i >= 1000 && reports[i].id == 256 + 200) sum200 += reports[i].count;
    }
    // The narrowed counter carried across its wrap; the level-configured
    // and disabled ones never moved.
    EXPECT_GT(sum200, 4096u) << what;
    EXPECT_EQ(f.unit.read(200), sum200 % 4096) << what;
    for (u8 c = 0; c < 16; ++c) EXPECT_EQ(f.unit.read(c), 0u) << what;
    if (armed) {
      // Counter 40 fired, was re-armed and fired again; counter 200
      // crossed 4090 on its way to the wrap.
      std::size_t fired40 = 0, fired200 = 0;
      for (const auto& [counter, value] : f.interrupts) {
        fired40 += counter == 40;
        fired200 += counter == 200;
      }
      EXPECT_GT(fired40, 1u);
      EXPECT_GE(fired200, 1u);
    } else {
      EXPECT_TRUE(f.interrupts.empty());
    }
  }
}

}  // namespace
}  // namespace bgp::upc
