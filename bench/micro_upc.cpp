// Microbenchmarks (google-benchmark) of the UPC-unit model's hot paths:
// event signaling, counter reads, MMIO access and the interface library's
// set bookkeeping. These bound the *simulator's* overhead, complementing
// tab_overhead which reports the *modelled* 196-cycle hardware cost.
#include <benchmark/benchmark.h>

#include "core/node_monitor.hpp"
#include "upc/upc_unit.hpp"

namespace {

using namespace bgp;

void BM_UpcSignal(benchmark::State& state) {
  upc::UpcUnit u;
  u.start();
  const auto ev = isa::ev::fpu_op(0, isa::FpOp::kSimdFma);
  for (auto _ : state) {
    u.signal(ev, 3);
    benchmark::ClobberMemory();  // every report reaches memory
  }
  benchmark::DoNotOptimize(u.read(isa::event_counter(ev)));
}
BENCHMARK(BM_UpcSignal);

void BM_UpcSignalWrongMode(benchmark::State& state) {
  upc::UpcUnit u;
  u.start();
  const auto ev = isa::ev::l3(isa::L3Event::kReadMiss);  // mode 1, unit in 0
  for (auto _ : state) {
    u.signal(ev, 1);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_UpcSignalWrongMode);

/// A unit whose counter `armed` interrupts far beyond any count the
/// benchmark reaches, so reports on its line take the watched path without
/// firing.
upc::UpcUnit unit_with_armed(isa::EventId armed) {
  upc::UpcUnit u;
  u.start();
  upc::CounterConfig cfg;
  cfg.interrupt_enable = true;
  cfg.threshold = ~u64{0};
  u.configure(isa::event_counter(armed), cfg);
  return u;
}

// A report on an unarmed line while another counter is armed: what every
// other event of a traced node costs.
void BM_UpcSignalOtherLineArmed(benchmark::State& state) {
  upc::UpcUnit u = unit_with_armed(isa::ev::cycle_count(0));
  const auto ev = isa::ev::fpu_op(0, isa::FpOp::kSimdFma);
  for (auto _ : state) {
    u.signal(ev, 3);
    benchmark::ClobberMemory();
  }
  benchmark::DoNotOptimize(u.read(isa::event_counter(ev)));
}
BENCHMARK(BM_UpcSignalOtherLineArmed);

// A report on the armed line itself: checks its crossing at the report.
void BM_UpcSignalArmedLine(benchmark::State& state) {
  const auto ev = isa::ev::cycle_count(0);
  upc::UpcUnit u = unit_with_armed(ev);
  for (auto _ : state) {
    u.signal(ev, 3);
    benchmark::ClobberMemory();
  }
  benchmark::DoNotOptimize(u.read(isa::event_counter(ev)));
}
BENCHMARK(BM_UpcSignalArmedLine);

void BM_UpcMmioRead(benchmark::State& state) {
  upc::UpcUnit u;
  u.write(17, 42);
  u64 acc = 0;
  for (auto _ : state) {
    acc += u.mmio_read64(u.mmio_base() + 8 * 17);
  }
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_UpcMmioRead);

void BM_UpcSnapshot(benchmark::State& state) {
  upc::UpcUnit u;
  for (auto _ : state) {
    auto snap = u.snapshot();
    benchmark::DoNotOptimize(snap);
  }
}
BENCHMARK(BM_UpcSnapshot);

void BM_MonitorStartStop(benchmark::State& state) {
  sys::Node node(0);
  pc::Options opts;
  pc::NodeMonitor mon(node, opts);
  mon.initialize();
  for (auto _ : state) {
    mon.start(0, 0);
    mon.stop(0, 1);
  }
}
BENCHMARK(BM_MonitorStartStop);

void BM_DumpSerialize(benchmark::State& state) {
  pc::NodeDump dump;
  dump.sets.resize(4);
  for (auto _ : state) {
    auto bytes = pc::NodeMonitor::serialize(dump);
    benchmark::DoNotOptimize(bytes);
  }
}
BENCHMARK(BM_DumpSerialize);

}  // namespace

BENCHMARK_MAIN();
