// Microbenchmarks (google-benchmark) of the cache simulator's hot paths:
// L1 hits, full-hierarchy misses, prefetcher-covered streams, long reads
// and stores over a warm hierarchy and the DDR queueing model. These are
// the per-access costs that bound end-to-end simulation speed. The
// hierarchies count into a running UPC unit, as on a node.
#include <benchmark/benchmark.h>

#include "mem/hierarchy.hpp"

namespace {

using namespace bgp;
using namespace bgp::mem;

/// A running UPC unit in its power-on configuration.
upc::UpcUnit running_upc() {
  upc::UpcUnit u;
  u.start();
  return u;
}

void BM_L1Hit(benchmark::State& state) {
  upc::UpcUnit upc = running_upc();
  MemoryHierarchy h{HierarchyParams{}, upc};
  h.read(0, 0x1000, 32, 0);
  cycles_t acc = 0;
  for (auto _ : state) {
    acc += h.read(0, 0x1000, 32, 0).latency;
  }
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_L1Hit);

void BM_ColdMissChain(benchmark::State& state) {
  HierarchyParams p;
  p.prefetch.depth = 0;
  upc::UpcUnit upc = running_upc();
  MemoryHierarchy h{p, upc};
  addr_t a = 0;
  cycles_t acc = 0;
  for (auto _ : state) {
    acc += h.read(0, a, 32, 0).latency;
    a += 4096;  // new L1/L2/L3 line every time
  }
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_ColdMissChain);

void BM_StreamWithPrefetch(benchmark::State& state) {
  upc::UpcUnit upc = running_upc();
  MemoryHierarchy h{HierarchyParams{}, upc};
  addr_t a = 0;
  cycles_t now = 0;
  for (auto _ : state) {
    now += h.read(0, a, 32, now).latency;
    a += 32;
  }
  benchmark::DoNotOptimize(now);
}
BENCHMARK(BM_StreamWithPrefetch);

void BM_StoreWriteThrough(benchmark::State& state) {
  upc::UpcUnit upc = running_upc();
  MemoryHierarchy h{HierarchyParams{}, upc};
  addr_t a = 0;
  cycles_t acc = 0;
  for (auto _ : state) {
    acc += h.write(0, a, 32, 0).latency;
    a = (a + 32) % (64 * KiB);
  }
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_StoreWriteThrough);

/// Bytes in four L1D capacities: 4,096 L1 lines.
constexpr u64 kLongWalk = 4 * 32 * KiB;

void BM_LongReadWarm(benchmark::State& state) {
  upc::UpcUnit upc = running_upc();
  MemoryHierarchy h{HierarchyParams{}, upc};
  h.read(0, 0, kLongWalk, 0);  // the L3 now holds the range
  cycles_t acc = 0;
  for (auto _ : state) {
    acc += h.read(0, 0, kLongWalk, 0).latency;
  }
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(state.iterations() * (kLongWalk / 32));  // lines
}
BENCHMARK(BM_LongReadWarm);

void BM_LongStoreWarm(benchmark::State& state) {
  upc::UpcUnit upc = running_upc();
  MemoryHierarchy h{HierarchyParams{}, upc};
  h.write(0, 0, kLongWalk, 0);  // the L3 now holds the range, dirty
  cycles_t acc = 0;
  for (auto _ : state) {
    acc += h.write(0, 0, kLongWalk, 0).latency;
  }
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(state.iterations() * (kLongWalk / 32));  // lines
}
BENCHMARK(BM_LongStoreWarm);

void BM_DdrContention(benchmark::State& state) {
  DdrParams p;
  upc::UpcUnit upc = running_upc();
  DdrSystem ddr(p, upc);
  addr_t a = 0;
  cycles_t acc = 0;
  for (auto _ : state) {
    acc += ddr.access(a, AccessType::kRead, 0, 0).latency;
    a += 128;
  }
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_DdrContention);

void BM_SnoopWrite(benchmark::State& state) {
  upc::UpcUnit upc = running_upc();
  SnoopFilter f(16384, upc);
  f.record_fill(1, 7);
  addr_t line = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.on_write(0, line++ % 1024));
  }
}
BENCHMARK(BM_SnoopWrite);

}  // namespace

BENCHMARK_MAIN();
