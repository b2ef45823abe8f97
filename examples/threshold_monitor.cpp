// Thresholding demo (paper §I/§III-A): arm a counter threshold so the UPC
// unit raises an interrupt when an event count is crossed — the mechanism
// the paper proposes for dynamic feedback to data placement, thread
// assignment and communication tuning.
//
//   build/examples/threshold_monitor
#include <cstdio>

#include "core/session.hpp"
#include "runtime/rankctx.hpp"

using namespace bgp;

int main() {
  rt::MachineConfig mc;
  mc.num_nodes = 1;
  mc.mode = sys::OpMode::kSmp1;
  rt::Machine machine(mc);
  pc::Options opts;
  opts.write_dumps = false;
  pc::Session session(machine, opts);

  // Watch L1D read misses; fire when the working set starts thrashing.
  const isa::EventId watched = isa::ev::l1d(0, isa::L1dEvent::kReadMiss);
  constexpr u64 kThreshold = 2000;

  unsigned interrupts = 0;
  machine.partition().node(0).upc().add_threshold_listener(
      [&](u8 counter, u64 value) {
        ++interrupts;
        std::printf(">>> threshold interrupt: counter %u (%s) reached %llu\n",
                    counter,
                    std::string(isa::event_info(watched).name).c_str(),
                    static_cast<unsigned long long>(value));
      });

  machine.run([&](rt::RankCtx& ctx) {
    session.BGP_Initialize(ctx);
    session.arm_threshold(ctx, watched, kThreshold);
    session.BGP_Start(ctx);

    // Phase 1: cache-friendly walks — few misses, no interrupt.
    auto small = ctx.alloc<double>(2048);  // 16 KiB, fits L1
    for (int pass = 0; pass < 8; ++pass) {
      ctx.touch(rt::MemRange{small.addr(), small.bytes(), false}, 3.0);
    }
    std::printf("after cache-friendly phase: interrupts=%u (expect 0)\n",
                interrupts);

    // Phase 2: a 2 MiB streaming walk blows through the L1 and trips the
    // threshold; a runtime system could react by re-blocking the loop.
    auto big = ctx.alloc<double>(256 * 1024);
    for (int pass = 0; pass < 2; ++pass) {
      ctx.touch(rt::MemRange{big.addr(), big.bytes(), false}, 3.0);
    }
    std::printf("after streaming phase:      interrupts=%u (expect 1)\n",
                interrupts);

    session.BGP_Stop(ctx);
  });

  const u64 misses = session.monitor(0).set_record(0).deltas[
      isa::event_counter(watched)];
  std::printf("total L1D read misses in set 0: %llu (threshold %llu)\n",
              static_cast<unsigned long long>(misses),
              static_cast<unsigned long long>(kThreshold));
  return interrupts == 1 ? 0 : 1;
}
