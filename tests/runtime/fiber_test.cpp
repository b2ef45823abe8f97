// Fiber stacks: mapped, not zero-filled, so a fiber that never touches its
// stack costs almost no resident memory, and an overflow hits a guard page.
#include <gtest/gtest.h>

#include <malloc.h>

#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "runtime/pool.hpp"

namespace bgp::rt {
namespace {

/// This process's resident set in KiB (VmRSS in /proc/self/status).
long vm_rss_kib() {
  std::ifstream in("/proc/self/status");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("VmRSS:", 0) == 0) return std::stol(line.substr(6));
  }
  return -1;
}

TEST(Fiber, IdleStacksAreNotResident) {
  constexpr int kFibers = 64;
  const long before = vm_rss_kib();
  ASSERT_GT(before, 0);
  int ran = 0;
  std::vector<std::unique_ptr<Fiber>> fibers;
  for (int i = 0; i < kFibers; ++i) {
    fibers.push_back(std::make_unique<Fiber>([&ran] { ++ran; }));
    fibers.back()->resume();
    EXPECT_TRUE(fibers.back()->finished());
  }
  EXPECT_EQ(ran, kFibers);
  // Zero-filled stacks would add kFibers MiB with every fiber still alive.
  EXPECT_LT(vm_rss_kib() - before, 8 * 1024);
}

/// Recurses through `frames` frames of at least 1 KiB each. Each frame
/// stores into its own volatile array after the call returns, so the
/// compiler can neither elide the frames nor turn the recursion into a
/// loop, and no two consecutive stack writes are a page apart.
int recurse(int depth, int frames) {
  volatile char frame[1024];
  frame[0] = static_cast<char>(depth);
  frame[1] = 0;
  if (depth < frames) frame[1] = static_cast<char>(recurse(depth + 1, frames));
  return frame[0] + frame[1];
}

TEST(FiberDeathTest, StackOverflowFaultsOnTheGuardPage) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        // Serve large allocations from the heap, as perfbench configures
        // glibc, and put a buffer below the fiber's stack: an unguarded
        // overflow then writes into the buffer and the fiber returns.
        mallopt(M_MMAP_THRESHOLD, 64 << 20);
        std::vector<char> below(4 << 20, 1);
        constexpr int kFrames = (Fiber::kStackBytes + (256 << 10)) / 1024;
        Fiber fiber([] { (void)recurse(0, kFrames); });
        fiber.resume();
        std::_Exit(0);
      },
      "");
}

}  // namespace
}  // namespace bgp::rt
