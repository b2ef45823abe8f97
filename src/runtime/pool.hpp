// Execution resources for the epoch scheduler: ucontext fibers (one per
// rank, so 4096 ranks never means 4096 OS threads) and a bounded worker
// pool they are multiplexed onto.
//
// A Fiber is resumed from a worker thread and runs until it parks (or its
// entry function returns); parking switches straight back into resume()'s
// caller. A fiber may park on one worker and be resumed later on another —
// the return context is re-captured on every resume, and the
// AddressSanitizer/ThreadSanitizer fiber-switching hooks are kept informed
// on both edges of every switch so sanitized builds see the stack and
// happens-before structure correctly.
#pragma once

#include <ucontext.h>

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/types.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define BGP_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define BGP_ASAN_FIBERS 1
#endif
#endif

#if defined(__SANITIZE_THREAD__)
#define BGP_TSAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define BGP_TSAN_FIBERS 1
#endif
#endif

namespace bgp::rt {

/// A cooperatively-scheduled execution context with its own stack.
///
/// The stack is a private anonymous mapping of kStackBytes below one
/// PROT_NONE guard page: pages are faulted in only as the fiber touches
/// them, so an idle fiber costs a few KiB of RSS, and an overflow faults
/// on the guard instead of silently corrupting whatever lies below.
class Fiber {
 public:
  static constexpr std::size_t kStackBytes = 1024 * 1024;

  /// `entry` runs on the fiber's stack at the first resume(); when it
  /// returns the fiber is finished and resume() must not be called again.
  explicit Fiber(std::function<void()> entry);
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Run the fiber until it parks or finishes. Called from a worker (or
  /// the coordinator); only one thread may resume a given fiber at a time.
  void resume();
  /// Switch from inside the fiber back to whoever resumed it.
  void park();

  [[nodiscard]] bool finished() const noexcept { return finished_; }

 private:
  static void trampoline(unsigned hi, unsigned lo);
  void run_entry();

  std::function<void()> entry_;
  void* mapping_ = nullptr;  ///< guard page + stack, one mmap
  std::size_t mapping_bytes_ = 0;
  void* stack_ = nullptr;  ///< lowest usable stack byte
  ucontext_t ctx_{};      ///< the fiber's suspended context
  ucontext_t ret_ctx_{};  ///< where park() returns to (set per resume)
  bool started_ = false;
  bool finished_ = false;

#ifdef BGP_ASAN_FIBERS
  void* fiber_fake_stack_ = nullptr;  ///< fiber side, saved when parking
  void* host_fake_stack_ = nullptr;   ///< host side, saved when resuming
  const void* host_stack_bottom_ = nullptr;
  std::size_t host_stack_size_ = 0;
#endif
#ifdef BGP_TSAN_FIBERS
  void* tsan_fiber_ = nullptr;
  void* tsan_host_ = nullptr;
#endif
};

/// Fixed-size pool of worker threads draining a FIFO of tasks. Tasks are
/// posted under the scheduler's own locking; the pool only guarantees each
/// task runs exactly once on some worker.
class WorkerPool {
 public:
  explicit WorkerPool(unsigned num_workers);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  void post(std::function<void()> task);
  [[nodiscard]] unsigned size() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }

 private:
  void worker_main();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> tasks_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace bgp::rt
