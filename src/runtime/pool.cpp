#include "runtime/pool.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <stdexcept>

#ifdef BGP_ASAN_FIBERS
#include <sanitizer/common_interface_defs.h>
#endif
#ifdef BGP_TSAN_FIBERS
#include <sanitizer/tsan_interface.h>
#endif

namespace bgp::rt {

Fiber::Fiber(std::function<void()> entry) : entry_(std::move(entry)) {
  // Stacks grow down, so the guard page sits at the low end.
  const auto guard = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  mapping_bytes_ = guard + kStackBytes;
  mapping_ = mmap(nullptr, mapping_bytes_, PROT_READ | PROT_WRITE,
                  MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
  if (mapping_ == MAP_FAILED) {
    throw std::runtime_error("fiber: stack mmap failed");
  }
  if (mprotect(mapping_, guard, PROT_NONE) != 0) {
    munmap(mapping_, mapping_bytes_);
    throw std::runtime_error("fiber: guard page mprotect failed");
  }
  stack_ = static_cast<std::byte*>(mapping_) + guard;
  if (getcontext(&ctx_) != 0) {
    munmap(mapping_, mapping_bytes_);
    throw std::runtime_error("fiber: getcontext failed");
  }
  ctx_.uc_stack.ss_sp = stack_;
  ctx_.uc_stack.ss_size = kStackBytes;
  ctx_.uc_link = nullptr;  // termination switches back manually
  const auto self = reinterpret_cast<std::uintptr_t>(this);
  makecontext(&ctx_, reinterpret_cast<void (*)()>(&Fiber::trampoline), 2,
              static_cast<unsigned>(self >> 32),
              static_cast<unsigned>(self & 0xffffffffu));
#ifdef BGP_TSAN_FIBERS
  tsan_fiber_ = __tsan_create_fiber(0);
#endif
}

Fiber::~Fiber() {
#ifdef BGP_TSAN_FIBERS
  if (tsan_fiber_ != nullptr) __tsan_destroy_fiber(tsan_fiber_);
#endif
  munmap(mapping_, mapping_bytes_);
}

void Fiber::trampoline(unsigned hi, unsigned lo) {
  const auto self = (static_cast<std::uintptr_t>(hi) << 32) |
                    static_cast<std::uintptr_t>(lo);
  reinterpret_cast<Fiber*>(self)->run_entry();
}

void Fiber::run_entry() {
#ifdef BGP_ASAN_FIBERS
  // First entry: complete the host->fiber switch and learn the resuming
  // thread's stack bounds so park() can annotate the way back.
  __sanitizer_finish_switch_fiber(nullptr, &host_stack_bottom_,
                                  &host_stack_size_);
#endif
  entry_();
  finished_ = true;
  // Final switch out: the fiber never resumes, so its fake stack (if any)
  // is released rather than saved.
#ifdef BGP_ASAN_FIBERS
  __sanitizer_start_switch_fiber(nullptr, host_stack_bottom_,
                                 host_stack_size_);
#endif
#ifdef BGP_TSAN_FIBERS
  __tsan_switch_to_fiber(tsan_host_, 0);
#endif
  swapcontext(&ctx_, &ret_ctx_);
}

void Fiber::resume() {
  started_ = true;
#ifdef BGP_TSAN_FIBERS
  tsan_host_ = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(tsan_fiber_, 0);
#endif
#ifdef BGP_ASAN_FIBERS
  __sanitizer_start_switch_fiber(&host_fake_stack_, stack_, kStackBytes);
#endif
  swapcontext(&ret_ctx_, &ctx_);
#ifdef BGP_ASAN_FIBERS
  __sanitizer_finish_switch_fiber(host_fake_stack_, nullptr, nullptr);
#endif
}

void Fiber::park() {
#ifdef BGP_ASAN_FIBERS
  __sanitizer_start_switch_fiber(&fiber_fake_stack_, host_stack_bottom_,
                                 host_stack_size_);
#endif
#ifdef BGP_TSAN_FIBERS
  __tsan_switch_to_fiber(tsan_host_, 0);
#endif
  swapcontext(&ctx_, &ret_ctx_);
#ifdef BGP_ASAN_FIBERS
  // Resumed again, possibly from a different worker: refresh the host
  // stack bounds for the next park.
  __sanitizer_finish_switch_fiber(fiber_fake_stack_, &host_stack_bottom_,
                                  &host_stack_size_);
#endif
}

WorkerPool::WorkerPool(unsigned num_workers) {
  workers_.reserve(num_workers == 0 ? 1 : num_workers);
  for (unsigned i = 0; i < (num_workers == 0 ? 1 : num_workers); ++i) {
    workers_.emplace_back([this] { worker_main(); });
  }
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void WorkerPool::post(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void WorkerPool::worker_main() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // stop_ and drained
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task();
  }
}

}  // namespace bgp::rt
