// Allocation cap for the reader corpus: any single operator new above
// 256 MiB throws std::bad_alloc. A reader that sizes a buffer from a corrupt
// length then fails the corpus on every host, instead of quietly passing
// on one with enough memory. Sanitizer builds keep their own allocator and
// get the same cap from ASAN_OPTIONS=max_allocation_size_mb=256 (see
// tests/CMakeLists.txt).
#include <cstdlib>
#include <new>

#if !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)

namespace {
constexpr std::size_t kMaxAllocationBytes = std::size_t{256} << 20;
}  // namespace

void* operator new(std::size_t bytes) {
  if (bytes > kMaxAllocationBytes) throw std::bad_alloc();
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t bytes) { return ::operator new(bytes); }

#endif
