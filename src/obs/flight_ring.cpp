#include "obs/flight_ring.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <span>
#include <system_error>

#include "common/binio.hpp"

namespace bgp::obs {

namespace {

// Offsets of the header words written in place (docs/formats.md).
constexpr std::size_t kOffClean = 20;
constexpr std::size_t kOffHead = 24;
constexpr std::size_t kHeaderBytes = 32;

// Slot: u64 seq, then one frame of the record text.
constexpr std::size_t kSeqBytes = 8;
constexpr std::size_t kSlotFrameBytes = kSeqBytes + kFrameHeaderBytes;

template <typename T>
void store_raw(std::byte* base, std::size_t off, T v) noexcept {
  std::memcpy(base + off, &v, sizeof(T));
}

[[nodiscard]] std::atomic_ref<u64> seq_ref(std::byte* slot) noexcept {
  return std::atomic_ref<u64>(*reinterpret_cast<u64*>(slot));
}

/// Validate slot `index` of a ring whose head is `head` without allocating
/// (async-signal-safe). A record is a whole frame whose sequence number is
/// one the writer gave this slot: claim `seq - 1` maps to slot
/// `(seq - 1) % num_slots`, and the ring holds the last `num_slots` claims.
/// On success points `text`/`len` into the mapping.
bool slot_ok(const std::byte* slot, u64 index, u32 slot_bytes, u32 num_slots,
             u64 head, u64& seq, const char*& text, u32& len) noexcept {
  seq = std::atomic_ref<const u64>(*reinterpret_cast<const u64*>(slot))
            .load(std::memory_order_acquire);
  if (seq == 0 || seq > head || head - seq >= num_slots ||
      (seq - 1) % num_slots != index) {
    return false;
  }
  const Frame frame =
      decode_frame({slot + kSeqBytes, slot_bytes - kSeqBytes},
                   slot_bytes - static_cast<u32>(kSlotFrameBytes));
  if (frame.status != FrameStatus::kOk) return false;
  text = reinterpret_cast<const char*>(frame.payload.data());
  len = frame.length;
  return true;
}

[[nodiscard]] u32 round_up8(u32 v) noexcept { return (v + 7u) & ~7u; }

/// The records of the ring laid out at `base`, in sequence order.
std::vector<std::string> collect(const std::byte* base, u32 slot_bytes,
                                 u32 num_slots, u64 head) {
  std::vector<std::pair<u64, std::string>> found;
  for (u32 i = 0; i < num_slots; ++i) {
    u64 seq = 0;
    u32 len = 0;
    const char* text = nullptr;
    if (slot_ok(base + kHeaderBytes + std::size_t{i} * slot_bytes, i,
                slot_bytes, num_slots, head, seq, text, len)) {
      found.emplace_back(seq, std::string(text, len));
    }
  }
  std::sort(found.begin(), found.end());
  std::vector<std::string> out;
  out.reserve(found.size());
  for (auto& [seq, text] : found) out.push_back(std::move(text));
  return out;
}

void throw_errno(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

}  // namespace

std::vector<std::string> salvage_flight_ring(
    const std::filesystem::path& path) {
  try {
    const std::vector<std::byte> buf = read_file_bytes(path);
    BinaryReader r(buf);
    char magic[sizeof(kFlightMagic)];
    r.get_array(std::span(magic));
    const u32 version = r.get<u32>();
    const u32 slot_bytes = r.get<u32>();
    const u32 num_slots = r.get<u32>();
    const u32 clean = r.get<u32>();
    const u64 head = r.get<u64>();
    // A foreign file, a clean close (no crash to explain), or a geometry
    // the writer cannot have made or the file does not match exactly:
    // nothing to salvage.
    if (std::memcmp(magic, kFlightMagic, sizeof(kFlightMagic)) != 0 ||
        version != kFlightVersion || clean != 0 ||
        slot_bytes < kSlotFrameBytes + 1 || slot_bytes > (1u << 20) ||
        slot_bytes % 8 != 0 ||
        num_slots == 0 || num_slots > (1u << 20) ||
        buf.size() != kHeaderBytes + std::size_t{slot_bytes} * num_slots) {
      return {};
    }
    return collect(buf.data(), slot_bytes, num_slots, head);
  } catch (const BinIoError&) {
    return {};  // missing or shorter than a header
  }
}

FlightRing::FlightRing(FlightRingConfig cfg) : cfg_(std::move(cfg)) {
  cfg_.slot_bytes = std::max<u32>(round_up8(cfg_.slot_bytes), 32);
  cfg_.num_slots = std::max<u32>(cfg_.num_slots, 8);

  // A pre-existing dirty ring is crash evidence: salvage before reset.
  std::error_code ec;
  if (std::filesystem::exists(cfg_.path, ec)) {
    salvaged_ = salvage_flight_ring(cfg_.path);
    recovered_dirty_ = !salvaged_.empty();
  }

  map_bytes_ = kHeaderBytes +
               static_cast<std::size_t>(cfg_.slot_bytes) * cfg_.num_slots;
  const int fd =
      ::open(cfg_.path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) throw_errno("flight ring open");
  if (::ftruncate(fd, static_cast<off_t>(map_bytes_)) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    throw_errno("flight ring ftruncate");
  }
  void* p = ::mmap(nullptr, map_bytes_, PROT_READ | PROT_WRITE, MAP_SHARED,
                   fd, 0);
  ::close(fd);
  if (p == MAP_FAILED) throw_errno("flight ring mmap");
  map_ = static_cast<std::byte*>(p);

  // Reset: fresh header, dirty while open, all slots empty.
  std::memset(map_, 0, map_bytes_);
  BinaryWriter header;
  header.put_array(std::span(kFlightMagic));
  header.put<u32>(kFlightVersion);
  header.put<u32>(cfg_.slot_bytes);
  header.put<u32>(cfg_.num_slots);
  header.put<u32>(0);  // clean flag
  header.put<u64>(0);  // head
  std::memcpy(map_, header.buffer().data(), header.size());
}

FlightRing::~FlightRing() {
  if (map_ != nullptr) {
    // Clean close: the next open knows there is no crash to explain.
    store_raw<u32>(map_, kOffClean, 1);
    ::munmap(map_, map_bytes_);
  }
}

std::byte* FlightRing::slot_base(u64 index) const noexcept {
  return map_ + kHeaderBytes +
         static_cast<std::size_t>(index % cfg_.num_slots) * cfg_.slot_bytes;
}

u64 FlightRing::head() const noexcept {
  return std::atomic_ref<const u64>(
             *reinterpret_cast<const u64*>(map_ + kOffHead))
      .load(std::memory_order_acquire);
}

void FlightRing::append(std::string_view line) noexcept {
  // An empty frame is not a record: there is nothing to append.
  if (line.empty()) return;
  const u32 capacity = cfg_.slot_bytes - kSlotFrameBytes;
  const u32 len =
      static_cast<u32>(std::min<std::size_t>(line.size(), capacity));

  std::lock_guard lk(mu_);
  std::atomic_ref<u64> head(*reinterpret_cast<u64*>(map_ + kOffHead));
  const u64 claim = head.load(std::memory_order_relaxed);
  std::byte* slot = slot_base(claim);

  // Invalidate -> frame -> publish: a crash at any point leaves either the
  // old record (CRC-valid), an empty slot, or a CRC-invalid torn frame —
  // never a wrong-but-valid record.
  seq_ref(slot).store(0, std::memory_order_release);
  encode_frame(slot + kSeqBytes,
               {reinterpret_cast<const std::byte*>(line.data()), len});
  seq_ref(slot).store(claim + 1, std::memory_order_release);
  head.store(claim + 1, std::memory_order_release);
}

std::vector<std::string> FlightRing::records() const {
  std::lock_guard lk(mu_);
  return collect(map_, cfg_.slot_bytes, cfg_.num_slots, head());
}

void FlightRing::dump_signal_safe(int fd) const noexcept {
  if (map_ == nullptr) return;
  // No allocation, no locks, only write(2): scan for the live sequence
  // range, then emit records in order by rescanning per sequence number
  // (O(slots^2) worst case — irrelevant on the way down).
  u64 lo = ~u64{0};
  u64 hi = 0;
  for (u32 i = 0; i < cfg_.num_slots; ++i) {
    u64 seq = 0;
    u32 len = 0;
    const char* text = nullptr;
    if (slot_ok(slot_base(i), i, cfg_.slot_bytes, cfg_.num_slots, head(),
                seq, text, len)) {
      lo = std::min(lo, seq);
      hi = std::max(hi, seq);
    }
  }
  if (lo > hi) return;
  if (hi - lo >= cfg_.num_slots) hi = lo + cfg_.num_slots - 1;
  for (u64 s = lo; s <= hi; ++s) {
    for (u32 i = 0; i < cfg_.num_slots; ++i) {
      u64 seq = 0;
      u32 len = 0;
      const char* text = nullptr;
      if (!slot_ok(slot_base(i), i, cfg_.slot_bytes, cfg_.num_slots, head(),
                   seq, text, len)) {
        continue;
      }
      if (seq != s) continue;
      std::size_t off = 0;
      while (off < len) {
        const ssize_t n = ::write(fd, text + off, len - off);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) return;
        off += static_cast<std::size_t>(n);
      }
      ssize_t n;
      do {
        n = ::write(fd, "\n", 1);
      } while (n < 0 && errno == EINTR);
      break;
    }
  }
}

}  // namespace bgp::obs
