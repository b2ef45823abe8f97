#include "daemon/snapfile.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <stdexcept>

#include "common/binio.hpp"
#include "common/crc.hpp"
#include "common/strfmt.hpp"
#include "fault/fault.hpp"

namespace bgp::daemon {

namespace {

constexpr std::size_t round8(std::size_t n) { return (n + 7) & ~std::size_t{7}; }

// Fixed layout, every offset u64-aligned so atomic_ref is legal
// (docs/formats.md): the sealed header padded to a whole word, node blocks
// of a seq word, an active-slot word and two slots, then the metrics block
// in the same shape.
constexpr std::size_t kHeaderBytes =
    round8(48 + 2 * kSnapNameBytes + sizeof(u32));
constexpr std::size_t kSlotWords = 5 + isa::kCountersPerUnit + 1;
constexpr std::size_t kSlotBytes = kSlotWords * sizeof(u64);
constexpr std::size_t kNodeBlockBytes = 16 + 2 * kSlotBytes;

std::atomic_ref<u64> word_ref(const std::byte* p) {
  // atomic_ref wants a mutable lvalue even for loads; readers of a
  // PROT_READ mapping never store through it.
  return std::atomic_ref<u64>(
      *reinterpret_cast<u64*>(const_cast<std::byte*>(p)));
}

void store_words_release(std::byte* dst, const u64* src, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    word_ref(dst + i * sizeof(u64)).store(src[i], std::memory_order_release);
  }
}

void load_words_acquire(u64* dst, const std::byte* src, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = word_ref(src + i * sizeof(u64)).load(std::memory_order_acquire);
  }
}

/// Each completed publish adds 2 to a block's sequence word and flips its
/// active slot, which starts at 0: the slot a stable sequence points at.
constexpr u64 active_slot_of(u64 seq) { return (seq >> 1) & 1; }

/// Publish `n` staged words into the inactive slot of the seqlocked block
/// at `block`. With `torn` only half of them land and the sequence stays
/// odd: a writer that died mid-publish.
void publish_slot(std::byte* block, std::size_t slot_bytes, const u64* staged,
                  std::size_t n, bool torn) {
  auto seq = word_ref(block);
  auto active = word_ref(block + 8);
  const u64 next = 1 - active.load(std::memory_order_relaxed);
  seq.fetch_add(1, std::memory_order_acq_rel);  // odd: publish in flight
  store_words_release(block + 16 + next * slot_bytes, staged,
                      torn ? n / 2 : n);
  if (torn) return;
  active.store(next, std::memory_order_release);
  seq.fetch_add(1, std::memory_order_release);  // even: stable again
}

/// Copy the active slot of the seqlocked block at `block` into `staged`,
/// retrying while a writer races. kCorrupt when a stable sequence points
/// at a slot it never published. The slot words are acquire loads: one
/// that reads a newer publish's (release) store synchronizes with it, so
/// the second sequence load sees that publish's odd count and the copy is
/// retried.
SnapReadStatus copy_slot(const std::byte* block, std::size_t slot_bytes,
                         u64* staged, std::size_t n, unsigned max_retries) {
  auto seq = word_ref(block);
  auto active = word_ref(block + 8);
  for (unsigned attempt = 0; attempt <= max_retries; ++attempt) {
    const u64 s1 = seq.load(std::memory_order_acquire);
    if (s1 % 2 != 0) continue;  // publish in flight
    const u64 idx = active.load(std::memory_order_acquire);
    load_words_acquire(staged, block + 16 + (idx & 1) * slot_bytes, n);
    if (seq.load(std::memory_order_acquire) != s1) continue;  // torn, retry
    return idx == active_slot_of(s1) ? SnapReadStatus::kOk
                                     : SnapReadStatus::kCorrupt;
  }
  // The sequence never stabilized: either a live writer is publishing
  // faster than we can copy (transient) or the writer died mid-publish
  // and the lock is held forever (stale). The caller decides via retry.
  return SnapReadStatus::kBusy;
}

struct Geometry {
  std::size_t node0_offset = kHeaderBytes;
  std::size_t node_block_bytes = kNodeBlockBytes;
  std::size_t metrics_offset = 0;
  std::size_t metrics_capacity = 0;
  std::size_t total = 0;
};

Geometry make_geometry(unsigned num_nodes, std::size_t metrics_capacity) {
  Geometry g;
  g.metrics_capacity = round8(metrics_capacity);
  g.metrics_offset = g.node0_offset + num_nodes * g.node_block_bytes;
  const std::size_t mslot = 16 + g.metrics_capacity;
  g.total = g.metrics_offset + 16 + 2 * mslot;
  return g;
}

/// A name field: zero-padded, truncated to leave a terminating NUL.
void put_name(BinaryWriter& w, const std::string& name) {
  std::array<char, kSnapNameBytes> buf{};
  std::memcpy(buf.data(), name.data(),
              std::min(name.size(), kSnapNameBytes - 1));
  w.put_array(std::span(buf));
}

std::string get_name(BinaryReader& r) {
  std::array<char, kSnapNameBytes> buf;
  r.get_array(std::span(buf));
  buf.back() = '\0';
  return std::string(buf.data());
}

}  // namespace

const char* to_string(SnapReadStatus status) noexcept {
  switch (status) {
    case SnapReadStatus::kOk: return "ok";
    case SnapReadStatus::kBusy: return "busy";
    case SnapReadStatus::kCorrupt: return "corrupt";
  }
  return "unknown";
}

SnapshotWriter::SnapshotWriter(const std::filesystem::path& path,
                               const std::string& app,
                               const std::string& session, unsigned num_nodes,
                               std::size_t metrics_capacity,
                               fault::DaemonFaultInjector* faults)
    : path_(path),
      num_nodes_(num_nodes),
      metrics_capacity_(round8(metrics_capacity)),
      faults_(faults) {
  const Geometry g = make_geometry(num_nodes, metrics_capacity);
  // Build the file under a temporary name and rename it into place once the
  // header and the idle slots are written: an attacher never maps a file
  // without its magic, and a reader still attached to an earlier run's
  // file at `path` keeps that file instead of seeing it truncated.
  std::filesystem::path tmp = path;
  tmp += ".tmp";
  const auto fail = [&](const char* what, int err) {
    if (map_ != nullptr) ::munmap(map_, map_bytes_);
    map_ = nullptr;
    ::unlink(tmp.c_str());
    throw std::runtime_error(strfmt("cannot %s snapshot file %s: %s", what,
                                    path.c_str(), std::strerror(err)));
  };
  const int fd = ::open(tmp.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) fail("create", errno);
  if (::ftruncate(fd, static_cast<off_t>(g.total)) != 0) {
    const int err = errno;
    ::close(fd);
    fail("size", err);
  }
  void* map = ::mmap(nullptr, g.total, PROT_READ | PROT_WRITE, MAP_SHARED,
                     fd, 0);
  const int map_err = errno;
  ::close(fd);
  if (map == MAP_FAILED) fail("mmap", map_err);
  map_ = static_cast<std::byte*>(map);
  map_bytes_ = g.total;

  BinaryWriter header;
  header.put_array(std::span(kSnapMagic));
  header.put<u32>(kSnapVersion);
  header.put<u32>(num_nodes);
  for (const u64 word : {g.node0_offset, g.node_block_bytes, g.metrics_offset,
                         g.metrics_capacity}) {
    header.put<u64>(word);
  }
  put_name(header, app);
  put_name(header, session);
  header.seal();
  std::memcpy(map_, header.buffer().data(), header.size());

  // Seed every node with a readable kIdle slot: an attach racing session
  // startup must distinguish "not started yet" from corruption, and an
  // all-zero slot fails its CRC.
  const std::array<u64, isa::kCountersPerUnit> zeros{};
  for (unsigned node = 0; node < num_nodes_; ++node) {
    publish_node(node, node, 0, 0, SnapState::kIdle, 0, zeros);
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) fail("publish", errno);
}

SnapshotWriter::~SnapshotWriter() {
  if (map_ != nullptr) ::munmap(map_, map_bytes_);
}

void SnapshotWriter::publish_node(
    unsigned node, u32 node_id, u32 card_id, u32 mode, SnapState state,
    cycles_t now, const std::array<u64, isa::kCountersPerUnit>& counters) {
  if (node >= num_nodes_) {
    throw std::out_of_range(strfmt("snapshot node %u out of range", node));
  }
  u64 staged[kSlotWords];
  staged[0] = now;
  staged[1] = mode;
  staged[2] = static_cast<u64>(state);
  staged[3] = node_id;
  staged[4] = card_id;
  std::memcpy(&staged[5], counters.data(), sizeof(u64) * counters.size());
  staged[kSlotWords - 1] =
      crc32({reinterpret_cast<const std::byte*>(staged),
             (kSlotWords - 1) * sizeof(u64)});

  // An injected crash mid-publish leaves the seqlock odd: readers must
  // classify it as writer-gone, never spin forever.
  publish_slot(map_ + kHeaderBytes + node * kNodeBlockBytes, kSlotBytes,
               staged, kSlotWords,
               faults_ != nullptr && faults_->next_snapshot_publish_torn());
}

void SnapshotWriter::publish_metrics(std::string_view text) {
  const std::size_t len = std::min(text.size(), metrics_capacity_);
  std::vector<u64> staged(2 + metrics_capacity_ / sizeof(u64), 0);
  staged[0] = len;
  staged[1] = crc32({reinterpret_cast<const std::byte*>(text.data()), len});
  std::memcpy(&staged[2], text.data(), len);

  publish_slot(map_ + map_bytes_ - (16 + 2 * (16 + metrics_capacity_)),
               16 + metrics_capacity_, staged.data(), staged.size(), false);
}

SnapshotReader SnapshotReader::open_file(const std::filesystem::path& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    throw std::runtime_error(strfmt("cannot open snapshot file %s: %s",
                                    path.c_str(), std::strerror(errno)));
  }
  struct stat st {};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    throw std::runtime_error(
        strfmt("cannot stat snapshot file %s", path.c_str()));
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  void* map = ::mmap(nullptr, size, PROT_READ, MAP_SHARED, fd, 0);
  ::close(fd);
  if (map == MAP_FAILED) {
    throw std::runtime_error(strfmt("cannot mmap snapshot file %s: %s",
                                    path.c_str(), std::strerror(errno)));
  }
  SnapshotReader r;
  r.owns_map_ = true;
  try {
    r.init(static_cast<const std::byte*>(map), size);
  } catch (...) {
    ::munmap(map, size);
    r.base_ = nullptr;
    throw;
  }
  return r;
}

SnapshotReader SnapshotReader::from_view(const std::byte* data,
                                         std::size_t size) {
  SnapshotReader r;
  r.init(data, size);
  return r;
}

SnapshotReader::SnapshotReader(SnapshotReader&& other) noexcept
    : base_(other.base_),
      bytes_(other.bytes_),
      owns_map_(other.owns_map_),
      num_nodes_(other.num_nodes_),
      metrics_capacity_(other.metrics_capacity_),
      app_(std::move(other.app_)),
      session_(std::move(other.session_)) {
  other.base_ = nullptr;
  other.owns_map_ = false;
}

SnapshotReader::~SnapshotReader() {
  if (owns_map_ && base_ != nullptr) {
    ::munmap(const_cast<std::byte*>(base_), bytes_);
  }
}

void SnapshotReader::init(const std::byte* data, std::size_t size) {
  if (size < kHeaderBytes ||
      std::memcmp(data, kSnapMagic, sizeof(kSnapMagic)) != 0) {
    throw std::runtime_error("not a BGPSNAP snapshot (bad magic)");
  }
  BinaryReader r(std::span(data, size));
  std::array<char, sizeof(kSnapMagic)> magic;
  r.get_array(std::span(magic));
  const u32 version = r.get<u32>();
  if (version != kSnapVersion) {
    throw std::runtime_error(
        strfmt("unsupported snapshot version %u", version));
  }
  const u32 nodes32 = r.get<u32>();
  std::array<u64, 4> geom;
  r.get_array(std::span(geom));
  const std::string app = get_name(r);
  const std::string session = get_name(r);
  r.check_seal("snapshot header");
  // Bound the metrics capacity by the file before any arithmetic on it
  // (the node count cannot overflow); the writer sizes the file exactly.
  const bool bounded = geom[3] <= size;
  const Geometry g = make_geometry(nodes32, bounded ? geom[3] : 0);
  if (!bounded || size != g.total ||
      geom != std::array<u64, 4>{g.node0_offset, g.node_block_bytes,
                                 g.metrics_offset, g.metrics_capacity}) {
    throw std::runtime_error("corrupt snapshot header (bad geometry)");
  }
  base_ = data;
  bytes_ = size;
  num_nodes_ = nodes32;
  metrics_capacity_ = geom[3];
  app_ = app;
  session_ = session;
}

bool SnapshotReader::read_node(unsigned node, NodeSnapshot& out,
                               unsigned max_retries) const {
  return read_node_status(node, out, max_retries) == SnapReadStatus::kOk;
}

SnapReadStatus SnapshotReader::read_node_status(unsigned node,
                                                NodeSnapshot& out,
                                                unsigned max_retries) const {
  if (node >= num_nodes_) return SnapReadStatus::kCorrupt;
  u64 staged[kSlotWords];
  const SnapReadStatus status =
      copy_slot(base_ + kHeaderBytes + node * kNodeBlockBytes, kSlotBytes,
                staged, kSlotWords, max_retries);
  if (status != SnapReadStatus::kOk) return status;
  if (staged[kSlotWords - 1] !=
      crc32({reinterpret_cast<const std::byte*>(staged),
             (kSlotWords - 1) * sizeof(u64)})) {
    // Stable sequence but bad checksum: foreign corruption, not a race.
    return SnapReadStatus::kCorrupt;
  }
  out.published_cycle = staged[0];
  out.mode = static_cast<u32>(staged[1]);
  out.state = static_cast<SnapState>(staged[2]);
  out.node_id = static_cast<u32>(staged[3]);
  out.card_id = static_cast<u32>(staged[4]);
  std::memcpy(out.counters.data(), &staged[5],
              sizeof(u64) * out.counters.size());
  return SnapReadStatus::kOk;
}

bool SnapshotReader::read_metrics(std::string& out,
                                  unsigned max_retries) const {
  std::vector<u64> staged(2 + metrics_capacity_ / sizeof(u64));
  if (copy_slot(base_ + bytes_ - (16 + 2 * (16 + metrics_capacity_)),
                16 + metrics_capacity_, staged.data(), staged.size(),
                max_retries) != SnapReadStatus::kOk ||
      staged[0] > metrics_capacity_) {
    return false;
  }
  // Never published: an empty text whose CRC32 is 0, like any other.
  out.assign(reinterpret_cast<const char*>(&staged[2]), staged[0]);
  return staged[1] ==
         crc32({reinterpret_cast<const std::byte*>(out.data()), out.size()});
}

}  // namespace bgp::daemon
