#include "core/node_monitor.hpp"

#include <stdexcept>

#include "common/binio.hpp"
#include "common/strfmt.hpp"
#include "fault/fault.hpp"

namespace bgp::pc {

NodeMonitor::NodeMonitor(sys::Node& node, const Options& options)
    : node_(node),
      options_(options),
      sets_(kMaxSets),
      active_(kMaxSets) {
  for (unsigned s = 0; s < kMaxSets; ++s) {
    sets_[s].set_id = s;
  }
}

void NodeMonitor::initialize() {
  if (initialized_) return;
  mode_ = node_.even_card() ? options_.mode_even_cards
                            : options_.mode_odd_cards;
  auto& upc = node_.upc();
  upc.set_mode(mode_);
  upc.reset_config();
  for (unsigned c = 0; c < upc::UpcUnit::kNumCounters; ++c) {
    upc::CounterConfig cfg;
    cfg.signal = upc::SignalMode::kEdgeRise;
    cfg.enabled = true;
    upc.configure(static_cast<u8>(c), cfg);
  }
  upc.reset_counters();
  if (options_.fault != nullptr) {
    // Injected hardware defect: the victim counters are 32-bit wide and
    // preloaded just below the wrap boundary, so mid-run they overflow and
    // the dump carries a wildly implausible delta for sanity to catch.
    for (const auto& w : options_.fault->counter_wraps(node_.id())) {
      if (w.counter >= upc::UpcUnit::kNumCounters) continue;
      upc.set_counter_width(static_cast<u8>(w.counter), 32);
      upc.write(static_cast<u8>(w.counter), w.preload);
    }
  }
  initialized_ = true;
}

void NodeMonitor::start(unsigned set, cycles_t now) {
  if (!initialized_) {
    throw std::logic_error("BGP_Start before BGP_Initialize");
  }
  if (set >= sets_.size()) {
    throw std::out_of_range(strfmt("set %u out of range", set));
  }
  ActiveSet& act = active_[set];
  if (act.active_starts == 0) {
    act.start_snapshot = node_.upc().snapshot();
    if (sets_[set].pairs == 0 && sets_[set].first_start_cycle == 0) {
      sets_[set].first_start_cycle = now;
    }
    if (unit_users_ == 0) {
      node_.upc().start();
    }
    ++unit_users_;
  }
  ++act.active_starts;
}

void NodeMonitor::stop(unsigned set, cycles_t now) {
  if (set >= sets_.size()) {
    throw std::out_of_range(strfmt("set %u out of range", set));
  }
  ActiveSet& act = active_[set];
  if (act.active_starts == 0) {
    throw std::logic_error(strfmt("BGP_Stop(%u) without matching start", set));
  }
  if (--act.active_starts > 0) return;

  const auto snap = node_.upc().snapshot();
  SetDump& rec = sets_[set];
  for (unsigned c = 0; c < isa::kCountersPerUnit; ++c) {
    rec.deltas[c] += snap[c] - act.start_snapshot[c];
  }
  ++rec.pairs;
  rec.last_stop_cycle = now;
  if (--unit_users_ == 0) {
    node_.upc().stop();
  }
}

void NodeMonitor::force_stop_all(cycles_t now) {
  for (unsigned s = 0; s < active_.size(); ++s) {
    if (active_[s].active_starts == 0) continue;
    // Collapse nested starts to one so a single stop() folds the delta.
    active_[s].active_starts = 1;
    stop(s, now);
  }
}

NodeDump NodeMonitor::finalize() {
  NodeDump dump;
  dump.node_id = node_.id();
  dump.card_id = node_.card_id();
  dump.counter_mode = mode_;
  dump.app_name = options_.app_name;
  for (const SetDump& s : sets_) {
    if (s.pairs > 0) dump.sets.push_back(s);
  }
  return dump;
}

namespace {

/// Serialized size of one set record, excluding its CRC word.
constexpr std::size_t kSetRecordBytes =
    sizeof(u32) * 2 + sizeof(u64) * 2 + sizeof(u64) * isa::kCountersPerUnit;
constexpr std::size_t kRecoveryRecordBytes = sizeof(u32) * 3 + sizeof(u64) * 3;

}  // namespace

std::vector<std::byte> NodeMonitor::serialize(const NodeDump& dump) {
  // A recovery log needs the v3 section; fault-free dumps stay at v2 so
  // their bytes are unchanged from pre-FT builds.
  const u32 version = dump.recovery.empty() ? kDumpVersion : kDumpVersionFt;
  BinaryWriter w;
  w.put<u32>(kDumpMagic);
  w.put<u32>(version);
  w.begin_section();
  w.put<u32>(dump.node_id);
  w.put<u32>(dump.card_id);
  w.put<u32>(dump.counter_mode);
  w.put_string(dump.app_name);
  w.put<u32>(static_cast<u32>(dump.sets.size()));
  w.seal();
  for (const SetDump& s : dump.sets) {
    w.put<u32>(s.set_id);
    w.put<u32>(s.pairs);
    w.put<u64>(s.first_start_cycle);
    w.put<u64>(s.last_stop_cycle);
    w.put_array(std::span(s.deltas));
    w.seal();
  }
  if (version == kDumpVersionFt) {
    w.put<u32>(static_cast<u32>(dump.recovery.size()));
    for (const ft::RecoveryEvent& e : dump.recovery) {
      w.put<u32>(static_cast<u32>(e.kind));
      w.put<u32>(e.node);
      w.put<u32>(e.rank);
      w.put<u64>(e.cycle);
      w.put<u64>(e.cost);
      w.put<u64>(e.aux);
    }
    w.seal();
  }
  return w.buffer();
}

NodeDump NodeMonitor::parse(std::span<const std::byte> bytes) {
  BinaryReader r(bytes);
  if (r.get<u32>() != kDumpMagic) {
    throw BinIoError("not a BGPC dump (bad magic)");
  }
  const u32 version = r.get<u32>();
  if (version != kDumpVersion && version != kDumpVersionFt) {
    throw BinIoError(strfmt("unsupported BGPC dump version %u", version));
  }
  r.begin_section();
  NodeDump dump;
  dump.node_id = r.get<u32>();
  dump.card_id = r.get<u32>();
  dump.counter_mode = r.get<u32>();
  if (dump.counter_mode >= isa::kNumCounterModes) {
    throw BinIoError("corrupt dump: counter mode out of range");
  }
  dump.app_name = r.get_string();
  const u32 nsets = r.get<u32>();
  r.check_seal("header");
  dump.sets.resize(r.counted(nsets, kSetRecordBytes + sizeof(u32), "sets"));
  for (SetDump& s : dump.sets) {
    s.set_id = r.get<u32>();
    s.pairs = r.get<u32>();
    s.first_start_cycle = r.get<u64>();
    s.last_stop_cycle = r.get<u64>();
    r.get_array(std::span(s.deltas));
    r.check_seal("set");
  }
  if (version == kDumpVersionFt) {
    dump.recovery.resize(
        r.counted(r.get<u32>(), kRecoveryRecordBytes, "recovery events"));
    for (ft::RecoveryEvent& e : dump.recovery) {
      const u32 kind = r.get<u32>();
      if (kind > static_cast<u32>(ft::RecoveryKind::kShrink)) {
        throw BinIoError(
            strfmt("corrupt dump: unknown recovery event kind %u", kind));
      }
      e.kind = static_cast<ft::RecoveryKind>(kind);
      e.node = r.get<u32>();
      e.rank = r.get<u32>();
      e.cycle = r.get<u64>();
      e.cost = r.get<u64>();
      e.aux = r.get<u64>();
    }
    r.check_seal("recovery");
  }
  if (!r.at_end()) {
    throw BinIoError("corrupt dump: trailing bytes");
  }
  return dump;
}

}  // namespace bgp::pc
