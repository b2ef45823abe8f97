#include "daemon/attach.hpp"

#include <algorithm>

#include "daemon/backoff.hpp"

namespace bgp::daemon {

AttachView attach_read(const SnapshotReader& reader) {
  AttachView view;
  view.app = reader.app();
  view.session = reader.session();
  for (unsigned node = 0; node < reader.num_nodes(); ++node) {
    NodeSnapshot snap;
    switch (reader.read_node_status(node, snap)) {
      case SnapReadStatus::kOk:
        view.nodes.push_back(snap);
        if (snap.state != SnapState::kFinal) view.final_only = false;
        break;
      case SnapReadStatus::kBusy:
        view.busy.push_back(node);
        break;
      case SnapReadStatus::kCorrupt:
        view.corrupt.push_back(node);
        break;
    }
  }
  if (view.nodes.empty()) view.final_only = false;  // no node shows an end
  (void)reader.read_metrics(view.metrics_text);
  return view;
}

AttachView attach_file(const std::filesystem::path& path) {
  const SnapshotReader reader = SnapshotReader::open_file(path);
  return attach_read(reader);
}

AttachView attach_file_retry(const std::filesystem::path& path,
                             const AttachRetry& retry) {
  const unsigned attempts = std::max(retry.attempts, 1u);
  Backoff backoff(retry.base_delay_ms, retry.max_delay_ms, retry.jitter_seed);
  AttachView view;
  for (unsigned attempt = 0; attempt < attempts; ++attempt) {
    // Re-open each attempt: the writer may have grown/replaced the file.
    const SnapshotReader reader = SnapshotReader::open_file(path);
    view = attach_read(reader);
    if (view.busy.empty()) break;
    if (attempt + 1 < attempts) backoff.sleep(attempt);
  }
  return view;
}

pc::NodeDump to_node_dump(const NodeSnapshot& snap, const std::string& app) {
  pc::NodeDump dump;
  dump.node_id = snap.node_id;
  dump.card_id = snap.card_id;
  dump.counter_mode = snap.mode;
  dump.app_name = app;
  pc::SetDump set;
  set.set_id = 0;
  // BGP_Initialize clears the counters and BGP_Start follows immediately,
  // so the raw counter words ARE the set-0 deltas of one pair spanning
  // boot to the publish cycle. An idle node has no pair yet.
  set.pairs = snap.state == SnapState::kIdle ? 0 : 1;
  set.first_start_cycle = 0;
  set.last_stop_cycle = snap.published_cycle;
  set.deltas = snap.counters;
  dump.sets.push_back(set);
  return dump;
}

std::vector<pc::NodeDump> to_node_dumps(const AttachView& view) {
  std::vector<pc::NodeDump> dumps;
  dumps.reserve(view.nodes.size());
  for (const NodeSnapshot& snap : view.nodes) {
    dumps.push_back(to_node_dump(snap, view.app));
  }
  return dumps;
}

}  // namespace bgp::daemon
