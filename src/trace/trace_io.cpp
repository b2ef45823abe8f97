#include "trace/trace_io.hpp"

#include <utility>

#include "common/strfmt.hpp"

namespace bgp::trace {

namespace {

/// The rule every interval record obeys, checked by the writer before the
/// record reaches the file and by the reader once its chunk's seal holds:
/// it spans at least one interval, t_begin = index x interval and
/// t_end = (index + spanned) x interval (checked by division, so no product
/// or sum can wrap), and it carries one value per traced event.
void check_record(const IntervalRecord& r, const TraceMeta& meta,
                  const std::filesystem::path& file) {
  const auto reject = [&](const std::string& why) {
    throw BinIoError(strfmt("trace %s: interval record %llu %s",
                            file.string().c_str(),
                            static_cast<unsigned long long>(r.index),
                            why.c_str()));
  };
  if (r.spanned == 0) reject("spans no interval");
  const cycles_t interval = meta.interval_cycles;
  const u64 end_index = r.t_end / interval;
  if (r.t_begin % interval != 0 || r.t_begin / interval != r.index ||
      r.t_end % interval != 0 || end_index < r.index ||
      end_index - r.index != r.spanned) {
    reject(strfmt("claims %u interval(s) but covers cycles %llu..%llu",
                  r.spanned, static_cast<unsigned long long>(r.t_begin),
                  static_cast<unsigned long long>(r.t_end)));
  }
  if (r.values.size() != meta.events.size()) {
    reject(strfmt("has %zu values for %zu traced events", r.values.size(),
                  meta.events.size()));
  }
}

void put_record(BinaryWriter& w, const IntervalRecord& record) {
  w.put<u64>(record.index);
  w.put<u32>(record.spanned);
  w.put<u64>(record.t_begin);
  w.put<u64>(record.t_end);
  w.put_array(std::span(record.values));
}

}  // namespace

// ---------------------------------------------------------------------------
// TraceWriter

TraceWriter::TraceWriter(std::filesystem::path base, TraceMeta meta,
                         std::size_t chunk_records)
    : meta_(std::move(meta)),
      chunk_records_(chunk_records == 0 ? 1 : chunk_records),
      partial_path_(base.string() + kPartialSuffix),
      final_path_(base.string() + kTraceSuffix) {
  if (meta_.interval_cycles == 0) {
    throw BinIoError(strfmt("trace %s: interval must be positive",
                            partial_path_.string().c_str()));
  }
  out_.open(partial_path_, std::ios::binary | std::ios::trunc);
  if (!out_) {
    throw BinIoError(
        strfmt("cannot open trace file %s", partial_path_.string().c_str()));
  }
  BinaryWriter w;
  w.put<u32>(kTraceMagic);
  w.put<u32>(kTraceVersion);
  w.begin_section();
  w.put<u32>(meta_.node_id);
  w.put<u32>(meta_.card_id);
  w.put<u32>(meta_.counter_mode);
  w.put_string(meta_.app_name);
  w.put<u64>(meta_.interval_cycles);
  w.put<u32>(meta_.pacer_event);
  w.put<u32>(static_cast<u32>(meta_.events.size()));
  w.put_array(std::span(meta_.events));
  w.seal();
  write_bytes(w.buffer());
  // The header must survive a mid-run node death even though the stream
  // stays open: flush it now so a .partial is always parseable.
  out_.flush();
}

TraceWriter::~TraceWriter() {
  // Not finalized: leave the .partial behind, complete chunks intact —
  // exactly what a dead node's trace should look like.
  if (!finalized_ && out_.is_open()) {
    try {
      flush();
    } catch (...) {
      // A failing disk must not escalate to std::terminate during
      // unwinding; the trace simply ends at the last committed chunk, like
      // any other crash.
    }
    out_.close();
  }
}

void TraceWriter::append(IntervalRecord record) {
  if (finalized_) {
    throw BinIoError("append to finalized trace");
  }
  check_record(record, meta_, partial_path_);
  pending_.push_back(std::move(record));
  if (pending_.size() >= chunk_records_) flush();
}

void TraceWriter::flush() {
  if (pending_.empty()) return;
  BinaryWriter w;
  w.put<u32>(static_cast<u32>(pending_.size()));
  for (const IntervalRecord& r : pending_) put_record(w, r);
  w.seal();
  write_bytes(w.buffer());
  intervals_written_ += pending_.size();
  pending_.clear();
  out_.flush();
}

std::filesystem::path TraceWriter::finalize(const TraceTotals& totals) {
  if (finalized_) return final_path_;
  flush();
  BinaryWriter w;
  w.put<u32>(0);  // sentinel: no more chunks
  w.put<u64>(totals.intervals);
  w.put<u64>(totals.dropped);
  w.put<u64>(totals.samples);
  w.put<u64>(totals.overhead_cycles);
  w.seal();
  write_bytes(w.buffer());
  out_.close();
  if (!out_) {
    throw BinIoError(
        strfmt("error closing trace %s", partial_path_.string().c_str()));
  }
  std::error_code ec;
  std::filesystem::rename(partial_path_, final_path_, ec);
  if (ec) {
    throw BinIoError(strfmt("cannot seal trace %s: %s",
                            final_path_.string().c_str(),
                            ec.message().c_str()));
  }
  finalized_ = true;
  return final_path_;
}

void TraceWriter::write_bytes(const std::vector<std::byte>& bytes) {
  out_.write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
  if (!out_) {
    throw BinIoError(
        strfmt("short write to trace %s", partial_path_.string().c_str()));
  }
}

// ---------------------------------------------------------------------------
// TraceReader

TraceReader::TraceReader(const std::filesystem::path& path)
    : path_(path), in_(path) {
  if (in_.get<u32>() != kTraceMagic) {
    throw BinIoError(
        strfmt("%s is not a BGPT trace (bad magic)", path_.string().c_str()));
  }
  const u32 version = in_.get<u32>();
  if (version != kTraceVersion) {
    throw BinIoError(strfmt("trace %s: unsupported version %u",
                            path_.string().c_str(), version));
  }
  in_.begin_section();
  meta_.node_id = in_.get<u32>();
  meta_.card_id = in_.get<u32>();
  meta_.counter_mode = in_.get<u32>();
  meta_.app_name = in_.get_string();
  meta_.interval_cycles = in_.get<u64>();
  meta_.pacer_event = in_.get<u32>();
  const u32 event_count = in_.get<u32>();
  if (event_count == 0 || event_count > isa::kNumCounterModes * 256u) {
    throw BinIoError(strfmt("trace %s: implausible event count %u",
                            path_.string().c_str(), event_count));
  }
  meta_.events.resize(event_count);
  in_.get_array(std::span(meta_.events));
  in_.check_seal("header");
  if (meta_.interval_cycles == 0) {
    throw BinIoError(strfmt("trace %s: zero interval length",
                            path_.string().c_str()));
  }
}

std::size_t TraceReader::record_bytes() const noexcept {
  return sizeof(u64) + sizeof(u32) + 2 * sizeof(u64) +
         meta_.events.size() * sizeof(u64);
}

bool TraceReader::load_chunk() {
  chunk_.clear();
  chunk_pos_ = 0;
  if (done_) return false;
  try {
    const u32 count = in_.get<u32>();
    if (count == 0) {
      // Footer: the sentinel, then the totals.
      TraceTotals totals;
      totals.intervals = in_.get<u64>();
      totals.dropped = in_.get<u64>();
      totals.samples = in_.get<u64>();
      totals.overhead_cycles = in_.get<u64>();
      in_.check_seal("footer");
      totals_ = totals;
      done_ = true;
      return false;
    }
    chunk_.resize(in_.counted(count, record_bytes(), "interval records"));
    for (IntervalRecord& rec : chunk_) {
      rec.index = in_.get<u64>();
      rec.spanned = in_.get<u32>();
      rec.t_begin = in_.get<u64>();
      rec.t_end = in_.get<u64>();
      rec.values.resize(meta_.events.size());
      in_.get_array(std::span(rec.values));
    }
    in_.check_seal("chunk");
    for (const IntervalRecord& rec : chunk_) check_record(rec, meta_, path_);
    return true;
  } catch (const BinIoTruncated&) {
    // The file ends at or inside a section (a node died mid-write):
    // discard the torn chunk and end cleanly.
    chunk_.clear();
    truncated_ = true;
    done_ = true;
    return false;
  } catch (const BinIoError&) {
    chunk_.clear();
    done_ = true;
    throw;
  }
}

std::optional<IntervalRecord> TraceReader::next() {
  if (chunk_pos_ >= chunk_.size() && !load_chunk()) {
    return std::nullopt;
  }
  ++records_read_;
  return std::move(chunk_[chunk_pos_++]);
}

}  // namespace bgp::trace
