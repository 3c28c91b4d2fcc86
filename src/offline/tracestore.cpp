#include "offline/tracestore.h"

#include <algorithm>
#include <cstddef>

#include "common/fsutil.h"
#include "trace/event.h"

namespace sword::offline {

namespace {

void FoldSalvage(const trace::SalvageStats& s, TraceIntegrity* out) {
  out->frames_ok += s.frames_ok;
  out->frames_corrupt += s.frames_corrupt;
  out->frames_unaddressable += s.frames_unaddressable;
  out->gap_frames += s.gap_frames;
  out->resyncs += s.resyncs;
  out->bytes_skipped += s.bytes_skipped;
  out->truncated_tail_bytes += s.truncated_tail_bytes;
  out->crash_markers += s.crash_markers;
  if (s.crash_signo != 0) out->crash_signo = s.crash_signo;
}

/// Plausibility check for one meta record against the log it addresses.
/// `log_logical` is the log's trusted logical byte count (decompressed).
/// A record that merely runs past the end of the log is implausible in
/// strict mode but EXPECTED in salvage mode (a killed run's last interval);
/// every other failure is an implausible claim regardless of mode.
Status ValidateRecord(const trace::IntervalMeta& m, uint64_t log_logical,
                      bool salvage) {
  if (m.data_begin > UINT64_MAX - m.data_size) {
    return Status::Corrupt("meta record byte range overflows");
  }
  if (!salvage && m.data_begin + m.data_size > log_logical) {
    return Status::Corrupt("meta record addresses past the end of the log");
  }
  // Events are variable-size, at least 1 byte and at most the per-event
  // bound. event_count counts ENCODED events (a run counts once), matching
  // the writer's accounting.
  constexpr uint64_t max_event = trace::kMaxEventBytesV3;
  if (m.event_count != 0) {
    if (m.event_count > m.data_size ||
        m.event_count > UINT64_MAX / max_event ||
        m.event_count * max_event < m.data_size) {
      return Status::Corrupt("meta record event count implausible for size");
    }
  } else if (m.data_size != 0) {
    return Status::Corrupt("meta record has bytes but no events");
  }
  return Status::Ok();
}

}  // namespace

Result<TraceStore> TraceStore::Open(const std::vector<std::string>& log_paths,
                                    const std::vector<std::string>& meta_paths,
                                    const StoreOptions& options) {
  if (log_paths.size() != meta_paths.size()) {
    return Status::Invalid("log/meta path count mismatch");
  }
  TraceStore store;
  store.integrity_.salvaged = options.salvage;
  for (size_t i = 0; i < log_paths.size(); i++) {
    ThreadTrace tt;

    // --- meta ---
    bool have_meta = false;
    uint64_t meta_events_dropped = 0;
    uint64_t meta_bytes_dropped = 0;
    if (meta_paths[i].empty() || !FileExists(meta_paths[i])) {
      if (!options.salvage) {
        return Status::NotFound("missing meta file: " +
                                (meta_paths[i].empty() ? "(none)" : meta_paths[i]));
      }
      store.integrity_.threads_missing_meta++;
    } else {
      auto meta_bytes = ReadFileBytes(meta_paths[i]);
      if (!meta_bytes.ok()) {
        if (!options.salvage) return meta_bytes.status();
        store.integrity_.threads_missing_meta++;
      } else {
        uint64_t records_dropped = 0;
        const Status ds = trace::MetaFile::Decode(
            meta_bytes.value(), &tt.meta, options.salvage, &records_dropped);
        if (!ds.ok()) {
          if (!options.salvage) return ds;
          // Undecodable even with a tolerant parser (bad magic, torn
          // header): treat as missing and fall back to an empty meta.
          tt.meta = trace::MetaFile{};
          store.integrity_.threads_missing_meta++;
        } else {
          have_meta = true;
          store.integrity_.meta_records_dropped += records_dropped;
          meta_events_dropped = tt.meta.events_dropped;
          meta_bytes_dropped = tt.meta.bytes_dropped;
          if (tt.meta.crash_sealed) {
            store.integrity_.crash_sealed = true;
            if (tt.meta.seal_signo != 0) {
              store.integrity_.crash_signo = tt.meta.seal_signo;
            }
          }
          store.integrity_.degraded_dropped += tt.meta.degraded_dropped;
          store.integrity_.degradation_transitions += tt.meta.transitions.size();
          store.integrity_.elided_accesses += tt.meta.elided_accesses;
          store.integrity_.elided_lost += tt.meta.elided_lost;
        }
      }
    }
    tt.tid = have_meta ? tt.meta.thread_id : static_cast<uint32_t>(i);

    // --- log ---
    if (!FileExists(log_paths[i])) {
      if (!options.salvage) {
        return Status::NotFound("missing log file: " + log_paths[i]);
      }
      // No events to analyze for this thread; its meta alone is useless.
      store.integrity_.threads_missing_log++;
      continue;
    }
    trace::SalvagePolicy policy;
    policy.enabled = options.salvage;
    auto reader = trace::LogReader::Open(log_paths[i], policy);
    if (!reader.ok()) {
      if (!options.salvage) return reader.status();
      store.integrity_.threads_missing_log++;
      continue;
    }
    tt.log = std::make_unique<trace::LogReader>(std::move(reader).value());
    tt.salvage = tt.log->salvage_stats();
    FoldSalvage(tt.salvage, &store.integrity_);
    // Record-time drops are visible twice: as gap frames in the log and as
    // totals in the meta's v3 header. The meta is a superset (drops at the
    // very tail of a run have no following frame to anchor a gap marker),
    // so take the larger of the two per thread.
    store.integrity_.events_dropped_at_record +=
        std::max(tt.salvage.events_dropped_at_record, meta_events_dropped);
    store.integrity_.bytes_dropped_at_record +=
        std::max(tt.salvage.bytes_dropped_at_record, meta_bytes_dropped);

    // --- meta-vs-log validation ---
    const uint64_t log_logical = tt.log->total_logical_bytes();
    auto& records = tt.meta.intervals;
    for (size_t r = 0; r < records.size();) {
      const Status vs = ValidateRecord(records[r], log_logical, options.salvage);
      if (vs.ok()) {
        r++;
        continue;
      }
      if (!options.salvage) {
        return Status::Corrupt(meta_paths[i] + " record " + std::to_string(r) +
                               ": " + vs.message());
      }
      records.erase(records.begin() + static_cast<ptrdiff_t>(r));
      store.integrity_.meta_records_rejected++;
    }

    store.threads_.push_back(std::move(tt));
  }
  return store;
}

Result<TraceStore> TraceStore::OpenDir(const std::string& dir,
                                       const StoreOptions& options) {
  std::vector<std::string> logs, metas;
  for (uint32_t k = 0;; k++) {
    const std::string log = dir + "/sword_t" + std::to_string(k) + ".log";
    const std::string meta = dir + "/sword_t" + std::to_string(k) + ".meta";
    const bool have_log = FileExists(log);
    const bool have_meta = FileExists(meta);
    if (options.salvage ? (!have_log && !have_meta) : (!have_log || !have_meta)) {
      break;
    }
    logs.push_back(log);
    metas.push_back(meta);
  }
  if (logs.empty()) return Status::NotFound("no sword_t*.log traces in " + dir);
  return Open(logs, metas, options);
}

uint64_t TraceStore::TotalIntervals() const {
  uint64_t total = 0;
  for (const auto& t : threads_) total += t.meta.intervals.size();
  return total;
}

uint64_t TraceStore::TotalLogBytes() const {
  uint64_t total = 0;
  for (const auto& t : threads_) {
    // Sum of on-disk frame sizes == logical file size; approximate with the
    // reader's knowledge of frames.
    total += t.log->total_logical_bytes();
  }
  return total;
}

}  // namespace sword::offline
