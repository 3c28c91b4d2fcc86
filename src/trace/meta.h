// Per-thread meta-data file (paper Table I).
//
// Each line of a thread's meta file describes one barrier-interval segment:
// which parallel region it belongs to, its position in the concurrency
// structure, and where its event data lives in the thread's log file. The
// paper's columns are all here - pid, ppid, bid, offset, span, level,
// data_begin, size - plus the full serialized offset-span label (the paper
// reconstructs it from the ppid chain; storing it directly is equivalent and
// self-contained) and the lockset held when the segment opened (so lock
// ownership that spans a buffer flush or barrier is never lost).
//
// "Segment" vs "interval": with nested parallelism, lane 0 of an inner team
// runs on the same OS thread as its parent, so a parent's barrier interval
// can be split around the nested region into multiple segments. Segments of
// one interval share (region, phase, label); the analyzer may treat them
// independently because equal labels yield identical concurrency judgments.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "osl/label.h"
#include "trace/event.h"

namespace sword::trace {

struct IntervalMeta {
  uint64_t region = 0;          // pid: parallel region id
  uint64_t parent_region = 0;   // ppid (kNoParent at the outermost level)
  uint64_t phase = 0;           // bid: barrier interval index within region
  osl::Label label;             // full offset-span label of this interval
  uint32_t level = 0;           // nesting depth (1 = outermost)
  uint32_t lane = 0;            // thread num within the team
  uint64_t data_begin = 0;      // logical byte offset into the log stream
  uint64_t data_size = 0;       // bytes of event data in this segment
  uint64_t event_count = 0;     // encoded events in this segment
  /// Highest degradation-governor level active while this segment was open
  /// (0 = full tracing). Non-zero means the segment's event list
  /// may be a SUBSET of the accesses that actually happened: races found in
  /// it are still real, but absence of a race is not proof.
  uint32_t degradation_level = 0;
  /// Accesses the writer dropped from THIS segment because of degradation
  /// (sampling / summary-only). Exact count, so offline
  /// accounting can reconcile observed + dropped totals.
  uint64_t degraded_dropped = 0;
  /// Accesses the static pre-filter elided from THIS segment under a
  /// disjointness proof. Unlike degraded_dropped this is NOT
  /// loss: every elided access is covered by an exact footprint receipt
  /// appended into the segment's event data, so the decoded stream is
  /// address-equivalent to the unfiltered one.
  uint64_t elided = 0;
  std::vector<uint32_t> lockset;  // mutexes held when the segment opened

  static constexpr uint64_t kNoParent = ~0ULL;

  /// Table I "offset" column: innermost label pair offset.
  uint32_t TableOffset() const { return label.pairs().back().offset; }
  /// Table I "span" column: innermost label pair span.
  uint32_t TableSpan() const { return label.pairs().back().span; }

  /// The interval record as SWM6 metas store it.
  void Serialize(ByteWriter& w) const;
  static Status Deserialize(ByteReader& r, IntervalMeta* out);

  /// One Table-I-style text line (debugging and the quickstart example).
  std::string ToString() const;
};

/// One degradation-governor level change, recorded in the meta so offline
/// reports can annotate which barrier intervals ran under reduced fidelity.
struct DegradationTransition {
  uint8_t level = 0;        // level entered (trace::governor level ordinal)
  uint8_t reason = 0;       // GovernorReason bitmask that triggered it
  uint64_t interval = 0;    // interval-record ordinal open/next at the time

  bool operator==(const DegradationTransition& o) const {
    return level == o.level && reason == o.reason && interval == o.interval;
  }
};

/// Whole meta file: header + interval records.
struct MetaFile {
  uint32_t thread_id = 0;  // dense SWORD thread id (not an OS id)
  /// Event-encoding format of the companion .log file: always
  /// kTraceFormatV3. Informational; tools print it.
  uint8_t log_format = kTraceFormatV3;
  /// This checkpoint was written by the fatal-signal sealer while
  /// the process was dying of `seal_signo`. The trace ends at the last
  /// sealed barrier interval; everything recorded is trustworthy, nothing
  /// after it exists.
  bool crash_sealed = false;
  uint8_t seal_signo = 0;
  /// Record-time loss: events/logical bytes the flusher had to
  /// discard for this thread's log (ENOSPC etc). Mirrors the log's gap
  /// frames so the loss is visible even from the meta alone.
  uint64_t events_dropped = 0;
  uint64_t bytes_dropped = 0;
  /// Accesses observed OUTSIDE any barrier-interval segment:
  /// counted and dropped by the writer instead of silently corrupting the
  /// open segment's (data_begin, size) accounting.
  uint64_t accesses_dropped = 0;
  /// Total accesses the degradation governor told the writer to shed. Sum
  /// over intervals[i].degraded_dropped plus any shed while no segment was
  /// open.
  uint64_t degraded_dropped = 0;
  /// Accesses the static pre-filter elided under a disjointness proof. Sum
  /// over intervals[i].elided. Informational, not loss: each elided access
  /// has an exact footprint receipt in the log.
  uint64_t elided_accesses = 0;
  /// Elided accesses whose receipt could not be emitted. This IS
  /// potential loss and is accounted like degradation for soundness.
  uint64_t elided_lost = 0;
  /// Governor level changes, in order.
  std::vector<DegradationTransition> transitions;
  std::vector<IntervalMeta> intervals;

  /// Writes the SWM6 meta format.
  Bytes Encode() const;
  /// Decodes an SWM6 meta file. The retired SWMF and SWM2..SWM5 versions,
  /// and an SWM6 header naming a retired log format, fail with Unsupported.
  ///
  /// With `salvage`, a record-level parse failure keeps the cleanly-decoded
  /// prefix instead of failing the whole file (a crashed run's checkpoint
  /// can be torn mid-record despite the atomic rename if the filesystem
  /// itself was damaged); `*records_dropped` receives how many of the
  /// header's claimed records could not be recovered.
  static Status Decode(const Bytes& data, MetaFile* out, bool salvage = false,
                       uint64_t* records_dropped = nullptr);
};

/// Everything EncodeMetaHeader needs. Kept as a struct so the writer's
/// incremental checkpoints and MetaFile::Encode share one serializer.
struct MetaHeaderInfo {
  uint32_t thread_id = 0;
  uint8_t log_format = kTraceFormatV3;
  bool crash_sealed = false;
  uint8_t seal_signo = 0;
  uint64_t events_dropped = 0;
  uint64_t bytes_dropped = 0;
  uint64_t accesses_dropped = 0;
  uint64_t degraded_dropped = 0;
  uint64_t elided_accesses = 0;
  uint64_t elided_lost = 0;
  const std::vector<DegradationTransition>* transitions = nullptr;
  uint64_t record_count = 0;
};

/// Serializes the SWM6 meta header (everything before the interval records).
/// Shared by MetaFile::Encode and the writer's incremental checkpoints,
/// which append pre-serialized records after it.
void EncodeMetaHeader(ByteWriter& w, const MetaHeaderInfo& info);

constexpr uint32_t kMetaMagicV6 = 0x53574d36;  // "SWM6" (meta format v6)

/// Header flag bits (the byte at kMetaFlagsOffset).
constexpr uint8_t kMetaFlagCrashSealed = 0x01;

/// Fixed byte offsets of the flags and seal-signo bytes. The fatal-signal
/// sealer publishes a pre-serialized meta image built with
/// crash_sealed=true / signo=0 and, inside the handler, only needs to patch
/// the one signo byte at kMetaSealSignoOffset — no serialization runs in
/// signal context. Keep these in sync with EncodeMetaHeader.
constexpr size_t kMetaFlagsOffset = 4;
constexpr size_t kMetaSealSignoOffset = 5;

}  // namespace sword::trace
