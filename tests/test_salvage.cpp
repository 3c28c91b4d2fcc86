// Salvage-mode tests: the corruption matrix (truncate a 3-frame log at every
// byte; flip every bit position once), salvage-mode store opening, meta
// plausibility validation, the refusal of retired trace versions, and
// degraded-but-honest offline analysis of damaged traces.
#include <gtest/gtest.h>

#include <csignal>
#include <vector>

#include "common/fsutil.h"
#include "compress/compressor.h"
#include "compress/frame.h"
#include "offline/analysis.h"
#include "offline/report.h"
#include "offline/tracestore.h"
#include "trace/meta.h"
#include "trace/reader.h"
#include "trace/writer.h"

namespace sword::offline {
namespace {

constexpr uint64_t kEventsPerFrame = 10;

trace::SalvagePolicy Salvage() {
  trace::SalvagePolicy p;
  p.enabled = true;
  return p;
}

trace::IntervalMeta Meta(uint32_t lane, uint32_t span, uint64_t phase = 0) {
  trace::IntervalMeta m;
  m.region = 0;
  m.parent_region = trace::IntervalMeta::kNoParent;
  m.phase = phase;
  osl::Label label = osl::Label::Initial().Fork(lane, span);
  for (uint64_t p = 0; p < phase; p++) label = label.AfterBarrier();
  m.label = label;
  m.level = 1;
  m.lane = lane;
  return m;
}

/// A deterministic 3-frame log (10 events per frame) plus ground truth.
struct MatrixLog {
  std::vector<trace::RawEvent> events;  // all 30, in stream order
  Bytes file;                           // pristine log bytes
  std::vector<uint64_t> frame_ends;     // file offset of each frame's end
  std::vector<uint64_t> frame_raw;      // each frame's logical (raw) size
};

MatrixLog BuildMatrixLog(const std::string& dir) {
  MatrixLog log;
  trace::Flusher flusher(/*async=*/false);
  trace::WriterConfig wc;
  wc.log_path = dir + "/matrix.log";
  wc.meta_path = dir + "/matrix.meta";
  wc.buffer_bytes = 16 * kEventsPerFrame;  // 10 events per frame
  wc.flusher = &flusher;
  wc.codec = FindCompressor("raw");
  trace::ThreadTraceWriter writer(0, wc);
  writer.BeginSegment(Meta(0, 2));
  for (uint32_t i = 0; i < 3 * kEventsPerFrame; i++) {
    // Low-valued bytes on purpose: the payload must not accidentally contain
    // a frame-magic byte sequence, or resynchronization offsets would depend
    // on the event data. Coalesced run events are interleaved so the
    // matrix covers every payload shape.
    trace::RawEvent e =
        i % 5 == 4 ? trace::RawEvent::Run(0x2000 + i * 8, 8, 3, 8, i % 2, /*pc=*/i)
                   : trace::RawEvent::Access(0x2000 + i * 8, 8, i % 2, /*pc=*/i);
    writer.Append(e);
    log.events.push_back(e);
  }
  writer.EndSegment();
  EXPECT_TRUE(writer.Finish().ok());

  auto bytes = ReadFileBytes(wc.log_path);
  EXPECT_TRUE(bytes.ok());
  log.file = bytes.value();
  ByteReader r(log.file);
  while (!r.AtEnd()) {
    uint64_t raw = 0;
    EXPECT_TRUE(SkipFrame(r, &raw).ok());
    log.frame_ends.push_back(r.position());
    log.frame_raw.push_back(raw);
  }
  EXPECT_EQ(log.frame_ends.size(), 3u);
  return log;
}

/// True if `sub` is an ordered subsequence of `all`.
bool IsSubsequence(const std::vector<trace::RawEvent>& sub,
                   const std::vector<trace::RawEvent>& all) {
  size_t j = 0;
  for (const auto& e : all) {
    if (j < sub.size() && sub[j] == e) j++;
  }
  return j == sub.size();
}

std::vector<trace::RawEvent> StreamAll(const trace::LogReader& reader,
                                       uint64_t* bytes_skipped = nullptr) {
  std::vector<trace::RawEvent> out;
  const Status s = reader.StreamRange(
      0, reader.total_logical_bytes(),
      [&](const trace::RawEvent& e) { out.push_back(e); }, nullptr,
      bytes_skipped);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return out;
}

TEST(CorruptionMatrix, TruncationAtEveryByte) {
  TempDir dir;
  const MatrixLog log = BuildMatrixLog(dir.path());
  const std::string path = dir.File("trunc.log");

  for (size_t len = 0; len < log.file.size(); len++) {
    ASSERT_TRUE(
        WriteFile(path, Bytes(log.file.begin(), log.file.begin() + len)).ok());
    size_t complete = 0;
    while (complete < log.frame_ends.size() && log.frame_ends[complete] <= len) {
      complete++;
    }
    const bool at_boundary =
        len == 0 || (complete > 0 && log.frame_ends[complete - 1] == len);

    // Strict: a file that does not end exactly on a frame boundary is
    // rejected wholesale.
    auto strict = trace::LogReader::Open(path);
    EXPECT_EQ(strict.ok(), at_boundary) << "truncated at " << len;

    // Salvage: always opens; recovers exactly the complete frames and
    // accounts for every remaining byte.
    auto salvaged = trace::LogReader::Open(path, Salvage());
    ASSERT_TRUE(salvaged.ok()) << "truncated at " << len;
    const trace::SalvageStats& ss = salvaged.value().salvage_stats();
    EXPECT_EQ(ss.frames_ok, complete) << "truncated at " << len;
    const uint64_t tail_begin = complete > 0 ? log.frame_ends[complete - 1] : 0;
    EXPECT_EQ(ss.truncated_tail_bytes + ss.bytes_skipped, len - tail_begin)
        << "truncated at " << len;
    EXPECT_EQ(ss.clean(), at_boundary);

    const auto events = StreamAll(salvaged.value());
    ASSERT_EQ(events.size(), complete * kEventsPerFrame) << "truncated at " << len;
    for (size_t i = 0; i < events.size(); i++) {
      ASSERT_EQ(events[i], log.events[i]) << "truncated at " << len;
    }
  }
}

TEST(CorruptionMatrix, BitFlipAtEveryByte) {
  TempDir dir;
  const MatrixLog log = BuildMatrixLog(dir.path());
  const std::string path = dir.File("flip.log");

  for (size_t pos = 0; pos < log.file.size(); pos++) {
    Bytes damaged = log.file;
    damaged[pos] ^= 0x01;
    ASSERT_TRUE(WriteFile(path, damaged).ok());

    // Strict must never silently return wrong data: either the open fails,
    // or streaming fails, or - impossible for a checksummed format - the
    // data would have to come back intact.
    auto strict = trace::LogReader::Open(path);
    if (strict.ok()) {
      std::vector<trace::RawEvent> events;
      const Status s = strict.value().StreamRange(
          0, strict.value().total_logical_bytes(),
          [&](const trace::RawEvent& e) { events.push_back(e); });
      EXPECT_FALSE(s.ok()) << "flip at " << pos
                           << " undetected by the strict reader";
    }

    // Salvage: always opens, never crashes, reports the damage, and streams
    // only frames whose checksum still holds - a subsequence of the truth.
    auto salvaged = trace::LogReader::Open(path, Salvage());
    ASSERT_TRUE(salvaged.ok()) << "flip at " << pos;
    const trace::SalvageStats& ss = salvaged.value().salvage_stats();
    EXPECT_FALSE(ss.clean()) << "flip at " << pos << " went unnoticed";
    uint64_t skipped = 0;
    const auto events = StreamAll(salvaged.value(), &skipped);
    EXPECT_EQ(events.size(), ss.frames_ok * kEventsPerFrame) << "flip at " << pos;
    EXPECT_TRUE(IsSubsequence(events, log.events)) << "flip at " << pos;
  }
}

// Crash-marker rows: the fatal-signal sealer appends a fixed 13-byte "SWCR"
// marker wherever the process happened to be. A marker is honest evidence,
// not damage - the log stays clean when the marker is the only anomaly.

// Between frames: the normal seal position (the handler appends after the
// last complete frame). Both strict and salvage readers accept it, every
// event survives, and the log is still clean().
TEST(CorruptionMatrix, CrashMarkerBetweenFramesKeepsLogClean) {
  TempDir dir;
  const MatrixLog log = BuildMatrixLog(dir.path());
  const std::string path = dir.File("seal.log");

  Bytes sealed(log.file.begin(),
               log.file.begin() + static_cast<long>(log.frame_ends[0]));
  WriteCrashMarkerFrame(&sealed, SIGSEGV);
  sealed.insert(sealed.end(),
                log.file.begin() + static_cast<long>(log.frame_ends[0]),
                log.file.end());
  ASSERT_TRUE(WriteFile(path, sealed).ok());

  // Strict: a marker is a legal frame, not corruption.
  auto strict = trace::LogReader::Open(path);
  ASSERT_TRUE(strict.ok()) << strict.status().ToString();

  auto salvaged = trace::LogReader::Open(path, Salvage());
  ASSERT_TRUE(salvaged.ok());
  const trace::SalvageStats& ss = salvaged.value().salvage_stats();
  EXPECT_TRUE(ss.clean());
  EXPECT_EQ(ss.crash_markers, 1u);
  EXPECT_EQ(ss.crash_signo, SIGSEGV);
  EXPECT_EQ(ss.frames_ok, 3u);

  // The marker occupies ZERO logical bytes: every event streams through at
  // its original offset.
  const auto events = StreamAll(salvaged.value());
  ASSERT_EQ(events.size(), log.events.size());
  for (size_t i = 0; i < events.size(); i++) {
    ASSERT_EQ(events[i], log.events[i]);
  }
}

// Mid-frame: the process died while a frame append was in flight, so the
// marker lands on top of a torn frame. Salvage resynchronizes at the marker,
// accounts the torn bytes, and still reports the seal.
TEST(CorruptionMatrix, CrashMarkerAfterTornFrameStillReported) {
  TempDir dir;
  const MatrixLog log = BuildMatrixLog(dir.path());
  const std::string path = dir.File("torn_seal.log");

  // Cut frame 2 in half, then seal.
  const uint64_t cut =
      log.frame_ends[0] + (log.frame_ends[1] - log.frame_ends[0]) / 2;
  Bytes sealed(log.file.begin(), log.file.begin() + static_cast<long>(cut));
  WriteCrashMarkerFrame(&sealed, SIGBUS);
  ASSERT_TRUE(WriteFile(path, sealed).ok());

  auto salvaged = trace::LogReader::Open(path, Salvage());
  ASSERT_TRUE(salvaged.ok());
  const trace::SalvageStats& ss = salvaged.value().salvage_stats();
  EXPECT_EQ(ss.crash_markers, 1u);
  EXPECT_EQ(ss.crash_signo, SIGBUS);
  EXPECT_EQ(ss.frames_ok, 1u);
  EXPECT_FALSE(ss.clean());  // the torn frame is damage; the marker is not
  // Every byte of the torn frame is accounted one way or another.
  EXPECT_EQ(ss.bytes_skipped + ss.truncated_tail_bytes,
            cut - log.frame_ends[0]);

  const auto events = StreamAll(salvaged.value());
  ASSERT_EQ(events.size(), kEventsPerFrame);
  for (size_t i = 0; i < events.size(); i++) {
    ASSERT_EQ(events[i], log.events[i]);
  }
}

// Before the first flush: the process died before ANY frame hit the disk.
// The sealed log is just one marker - zero events, but honest and clean.
TEST(CorruptionMatrix, CrashMarkerAloneIsACleanEmptyLog) {
  TempDir dir;
  const std::string path = dir.File("empty_seal.log");
  Bytes sealed;
  WriteCrashMarkerFrame(&sealed, SIGABRT);
  ASSERT_TRUE(WriteFile(path, sealed).ok());

  auto salvaged = trace::LogReader::Open(path, Salvage());
  ASSERT_TRUE(salvaged.ok());
  const trace::SalvageStats& ss = salvaged.value().salvage_stats();
  EXPECT_TRUE(ss.clean());
  EXPECT_EQ(ss.crash_markers, 1u);
  EXPECT_EQ(ss.crash_signo, SIGABRT);
  EXPECT_EQ(ss.frames_ok, 0u);
  EXPECT_EQ(salvaged.value().total_logical_bytes(), 0u);

  auto strict = trace::LogReader::Open(path);
  EXPECT_TRUE(strict.ok()) << strict.status().ToString();
}

TEST(CorruptionMatrix, VerifyLogReportsCrashMarkerRow) {
  TempDir dir;
  const MatrixLog log = BuildMatrixLog(dir.path());
  const std::string path = dir.File("verify_seal.log");
  Bytes sealed = log.file;
  WriteCrashMarkerFrame(&sealed, SIGFPE);
  ASSERT_TRUE(WriteFile(path, sealed).ok());

  std::vector<trace::FrameRecord> records;
  auto stats = trace::LogReader::VerifyLog(
      path, [&](const trace::FrameRecord& f) { records.push_back(f); });
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(records.size(), 4u);
  EXPECT_TRUE(records[3].is_crash);
  EXPECT_EQ(records[3].crash_signo, SIGFPE);
  EXPECT_TRUE(records[3].status.ok());
  EXPECT_EQ(stats.value().crash_markers, 1u);
  EXPECT_EQ(stats.value().crash_signo, SIGFPE);
}

// --- targeted damage with exact expectations ------------------------------

TEST(SalvageReader, PayloadFlipLosesOnlyThatFrame) {
  TempDir dir;
  const MatrixLog log = BuildMatrixLog(dir.path());
  const std::string path = dir.File("t.log");
  // Flip a byte in the middle of frame 2's payload (raw codec: the payload
  // is the tail of the frame, so frame_ends[1] - 8 is inside it).
  Bytes damaged = log.file;
  damaged[log.frame_ends[1] - 8] ^= 0x10;
  ASSERT_TRUE(WriteFile(path, damaged).ok());

  auto salvaged = trace::LogReader::Open(path, Salvage());
  ASSERT_TRUE(salvaged.ok());
  const trace::SalvageStats& ss = salvaged.value().salvage_stats();
  EXPECT_EQ(ss.frames_ok, 2u);
  EXPECT_EQ(ss.frames_corrupt, 1u);
  EXPECT_EQ(ss.frames_unaddressable, 0u);  // known-size hole: trust survives

  // Frames 1 and 3 stream at their original logical offsets; the hole in
  // the middle is skipped and accounted.
  uint64_t skipped = 0;
  const auto events = StreamAll(salvaged.value(), &skipped);
  EXPECT_EQ(skipped, log.frame_raw[1]);
  ASSERT_EQ(events.size(), 2 * kEventsPerFrame);
  EXPECT_EQ(events[0], log.events[0]);
  EXPECT_EQ(events[kEventsPerFrame], log.events[2 * kEventsPerFrame]);
}

TEST(SalvageReader, MagicFlipCostsOffsetTrust) {
  TempDir dir;
  const MatrixLog log = BuildMatrixLog(dir.path());
  const std::string path = dir.File("t.log");
  Bytes damaged = log.file;
  damaged[log.frame_ends[0]] ^= 0x01;  // first byte of frame 2's magic
  ASSERT_TRUE(WriteFile(path, damaged).ok());

  auto salvaged = trace::LogReader::Open(path, Salvage());
  ASSERT_TRUE(salvaged.ok());
  const trace::SalvageStats& ss = salvaged.value().salvage_stats();
  // Frame 1 is fine. The scan resynchronizes at frame 3's magic, but with
  // frame 2's header unparseable nothing vouches for frame 3's logical
  // offset - it is intact yet unaddressable.
  EXPECT_EQ(ss.frames_ok, 1u);
  EXPECT_GE(ss.resyncs, 1u);
  EXPECT_EQ(ss.frames_unaddressable, 1u);
  const auto events = StreamAll(salvaged.value());
  ASSERT_EQ(events.size(), kEventsPerFrame);
  EXPECT_EQ(events[0], log.events[0]);
}

TEST(SalvageReader, VerifyLogListsEveryFrameWithStatus) {
  TempDir dir;
  const MatrixLog log = BuildMatrixLog(dir.path());
  const std::string path = dir.File("t.log");
  Bytes damaged = log.file;
  damaged[log.frame_ends[1] - 8] ^= 0x10;  // corrupt frame 2's payload
  ASSERT_TRUE(WriteFile(path, damaged).ok());

  std::vector<trace::FrameRecord> records;
  auto stats = trace::LogReader::VerifyLog(
      path, [&](const trace::FrameRecord& f) { records.push_back(f); });
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(records.size(), 3u);
  EXPECT_TRUE(records[0].status.ok());
  EXPECT_FALSE(records[1].status.ok());
  EXPECT_TRUE(records[2].status.ok());
  EXPECT_TRUE(records[2].offset_trusted);
  EXPECT_EQ(records[1].file_offset, log.frame_ends[0]);
  EXPECT_EQ(stats.value().frames_ok, 2u);
  EXPECT_EQ(stats.value().frames_corrupt, 1u);
}

// --- store-level salvage and meta validation ------------------------------

/// Writes one thread's trace exactly like test_offline's SyntheticTrace.
void WriteThread(const std::string& dir, trace::Flusher& flusher, uint32_t tid,
                 uint64_t buffer_bytes,
                 const std::vector<std::pair<trace::IntervalMeta,
                                             std::vector<trace::RawEvent>>>& segs) {
  trace::WriterConfig wc;
  wc.log_path = dir + "/sword_t" + std::to_string(tid) + ".log";
  wc.meta_path = dir + "/sword_t" + std::to_string(tid) + ".meta";
  wc.flusher = &flusher;
  wc.buffer_bytes = buffer_bytes;
  trace::ThreadTraceWriter writer(tid, wc);
  for (const auto& [meta, events] : segs) {
    writer.BeginSegment(meta);
    for (const auto& e : events) writer.Append(e);
    writer.EndSegment();
  }
  ASSERT_TRUE(writer.Finish().ok());
}

uint64_t FirstFrameEnd(const std::string& log_path) {
  auto bytes = ReadFileBytes(log_path);
  EXPECT_TRUE(bytes.ok());
  ByteReader r(bytes.value());
  uint64_t raw = 0;
  EXPECT_TRUE(SkipFrame(r, &raw).ok());
  return r.position();
}

// The acceptance scenario: a killed run truncated one thread's log; strict
// analysis must reject the trace, salvage analysis must still report the
// races recoverable from the surviving frames - with nonzero loss counters.
TEST(SalvageAnalysis, TruncatedRunStrictRejectsSalvageRecovers) {
  TempDir dir;
  trace::Flusher flusher(/*async=*/false);
  // Thread 0: one intact segment with the racing write.
  WriteThread(dir.path(), flusher, 0, 2048,
              {{Meta(0, 2), {trace::RawEvent::Access(0x1000, 8, 1, 11)}}});
  // Thread 1: two segments, one frame each (10-event buffer); the racing
  // read lives in segment A, segment B's frame will be truncated away.
  std::vector<trace::RawEvent> seg_a{trace::RawEvent::Access(0x1000, 8, 0, 22)};
  for (uint32_t i = 1; i < 10; i++) {
    seg_a.push_back(trace::RawEvent::Access(0x9000 + i * 8, 8, 0, 23));
  }
  std::vector<trace::RawEvent> seg_b;
  for (uint32_t i = 0; i < 10; i++) {
    seg_b.push_back(trace::RawEvent::Access(0xa000 + i * 8, 8, 1, 24));
  }
  WriteThread(dir.path(), flusher, 1, 160,
              {{Meta(1, 2), seg_a}, {Meta(1, 2, 1), seg_b}});

  // The "crash": everything after thread 1's first frame never hit the disk.
  const std::string t1_log = dir.path() + "/sword_t1.log";
  ASSERT_TRUE(TruncateFile(t1_log, FirstFrameEnd(t1_log)).ok());

  // Strict mode rejects the trace: segment B's meta record now addresses
  // past the end of the log.
  auto strict = TraceStore::OpenDir(dir.path());
  EXPECT_FALSE(strict.ok());

  // Salvage mode analyzes what survived and accounts for what did not.
  StoreOptions options;
  options.salvage = true;
  auto store = TraceStore::OpenDir(dir.path(), options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_TRUE(store.value().integrity().salvaged);

  const AnalysisResult result = Analyze(store.value());
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.races.size(), 1u);
  EXPECT_TRUE(result.races.Contains(11, 22));
  EXPECT_EQ(result.stats.events_missing, 10u);  // segment B, exactly
  EXPECT_GT(result.stats.bytes_skipped_read, 0u);
  EXPECT_TRUE(result.stats.integrity.salvaged);

  // The JSON report carries the integrity section (and keeps the pinned
  // "races-first" shape).
  const std::string json = RenderJson(result, [](uint32_t pc) {
    return "pc#" + std::to_string(pc);
  });
  EXPECT_EQ(json.rfind("{\"races\":[", 0), 0u);
  EXPECT_NE(json.find("\"integrity\":{\"salvaged\":true"), std::string::npos);
  EXPECT_NE(json.find("\"events_missing\":10"), std::string::npos);
}

// Same crash, but the cut lands MID-frame: the log itself is damaged, not
// just short.
TEST(SalvageAnalysis, MidFrameTruncationStillAnalyzable) {
  TempDir dir;
  trace::Flusher flusher(/*async=*/false);
  WriteThread(dir.path(), flusher, 0, 2048,
              {{Meta(0, 2), {trace::RawEvent::Access(0x1000, 8, 1, 11)}}});
  std::vector<trace::RawEvent> seg_a{trace::RawEvent::Access(0x1000, 8, 0, 22)};
  for (uint32_t i = 1; i < 10; i++) {
    seg_a.push_back(trace::RawEvent::Access(0x9000 + i * 8, 8, 0, 23));
  }
  std::vector<trace::RawEvent> seg_b;
  for (uint32_t i = 0; i < 10; i++) {
    seg_b.push_back(trace::RawEvent::Access(0xa000 + i * 8, 8, 1, 24));
  }
  WriteThread(dir.path(), flusher, 1, 160,
              {{Meta(1, 2), seg_a}, {Meta(1, 2, 1), seg_b}});

  const std::string t1_log = dir.path() + "/sword_t1.log";
  ASSERT_TRUE(TruncateFile(t1_log, FirstFrameEnd(t1_log) + 7).ok());

  EXPECT_FALSE(TraceStore::OpenDir(dir.path()).ok());

  StoreOptions options;
  options.salvage = true;
  auto store = TraceStore::OpenDir(dir.path(), options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_FALSE(store.value().integrity().clean());
  EXPECT_EQ(store.value().integrity().truncated_tail_bytes +
                store.value().integrity().bytes_skipped,
            7u);

  const AnalysisResult result = Analyze(store.value());
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.races.size(), 1u);
  EXPECT_TRUE(result.races.Contains(11, 22));
  EXPECT_EQ(result.stats.events_missing, 10u);
}

TEST(MetaValidation, ImplausibleEventCountRejected) {
  TempDir dir;
  trace::Flusher flusher(/*async=*/false);
  WriteThread(dir.path(), flusher, 0, 2048,
              {{Meta(0, 2), {trace::RawEvent::Access(0x1000, 8, 1, 11)}}});

  // Tamper: claim 5 events for a 4-byte segment (tag, pc and a 2-byte
  // address delta); every event takes at least one byte.
  const std::string meta_path = dir.path() + "/sword_t0.meta";
  auto bytes = ReadFileBytes(meta_path);
  ASSERT_TRUE(bytes.ok());
  trace::MetaFile meta;
  ASSERT_TRUE(trace::MetaFile::Decode(bytes.value(), &meta).ok());
  ASSERT_EQ(meta.intervals.size(), 1u);
  ASSERT_EQ(meta.intervals[0].data_size, 4u);
  meta.intervals[0].event_count = 5;
  ASSERT_TRUE(WriteFile(meta_path, meta.Encode()).ok());

  EXPECT_FALSE(TraceStore::OpenDir(dir.path()).ok());

  StoreOptions options;
  options.salvage = true;
  auto store = TraceStore::OpenDir(dir.path(), options);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(store.value().integrity().meta_records_rejected, 1u);
  EXPECT_EQ(store.value().TotalIntervals(), 0u);
}

TEST(MetaValidation, RecordBeyondLogRejectedStrictKeptInSalvage) {
  TempDir dir;
  trace::Flusher flusher(/*async=*/false);
  WriteThread(dir.path(), flusher, 0, 2048,
              {{Meta(0, 2), {trace::RawEvent::Access(0x1000, 8, 1, 11)}}});

  // Tamper: a second record addressing data the log never received - the
  // exact shape a killed run leaves (checkpointed meta, unflushed events).
  const std::string meta_path = dir.path() + "/sword_t0.meta";
  auto bytes = ReadFileBytes(meta_path);
  ASSERT_TRUE(bytes.ok());
  trace::MetaFile meta;
  ASSERT_TRUE(trace::MetaFile::Decode(bytes.value(), &meta).ok());
  trace::IntervalMeta ghost = Meta(0, 2, 1);
  ASSERT_EQ(meta.intervals.size(), 1u);
  ghost.data_begin = meta.intervals[0].data_size;  // the log's end
  ghost.data_size = 64;
  ghost.event_count = 4;
  meta.intervals.push_back(ghost);
  ASSERT_TRUE(WriteFile(meta_path, meta.Encode()).ok());

  EXPECT_FALSE(TraceStore::OpenDir(dir.path()).ok());

  StoreOptions options;
  options.salvage = true;
  auto store = TraceStore::OpenDir(dir.path(), options);
  ASSERT_TRUE(store.ok());
  // Kept, not rejected: the reader clamps it at stream time and the
  // analysis reports its events as missing.
  EXPECT_EQ(store.value().integrity().meta_records_rejected, 0u);
  EXPECT_EQ(store.value().TotalIntervals(), 2u);
  const AnalysisResult result = Analyze(store.value());
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.stats.events_missing, 4u);
}

TEST(MetaValidation, TornMetaTailRecoversCleanPrefix) {
  TempDir dir;
  trace::Flusher flusher(/*async=*/false);
  WriteThread(dir.path(), flusher, 0, 2048,
              {{Meta(0, 2), {trace::RawEvent::Access(0x1000, 8, 1, 11)}},
               {Meta(0, 2, 1), {trace::RawEvent::Access(0x2000, 8, 1, 12)}}});

  const std::string meta_path = dir.path() + "/sword_t0.meta";
  auto bytes = ReadFileBytes(meta_path);
  ASSERT_TRUE(bytes.ok());
  // Tear the last few bytes off the second record.
  ASSERT_TRUE(TruncateFile(meta_path, bytes.value().size() - 3).ok());

  EXPECT_FALSE(TraceStore::OpenDir(dir.path()).ok());

  StoreOptions options;
  options.salvage = true;
  auto store = TraceStore::OpenDir(dir.path(), options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ(store.value().integrity().meta_records_dropped, 1u);
  EXPECT_EQ(store.value().TotalIntervals(), 1u);
}

TEST(MetaValidation, MissingMetaCountedNotFatalInSalvage) {
  TempDir dir;
  trace::Flusher flusher(/*async=*/false);
  WriteThread(dir.path(), flusher, 0, 2048,
              {{Meta(0, 2), {trace::RawEvent::Access(0x1000, 8, 1, 11)}}});
  WriteThread(dir.path(), flusher, 1, 2048,
              {{Meta(1, 2), {trace::RawEvent::Access(0x1000, 8, 1, 22)}}});
  ASSERT_TRUE(RemoveFile(dir.path() + "/sword_t1.meta").ok());

  StoreOptions options;
  options.salvage = true;
  auto store = TraceStore::OpenDir(dir.path(), options);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(store.value().thread_count(), 2u);
  EXPECT_EQ(store.value().integrity().threads_missing_meta, 1u);
  // Thread 1's log is still open (sword-dump --verify can walk it); it just
  // contributes no intervals without its meta.
  EXPECT_EQ(store.value().TotalIntervals(), 1u);
}

// --- retired versions ------------------------------------------------------

/// Overwrites the 4 bytes at the start of `path` with `magic`, given in
/// on-disk byte order.
void PatchMagic(const std::string& path, const char magic[4]) {
  auto bytes = ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());
  Bytes patched = bytes.value();
  ASSERT_GE(patched.size(), 4u);
  for (int i = 0; i < 4; i++) patched[i] = static_cast<uint8_t>(magic[i]);
  ASSERT_TRUE(WriteFile(path, patched).ok());
}

// A v1 ("SWDF") or v2 ("SWF2") frame is refused by name, never decoded. The
// frame is hand-made by re-tagging a v3 frame of plain accesses, whose
// payload bytes are exactly what a v2 writer produced.
TEST(RetiredVersions, OldFrameRefusedStrictSkippedBySalvage) {
  for (const char* magic : {"2FWS", "FDWS"}) {  // SWF2, SWDF
    SCOPED_TRACE(magic);
    TempDir dir;
    trace::Flusher flusher(/*async=*/false);
    WriteThread(dir.path(), flusher, 0, 2048,
                {{Meta(0, 2), {trace::RawEvent::Access(0x1000, 8, 1, 11)}}});
    WriteThread(dir.path(), flusher, 1, 2048,
                {{Meta(1, 2), {trace::RawEvent::Access(0x1000, 8, 0, 22)}}});
    const std::string t1_log = dir.path() + "/sword_t1.log";
    const uint64_t frame_bytes = FileSize(t1_log).value();
    ASSERT_EQ(FirstFrameEnd(t1_log), frame_bytes);  // exactly one frame
    PatchMagic(t1_log, magic);

    auto strict = TraceStore::OpenDir(dir.path());
    ASSERT_FALSE(strict.ok());
    EXPECT_EQ(strict.status().code(), ErrorCode::kUnsupported)
        << strict.status().ToString();
    const std::string named = std::string("SW") + magic[1] + magic[0];
    EXPECT_NE(strict.status().message().find(named), std::string::npos)
        << strict.status().ToString();

    std::vector<trace::FrameRecord> records;
    auto verified = trace::LogReader::VerifyLog(
        t1_log, [&](const trace::FrameRecord& f) { records.push_back(f); });
    ASSERT_TRUE(verified.ok());
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].status.code(), ErrorCode::kUnsupported);
    EXPECT_EQ(records[0].encoded_size, frame_bytes);

    StoreOptions options;
    options.salvage = true;
    auto store = TraceStore::OpenDir(dir.path(), options);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    EXPECT_EQ(store.value().integrity().bytes_skipped, frame_bytes);
    EXPECT_EQ(store.value().integrity().frames_ok, 1u);  // thread 0's frame
    const AnalysisResult result = Analyze(store.value());
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
    EXPECT_EQ(result.races.size(), 0u);
    EXPECT_EQ(result.stats.events_missing, 1u);
  }
}

TEST(RetiredVersions, OldMetaRefusedStrictMissingInSalvage) {
  TempDir dir;
  trace::Flusher flusher(/*async=*/false);
  WriteThread(dir.path(), flusher, 0, 2048,
              {{Meta(0, 2), {trace::RawEvent::Access(0x1000, 8, 1, 11)}}});
  PatchMagic(dir.path() + "/sword_t0.meta", "5MWS");  // SWM5

  auto strict = TraceStore::OpenDir(dir.path());
  ASSERT_FALSE(strict.ok());
  EXPECT_EQ(strict.status().code(), ErrorCode::kUnsupported)
      << strict.status().ToString();
  EXPECT_NE(strict.status().message().find("SWM5"), std::string::npos);

  StoreOptions options;
  options.salvage = true;
  auto store = TraceStore::OpenDir(dir.path(), options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ(store.value().integrity().threads_missing_meta, 1u);
  EXPECT_EQ(store.value().TotalIntervals(), 0u);
}

// FORMAT.md's Hamming rule: every magic, retired ones included, is at least
// two bits from every other, so one flipped bit in "SW3F" is damage - never
// a valid frame and never a retired version.
TEST(RetiredVersions, SingleBitFlipInDataMagicIsCorrupt) {
  TempDir dir;
  const MatrixLog log = BuildMatrixLog(dir.path());
  const std::string path = dir.File("flip.log");
  for (int bit = 0; bit < 32; bit++) {
    Bytes damaged = log.file;
    damaged[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    ASSERT_TRUE(WriteFile(path, damaged).ok());
    auto strict = trace::LogReader::Open(path);
    ASSERT_FALSE(strict.ok()) << "bit " << bit;
    EXPECT_EQ(strict.status().code(), ErrorCode::kCorruptData) << "bit " << bit;
    std::vector<trace::FrameRecord> records;
    auto verified = trace::LogReader::VerifyLog(
        path, [&](const trace::FrameRecord& f) { records.push_back(f); });
    ASSERT_TRUE(verified.ok());
    ASSERT_FALSE(records.empty());
    EXPECT_EQ(records[0].status.code(), ErrorCode::kCorruptData) << "bit " << bit;
  }
}

TEST(SalvageReport, TextReportShowsIntegritySection) {
  TempDir dir;
  trace::Flusher flusher(/*async=*/false);
  WriteThread(dir.path(), flusher, 0, 2048,
              {{Meta(0, 2), {trace::RawEvent::Access(0x1000, 8, 1, 11)}}});
  const std::string log_path = dir.path() + "/sword_t0.log";
  const uint64_t size = FileSize(log_path).value();
  ASSERT_TRUE(TruncateFile(log_path, size - 3).ok());

  StoreOptions options;
  options.salvage = true;
  auto store = TraceStore::OpenDir(dir.path(), options);
  ASSERT_TRUE(store.ok());
  const AnalysisResult result = Analyze(store.value());
  const std::string text = RenderText(result, [](uint32_t pc) {
    return "pc#" + std::to_string(pc);
  });
  EXPECT_NE(text.find("trace integrity: DAMAGED (salvage mode)"),
            std::string::npos);
  EXPECT_NE(text.find("truncated tail byte(s)"), std::string::npos);
}

}  // namespace
}  // namespace sword::offline
