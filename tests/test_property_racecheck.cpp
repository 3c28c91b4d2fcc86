// Randomized equivalence properties for the race-check hot path rework:
//
//   1. CheckFrozenPair (frozen flat sets + sweep-merge/gallop enumeration,
//      with and without the closed-form overlap fast paths) must emit the
//      EXACT report sequence of the legacy CheckTreePair + general-engine
//      path, over randomized strided workloads.
//   2. Under a starved solver budget, the frozen path without fast paths is
//      still byte-identical; with fast paths it may only be MORE precise -
//      every pair the legacy path proves stays proven with the same witness,
//      every pair the fast-path run reports was at least flagged (possibly
//      unproven) by the legacy path, and nothing is invented or dropped.
//   3. The full analyzer reports exactly the pc pairs of the brute-force
//      reference oracle (tests/race_oracle.h), renders byte-identically at
//      1 and 3 checker threads, over randomized multi-threaded traces in
//      every wire format - and never more than the oracle on salvage-cut
//      traces. Two deterministic traces pin the run-tail and lock-release
//      shapes the random ones rarely decide at pc-pair granularity.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/fsutil.h"
#include "common/rng.h"
#include "offline/analysis.h"
#include "offline/racecheck.h"
#include "offline/report.h"
#include "offline/tracestore.h"
#include "race_oracle.h"
#include "trace/writer.h"

namespace sword::offline {
namespace {

using itree::AccessKey;
using itree::IntervalTree;
using itree::MutexSetTable;

using ReportTuple = std::tuple<uint32_t, uint32_t, uint64_t, uint8_t, uint8_t,
                               bool, bool, uint8_t>;

ReportTuple Tup(const RaceReport& r) {
  return {r.pc1,    r.pc2,    r.address,
          r.size1,  r.size2,  r.write1,
          r.write2, static_cast<uint8_t>(r.confidence)};
}

std::vector<ReportTuple> Tuples(const std::vector<RaceReport>& rs) {
  std::vector<ReportTuple> out;
  out.reserve(rs.size());
  for (const RaceReport& r : rs) out.push_back(Tup(r));
  return out;
}

/// A random strided workload: a mix of singleton, dense-run, and sparse
/// strided nodes with random rw/atomic flags and lock sets drawn from a
/// small pool, clustered so ranges actually touch across the two trees.
IntervalTree RandomWorkloadTree(Rng& rng, const MutexSetTable& /*mutexes*/,
                                MutexSetTable* intern, uint32_t pc_base) {
  IntervalTree tree;
  const int nodes = 4 + static_cast<int>(rng.Below(40));
  for (int i = 0; i < nodes; i++) {
    ilp::StridedInterval iv;
    iv.base = 0x1000 + rng.Below(2000);
    switch (rng.Below(4)) {
      case 0:  // singleton
        iv.stride = 0;
        iv.count = 1;
        break;
      case 1:  // dense run (stride <= size)
        iv.stride = 8;
        iv.count = 1 + rng.Below(24);
        break;
      default:  // sparse strided, adversarial strides
        iv.stride = 9 + rng.Below(56);
        iv.count = 1 + rng.Below(24);
        break;
    }
    iv.size = static_cast<uint32_t>(1 + rng.Below(8));
    if (iv.stride != 0 && iv.stride <= iv.size) iv.stride = iv.size + 1;
    if (rng.Chance(0.3)) iv.stride = 8;  // frequent equal-stride pairs

    AccessKey key;
    key.pc = pc_base + static_cast<uint32_t>(rng.Below(6));
    key.flags = rng.Chance(0.6) ? itree::kWrite : itree::kRead;
    if (rng.Chance(0.15)) key.flags |= itree::kAtomic;
    key.size = static_cast<uint8_t>(iv.size);
    key.mutexset = rng.Chance(0.25)
                       ? intern->Intern({1 + static_cast<uint32_t>(rng.Below(2))})
                       : itree::kEmptyMutexSet;
    tree.AddInterval(iv, key);
  }
  return tree;
}

struct RunOutput {
  std::vector<RaceReport> reports;
  CheckStats stats;
};

RunOutput RunTree(const IntervalTree& a, const IntervalTree& b,
                  const MutexSetTable& mutexes, const CheckLimits& limits) {
  RunOutput out;
  CheckTreePair(a, b, mutexes, ilp::OverlapEngine::kDiophantine,
                [&](const RaceReport& r) { out.reports.push_back(r); },
                &out.stats, limits);
  return out;
}

RunOutput RunFrozen(const IntervalTree& a, const IntervalTree& b,
                    const MutexSetTable& mutexes, const CheckLimits& limits) {
  const itree::FrozenIntervalSet fa(a), fb(b);
  RunOutput out;
  CheckFrozenPair(fa, fb, mutexes, ilp::OverlapEngine::kDiophantine,
                  [&](const RaceReport& r) { out.reports.push_back(r); },
                  &out.stats, limits);
  return out;
}

class RacecheckProperty : public testing::TestWithParam<int> {};

TEST_P(RacecheckProperty, FrozenAndFastpathMatchLegacyExactly) {
  Rng rng(31000 + static_cast<uint64_t>(GetParam()));
  MutexSetTable mutexes;
  const IntervalTree a = RandomWorkloadTree(rng, mutexes, &mutexes, 100);
  const IntervalTree b = RandomWorkloadTree(rng, mutexes, &mutexes, 200);

  const RunOutput legacy = RunTree(a, b, mutexes, {});
  const RunOutput sweep = RunFrozen(a, b, mutexes, {});
  CheckLimits fast;
  fast.use_fastpath = true;
  const RunOutput fastpath = RunFrozen(a, b, mutexes, fast);

  EXPECT_EQ(Tuples(legacy.reports), Tuples(sweep.reports)) << "sweep back end";
  EXPECT_EQ(Tuples(legacy.reports), Tuples(fastpath.reports)) << "fast paths";

  EXPECT_EQ(legacy.stats.node_pairs_ranged, sweep.stats.node_pairs_ranged);
  EXPECT_EQ(legacy.stats.solver_calls, sweep.stats.solver_calls);
  EXPECT_EQ(legacy.stats.duplicates_suppressed,
            sweep.stats.duplicates_suppressed);
  // Fast paths replace solver calls one-for-one, never skip decisions.
  EXPECT_EQ(fastpath.stats.fastpath_hits + fastpath.stats.solver_calls,
            legacy.stats.solver_calls);
}

TEST_P(RacecheckProperty, StarvedBudgetStaysSoundAndConsistent) {
  Rng rng(47000 + static_cast<uint64_t>(GetParam()));
  MutexSetTable mutexes;
  const IntervalTree a = RandomWorkloadTree(rng, mutexes, &mutexes, 100);
  const IntervalTree b = RandomWorkloadTree(rng, mutexes, &mutexes, 200);

  CheckLimits starved;
  starved.solver_step_budget = 1 + rng.Below(3);
  const RunOutput legacy = RunTree(a, b, mutexes, starved);
  const RunOutput sweep = RunFrozen(a, b, mutexes, starved);
  // Without fast paths the frozen path makes the same starved decisions in
  // the same canonical order: byte-identical, bail-outs included.
  EXPECT_EQ(Tuples(legacy.reports), Tuples(sweep.reports));
  EXPECT_EQ(legacy.stats.solver_bailouts, sweep.stats.solver_bailouts);

  CheckLimits starved_fast = starved;
  starved_fast.use_fastpath = true;
  const RunOutput fastpath = RunFrozen(a, b, mutexes, starved_fast);

  // The fast paths are exact and budget-free, so the starved fast-path run
  // may only be MORE decided than legacy, never contradictory:
  //   - every report it emits targets a pair legacy also flagged;
  //   - every pair legacy PROVED is reported identically (the closed forms
  //     reproduce engine witnesses bit-for-bit);
  //   - anything it still reports unproven, legacy reported unproven too.
  std::map<std::pair<uint32_t, uint32_t>, int> legacy_pairs;
  std::map<ReportTuple, int> legacy_unproven;
  for (const RaceReport& r : legacy.reports) {
    legacy_pairs[{r.pc1, r.pc2}]++;
    if (r.confidence == RaceConfidence::kUnproven) legacy_unproven[Tup(r)]++;
  }
  for (const RaceReport& r : fastpath.reports) {
    ASSERT_TRUE(legacy_pairs.count({r.pc1, r.pc2}))
        << "fast path invented pair " << r.pc1 << "/" << r.pc2;
    if (r.confidence == RaceConfidence::kUnproven) {
      // An unproven fast-path-run report is an engine-fallback decision the
      // legacy run made identically - the exact tuple must exist there.
      EXPECT_GT(legacy_unproven[Tup(r)], 0)
          << "unproven report " << r.pc1 << "/" << r.pc2
          << " has no legacy counterpart";
      legacy_unproven[Tup(r)]--;
    }
  }
  std::map<ReportTuple, int> fast_multiset;
  for (const RaceReport& r : fastpath.reports) fast_multiset[Tup(r)]++;
  for (const RaceReport& r : legacy.reports) {
    if (r.confidence == RaceConfidence::kProven) {
      EXPECT_GT(fast_multiset[Tup(r)], 0)
          << "proven race " << r.pc1 << "/" << r.pc2
          << " lost or altered by the fast path";
      fast_multiset[Tup(r)]--;
    }
  }
  EXPECT_LE(fastpath.stats.solver_bailouts, legacy.stats.solver_bailouts);
}

INSTANTIATE_TEST_SUITE_P(RandomWorkloads, RacecheckProperty,
                         testing::Range(0, 30));

// ---------------------------------------------------------------------------
// Full analyzer vs the brute-force oracle over randomized multi-threaded
// traces.

trace::IntervalMeta PropMeta(uint32_t lane, uint32_t span, uint64_t phase) {
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

class AnalyzeAblationProperty : public testing::TestWithParam<int> {};

TEST_P(AnalyzeAblationProperty, MatchesOracleAtEveryThreadCount) {
  Rng rng(88000 + static_cast<uint64_t>(GetParam()));
  TempDir dir("prop-ablate");
  trace::Flusher flusher{/*async=*/false};
  const uint32_t threads = 2 + static_cast<uint32_t>(rng.Below(2));
  const uint32_t phases = 1 + static_cast<uint32_t>(rng.Below(2));
  for (uint32_t tid = 0; tid < threads; tid++) {
    trace::WriterConfig wc;
    wc.log_path = dir.path() + "/sword_t" + std::to_string(tid) + ".log";
    wc.meta_path = dir.path() + "/sword_t" + std::to_string(tid) + ".meta";
    wc.flusher = &flusher;
    trace::ThreadTraceWriter writer(tid, wc);
    for (uint32_t phase = 0; phase < phases; phase++) {
      writer.BeginSegment(PropMeta(tid, threads, phase));
      const int events = static_cast<int>(rng.Below(120));
      uint64_t cursor = 0x1000 + rng.Below(512) * 8;
      for (int e = 0; e < events; e++) {
        const uint32_t pc = 10 + static_cast<uint32_t>(rng.Below(8));
        const uint8_t size = rng.Chance(0.5) ? 8 : 4;
        const bool write = rng.Chance(0.5);
        writer.Append(trace::RawEvent::Access(cursor, size, write, pc));
        cursor += rng.Chance(0.7) ? 8 * (1 + rng.Below(4))
                                  : (rng.Below(256) * 8);
        if (cursor > 0x6000) cursor = 0x1000 + rng.Below(64) * 8;
      }
      writer.EndSegment();
    }
    ASSERT_TRUE(writer.Finish().ok());
  }

  auto store = TraceStore::OpenDir(dir.path());
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  const auto pc_name = [](uint32_t pc) { return "pc#" + std::to_string(pc); };

  const AnalysisResult base = Analyze(store.value());
  ASSERT_TRUE(base.status.ok()) << base.status.ToString();
  EXPECT_EQ(oracle::RacePairs(base.races), oracle::RacePairs(store.value()));

  AnalysisConfig parallel;
  parallel.threads = 3;
  const AnalysisResult alt = Analyze(store.value(), parallel);
  ASSERT_TRUE(alt.status.ok());
  EXPECT_EQ(RenderText(alt, pc_name), RenderText(base, pc_name));
  EXPECT_EQ(Tuples(alt.races.reports()), Tuples(base.races.reports()));
}

INSTANTIATE_TEST_SUITE_P(RandomTraces, AnalyzeAblationProperty,
                         testing::Range(0, 12));

// ---------------------------------------------------------------------------
// The analyzer's streaming pipeline - decoder-to-frozen build, symbolic
// strided runs, repeated-subtrace memoization - against the brute-force
// oracle, across trace formats v1/v2/v3 and across salvage-cut traces whose
// tails died mid-segment.

/// One thread's scripted event stream. Scripts are generated once and
/// sometimes REPLAYED verbatim on another thread, so dedup's
/// fingerprint-sharing path is exercised, not just tolerated.
using EventScript = std::vector<trace::RawEvent>;

EventScript RandomScript(Rng& rng) {
  EventScript script;
  const int bursts = 1 + static_cast<int>(rng.Below(4));
  for (int b = 0; b < bursts; b++) {
    if (rng.Chance(0.3)) {
      // A strided sweep: in v3 the writer coalesces this into one
      // kAccessRun, the shape the symbolic layer carries end to end.
      const uint64_t base = 0x1000 + rng.Below(64) * 8;
      const uint64_t stride = 8 * (1 + rng.Below(3));
      const int count = 16 + static_cast<int>(rng.Below(64));
      const uint32_t pc = 10 + static_cast<uint32_t>(rng.Below(8));
      const bool write = rng.Chance(0.6);
      for (int i = 0; i < count; i++) {
        script.push_back(trace::RawEvent::Access(
            base + static_cast<uint64_t>(i) * stride, 8, write, pc));
      }
    } else if (rng.Chance(0.15)) {
      const uint32_t lock = 1 + static_cast<uint32_t>(rng.Below(2));
      script.push_back(trace::RawEvent::MutexAcquire(lock));
      script.push_back(trace::RawEvent::Access(
          0x1000 + rng.Below(256) * 8, 8, true,
          10 + static_cast<uint32_t>(rng.Below(8))));
      script.push_back(trace::RawEvent::MutexRelease(lock));
    } else {
      const int events = static_cast<int>(rng.Below(40));
      uint64_t cursor = 0x1000 + rng.Below(512) * 8;
      for (int e = 0; e < events; e++) {
        script.push_back(trace::RawEvent::Access(
            cursor, rng.Chance(0.5) ? 8 : 4, rng.Chance(0.5),
            10 + static_cast<uint32_t>(rng.Below(8))));
        cursor += rng.Chance(0.7) ? 8 * (1 + rng.Below(4)) : rng.Below(256) * 8;
        if (cursor > 0x6000) cursor = 0x1000 + rng.Below(64) * 8;
      }
    }
  }
  return script;
}

/// Writes `scripts[tid][phase]` as thread tid's barrier interval `phase` in
/// wire format `format`, one log/meta pair per thread, the way the online
/// tool logs them.
void WriteScripts(const std::string& dir, uint8_t format,
                  const std::vector<std::vector<EventScript>>& scripts) {
  trace::Flusher flusher{/*async=*/false};
  const uint32_t threads = static_cast<uint32_t>(scripts.size());
  for (uint32_t tid = 0; tid < threads; tid++) {
    trace::WriterConfig wc;
    wc.log_path = dir + "/sword_t" + std::to_string(tid) + ".log";
    wc.meta_path = dir + "/sword_t" + std::to_string(tid) + ".meta";
    wc.flusher = &flusher;
    wc.format = format;
    trace::ThreadTraceWriter writer(tid, wc);
    for (uint32_t phase = 0; phase < scripts[tid].size(); phase++) {
      writer.BeginSegment(PropMeta(tid, threads, phase));
      for (const trace::RawEvent& e : scripts[tid][phase]) {
        // Accesses take the instrumented path, so v3 traces carry what the
        // duplicate filter and the run coalescer make of them (kAccessRun);
        // plain Append would log every access verbatim.
        if (e.kind == trace::EventKind::kAccess) {
          writer.AppendAccess(e.addr, e.size, e.flags, e.pc);
        } else {
          writer.Append(e);
        }
      }
      writer.EndSegment();
    }
    ASSERT_TRUE(writer.Finish().ok());
  }
}

class StreamingPipelineProperty : public testing::TestWithParam<int> {};

TEST_P(StreamingPipelineProperty, MatchesOracleAtEveryThreadCount) {
  const int seed = GetParam();
  Rng rng(99000 + static_cast<uint64_t>(seed));
  TempDir dir("prop-stream");
  // Rotate the wire format so every decoder front end feeds the streaming
  // build; only v3 carries kAccessRun, the symbolic layer's event.
  const uint8_t format = static_cast<uint8_t>(
      trace::kTraceFormatV1 + (static_cast<uint32_t>(seed) % 3));
  const uint32_t threads = 2 + static_cast<uint32_t>(rng.Below(2));
  const uint32_t phases = 1 + static_cast<uint32_t>(rng.Below(2));

  std::vector<std::vector<EventScript>> scripts(threads);
  for (uint32_t tid = 0; tid < threads; tid++) {
    for (uint32_t phase = 0; phase < phases; phase++) {
      // Half the time a later thread replays thread 0's stream verbatim -
      // identical canonical streams are dedup's fingerprint-sharing case.
      if (tid > 0 && rng.Chance(0.5)) {
        scripts[tid].push_back(scripts[0][phase]);
      } else {
        scripts[tid].push_back(RandomScript(rng));
      }
    }
  }

  ASSERT_NO_FATAL_FAILURE(WriteScripts(dir.path(), format, scripts));

  // Every third seed analyzes a salvage-cut trace: the last thread's log
  // loses its tail (as a SIGKILL mid-flush would leave it), so damaged
  // segments and partially-streamed groups are covered too.
  StoreOptions store_options;
  if (seed % 3 == 1) {
    const std::string victim =
        dir.path() + "/sword_t" + std::to_string(threads - 1) + ".log";
    auto size = FileSize(victim);
    ASSERT_TRUE(size.ok());
    if (size.value() > 8) {
      ASSERT_TRUE(
          TruncateFile(victim, size.value() - 1 - rng.Below(size.value() / 2))
              .ok());
      store_options.salvage = true;
    }
  }

  auto store = TraceStore::OpenDir(dir.path(), store_options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  const auto pc_name = [](uint32_t pc) { return "pc#" + std::to_string(pc); };

  const AnalysisResult base = Analyze(store.value());
  ASSERT_TRUE(base.status.ok()) << base.status.ToString();
  const std::set<oracle::PcPair> found = oracle::RacePairs(base.races);
  const std::set<oracle::PcPair> expected = oracle::RacePairs(store.value());
  if (store_options.salvage) {
    // A damaged segment may lose events the oracle still decodes before the
    // damage; the analyzer may then miss races, but never invents one.
    EXPECT_TRUE(std::includes(expected.begin(), expected.end(), found.begin(),
                              found.end()))
        << "format=v" << int(format);
  } else {
    EXPECT_EQ(found, expected) << "format=v" << int(format);
  }

  AnalysisConfig parallel;
  parallel.threads = 3;
  const AnalysisResult alt = Analyze(store.value(), parallel);
  ASSERT_TRUE(alt.status.ok()) << alt.status.ToString();
  EXPECT_EQ(RenderText(alt, pc_name), RenderText(base, pc_name))
      << "format=v" << int(format);
  EXPECT_EQ(Tuples(alt.races.reports()), Tuples(base.races.reports()));
}

INSTANTIATE_TEST_SUITE_P(RandomTraces, StreamingPipelineProperty,
                         testing::Range(0, 27));

// ---------------------------------------------------------------------------
// Deterministic traces for the two shapes the random ones rarely pin down at
// pc-pair granularity: a race carried only by the last element of a
// writer-coalesced run, and a race that exists only because a lock was
// released earlier in the same segment.

std::set<oracle::PcPair> AnalyzeAndCheckOracle(const std::string& dir) {
  auto store = TraceStore::OpenDir(dir);
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  if (!store.ok()) return {};
  const AnalysisResult base = Analyze(store.value());
  EXPECT_TRUE(base.status.ok()) << base.status.ToString();
  const std::set<oracle::PcPair> found = oracle::RacePairs(base.races);
  EXPECT_EQ(found, oracle::RacePairs(store.value()));
  AnalysisConfig parallel;
  parallel.threads = 3;
  const AnalysisResult alt = Analyze(store.value(), parallel);
  EXPECT_EQ(Tuples(alt.races.reports()), Tuples(base.races.reports()));
  return found;
}

TEST(OracleShapes, RaceOnlyOnLastElementOfCoalescedRun) {
  TempDir dir("oracle-run-tail");
  constexpr uint64_t kBase = 0x1000;
  constexpr uint64_t kStride = 16;
  constexpr int kCount = 32;
  EventScript run;
  for (int i = 0; i < kCount; i++) {
    run.push_back(trace::RawEvent::Access(
        kBase + static_cast<uint64_t>(i) * kStride, 8, /*write=*/true, 10));
  }
  // Thread 1 touches only the run's last element; the element before it
  // and the gap after it are 8 bytes clear.
  const EventScript tail = {trace::RawEvent::Access(
      kBase + (kCount - 1) * kStride, 8, /*write=*/false, 20)};
  ASSERT_NO_FATAL_FAILURE(
      WriteScripts(dir.path(), trace::kTraceFormatV3, {{run}, {tail}}));

  // The writer must have coalesced the sweep, or this is not the shape.
  auto store = TraceStore::OpenDir(dir.path());
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  uint64_t runs = 0;
  for (const auto& thread : store.value().threads()) {
    for (const trace::IntervalMeta& meta : thread.meta.intervals) {
      ASSERT_TRUE(thread.log
                      ->StreamRange(meta.data_begin, meta.data_size,
                                    [&](const trace::RawEvent& e) {
                                      if (e.kind == trace::EventKind::kAccessRun &&
                                          e.count == kCount) {
                                        runs++;
                                      }
                                    })
                      .ok());
    }
  }
  ASSERT_EQ(runs, 1u);

  EXPECT_EQ(AnalyzeAndCheckOracle(dir.path()),
            (std::set<oracle::PcPair>{{10, 20}}));
}

TEST(OracleShapes, ReleaseEndsLockProtectionWithinSegment) {
  constexpr uint64_t kX = 0x2000;
  constexpr uint32_t kLock = 1;
  // Thread 0 writes x under the lock (pc 10), releases it, then writes x
  // again unprotected (pc 11); thread 1 writes x under the same lock.
  const EventScript t0 = {trace::RawEvent::MutexAcquire(kLock),
                          trace::RawEvent::Access(kX, 8, true, 10),
                          trace::RawEvent::MutexRelease(kLock),
                          trace::RawEvent::Access(kX, 8, true, 11)};
  const EventScript t1 = {trace::RawEvent::MutexAcquire(kLock),
                          trace::RawEvent::Access(kX, 8, true, 20),
                          trace::RawEvent::MutexRelease(kLock)};
  for (uint8_t format :
       {trace::kTraceFormatV1, trace::kTraceFormatV2, trace::kTraceFormatV3}) {
    TempDir dir("oracle-release");
    ASSERT_NO_FATAL_FAILURE(WriteScripts(dir.path(), format, {{t0}, {t1}}));
    EXPECT_EQ(AnalyzeAndCheckOracle(dir.path()),
              (std::set<oracle::PcPair>{{11, 20}}))
        << "format=v" << int(format);
  }
}

}  // namespace
}  // namespace sword::offline
