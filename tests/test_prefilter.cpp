// Static pre-filter: prove loop sites race-free ahead of time and elide
// their instrumentation cost. Covers the summarize -> prove -> suppress
// state machine (arming, deviation, conservative invalidation, permanent
// negatives), the receipt/elision accounting through meta v6 and the trace
// store, and the two invariants everything rests on:
//   - race sets are EXACTLY equal with the pre-filter on or off, across
//     thread counts (missed-not-false, enforced structurally by footprint
//     receipts);
//   - no DataRaceBench ground-truth race disappears under elision.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/fsutil.h"
#include "core/sword_tool.h"
#include "harness/harness.h"
#include "offline/analysis.h"
#include "offline/tracestore.h"
#include "prefilter/prefilter.h"
#include "somp/instr.h"
#include "somp/runtime.h"
#include "trace/event.h"
#include "workloads/workload.h"

namespace sword {
namespace {

using somp::Ctx;

constexpr int64_t kN = 64;
constexpr int kSweeps = 4;

struct KernelOutcome {
  std::set<std::pair<uint32_t, uint32_t>> races;
  std::vector<prefilter::SiteSnapshot> sites;
  prefilter::SiteStats totals;
  uint64_t elided = 0;
  uint64_t elided_lost = 0;
  bool state_file = false;       // <out>/prefilter.json written
  bool integrity_clean = false;  // offline store integrity
  uint64_t integrity_elided = 0;
};

/// Runs `body` under a fresh SwordTool, snapshots the pre-filter, finalizes,
/// then opens + analyzes the trace. Race pairs come back as an unordered
/// pc-pair set (lane threads register writer ids in scheduling order, so
/// ordered reports are not comparable across separate somp runs).
KernelOutcome RunKernel(uint32_t threads, bool prefilter,
                        const std::function<void(Ctx&)>& body) {
  TempDir dir("pf-test");
  core::SwordConfig sc;
  sc.out_dir = dir.path();
  sc.prefilter = prefilter;
  KernelOutcome out;
  {
    core::SwordTool tool(sc);
    somp::RuntimeConfig rc;
    rc.tool = &tool;
    somp::Runtime::Get().ResetIds();
    somp::Runtime::Get().Configure(rc);
    somp::Parallel(threads, body);
    if (tool.prefilter() != nullptr) {
      out.sites = tool.prefilter()->Snapshot();
      out.totals = tool.prefilter()->Totals();
    }
    EXPECT_TRUE(tool.Finalize().ok());
    somp::Runtime::Get().Configure({});
    out.elided = tool.EventsElided();
    out.elided_lost = tool.ElidedLost();
    out.state_file = FileExists(dir.path() + "/prefilter.json");
  }
  auto store = offline::TraceStore::OpenDir(dir.path());
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  if (!store.ok()) return out;
  out.integrity_clean = store.value().integrity().clean();
  out.integrity_elided = store.value().integrity().elided_accesses;
  const offline::AnalysisResult result = offline::Analyze(store.value());
  EXPECT_TRUE(result.status.ok()) << result.status.ToString();
  for (const RaceReport& r : result.races.reports()) {
    out.races.insert({std::min(r.pc1, r.pc2), std::max(r.pc1, r.pc2)});
  }
  return out;
}

// Disjoint two-array sweep with stable bases: the provable shape. Arms
// after the first (observed) sweep and elides the remaining kSweeps - 1.
std::function<void(Ctx&)> StableKernel(std::vector<uint64_t>& a,
                                       std::vector<uint64_t>& b) {
  return [&a, &b](Ctx& ctx) {
    for (int s = 0; s < kSweeps; s++) {
      ctx.For(0, kN, [&](int64_t i) {
        instr::store(a[static_cast<size_t>(i)],
                     instr::load(b[static_cast<size_t>(i)]) + 1);
      });
    }
  };
}

// a[i] = a[i+1]: neighbouring lanes overlap at every chunk boundary. The
// prover must find the overlap and never arm; the race must be reported.
std::function<void(Ctx&)> NeighbourRaceKernel(std::vector<uint64_t>& a) {
  return [&a](Ctx& ctx) {
    for (int s = 0; s < kSweeps; s++) {
      ctx.For(0, kN - 1, [&](int64_t i) {
        instr::store(a[static_cast<size_t>(i)],
                     instr::load(a[static_cast<size_t>(i) + 1]));
      });
    }
  };
}

// Every lane hammers one shared scalar: a zero-stride model whose lane
// footprints fully overlap.
std::function<void(Ctx&)> SharedCounterKernel(std::vector<uint64_t>& a) {
  return [&a](Ctx& ctx) {
    ctx.For(0, kN, [&](int64_t) {
      instr::store(a[0], instr::load(a[0]) + 1);
    });
  };
}

TEST(Prefilter, StableStencilProvenAndElided) {
  std::vector<uint64_t> a(kN), b(kN);
  const auto on = RunKernel(4, true, StableKernel(a, b));

  ASSERT_EQ(on.sites.size(), 1u);
  EXPECT_EQ(on.sites[0].verdict, prefilter::SiteVerdict::kProvenSafe);
  EXPECT_EQ(on.totals.episodes, static_cast<uint64_t>(kSweeps));
  EXPECT_EQ(on.totals.armed_episodes, static_cast<uint64_t>(kSweeps - 1));
  EXPECT_EQ(on.totals.deviations, 0u);
  EXPECT_EQ(on.totals.invalidations, 0u);
  // Every access of every armed sweep is elided: 2 accesses/iteration.
  EXPECT_EQ(on.elided, static_cast<uint64_t>(kSweeps - 1) * 2 * kN);
  EXPECT_EQ(on.elided_lost, 0u);
  // One receipt run per (lane, slot) per armed sweep: single access per
  // iteration collapses to one strided run.
  EXPECT_EQ(on.totals.receipts, static_cast<uint64_t>(kSweeps - 1) * 4 * 2);
  EXPECT_TRUE(on.state_file);
  // Elision is accounted in the v6 metas but is NOT damage.
  EXPECT_EQ(on.integrity_elided, on.elided);
  EXPECT_TRUE(on.integrity_clean);
  EXPECT_TRUE(on.races.empty());

  const auto off =
      RunKernel(4, false, StableKernel(a, b));
  EXPECT_EQ(off.elided, 0u);
  EXPECT_FALSE(off.state_file);
  EXPECT_EQ(on.races, off.races);
}

TEST(Prefilter, OverlappingLanesNeverArm) {
  std::vector<uint64_t> a(kN);
  const auto on =
      RunKernel(4, true, NeighbourRaceKernel(a));

  ASSERT_EQ(on.sites.size(), 1u);
  EXPECT_EQ(on.sites[0].verdict, prefilter::SiteVerdict::kUnprovenOverlap);
  EXPECT_EQ(on.totals.armed_episodes, 0u);
  EXPECT_EQ(on.elided, 0u);
  EXPECT_FALSE(on.races.empty()) << "the boundary race must be reported";

  const auto off =
      RunKernel(4, false, NeighbourRaceKernel(a));
  EXPECT_EQ(on.races, off.races);
}

TEST(Prefilter, BaseSwapInvalidatesThenDisarms) {
  std::vector<uint64_t> u(kN), v(kN);
  // Same site, same bounds, but the source/destination arrays swap every
  // sweep (c_jacobi01's shape): each armed sweep mispredicts its first
  // access, deviates, and invalidates the proof; after max_invalidations
  // the site is permanently disarmed. Nothing may ever be elided.
  const auto body = [&u, &v](Ctx& ctx) {
    for (int s = 0; s < 8; s++) {
      auto& src = (s % 2 == 0) ? u : v;
      auto& dst = (s % 2 == 0) ? v : u;
      ctx.For(0, kN, [&](int64_t i) {
        instr::store(dst[static_cast<size_t>(i)],
                     instr::load(src[static_cast<size_t>(i)]) + 1);
      });
    }
  };
  const auto on = RunKernel(4, true, body);

  ASSERT_EQ(on.sites.size(), 1u);
  EXPECT_EQ(on.sites[0].verdict, prefilter::SiteVerdict::kDisarmed);
  EXPECT_EQ(on.totals.invalidations, 3u);  // the default max_invalidations
  EXPECT_GE(on.totals.deviations, 3u);
  EXPECT_EQ(on.elided, 0u) << "a mispredicted site must never elide";
  EXPECT_TRUE(on.integrity_clean);
  EXPECT_TRUE(on.races.empty());

  const auto off = RunKernel(4, false, body);
  EXPECT_EQ(on.races, off.races);
}

TEST(Prefilter, SyncInsideBodySuppressesArming) {
  std::vector<uint64_t> a(kN);
  uint64_t sum = 0;
  const auto body = [&a, &sum](Ctx& ctx) {
    for (int s = 0; s < kSweeps; s++) {
      ctx.For(0, kN, [&](int64_t i) {
        instr::store(a[static_cast<size_t>(i)], uint64_t{1});
        ctx.Critical("pf-sum", [&] {
          instr::store(sum, instr::load(sum) + 1);
        });
      });
    }
  };
  const auto on = RunKernel(4, true, body);

  ASSERT_EQ(on.sites.size(), 1u);
  EXPECT_EQ(on.sites[0].verdict, prefilter::SiteVerdict::kHasSync);
  EXPECT_EQ(on.totals.armed_episodes, 0u);
  EXPECT_EQ(on.elided, 0u);
  EXPECT_TRUE(on.races.empty()) << "critical-protected counter is race-free";

  const auto off = RunKernel(4, false, body);
  EXPECT_EQ(on.races, off.races);
}

TEST(Prefilter, GatedOffByConfig) {
  TempDir dir("pf-gate");
  core::SwordConfig sc;
  sc.out_dir = dir.path();
  sc.prefilter = false;  // the SwordConfig default
  {
    core::SwordTool tool(sc);
    EXPECT_EQ(tool.prefilter(), nullptr);
  }
  sc.prefilter = true;
  {
    core::SwordTool tool(sc);
    EXPECT_NE(tool.prefilter(), nullptr);
  }
}

// The exact-equality property grid the design is judged by: pre-filter
// on/off x thread counts, three kernel shapes (provably disjoint,
// boundary-racing, fully-overlapping scalar). The race pc-pair set must be
// EXACTLY equal in every cell.
TEST(PrefilterProperty, RaceSetsEqualAcrossThreads) {
  std::vector<uint64_t> a(kN), b(kN), c(kN), d(kN);
  const std::vector<std::pair<const char*, std::function<void(Ctx&)>>>
      kernels = {
          {"stable", StableKernel(a, b)},
          {"neighbour-race", NeighbourRaceKernel(c)},
          {"shared-counter", SharedCounterKernel(d)},
      };
  for (const auto& [name, kernel] : kernels) {
    for (const uint32_t threads : {2u, 4u}) {
      const auto off = RunKernel(threads, false, kernel);
      const auto on = RunKernel(threads, true, kernel);
      EXPECT_EQ(on.races, off.races)
          << name << " x" << threads << ": pre-filter changed the race set";
      EXPECT_EQ(on.elided_lost, 0u) << name << " x" << threads;
    }
  }
}

// DataRaceBench soundness sweep: with the pre-filter on, every workload
// must report exactly as many races as without it, and never fewer than
// its manifest ground truth - if elision ever swallowed a real race, this
// fails and names the kernel.
TEST(PrefilterSoundness, DrbGroundTruthSurvivesElision) {
  for (const auto* w : workloads::WorkloadRegistry::Get().BySuite("drb")) {
    harness::RunConfig config;
    config.tool = harness::ToolKind::kSword;
    config.params.threads = 4;

    config.prefilter = false;
    const auto off = harness::RunWorkload(*w, config);
    ASSERT_TRUE(off.status.ok()) << w->name << ": " << off.status.ToString();

    config.prefilter = true;
    const auto on = harness::RunWorkload(*w, config);
    ASSERT_TRUE(on.status.ok()) << w->name << ": " << on.status.ToString();

    EXPECT_EQ(on.races, off.races)
        << w->name << ": pre-filter changed the race count";
    EXPECT_GE(on.races, w->total_races)
        << w->name << ": a ground-truth race disappeared under elision";
    EXPECT_EQ(on.elided_lost, 0u) << w->name;
  }
}

}  // namespace
}  // namespace sword
