// Lock-free trace-plane structures (common/lockfree.h) and their
// integration: MPMC ring lanes, the lock-free buffer pool, QSBR sink
// retirement, and the end-to-end properties the plane must keep - race
// reports equal to the brute-force oracle (race_oracle.h), and trace files
// byte-identical to the synchronous flusher's.
// Designed to run under TSan: every cross-thread interaction in the
// structures is atomics-only, so any TSan report here is a real bug.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <set>
#include <source_location>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/faultfs.h"
#include "common/fsutil.h"
#include "common/lockfree.h"
#include "common/memtrack.h"
#include "common/rng.h"
#include "compress/frame.h"
#include "core/sword_tool.h"
#include "offline/analysis.h"
#include "offline/tracestore.h"
#include "race_oracle.h"
#include "somp/instr.h"
#include "somp/runtime.h"
#include "somp/sink.h"
#include "trace/flusher.h"
#include "trace/reader.h"
#include "trace/writer.h"

namespace sword {
namespace {

using lockfree::FreeList;
using lockfree::MpmcRing;
using lockfree::QsbrDomain;

// Sized for a single-core TSan host: enough interleavings to matter,
// small enough to finish fast.
constexpr int kStressProducers = 4;
constexpr int kStressItems = 2000;

// --- MpmcRing ---------------------------------------------------------------

TEST(MpmcRing, CapacityRoundsUpToPow2) {
  EXPECT_EQ(MpmcRing<int>(1).capacity(), 2u);
  EXPECT_EQ(MpmcRing<int>(2).capacity(), 2u);
  EXPECT_EQ(MpmcRing<int>(3).capacity(), 4u);
  EXPECT_EQ(MpmcRing<int>(16).capacity(), 16u);
  EXPECT_EQ(MpmcRing<int>(17).capacity(), 32u);
}

TEST(MpmcRing, FifoAndFullEmptySemantics) {
  MpmcRing<int> ring(4);
  EXPECT_TRUE(ring.Empty());
  int out = -1;
  EXPECT_FALSE(ring.TryPop(&out));
  for (int i = 0; i < 4; i++) EXPECT_TRUE(ring.TryPush(int{i}));
  int rejected = 99;
  EXPECT_FALSE(ring.TryPush(std::move(rejected)));
  EXPECT_EQ(rejected, 99) << "TryPush must not consume on failure";
  for (int i = 0; i < 4; i++) {
    ASSERT_TRUE(ring.TryPop(&out));
    EXPECT_EQ(out, i) << "single-producer order must be FIFO";
  }
  EXPECT_TRUE(ring.Empty());
  // Wrap several laps to exercise the sequence-number lap arithmetic.
  for (int lap = 0; lap < 10; lap++) {
    EXPECT_TRUE(ring.TryPush(lap * 10));
    EXPECT_TRUE(ring.TryPush(lap * 10 + 1));
    ASSERT_TRUE(ring.TryPop(&out));
    EXPECT_EQ(out, lap * 10);
    ASSERT_TRUE(ring.TryPop(&out));
    EXPECT_EQ(out, lap * 10 + 1);
  }
}

TEST(MpmcRing, DestructorDestroysLeftoverElements) {
  auto counter = std::make_shared<int>(0);
  {
    MpmcRing<std::shared_ptr<int>> ring(8);
    for (int i = 0; i < 5; i++) {
      ASSERT_TRUE(ring.TryPush(std::shared_ptr<int>(counter)));
    }
    EXPECT_EQ(counter.use_count(), 6);
  }
  EXPECT_EQ(counter.use_count(), 1) << "ring leaked popped-never elements";
}

TEST(MpmcRingStress, MpscNoLossNoDupPerProducerFifo) {
  // The flusher's actual shape: many producers, one consumer. Items carry
  // {producer, seq}; the consumer checks per-producer sequence numbers are
  // strictly increasing (per-producer FIFO) and counts every item once.
  MpmcRing<uint64_t> ring(64);
  std::atomic<bool> done{false};
  std::vector<uint64_t> last_seq(kStressProducers, 0);
  uint64_t received = 0;
  std::thread consumer([&] {
    uint64_t item;
    for (;;) {
      if (ring.TryPop(&item)) {
        const uint64_t producer = item >> 32;
        const uint64_t seq = item & 0xffffffffu;
        ASSERT_LT(producer, static_cast<uint64_t>(kStressProducers));
        EXPECT_EQ(seq, last_seq[producer] + 1)
            << "per-producer FIFO violated for producer " << producer;
        last_seq[producer] = seq;
        received++;
      } else if (done.load(std::memory_order_acquire)) {
        if (!ring.TryPop(&item)) break;
        const uint64_t producer = item >> 32;
        EXPECT_EQ(item & 0xffffffffu, last_seq[producer] + 1);
        last_seq[producer] = item & 0xffffffffu;
        received++;
      } else {
        std::this_thread::yield();
      }
    }
  });
  std::vector<std::thread> producers;
  for (uint64_t p = 0; p < kStressProducers; p++) {
    producers.emplace_back([&, p] {
      for (uint64_t seq = 1; seq <= kStressItems; seq++) {
        uint64_t item = (p << 32) | seq;
        while (!ring.TryPush(std::move(item))) std::this_thread::yield();
      }
    });
  }
  for (auto& t : producers) t.join();
  done.store(true, std::memory_order_release);
  consumer.join();
  EXPECT_EQ(received, uint64_t(kStressProducers) * kStressItems);
  for (int p = 0; p < kStressProducers; p++) {
    EXPECT_EQ(last_seq[p], uint64_t(kStressItems));
  }
}

TEST(MpmcRingStress, MpmcNoLossNoDup) {
  MpmcRing<uint32_t> ring(32);
  constexpr int kConsumers = 2;
  const uint32_t total = kStressProducers * kStressItems;
  std::vector<std::atomic<uint8_t>> seen(total);
  for (auto& s : seen) s.store(0, std::memory_order_relaxed);
  std::atomic<bool> done{false};
  std::atomic<uint32_t> received{0};

  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; c++) {
    consumers.emplace_back([&] {
      uint32_t item;
      for (;;) {
        if (ring.TryPop(&item)) {
          EXPECT_EQ(seen[item].fetch_add(1, std::memory_order_relaxed), 0)
              << "item " << item << " delivered twice";
          received.fetch_add(1, std::memory_order_relaxed);
        } else if (done.load(std::memory_order_acquire) && ring.Empty()) {
          break;
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  std::vector<std::thread> producers;
  for (uint32_t p = 0; p < kStressProducers; p++) {
    producers.emplace_back([&, p] {
      for (uint32_t i = 0; i < kStressItems; i++) {
        uint32_t item = p * kStressItems + i;
        while (!ring.TryPush(std::move(item))) std::this_thread::yield();
      }
    });
  }
  for (auto& t : producers) t.join();
  done.store(true, std::memory_order_release);
  for (auto& t : consumers) t.join();
  // A consumer may exit while its sibling holds the last claimed-but-unread
  // slot; sweep the remainder here.
  uint32_t item;
  while (ring.TryPop(&item)) {
    EXPECT_EQ(seen[item].fetch_add(1, std::memory_order_relaxed), 0);
    received.fetch_add(1, std::memory_order_relaxed);
  }
  EXPECT_EQ(received.load(), total);
  for (uint32_t i = 0; i < total; i++) {
    EXPECT_EQ(seen[i].load(std::memory_order_relaxed), 1) << "item " << i;
  }
}

// --- FreeList ---------------------------------------------------------------

TEST(FreeListTest, BoundedPutGet) {
  FreeList<int> list(2);
  EXPECT_EQ(list.capacity(), 2u);
  int out = -1;
  EXPECT_FALSE(list.TryGet(&out));
  EXPECT_TRUE(list.TryPut(1));
  EXPECT_TRUE(list.TryPut(2));
  int rejected = 3;
  EXPECT_FALSE(list.TryPut(std::move(rejected)));
  EXPECT_EQ(rejected, 3) << "TryPut must not consume on failure";
  EXPECT_EQ(list.ApproxSize(), 2u);
  std::set<int> got;
  ASSERT_TRUE(list.TryGet(&out));
  got.insert(out);
  ASSERT_TRUE(list.TryGet(&out));
  got.insert(out);
  EXPECT_EQ(got, (std::set<int>{1, 2}));
  EXPECT_FALSE(list.TryGet(&out));
  EXPECT_EQ(list.ApproxSize(), 0u);
}

TEST(FreeListTest, ZeroCapacityAlwaysRejects) {
  FreeList<int> list(0);
  int v = 7;
  EXPECT_FALSE(list.TryPut(std::move(v)));
  EXPECT_FALSE(list.TryGet(&v));
}

TEST(FreeListStress, NoLostNoDuplicatedValues) {
  // Values are unique ids; every TryGet must yield an id that is currently
  // "parked" (put but not yet taken) - a duplicate or invented id trips the
  // ownership flags. Threads cycle ids through the list concurrently.
  constexpr uint32_t kIds = 64;
  FreeList<uint32_t> list(16);
  std::vector<std::atomic<uint8_t>> parked(kIds);
  for (auto& p : parked) p.store(0, std::memory_order_relaxed);
  std::atomic<uint32_t> cycles{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < kStressProducers; t++) {
    threads.emplace_back([&, t] {
      // Each thread owns a disjoint id range to feed in; after that it
      // keeps recycling whatever it can get back out.
      std::vector<uint32_t> mine;
      for (uint32_t i = t; i < kIds; i += kStressProducers) mine.push_back(i);
      Rng rng(1234 + t);
      for (int round = 0; round < kStressItems; round++) {
        if (!mine.empty() && rng.Chance(0.55)) {
          uint32_t id = mine.back();
          parked[id].store(1, std::memory_order_relaxed);
          if (list.TryPut(std::move(id))) {
            mine.pop_back();
            cycles.fetch_add(1, std::memory_order_relaxed);
          } else {
            parked[id].store(0, std::memory_order_relaxed);
          }
        } else {
          uint32_t id;
          if (list.TryGet(&id)) {
            ASSERT_LT(id, kIds);
            EXPECT_EQ(parked[id].exchange(0, std::memory_order_relaxed), 1)
                << "got id " << id << " that was never parked (dup or lost)";
            mine.push_back(id);
          }
        }
      }
      // Ids still held in `mine` stay unparked (flag 0): the 64 ids cannot
      // all fit the capacity-16 list, so the census accepts held ids as-is.
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_GT(cycles.load(), 0u);
  // Census: every id is either parked in the list or was legitimately
  // drained; pop everything and check flags.
  uint32_t id;
  size_t drained = 0;
  while (list.TryGet(&id)) {
    EXPECT_EQ(parked[id].exchange(0, std::memory_order_relaxed), 1);
    drained++;
  }
  EXPECT_LE(drained, size_t{16});
  for (uint32_t i = 0; i < kIds; i++) {
    EXPECT_EQ(parked[i].load(std::memory_order_relaxed), 0)
        << "id " << i << " vanished inside the free list";
  }
}

// --- QsbrDomain -------------------------------------------------------------

TEST(Qsbr, GraceBlockedByOnlineParticipantOnly) {
  QsbrDomain domain;
  const uint32_t a = domain.Register();
  const uint32_t b = domain.Register();
  ASSERT_NE(a, QsbrDomain::kInvalidSlot);
  ASSERT_NE(b, QsbrDomain::kInvalidSlot);

  EXPECT_TRUE(domain.SynchronizeIfQuiescent()) << "all offline at start";

  domain.Online(a);
  const uint64_t grace = domain.BeginGrace();
  EXPECT_FALSE(domain.GracePassed(grace)) << "a is online since before";
  domain.Online(b);  // b went online AFTER the grace began: does not block it
  domain.Quiescent(a);
  EXPECT_TRUE(domain.GracePassed(grace));
  domain.Quiescent(b);
  domain.Unregister(a);
  domain.Unregister(b);
}

TEST(Qsbr, UnregisterReleasesSlotAndUnblocks) {
  QsbrDomain domain;
  const uint32_t a = domain.Register();
  domain.Online(a);
  const uint64_t grace = domain.BeginGrace();
  EXPECT_FALSE(domain.GracePassed(grace));
  domain.Unregister(a);  // thread exit while "online" counts as quiescent
  EXPECT_TRUE(domain.GracePassed(grace));
  const uint32_t again = domain.Register();
  EXPECT_NE(again, QsbrDomain::kInvalidSlot);
  domain.Unregister(again);
}

TEST(Qsbr, RetireRunsOnlyAfterGracePasses) {
  QsbrDomain domain;
  const uint32_t a = domain.Register();
  domain.Online(a);
  std::atomic<int> ran{0};
  domain.Retire([&] { ran.fetch_add(1); });
  EXPECT_EQ(domain.Poll(), 0u);
  EXPECT_EQ(ran.load(), 0) << "retired callback ran under a live reader";
  EXPECT_EQ(domain.retired_pending(), 1u);
  domain.Quiescent(a);  // drains opportunistically
  EXPECT_EQ(ran.load(), 1);
  EXPECT_EQ(domain.retired_pending(), 0u);
  domain.Unregister(a);
}

TEST(QsbrStress, NoUseAfterRetire) {
  // Readers continually validate a shared object while online; the retirer
  // swaps the object out and destroys it only after a grace passes. If QSBR
  // is wrong, a reader observes `alive == false` inside its critical
  // section (or TSan reports the write/read race on the payload).
  struct Guarded {
    std::atomic<bool> alive{true};
    uint64_t payload = 0xfeedface;
  };
  QsbrDomain domain;
  std::atomic<Guarded*> current{new Guarded()};
  std::atomic<bool> stop{false};

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; r++) {
    readers.emplace_back([&] {
      const uint32_t slot = domain.Register();
      ASSERT_NE(slot, QsbrDomain::kInvalidSlot);
      while (!stop.load(std::memory_order_acquire)) {
        domain.Online(slot);
        Guarded* g = current.load(std::memory_order_acquire);
        ASSERT_TRUE(g->alive.load(std::memory_order_acquire))
            << "object retired while a reader was online";
        EXPECT_EQ(g->payload, 0xfeedfaceu);
        domain.Quiescent(slot);
        std::this_thread::yield();
      }
      domain.Unregister(slot);
    });
  }
  for (int swap = 0; swap < 200; swap++) {
    Guarded* fresh = new Guarded();
    Guarded* old = current.exchange(fresh, std::memory_order_acq_rel);
    domain.Retire([old] {
      old->alive.store(false, std::memory_order_release);
      delete old;
    });
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  // All readers offline: every deferred delete can run now.
  (void)domain.Poll();
  EXPECT_EQ(domain.retired_pending(), 0u);
  delete current.load();
}

// --- BufferPool ---------------------------------------------------------------
// Single-threaded recycle/charge behavior is covered by BufferPoolTest in
// test_trace; this is the concurrent half.

TEST(LockfreeBufferPool, StatsSnapshotCoherentAtQuiescence) {
  // The satellite fix: the historical accessors could be read mid-update
  // (atomics bumped outside the pool's critical section). stats() must
  // return one mutually consistent snapshot; at quiescence the invariant
  // free_count == releases_kept - recycles holds exactly.
  MemoryScope mem{"lf-pool-stats"};
  trace::BufferPool pool(/*max_free=*/8, &mem);
  std::vector<std::thread> threads;
  for (int t = 0; t < kStressProducers; t++) {
    threads.emplace_back([&, t] {
      Rng rng(99 + t);
      std::vector<Bytes> held;
      for (int i = 0; i < 1500; i++) {
        if (held.size() < 4 && rng.Chance(0.6)) {
          held.push_back(pool.Acquire(64 + rng.Below(512)));
        } else if (!held.empty()) {
          pool.Release(std::move(held.back()));
          held.pop_back();
        }
      }
      for (auto& b : held) pool.Release(std::move(b));
    });
  }
  for (auto& t : threads) t.join();
  const trace::BufferPool::Stats s = pool.stats();
  EXPECT_EQ(s.free_count, s.releases_kept - s.recycles)
      << "parked = kept - re-acquired must balance at quiescence";
  EXPECT_EQ(s.allocations + s.recycles,
            s.releases_kept + s.releases_freed)
      << "every acquired buffer was released exactly once";
  EXPECT_LE(s.free_count, size_t{8});
}

// --- Flusher lanes ----------------------------------------------------------

TEST(FlusherPlane, PerFileFrameOrderUnderContention) {
  TempDir dir("lane-order");
  MemoryScope mem{"lane-order"};
  trace::FlusherConfig fc;
  fc.async = true;
  fc.workers = 3;
  fc.max_queued_jobs = 2;  // force backpressure
  fc.memory = &mem;
  trace::Flusher flusher(fc);

  constexpr int kProducers = 4;
  constexpr int kFrames = 40;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; p++) {
    producers.emplace_back([&, p] {
      const std::string path = dir.File("p" + std::to_string(p) + ".log");
      for (int seq = 0; seq < kFrames; seq++) {
        Bytes payload = flusher.pool().Acquire(128);
        payload.assign(128, static_cast<uint8_t>(seq));
        flusher.AppendFrame(path, std::move(payload), nullptr);
      }
    });
  }
  for (auto& t : producers) t.join();
  flusher.Drain();
  ASSERT_TRUE(flusher.status().ok()) << flusher.status().ToString();

  const trace::FlusherStats stats = flusher.stats();
  EXPECT_EQ(stats.jobs_enqueued, uint64_t(kProducers) * kFrames);
  EXPECT_EQ(stats.jobs_completed, stats.jobs_enqueued);
  EXPECT_EQ(stats.queued_now, 0u);
  uint64_t worker_total = 0;
  for (uint64_t b : stats.worker_bytes_in) worker_total += b;
  EXPECT_EQ(worker_total, stats.bytes_in);

  for (int p = 0; p < kProducers; p++) {
    auto data = ReadFileBytes(dir.File("p" + std::to_string(p) + ".log"));
    ASSERT_TRUE(data.ok());
    ByteReader r(data.value());
    for (int seq = 0; seq < kFrames; seq++) {
      FrameView view;
      ASSERT_TRUE(ReadFrame(r, &view).ok()) << "frame " << seq;
      ASSERT_EQ(view.data.size(), 128u);
      EXPECT_EQ(view.data[0], static_cast<uint8_t>(seq))
          << "p" << p << ": frame order violated";
    }
    EXPECT_TRUE(r.AtEnd());
  }
}

TEST(FlusherPlane, BackpressureBoundsQueueAndCountsStalls) {
  TempDir dir("lane-bp");
  trace::FlusherConfig fc;
  fc.async = true;
  fc.workers = 1;
  fc.max_queued_jobs = 2;
  trace::Flusher flusher(fc);
  for (int i = 0; i < 48; i++) {
    flusher.AppendFrame(dir.File("bp.log"), Bytes(64 * 1024, 0xab), nullptr);
  }
  flusher.Drain();
  ASSERT_TRUE(flusher.status().ok());
  const trace::FlusherStats stats = flusher.stats();
  EXPECT_GT(stats.producer_blocks, 0u);
  EXPECT_GT(stats.blocked_nanos, 0u);
  EXPECT_EQ(stats.jobs_completed, 48u);
}

TEST(FlusherPlane, DropAccountingAndGapFramesUnderEnospc) {
  TempDir dir("lane-drop");
  testing::FaultFile ff;
  trace::FlusherConfig fc;
  fc.async = true;
  fc.workers = 1;
  fc.backend = &ff;
  fc.retry_backoff_us = 0;
  trace::Flusher flusher(fc);
  const std::string path = dir.File("drop.log");

  // First frame lands; the disk then "fills" for exactly one frame; the
  // recovery frame must be preceded by a gap marker.
  flusher.AppendFrame(path, Bytes(256, 0x01), nullptr, /*event_count=*/16);
  flusher.Drain();
  ASSERT_TRUE(flusher.status().ok());
  const uint64_t on_disk = ff.bytes_written();
  ff.FailAfterBytes(on_disk, ErrorCode::kNoSpace);
  flusher.AppendFrame(path, Bytes(256, 0x02), nullptr, /*event_count=*/16);
  flusher.Drain();
  EXPECT_FALSE(flusher.status().ok()) << "sticky status must record the loss";
  ff.Reset();
  flusher.AppendFrame(path, Bytes(256, 0x03), nullptr, /*event_count=*/16);
  flusher.Drain();

  const trace::FlusherStats stats = flusher.stats();
  EXPECT_EQ(stats.frames_dropped, 1u);
  EXPECT_EQ(stats.events_dropped, 16u);
  EXPECT_EQ(stats.bytes_dropped, 256u);
  EXPECT_EQ(stats.gap_frames, 1u);
  const trace::DropRecord rec = flusher.DroppedFor(path);
  EXPECT_EQ(rec.frames, 1u);
  EXPECT_EQ(rec.events, 16u);
}

// --- QSBR sink retirement ---------------------------------------------------

TEST(SinkQsbrIntegration, QuiescentFinalizeSkipsEpochBump) {
  // The tentpole claim for (3): with every thread at a quiescent point,
  // Configure/Finalize retire sinks WITHOUT bumping the global epoch.
  std::vector<uint64_t> pool(64);
  TempDir dir("qsbr-skip");
  core::SwordConfig sc;
  sc.out_dir = dir.path();
  core::SwordTool tool(sc);
  somp::RuntimeConfig rc;
  rc.tool = &tool;
  somp::Runtime::Get().ResetIds();
  somp::Runtime::Get().Configure(rc);
  somp::Parallel(2, [&](somp::Ctx& ctx) {
    for (int i = 0; i < 16; i++) {
      instr::store(pool[ctx.thread_num() * 16 + i], uint64_t{1});
    }
  });
  const uint64_t epoch_before = somp::CurrentSinkEpoch();
  EXPECT_TRUE(somp::RetireSinks())
      << "all sinks were cleared at region end; the grace must pass";
  ASSERT_TRUE(tool.Finalize().ok());
  somp::Runtime::Get().Configure({});
  EXPECT_EQ(somp::CurrentSinkEpoch(), epoch_before)
      << "quiescent retirement must not bump the epoch";
  EXPECT_EQ(tool.EventsLogged() + tool.EventsCoalesced() +
                tool.EventsSuppressed(),
            32u);
}

TEST(SinkQsbrIntegration, FinalizeWithOnlineParticipantBumpsEpoch) {
  // Finalize's epoch-bump fallback has one production trigger: a thread
  // still online (mid-segment) when Finalize runs, as in the crash drain.
  // A registered online participant stands in for that thread.
  std::vector<uint64_t> pool(64);
  TempDir dir("qsbr-bump");
  core::SwordConfig sc;
  sc.out_dir = dir.path();
  core::SwordTool tool(sc);
  somp::RuntimeConfig rc;
  rc.tool = &tool;
  somp::Runtime::Get().ResetIds();
  somp::Runtime::Get().Configure(rc);
  somp::Parallel(2, [&](somp::Ctx& ctx) {
    for (int i = 0; i < 16; i++) {
      instr::store(pool[ctx.thread_num() * 16 + i], uint64_t{1});
    }
  });
  auto& domain = somp::SinkQsbr();
  const uint32_t slot = domain.Register();
  ASSERT_NE(slot, QsbrDomain::kInvalidSlot);
  domain.Online(slot);
  const uint64_t epoch_before = somp::CurrentSinkEpoch();
  EXPECT_TRUE(tool.Finalize().ok());
  EXPECT_GT(somp::CurrentSinkEpoch(), epoch_before)
      << "a failed grace must fall back to the stop-the-world invalidation";
  domain.Quiescent(slot);
  domain.Unregister(slot);
  somp::Runtime::Get().Configure({});
  EXPECT_EQ(tool.EventsLogged() + tool.EventsCoalesced() +
                tool.EventsSuppressed(),
            32u);
}

TEST(SinkQsbrIntegration, OnlineParticipantForcesFallback) {
  auto& domain = somp::SinkQsbr();
  const uint32_t slot = domain.Register();
  ASSERT_NE(slot, QsbrDomain::kInvalidSlot);
  domain.Online(slot);
  const uint64_t epoch_before = somp::CurrentSinkEpoch();
  EXPECT_FALSE(somp::RetireSinks())
      << "a mid-segment thread must force the epoch-bump fallback";
  EXPECT_EQ(somp::CurrentSinkEpoch(), epoch_before + 1);
  domain.Quiescent(slot);
  domain.Unregister(slot);
  EXPECT_TRUE(somp::RetireSinks());
}

// --- report identity: analyzer vs oracle, async vs sync flusher --------------

struct SweepOp {
  uint64_t offset;
  uint64_t count;
  uint64_t reps;
  bool write;
  bool atomic;
  bool range;
  uint32_t site;
  uint32_t lock;  // ~0u = none
};

struct SweepProgram {
  uint32_t lanes;
  uint32_t phases;
  std::vector<std::vector<std::vector<SweepOp>>> ops;  // [lane][phase]
};

SweepProgram GenerateSweepProgram(Rng& rng) {
  SweepProgram p;
  p.lanes = 2 + static_cast<uint32_t>(rng.Below(2));
  p.phases = 1 + static_cast<uint32_t>(rng.Below(2));
  p.ops.resize(p.lanes);
  for (uint32_t lane = 0; lane < p.lanes; lane++) {
    p.ops[lane].resize(p.phases);
    for (uint32_t phase = 0; phase < p.phases; phase++) {
      const uint32_t n = 1 + static_cast<uint32_t>(rng.Below(4));
      for (uint32_t k = 0; k < n; k++) {
        SweepOp op;
        op.offset = rng.Below(16) * 8;
        op.count = rng.Chance(0.6) ? 2 + rng.Below(32) : 1;
        op.reps = rng.Chance(0.4) ? 2 + rng.Below(3) : 1;
        op.write = rng.Chance(0.6);
        op.atomic = rng.Chance(0.15);
        op.range = rng.Chance(0.2);
        op.site = static_cast<uint32_t>(rng.Below(8));
        op.lock = rng.Chance(0.25) ? static_cast<uint32_t>(rng.Below(2)) : ~0u;
        p.ops[lane][phase].push_back(op);
      }
    }
  }
  return p;
}

const std::array<std::source_location, 8>& SweepSites() {
  using std::source_location;
  static const std::array<source_location, 8> kSites = {
      source_location::current(), source_location::current(),
      source_location::current(), source_location::current(),
      source_location::current(), source_location::current(),
      source_location::current(), source_location::current()};
  return kSites;
}

void RunSweepOp(std::vector<uint64_t>& pool, const SweepOp& op) {
  const std::source_location& loc = SweepSites()[op.site];
  for (uint64_t rep = 0; rep < op.reps; rep++) {
    if (op.range && op.count > 1) {
      uint8_t* base = reinterpret_cast<uint8_t*>(pool.data()) + op.offset;
      if (op.write) instr::write_range(base, op.count * 8, 0, loc);
      else instr::read_range(base, op.count * 8, loc);
      continue;
    }
    for (uint64_t i = 0; i < op.count; i++) {
      uint64_t& cell = pool[op.offset / 8 + i];
      if (op.atomic) {
        if (op.write) instr::atomic_store(cell, uint64_t{1}, loc);
        else (void)instr::atomic_load(cell, loc);
      } else {
        if (op.write) instr::store(cell, uint64_t{1}, loc);
        else (void)instr::load(cell, loc);
      }
    }
  }
}

/// Runs the program under SWORD, leaving its trace in `dir`. Lane -> tid
/// scheduling order varies across runs, so only the race pc-pair SET is
/// comparable; byte identity is asserted by ScriptedPlaneIdentity below
/// with fixed lane ids.
void TraceSweepProgram(const SweepProgram& p, std::vector<uint64_t>& pool,
                       const std::string& dir) {
  core::SwordConfig sc;
  sc.out_dir = dir;
  core::SwordTool tool(sc);
  somp::RuntimeConfig rc;
  rc.tool = &tool;
  somp::Runtime::Get().ResetIds();
  somp::Runtime::Get().Configure(rc);
  somp::Parallel(p.lanes, [&](somp::Ctx& ctx) {
    for (uint32_t phase = 0; phase < p.phases; phase++) {
      for (const SweepOp& op : p.ops[ctx.thread_num()][phase]) {
        if (op.lock != ~0u) {
          ctx.Critical("plane-lock-" + std::to_string(op.lock),
                       [&] { RunSweepOp(pool, op); });
        } else {
          RunSweepOp(pool, op);
        }
      }
      if (phase + 1 < p.phases) ctx.Barrier();
    }
  });
  EXPECT_TRUE(tool.Finalize().ok());
  somp::Runtime::Get().Configure({});
}

class PlaneOracle : public ::testing::TestWithParam<int> {};

TEST_P(PlaneOracle, AnalyzerMatchesOracle) {
  Rng rng(62000 + static_cast<uint64_t>(GetParam()));
  const SweepProgram p = GenerateSweepProgram(rng);
  std::vector<uint64_t> pool(16 + 40);
  TempDir dir("plane-sweep");
  TraceSweepProgram(p, pool, dir.path());
  auto store = offline::TraceStore::OpenDir(dir.path());
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  const offline::AnalysisResult result = offline::Analyze(store.value());
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(oracle::RacePairs(result.races), oracle::RacePairs(store.value()))
      << "seed " << GetParam()
      << ": the analyzer's race set differs from the oracle's";
}

INSTANTIATE_TEST_SUITE_P(RandomSweeps, PlaneOracle, ::testing::Range(0, 6));

/// Byte identity: per-lane scripted writers (tid == lane, so scheduling
/// cannot reorder anything) pushed through an ASYNC flusher and through the
/// synchronous one. Per-path frame FIFO plus deterministic input means every
/// produced file - logs and metas - must be byte-for-byte identical.
TEST(ScriptedPlaneIdentity, AsyncTraceFilesByteIdenticalToSync) {
  Rng rng(75000);
  const SweepProgram p = GenerateSweepProgram(rng);
  auto produce = [&](bool async, const std::string& dir_path) {
    trace::FlusherConfig fc;
    fc.async = async;
    fc.workers = 2;
    fc.max_queued_jobs = 4;
    trace::Flusher flusher(fc);
    for (uint32_t lane = 0; lane < p.lanes; lane++) {
      trace::WriterConfig wc;
      wc.log_path = dir_path + "/sword_t" + std::to_string(lane) + ".log";
      wc.meta_path = dir_path + "/sword_t" + std::to_string(lane) + ".meta";
      wc.buffer_bytes = 4096;  // tiny: force many flushes through the lanes
      wc.flusher = &flusher;
      trace::ThreadTraceWriter writer(lane, wc);
      osl::Label label = osl::Label::Initial().Fork(lane, p.lanes);
      for (uint32_t phase = 0; phase < p.phases; phase++) {
        trace::IntervalMeta m;
        m.region = 1;
        m.parent_region = trace::IntervalMeta::kNoParent;
        m.phase = phase;
        m.label = label;
        m.level = 1;
        m.lane = lane;
        writer.BeginSegment(m);
        for (const SweepOp& op : p.ops[lane][phase]) {
          const uint64_t addr = 0x10000 + op.offset;
          const uint8_t flags =
              static_cast<uint8_t>((op.write ? 1 : 0) | (op.atomic ? 2 : 0));
          for (uint64_t rep = 0; rep < op.reps * 8; rep++) {
            for (uint64_t i = 0; i < op.count; i++) {
              writer.AppendAccess(addr + i * 8, 8, flags, op.site + 1);
            }
          }
        }
        writer.EndSegment();
        label = label.AfterBarrier();
      }
      EXPECT_TRUE(writer.Finish().ok());
    }
    flusher.Drain();
    EXPECT_TRUE(flusher.status().ok());
  };
  TempDir async_dir("plane-async"), sync_dir("plane-sync");
  produce(true, async_dir.path());
  produce(false, sync_dir.path());
  for (uint32_t lane = 0; lane < p.lanes; lane++) {
    for (const char* ext : {".log", ".meta"}) {
      const std::string name = "sword_t" + std::to_string(lane) + ext;
      auto async_bytes = ReadFileBytes(async_dir.path() + "/" + name);
      auto sync_bytes = ReadFileBytes(sync_dir.path() + "/" + name);
      ASSERT_TRUE(async_bytes.ok() && sync_bytes.ok()) << name;
      EXPECT_EQ(async_bytes.value(), sync_bytes.value())
          << name << " differs between the async and sync flushers";
    }
  }
}

}  // namespace
}  // namespace sword
