// Brute-force reference race oracle for the offline analyzer.
//
// Follows the barrier-interval plus lockset semantics of Atzeni &
// Gopalakrishnan, "An Operational Semantic Basis for OpenMP Race Analysis",
// with none of the analyzer's machinery: no bucketing, no summarization, no
// frozen sets, no closed forms, no memoization. Every interval segment's
// events are decoded and expanded access by access (a strided run becomes
// its elements), the lockset is replayed from the segment's initial set and
// its acquire/release events, and then
//
//   for every pair of segments whose labels osl::Concurrent judges
//   concurrent, two accesses race iff their byte ranges overlap, at least
//   one writes, they are not both atomic, and their locksets are disjoint.
//
// The result is the set of unordered pc pairs, directly comparable with the
// analyzer's RaceReportSet (which dedups by the same unordered pair).
// Quadratic in the accesses of each concurrent segment pair: for test-sized
// traces only.
#pragma once

#include <algorithm>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "common/race_report.h"
#include "itree/interval_tree.h"
#include "offline/tracestore.h"
#include "osl/label.h"
#include "trace/event.h"

namespace sword::oracle {

using PcPair = std::pair<uint32_t, uint32_t>;  // (min pc, max pc)

struct OracleAccess {
  uint64_t lo;  // first byte
  uint64_t hi;  // one past the last byte
  uint32_t pc;
  bool write;
  bool atomic;
  std::vector<uint64_t> lockset;  // sorted
};

struct OracleSegment {
  const osl::Label* label;
  std::vector<OracleAccess> accesses;
};

inline bool Disjoint(const std::vector<uint64_t>& a,
                     const std::vector<uint64_t>& b) {
  auto i = a.begin();
  auto j = b.begin();
  while (i != a.end() && j != b.end()) {
    if (*i == *j) return false;
    if (*i < *j) {
      ++i;
    } else {
      ++j;
    }
  }
  return true;
}

/// Decodes every segment of `store`. Events that stream before a damaged
/// range fails are kept (a salvage store's analyzer keeps them too), and
/// segments whose label is empty are skipped as the analyzer skips them.
inline std::vector<OracleSegment> DecodeSegments(const offline::TraceStore& store) {
  std::vector<OracleSegment> segments;
  for (const auto& thread : store.threads()) {
    for (const trace::IntervalMeta& meta : thread.meta.intervals) {
      if (meta.label.pairs().empty()) continue;
      OracleSegment seg;
      seg.label = &meta.label;
      std::vector<uint64_t> held(meta.lockset.begin(), meta.lockset.end());
      std::sort(held.begin(), held.end());
      held.erase(std::unique(held.begin(), held.end()), held.end());
      auto add = [&](uint64_t addr, const trace::RawEvent& e) {
        seg.accesses.push_back(OracleAccess{
            addr, addr + e.size, e.pc, (e.flags & itree::kWrite) != 0,
            (e.flags & itree::kAtomic) != 0, held});
      };
      (void)thread.log->StreamRange(
          meta.data_begin, meta.data_size, [&](const trace::RawEvent& e) {
            switch (e.kind) {
              case trace::EventKind::kMutexAcquire: {
                const auto it = std::lower_bound(held.begin(), held.end(), e.addr);
                if (it == held.end() || *it != e.addr) held.insert(it, e.addr);
                break;
              }
              case trace::EventKind::kMutexRelease: {
                const auto it = std::lower_bound(held.begin(), held.end(), e.addr);
                if (it != held.end() && *it == e.addr) held.erase(it);
                break;
              }
              case trace::EventKind::kAccess:
                add(e.addr, e);
                break;
              case trace::EventKind::kAccessRun:
                for (uint64_t i = 0; i < e.count; i++) add(e.addr + i * e.stride, e);
                break;
            }
          });
      segments.push_back(std::move(seg));
    }
  }
  return segments;
}

/// The oracle's race set over every concurrent segment pair of `store`.
inline std::set<PcPair> RacePairs(const offline::TraceStore& store) {
  const std::vector<OracleSegment> segments = DecodeSegments(store);
  std::set<PcPair> races;
  for (size_t i = 0; i < segments.size(); i++) {
    for (size_t j = i + 1; j < segments.size(); j++) {
      if (!osl::Concurrent(*segments[i].label, *segments[j].label)) continue;
      for (const OracleAccess& a : segments[i].accesses) {
        for (const OracleAccess& b : segments[j].accesses) {
          if (a.lo >= b.hi || b.lo >= a.hi) continue;  // no common byte
          if (!a.write && !b.write) continue;
          if (a.atomic && b.atomic) continue;
          if (!Disjoint(a.lockset, b.lockset)) continue;
          races.insert({std::min(a.pc, b.pc), std::max(a.pc, b.pc)});
        }
      }
    }
  }
  return races;
}

/// The analyzer's reports as the same unordered pc-pair set.
inline std::set<PcPair> RacePairs(const RaceReportSet& reports) {
  std::set<PcPair> pairs;
  for (const RaceReport& r : reports.reports()) {
    pairs.insert({std::min(r.pc1, r.pc2), std::max(r.pc1, r.pc2)});
  }
  return pairs;
}

}  // namespace sword::oracle
