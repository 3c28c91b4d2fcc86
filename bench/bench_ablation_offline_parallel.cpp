// Offline-analysis parallelization (paper SIV-C / Table V discussion + SVI
// future work).
//
// The paper distributes tree COMPARISONS across cores but notes that "the
// tree generation cannot be efficiently parallelized since it would require
// the use of locks", and lists faster parallel offline algorithms as future
// work. This reproduction parallelizes BOTH phases lock-free on a
// persistent work-stealing checker pool. The bench checks that
//   1. the race set is invariant under thread count (byte-identical
//      reports);
//   2. the slowest-single-bucket time (the distributed MT latency bound)
//      is much smaller than the single-node total;
// and reports the 4-thread sweep throughput (node pairs per second of
// freeze + compare) for the perf-smoke floor.
//
// Flags: --quick (smaller sizes for CI), --json FILE (metrics for the
// perf-smoke regression gate).
#include <fstream>
#include <tuple>
#include <vector>

#include "bench/bench_util.h"
#include "common/args.h"
#include "common/fsutil.h"
#include "offline/tracestore.h"

using namespace sword;
using namespace sword::bench;

namespace {

using ReportTuple = std::tuple<uint32_t, uint32_t, uint64_t, uint8_t, uint8_t,
                               bool, bool, uint8_t>;

std::vector<ReportTuple> Tuples(const std::vector<RaceReport>& rs) {
  std::vector<ReportTuple> out;
  out.reserve(rs.size());
  for (const RaceReport& r : rs) {
    out.push_back({r.pc1, r.pc2, r.address, r.size1, r.size2, r.write1,
                   r.write2, static_cast<uint8_t>(r.confidence)});
  }
  return out;
}

double PairsPerSec(const offline::AnalysisStats& s) {
  return static_cast<double>(s.node_pairs_ranged) /
         std::max(s.freeze_seconds + s.compare_seconds, 1e-9);
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const bool quick = args.GetBool("quick");
  const std::string json_path = args.GetString("json", "");

  Banner("offline-analysis parallelization",
         "race set invariant under parallelism; per-region max (MT) << "
         "single-node total (OA)");

  struct Case {
    const char* suite;
    const char* name;
    uint64_t size;
  };
  const Case cases[] = {{"hpc", "LULESH", quick ? 24u : 40u},
                        {"ompscr", "c_lu", quick ? 32u : 64u}};

  bool invariant = true;
  bool mt_much_smaller = true;
  double default_pps = 0;

  for (const Case& c : cases) {
    const auto& w = Find(c.suite, c.name);

    // Collect the trace ONCE; re-analyze under every configuration.
    TempDir dir("offpar");
    harness::RunConfig collect;
    collect.tool = harness::ToolKind::kSword;
    collect.params.threads = 8;
    collect.params.size = c.size;
    collect.trace_dir = dir.path();
    collect.run_offline = false;
    (void)harness::RunWorkload(w, collect);

    auto store = offline::TraceStore::OpenDir(dir.path());
    if (!store.ok()) {
      std::fprintf(stderr, "trace load failed: %s\n",
                   store.status().ToString().c_str());
      return 1;
    }

    // --- Thread sweep under the default configuration.
    TextTable table({std::string(c.name) + " analysis threads", "OA total",
                     "build", "freeze+compare", "MT (slowest region)", "pairs/s",
                     "fastpath hits", "solver calls", "races"});
    std::vector<ReportTuple> reference;
    bool have_reference = false;
    for (uint32_t threads : {1u, 2u, 4u, 8u}) {
      offline::AnalysisConfig config;
      config.threads = threads;
      const auto result = offline::Analyze(store.value(), config);
      const double pps = PairsPerSec(result.stats);
      table.AddRow({std::to_string(threads),
                    FormatSeconds(result.stats.total_seconds),
                    FormatSeconds(result.stats.build_seconds),
                    FormatSeconds(result.stats.freeze_seconds +
                                  result.stats.compare_seconds),
                    FormatSeconds(result.stats.max_bucket_seconds),
                    std::to_string(static_cast<uint64_t>(pps)),
                    std::to_string(result.stats.fastpath_hits),
                    std::to_string(result.stats.solver_calls),
                    std::to_string(result.races.size())});
      if (threads == 4) default_pps += pps;
      if (!have_reference) {
        reference = Tuples(result.races.reports());
        have_reference = true;
      } else if (Tuples(result.races.reports()) != reference) {
        invariant = false;
      }
      if (result.stats.buckets > 4 &&
          result.stats.max_bucket_seconds > result.stats.total_seconds / 2) {
        mt_much_smaller = false;
      }
    }
    table.Print();
    std::printf("\n");
  }

  Check(invariant, "race reports byte-identical under thread count");
  Check(mt_much_smaller,
        "slowest single region (MT) well below single-node total (OA) - the "
        "distributed-analysis headroom of Table V");

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\"bench\":\"ablation_offline_parallel\",\"quick\":"
        << (quick ? "true" : "false")
        << ",\"default_pairs_per_sec\":" << default_pps << ",\"invariant\":"
        << (invariant ? "true" : "false") << "}\n";
  }
  return invariant ? 0 : 1;
}
