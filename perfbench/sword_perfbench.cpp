// sword-perfbench: the run -> trace -> analyze benchmark program.
//
//   sword-perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   --work-dir DIR [--quick]
//
// Each program of a workload is one operation, driven through the production
// pipeline with the defaults a user gets from sword-run and sword-offline:
//   1. tool set-up   (core::SwordTool construction + somp::Runtime::Configure)
//   2. traced run    (Workload::run)
//   3. collection    (SwordTool::Finalize)
//   4. analysis      (offline::TraceStore::OpenDir + offline::Analyze)
//   5. rendering     (offline::RenderText)
// A pass runs every program of the workload once, in a seeded order; passes
// repeat until the time budget is spent, and each metric sums, over the
// workload's programs, the program's median over the passes.
//
// --trace 0 prints the end-to-end metrics, measured with spans and reference
// tools off. --trace 1 alternates untraced passes with traced ones (spans
// around every public call above), runs the somp-only baseline and the archer
// reference tool on the same inputs, and prints the per-layer metrics; the
// spans and their self times are written to DIR/spans-<workload>-<seed>.jsonl.
//
// The last stdout line is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// Earlier lines carry the host/configuration record and diagnostics.
#include <fcntl.h>
#include <sched.h>
#include <sys/vfs.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/args.h"
#include "common/fsutil.h"
#include "common/memtrack.h"
#include "common/timer.h"
#include "core/sword_tool.h"
#include "hb/archer_tool.h"
#include "offline/analysis.h"
#include "offline/report.h"
#include "offline/tracestore.h"
#include "somp/runtime.h"
#include "somp/srcloc.h"
#include "workloads/workload.h"

using namespace sword;
namespace fs = std::filesystem;

namespace {

// ---------------------------------------------------------------- workloads

// Flusher pool size. sword-run's default of min(4, hw) workers would put
// team + workers above nproc on a 4-core host and measure oversubscription.
constexpr uint32_t kFlushWorkers = 1;
constexpr uint32_t kCheckerThreads = 1;      // sword-offline default
constexpr uint64_t kSolverBudget = 4000000;  // sword-offline default
constexpr size_t kSetupSamplesPerPass = 20;

struct Program {
  const workloads::Workload* workload = nullptr;
  workloads::WorkloadParams params;
};

struct WorkloadSpec {
  std::string name;
  uint32_t team = 2;
  std::vector<Program> programs;
};

const workloads::Workload& Find(const std::string& suite, const std::string& name) {
  const auto* w = workloads::WorkloadRegistry::Get().Find(suite, name);
  if (!w) {
    std::fprintf(stderr, "error: workload %s/%s is not registered\n",
                 suite.c_str(), name.c_str());
    std::exit(2);
  }
  return *w;
}

// Sizes: each pass takes a few seconds, so a run holds several passes and
// every timed phase lasts well above scheduler and disk jitter. --quick
// shrinks every program to a smoke-test size. BENCHMARK.json measures
// hpc-regions and amg-trace; suite-fixed and hpc-access serve as self-test
// oracles (see run.py for why they are not measured).
std::optional<WorkloadSpec> MakeSpec(const std::string& name, bool quick) {
  WorkloadSpec spec;
  spec.name = name;
  auto add = [&](const workloads::Workload& w, uint64_t size) {
    spec.programs.push_back({&w, {spec.team, size}});
  };
  if (name == "suite-fixed") {
    // Team 3: atomicmissing-orig-yes needs three lanes for its two
    // registered racing pairs.
    spec.team = 3;
    auto& registry = workloads::WorkloadRegistry::Get();
    for (const char* suite : {"drb", "ompscr"}) {
      for (const auto* w : registry.BySuite(suite)) add(*w, 0);
    }
  } else if (name == "hpc-access") {
    add(Find("hpc", "HPCCG"), quick ? 2000 : 30000);
    add(Find("hpc", "miniFE"), quick ? 1200 : 18000);
  } else if (name == "hpc-regions") {
    add(Find("hpc", "LULESH"), quick ? 6 : 150);
  } else if (name == "amg-trace") {
    add(Find("hpc", quick ? "AMG2013_10" : "AMG2013_40"), 0);
  } else {
    return std::nullopt;
  }
  return spec;
}

// ------------------------------------------------------------------ helpers

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

uint64_t SteadyNanos() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

uint32_t Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<uint32_t>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

std::string FilesystemType(const std::string& path) {
  struct statfs sb {};
  if (statfs(path.c_str(), &sb) != 0) return "unknown";
  switch (static_cast<uint64_t>(sb.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x794C7630: return "overlayfs";
    case 0x6969: return "nfs";
    case 0x2FC12FC1: return "zfs";
  }
  char hex[32];
  std::snprintf(hex, sizeof(hex), "0x%llx", static_cast<unsigned long long>(sb.f_type));
  return hex;
}

/// Host CPU ticks from /proc/stat: {all, steal}. On a virtual machine the
/// steal share is the time the host ran someone else on our vCPUs, the main
/// source of run-to-run spread; it is reported with every result.
std::pair<uint64_t, uint64_t> HostCpuTicks() {
  unsigned long long v[8] = {};
  FILE* f = std::fopen("/proc/stat", "r");
  if (!f) return {0, 0};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0], &v[1],
                            &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(f);
  uint64_t all = 0;
  for (int i = 0; i < std::max(n, 0); i++) all += v[i];
  return {all, n == 8 ? v[7] : 0};
}

uint64_t SizeOfFiles(const std::vector<std::string>& paths) {
  uint64_t total = 0;
  for (const auto& p : paths) {
    if (auto size = FileSize(p); size.ok()) total += size.value();
  }
  return total;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

void ConfigureRuntime(somp::Tool* tool, uint32_t team) {
  somp::RuntimeConfig rc;
  rc.tool = tool;
  rc.default_threads = team;
  somp::Runtime::Get().ResetIds();
  somp::Runtime::Get().Configure(rc);
}

void UnconfigureRuntime() { somp::Runtime::Get().Configure(somp::RuntimeConfig{}); }

// -------------------------------------------------------------------- spans

// In-memory span log for the traced run: name, start, end, parent, run id.
// Written out once the run ends; a null recorder makes every Scope a no-op.
class Spans {
 public:
  struct Span {
    std::string name;
    uint64_t run = 0;
    int parent = -1;
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
  };

  class Scope {
   public:
    Scope(Spans* spans, const char* name, uint64_t run) : spans_(spans) {
      if (spans_) spans_->Open(name, run);
    }
    ~Scope() {
      if (spans_) spans_->Close();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans* spans_;
  };

  size_t size() const { return spans_.size(); }
  const Span& at(size_t i) const { return spans_[i]; }

  /// Self time of every span from index `first` on: its duration minus its
  /// children's durations. Spans before `first` must not have children after it.
  std::vector<double> SelfSeconds(size_t first = 0) const {
    std::vector<double> self(spans_.size() - first);
    for (size_t i = first; i < spans_.size(); i++) {
      const double d = 1e-9 * static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
      self[i - first] += d;
      const int parent = spans_[i].parent;
      if (parent >= static_cast<int>(first)) self[static_cast<size_t>(parent) - first] -= d;
    }
    return self;
  }

 private:
  void Open(const char* name, uint64_t run) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    stack_.push_back(static_cast<int>(spans_.size()));
    spans_.push_back({name, run, parent, SteadyNanos(), 0});
  }
  void Close() {
    spans_[static_cast<size_t>(stack_.back())].end_ns = SteadyNanos();
    stack_.pop_back();
  }

  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// Counts the instrumented accesses a program performs (one per OnAccess or
// OnRangeAccess call), the denominator of the per-access cost.
class AccessCounter final : public somp::Tool {
 public:
  void OnAccess(somp::Ctx&, uint64_t, uint8_t, uint8_t, somp::PcId) override { Bump(); }
  void OnRangeAccess(somp::Ctx&, uint64_t, uint64_t, uint8_t, somp::PcId) override {
    Bump();
  }
  uint64_t Total() const {
    uint64_t total = 0;
    for (const auto& slot : slots_) total += slot.n.load(std::memory_order_relaxed);
    return total;
  }

 private:
  struct alignas(64) Slot {
    std::atomic<uint64_t> n{0};
  };
  void Bump() {
    static std::atomic<uint32_t> next{0};
    thread_local const uint32_t slot = next.fetch_add(1) % kSlots;
    slots_[slot].n.fetch_add(1, std::memory_order_relaxed);
  }
  static constexpr uint32_t kSlots = 64;
  std::array<Slot, kSlots> slots_;
};

// --------------------------------------------------------------- operations

// Named quantities of one program execution.
using Totals = std::map<std::string, double>;
// One pass: the Totals of every program of the workload, by program index.
using Pass = std::vector<Totals>;

// A workload's value of `key` over several passes: each program's median
// over the passes, summed over programs (the two per-bucket maxima take the
// largest program's median instead). Per-program medians keep one program's
// outlier execution from moving the whole pass.
double Aggregate(const std::vector<Pass>& passes, const std::string& key) {
  const bool is_max = key == "offline.max_bucket_s" || key == "itree.peak_tree_bytes";
  double total = 0;
  for (size_t i = 0; !passes.empty() && i < passes[0].size(); i++) {
    std::vector<double> v;
    for (const Pass& pass : passes) {
      const auto it = pass[i].find(key);
      v.push_back(it == pass[i].end() ? 0.0 : it->second);
    }
    total = is_max ? std::max(total, Median(v)) : total + Median(v);
  }
  return total;
}

double PassSum(const Pass& pass, const std::string& key) {
  double total = 0;
  for (const Totals& t : pass) {
    if (const auto it = t.find(key); it != t.end()) total += it->second;
  }
  return total;
}

struct Outcome {
  Totals totals;
  std::string failure;  // empty = the operation succeeded
};

std::string PcName(uint32_t pc) {
  if (pc < somp::SrcLocCount()) return somp::LookupSrcLoc(pc).ToString();
  return "pc#" + std::to_string(pc);
}

core::SwordConfig ProductionConfig(const std::string& dir) {
  core::SwordConfig sc;
  sc.out_dir = dir;
  sc.flush_workers = kFlushWorkers;
  sc.prefilter = true;  // sword-run's default (library default is off)
  return sc;
}

/// One traced program execution through the whole pipeline. `spans` may be
/// null (untraced). Fails on any status error, a race count other than the
/// registered ground truth, or a non-zero loss counter.
Outcome RunSword(const Program& program, uint32_t team, const std::string& dir,
                 Spans* spans, uint64_t run_id) {
  Outcome out;
  Totals& t = out.totals;
  const workloads::Workload& w = *program.workload;
  Spans::Scope root(spans, "program", run_id);
  fs::remove_all(dir);
  fs::create_directories(dir);

  std::optional<core::SwordTool> tool;
  {
    Spans::Scope span(spans, "core.setup", run_id);
    tool.emplace(ProductionConfig(dir));
    ConfigureRuntime(&*tool, team);
  }
  const double cpu0 = ProcessCpuSeconds();
  Timer collect;
  {
    Spans::Scope span(spans, "core.run", run_id);
    w.run(program.params);
  }
  Status fin;
  {
    Spans::Scope span(spans, "core.finalize", run_id);
    fin = tool->Finalize();
  }
  t["collect_s"] = collect.ElapsedSeconds();
  t["collect_cpu_s"] = ProcessCpuSeconds() - cpu0;

  const trace::FlusherStats fstats = tool->FlushStats();
  const uint64_t log_bytes = SizeOfFiles(tool->LogPaths());
  const uint64_t meta_bytes = SizeOfFiles(tool->MetaPaths());
  const uint64_t threads = tool->ThreadCount();
  const uint64_t peak = tool->PeakMemoryBytes();
  t["tool_peak_bytes"] = static_cast<double>(peak);
  t["trace_bytes"] = static_cast<double>(log_bytes + meta_bytes);
  t["core.tool_threads"] = static_cast<double>(threads);
  t["core.events_logged"] = static_cast<double>(tool->EventsLogged());
  t["core.suppressed"] = static_cast<double>(tool->EventsSuppressed());
  t["core.coalesced"] = static_cast<double>(tool->EventsCoalesced());
  t["core.runs_emitted"] = static_cast<double>(tool->RunsEmitted());
  t["prefilter.elided"] = static_cast<double>(tool->EventsElided());
  t["prefilter.elided_lost"] = static_cast<double>(tool->ElidedLost());
  t["trace.flushes"] = static_cast<double>(tool->Flushes());
  t["trace.jobs"] = static_cast<double>(fstats.jobs_completed);
  t["trace.appends"] = static_cast<double>(fstats.appends);
  t["trace.producer_blocks"] = static_cast<double>(fstats.producer_blocks);
  t["trace.bytes_in"] = static_cast<double>(fstats.bytes_in);
  t["trace.bytes_written"] = static_cast<double>(fstats.bytes_written);
  t["trace.meta_bytes"] = static_cast<double>(meta_bytes);
  t["trace.io_retries"] = static_cast<double>(fstats.io_retries);
  t["trace.frames_dropped"] = static_cast<double>(fstats.frames_dropped);
  t["trace.degraded_dropped"] = static_cast<double>(tool->DegradedDropped());
  t["trace.accesses_dropped"] = static_cast<double>(tool->AccessesDropped());
  if (!fin.ok()) out.failure = "finalize: " + fin.ToString();
  for (const char* loss : {"trace.accesses_dropped", "trace.degraded_dropped",
                           "prefilter.elided_lost", "trace.frames_dropped"}) {
    if (out.failure.empty() && t[loss] != 0) {
      out.failure = std::string(loss) + " = " + std::to_string(static_cast<uint64_t>(t[loss]));
    }
  }
  UnconfigureRuntime();
  {
    Spans::Scope span(spans, "core.teardown", run_id);
    tool.reset();
  }
  if (!out.failure.empty()) return out;

  Timer analyze;
  MemoryScope mem("perfbench-analysis");
  offline::AnalysisResult result;
  std::string text;
  {
    std::optional<Result<offline::TraceStore>> store;
    {
      Spans::Scope span(spans, "offline.open", run_id);
      store.emplace(offline::TraceStore::OpenDir(dir));
    }
    if (!store->ok()) {
      out.failure = "open: " + store->status().ToString();
      return out;
    }
    {
      Spans::Scope span(spans, "offline.analyze", run_id);
      offline::AnalysisConfig ac;
      ac.threads = kCheckerThreads;
      ac.solver_step_budget = kSolverBudget;
      offline::AnalyzerEnv env;
      env.mem = &mem;
      offline::Analyzer analyzer(kCheckerThreads, env);
      result = analyzer.Analyze(store->value(), ac);
    }
    {
      Spans::Scope span(spans, "offline.render", run_id);
      text = offline::RenderText(result, PcName);
    }
  }
  t["analyze_s"] = analyze.ElapsedSeconds();
  t["analysis_peak_bytes"] = static_cast<double>(mem.peak());
  fs::remove_all(dir);

  const offline::AnalysisStats& s = result.stats;
  t["offline.buckets"] = static_cast<double>(s.buckets);
  t["offline.intervals"] = static_cast<double>(s.intervals);
  t["offline.build_s"] = s.build_seconds;
  t["offline.freeze_s"] = s.freeze_seconds;
  t["offline.compare_s"] = s.compare_seconds;
  t["offline.max_bucket_s"] = s.max_bucket_seconds;
  t["offline.raw_events"] = static_cast<double>(s.raw_events);
  t["offline.dedup_hits"] = static_cast<double>(s.dedup_hits);
  t["offline.dedup_bytes_saved"] = static_cast<double>(s.dedup_bytes_saved);
  t["offline.duplicates_suppressed"] = static_cast<double>(s.duplicates_suppressed);
  t["itree.trees_built"] = static_cast<double>(s.trees_built);
  t["itree.tree_nodes"] = static_cast<double>(s.tree_nodes);
  t["itree.node_pairs_ranged"] = static_cast<double>(s.node_pairs_ranged);
  t["itree.peak_tree_bytes"] = static_cast<double>(s.peak_tree_bytes);
  t["osl.label_pairs"] = static_cast<double>(s.label_pairs_checked);
  t["osl.concurrent_pairs"] = static_cast<double>(s.concurrent_pairs);
  t["ilp.solver_calls"] = static_cast<double>(s.solver_calls);
  t["ilp.fastpath_hits"] = static_cast<double>(s.fastpath_hits);
  t["ilp.bailouts"] = static_cast<double>(s.solver_bailouts);

  const uint64_t races = result.races.size();
  if (!result.status.ok()) {
    out.failure = "analysis: " + result.status.ToString();
  } else if (races > static_cast<uint64_t>(w.total_races)) {
    out.failure = std::to_string(races - static_cast<uint64_t>(w.total_races)) +
                  " false alarm(s)";
  } else if (races != static_cast<uint64_t>(w.total_races)) {
    out.failure = std::to_string(races) + " race(s) reported, " +
                  std::to_string(w.total_races) + " registered";
  } else if (text.empty()) {
    out.failure = "empty report";
  }
  return out;
}

/// Wall time of one run of the program under `tool` (null = somp only).
double RunReference(const Program& program, uint32_t team, somp::Tool* tool) {
  ConfigureRuntime(tool, team);
  Timer timer;
  program.workload->run(program.params);
  const double seconds = timer.ElapsedSeconds();
  UnconfigureRuntime();
  return seconds;
}

// ------------------------------------------------------------------ bench

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  bool quick = false;
  std::string work_dir;
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

class Bench {
 public:
  Bench(Options opt, WorkloadSpec spec)
      : opt_(std::move(opt)),
        spec_(std::move(spec)),
        rng_(opt_.seed) {}

  /// One pass over every program in a freshly shuffled order. Starts by
  /// flushing the trace filesystem: otherwise each pass inherits the dirty
  /// metadata of the ones before it, and the kernel time of the meta
  /// checkpoints grows from pass to pass.
  /// With `spans`, each program's Totals also get the self time of each
  /// of its layer spans as "span:<name>".
  Pass SwordPass(Spans* spans) {
    SyncTraceFilesystem();
    std::vector<size_t> order(spec_.programs.size());
    for (size_t i = 0; i < order.size(); i++) order[i] = i;
    std::shuffle(order.begin(), order.end(), rng_);
    Pass pass(order.size());
    for (size_t i : order) {
      const Program& p = spec_.programs[i];
      const std::string dir = opt_.work_dir + "/traces/p" + std::to_string(i);
      const size_t first_span = spans ? spans->size() : 0;
      Outcome o = RunSword(p, spec_.team, dir, spans, next_run_++);
      attempted_++;
      if (!o.failure.empty()) {
        failed_++;
        std::printf("FAILED %s/%s: %s\n", p.workload->suite.c_str(),
                    p.workload->name.c_str(), o.failure.c_str());
      }
      if (spans) {
        const std::vector<double> self = spans->SelfSeconds(first_span);
        for (size_t k = 0; k < self.size(); k++) {
          o.totals["span:" + spans->at(first_span + k).name] += self[k];
        }
      }
      pass[i] = std::move(o.totals);
    }
    return pass;
  }

  /// Repeats `round` until the time budget would be exceeded by one more
  /// round (at least `min_rounds`; exactly one with --quick).
  template <typename Round>
  void Repeat(size_t min_rounds, Round round) {
    Timer budget;
    std::vector<double> round_seconds;
    while (true) {
      Timer t;
      round();
      round_seconds.push_back(t.ElapsedSeconds());
      if (opt_.quick) break;
      const double next = Median(round_seconds);
      if (round_seconds.size() >= min_rounds &&
          budget.ElapsedSeconds() + next > opt_.seconds) {
        break;
      }
    }
    rounds_ = round_seconds.size();
  }

  std::vector<Metric> EndToEnd() {
    std::vector<Pass> passes;
    std::vector<std::vector<double>> setups(spec_.programs.size());
    Repeat(3, [&] {
      passes.push_back(SwordPass(nullptr));
      const Pass& p = passes.back();
      std::printf("pass %zu: collect %.6f s (cpu %.6f s), analyze %.6f s\n", passes.size(),
                  PassSum(p, "collect_s"), PassSum(p, "collect_cpu_s"), PassSum(p, "analyze_s"));
      SetupSamples(setups);
    });
    auto med = [&](const char* key) { return Aggregate(passes, key); };
    double setup_s = 0;
    for (const auto& samples : setups) setup_s += Median(samples);
    return {
        {"setup_s", setup_s, "s"},
        {"collect_s", med("collect_s"), "s"},
        {"collect_cpu_s", med("collect_cpu_s"), "s"},
        {"analyze_s", med("analyze_s"), "s"},
        {"tool_peak_bytes", med("tool_peak_bytes"), "bytes"},
        {"trace_bytes", med("trace_bytes"), "bytes"},
        {"analysis_peak_bytes", med("analysis_peak_bytes"), "bytes"},
    };
  }

  std::vector<Metric> PerLayer() {
    // Accesses are a property of the program, counted once.
    double accesses = 0;
    for (const Program& p : spec_.programs) {
      AccessCounter counter;
      RunReference(p, spec_.team, &counter);
      accesses += static_cast<double>(counter.Total());
    }

    Spans spans;
    std::vector<Pass> untraced, traced;
    std::vector<double> baseline, archer, archer_peak;
    bool traced_first = opt_.seed % 2 == 0;
    Repeat(2, [&] {
      // Alternate which side goes first so drift does not bias the overhead.
      if (traced_first) traced.push_back(SwordPass(&spans));
      untraced.push_back(SwordPass(nullptr));
      if (!traced_first) traced.push_back(SwordPass(&spans));
      traced_first = !traced_first;
      double b = 0, a = 0, ap = 0;
      for (const Program& p : spec_.programs) {
        const uint64_t run = next_run_++;
        {
          Spans::Scope span(&spans, "somp.baseline", run);
          b += RunReference(p, spec_.team, nullptr);
        }
        hb::ArcherTool tool;
        {
          Spans::Scope span(&spans, "hb.archer", run);
          a += RunReference(p, spec_.team, &tool);
        }
        ap += static_cast<double>(tool.PeakMemoryBytes());
      }
      baseline.push_back(b);
      archer.push_back(a);
      archer_peak.push_back(ap);
    });
    WriteSpans(spans);

    auto tr = [&](const char* key) { return Aggregate(traced, key); };
    auto un = [&](const char* key) { return Aggregate(untraced, key); };
    const double baseline_s = Median(baseline);
    const double archer_s = Median(archer);
    const double run_s = tr("span:core.run");
    const double traced_total = tr("collect_s") + tr("analyze_s");
    const double untraced_total = un("collect_s") + un("analyze_s");
    auto share = [](double part, double whole) { return whole > 0 ? part / whole : 0.0; };

    // The spans must account for the phases they wrap: the self times of
    // the collect and analyze layers add up to the untraced phase times to
    // within the tracing overhead (plus 2% and 100 us for timer skew).
    span_check_ok_ = true;
    const struct {
      const char* phase;
      double self;
    } phases[] = {
        {"collect_s", tr("span:core.run") + tr("span:core.finalize")},
        {"analyze_s", tr("span:offline.open") + tr("span:offline.analyze") +
                          tr("span:offline.render")},
    };
    for (const auto& ph : phases) {
      const double u = un(ph.phase), t = tr(ph.phase);
      const double slack = std::abs(t - u) + 0.02 * u + 1e-4;
      const bool ok = std::abs(ph.self - u) <= slack;
      std::printf("span check %s: layer self times %.6f s, untraced %.6f s, traced %.6f s: %s\n",
                  ph.phase, ph.self, u, t, ok ? "ok" : "MISMATCH");
      span_check_ok_ = span_check_ok_ && ok;
    }

    return {
        {"somp.baseline_s", baseline_s, "s"},
        {"offline.buckets", tr("offline.buckets"), "count"},
        {"offline.intervals", tr("offline.intervals"), "count"},
        {"core.setup_s", tr("span:core.setup"), "s"},
        {"core.run_s", run_s, "s"},
        {"core.finalize_s", tr("span:core.finalize"), "s"},
        {"core.accesses", accesses, "count"},
        {"core.events_logged", tr("core.events_logged"), "count"},
        {"core.suppressed", tr("core.suppressed"), "count"},
        {"core.coalesced", tr("core.coalesced"), "count"},
        {"core.runs_emitted", tr("core.runs_emitted"), "count"},
        {"core.per_access_ns", share(run_s - baseline_s, accesses) * 1e9, "ns"},
        {"core.tool_threads", tr("core.tool_threads"), "count"},
        {"core.bytes_per_thread", share(tr("tool_peak_bytes"), tr("core.tool_threads")),
         "bytes"},
        {"prefilter.elided", tr("prefilter.elided"), "count"},
        {"prefilter.elided_share", share(tr("prefilter.elided"), accesses), "ratio"},
        {"prefilter.elided_lost", tr("prefilter.elided_lost"), "count"},
        {"trace.flushes", tr("trace.flushes"), "count"},
        {"trace.jobs", tr("trace.jobs"), "count"},
        {"trace.appends", tr("trace.appends"), "count"},
        {"trace.producer_blocks", tr("trace.producer_blocks"), "count"},
        {"trace.bytes_in", tr("trace.bytes_in"), "bytes"},
        {"trace.bytes_written", tr("trace.bytes_written"), "bytes"},
        {"trace.meta_bytes", tr("trace.meta_bytes"), "bytes"},
        {"trace.io_retries", tr("trace.io_retries"), "count"},
        {"trace.frames_dropped", tr("trace.frames_dropped"), "count"},
        {"trace.degraded_dropped", tr("trace.degraded_dropped"), "count"},
        {"trace.accesses_dropped", tr("trace.accesses_dropped"), "count"},
        {"compress.ratio", share(tr("trace.bytes_in"), tr("trace.bytes_written")), "ratio"},
        {"offline.open_s", tr("span:offline.open"), "s"},
        {"offline.build_s", tr("offline.build_s"), "s"},
        {"offline.freeze_s", tr("offline.freeze_s"), "s"},
        {"offline.compare_s", tr("offline.compare_s"), "s"},
        {"offline.max_bucket_s", tr("offline.max_bucket_s"), "s"},
        {"offline.render_s", tr("span:offline.render"), "s"},
        {"offline.raw_events", tr("offline.raw_events"), "count"},
        {"offline.dedup_hits", tr("offline.dedup_hits"), "count"},
        {"offline.dedup_bytes_saved", tr("offline.dedup_bytes_saved"), "bytes"},
        {"offline.duplicates_suppressed", tr("offline.duplicates_suppressed"), "count"},
        {"itree.trees_built", tr("itree.trees_built"), "count"},
        {"itree.tree_nodes", tr("itree.tree_nodes"), "count"},
        {"itree.node_pairs_ranged", tr("itree.node_pairs_ranged"), "count"},
        {"itree.peak_tree_bytes", tr("itree.peak_tree_bytes"), "bytes"},
        {"osl.label_pairs", tr("osl.label_pairs"), "count"},
        {"osl.concurrent_pairs", tr("osl.concurrent_pairs"), "count"},
        {"osl.concurrent_share", share(tr("osl.concurrent_pairs"), tr("osl.label_pairs")),
         "ratio"},
        {"ilp.solver_calls", tr("ilp.solver_calls"), "count"},
        {"ilp.fastpath_hits", tr("ilp.fastpath_hits"), "count"},
        {"ilp.fastpath_share",
         share(tr("ilp.fastpath_hits"), tr("ilp.fastpath_hits") + tr("ilp.solver_calls")),
         "ratio"},
        {"ilp.bailouts", tr("ilp.bailouts"), "count"},
        {"hb.archer_s", archer_s, "s"},
        {"hb.archer_peak_bytes", Median(archer_peak), "bytes"},
        {"ref.slowdown_x", share(un("collect_s"), baseline_s), "x"},
        {"ref.vs_archer_x", share(un("collect_s"), archer_s), "x"},
        {"ref.tracing_overhead", share(traced_total, untraced_total) - 1, "ratio"},
    };
  }

  /// Set-up lasts some tens of microseconds and drifts with the host's state,
  /// so setup_s is not taken from the passes: after every pass each program
  /// is set up and torn down on its own, kSetupSamplesPerPass times in all
  /// (at least once per program), and setup_s sums the per-program medians.
  void SetupSamples(std::vector<std::vector<double>>& samples) {
    const size_t n = spec_.programs.size();
    const size_t reps = std::max<size_t>(1, (kSetupSamplesPerPass + n - 1) / n);
    const std::string dir = opt_.work_dir + "/traces/setup";
    for (size_t i = 0; i < n; i++) {
      for (size_t rep = 0; rep < reps; rep++) {
        fs::create_directories(dir);
        Timer timer;
        std::optional<core::SwordTool> tool(std::in_place, ProductionConfig(dir));
        ConfigureRuntime(&*tool, spec_.team);
        samples[i].push_back(timer.ElapsedSeconds());
        UnconfigureRuntime();
        if (Status st = tool->Finalize(); !st.ok()) {
          std::printf("warning: set-up-only finalize: %s\n", st.ToString().c_str());
        }
        tool.reset();
        fs::remove_all(dir);
      }
    }
  }

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  size_t rounds() const { return rounds_; }
  bool span_check_ok() const { return span_check_ok_; }

 private:
  void SyncTraceFilesystem() {
    const int fd = ::open(opt_.work_dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (fd < 0 || ::syncfs(fd) != 0) {
      std::printf("warning: cannot sync %s: %s\n", opt_.work_dir.c_str(), std::strerror(errno));
    }
    if (fd >= 0) ::close(fd);
  }

  void WriteSpans(const Spans& spans) {
    const std::string path = opt_.work_dir + "/spans-" + spec_.name + "-" +
                             std::to_string(opt_.seed) + ".jsonl";
    FILE* f = std::fopen(path.c_str(), "w");
    if (!f) {
      std::printf("warning: cannot write %s\n", path.c_str());
      return;
    }
    const std::vector<double> self = spans.SelfSeconds();
    std::map<std::string, double> self_by_name;
    const uint64_t t0 = spans.size() ? spans.at(0).start_ns : 0;
    for (size_t i = 0; i < spans.size(); i++) {
      const auto& s = spans.at(i);
      std::fprintf(f,
                   "{\"id\":%zu,\"name\":\"%s\",\"run\":%llu,\"parent\":%d,"
                   "\"start_s\":%.9f,\"end_s\":%.9f,\"self_s\":%.9f}\n",
                   i, s.name.c_str(), static_cast<unsigned long long>(s.run), s.parent,
                   1e-9 * static_cast<double>(s.start_ns - t0),
                   1e-9 * static_cast<double>(s.end_ns - t0), self[i]);
      self_by_name[s.name] += self[i];
    }
    std::fclose(f);
    std::printf("spans: %zu written to %s\n", spans.size(), path.c_str());
    for (const auto& [name, seconds] : self_by_name) {
      std::printf("  self %-16s %.6f s\n", name.c_str(), seconds);
    }
  }

  Options opt_;
  WorkloadSpec spec_;
  std::mt19937_64 rng_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t next_run_ = 0;  // span run id: one per program execution
  size_t rounds_ = 0;
  bool span_check_ok_ = true;
};

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  Options opt;
  opt.workload = args.GetString("workload");
  opt.seed = static_cast<uint64_t>(args.GetInt("seed", 1));
  opt.seconds = static_cast<double>(args.GetInt("seconds", 10));
  opt.trace = args.GetInt("trace", 0) != 0;
  opt.quick = args.GetBool("quick");
  opt.work_dir = args.GetString("work-dir");
  for (const auto& flag : args.UnknownFlags()) {
    std::fprintf(stderr, "error: unknown flag %s\n", flag.c_str());
    return 2;
  }
  if (opt.work_dir.empty()) {
    std::fprintf(stderr, "error: --work-dir is required\n");
    return 2;
  }
  std::optional<WorkloadSpec> spec = MakeSpec(opt.workload, opt.quick);
  if (!spec) {
    std::fprintf(stderr,
                 "error: unknown workload '%s' (suite-fixed, hpc-access, "
                 "hpc-regions, amg-trace)\n",
                 opt.workload.c_str());
    return 2;
  }
  const uint32_t nproc = Nproc();
  if (spec->team + kFlushWorkers > nproc) {
    std::fprintf(stderr,
                 "error: team %u + %u flush worker(s) exceeds nproc %u; the "
                 "measurement would be oversubscribed\n",
                 spec->team, kFlushWorkers, nproc);
    return 2;
  }
  fs::create_directories(opt.work_dir + "/traces");

  std::printf(
      "{\"host\":{\"nproc\":%u,\"build_type\":\"%s\",\"compiler\":\"%s\","
      "\"trace_fs\":\"%s\"},\"config\":{\"workload\":\"%s\",\"programs\":%zu,"
      "\"team\":%u,\"flush_workers\":%u,\"checker_threads\":%u,\"seed\":%llu,"
      "\"seconds\":%g,\"trace\":%d,\"quick\":%s,\"note\":\"nested DRB kernels "
      "briefly run more OS threads than team + flush workers\"}}\n",
      nproc, SWORD_PERFBENCH_BUILD_TYPE, JsonEscape(SWORD_PERFBENCH_COMPILER).c_str(),
      FilesystemType(opt.work_dir + "/traces").c_str(), spec->name.c_str(),
      spec->programs.size(), spec->team, kFlushWorkers, kCheckerThreads,
      static_cast<unsigned long long>(opt.seed), opt.seconds, opt.trace ? 1 : 0,
      opt.quick ? "true" : "false");
  std::fflush(stdout);

  const auto ticks0 = HostCpuTicks();
  Bench bench(opt, *spec);
  const std::vector<Metric> metrics = opt.trace ? bench.PerLayer() : bench.EndToEnd();
  fs::remove_all(opt.work_dir + "/traces");

  const auto ticks1 = HostCpuTicks();
  if (ticks1.first > ticks0.first) {
    std::printf("host: %.1f%% of CPU time stolen by the hypervisor during the run\n",
                100.0 * static_cast<double>(ticks1.second - ticks0.second) /
                    static_cast<double>(ticks1.first - ticks0.first));
  }
  bool correct = bench.failed() == 0 && bench.span_check_ok();
  std::printf("passes: %zu, operations: %llu attempted, %llu failed\n", bench.rounds(),
              static_cast<unsigned long long>(bench.attempted()),
              static_cast<unsigned long long>(bench.failed()));
  std::string json = "{\"correct\":" + std::string(correct ? "true" : "false") +
                     ",\"attempted\":" + std::to_string(bench.attempted()) +
                     ",\"failed\":" + std::to_string(bench.failed()) + ",\"metrics\":{";
  for (size_t i = 0; i < metrics.size(); i++) {
    // JSON has no NaN or infinity; a non-finite metric is a benchmark bug.
    const bool finite = std::isfinite(metrics[i].value);
    if (!finite) std::printf("non-finite metric %s\n", metrics[i].name.c_str());
    correct = correct && finite;
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", finite ? metrics[i].value : 0.0);
    json += (i ? ",\"" : "\"") + metrics[i].name + "\":{\"value\":" + value +
            ",\"unit\":\"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
