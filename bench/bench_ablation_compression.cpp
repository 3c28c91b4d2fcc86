// Reproduces SIII-A's codec comparison: the paper tried LZO, Snappy, and
// LZ4, found "similar performance and compression ratios", and shipped LZO.
// Here the raw / rle / lzs codecs compress real trace corpora (collected
// from representative workloads) and a synthetic worst case; the bench
// reports throughput and ratio per codec, plus end-to-end collection time
// per codec on a live workload.
#include "bench/bench_util.h"
#include "common/fsutil.h"
#include "compress/compressor.h"
#include "compress/frame.h"
#include "osl/label.h"
#include "trace/writer.h"

using namespace sword;
using namespace sword::bench;

int main() {
  Banner("SIII-A ablation - trace compression codecs",
         "codecs are interchangeable for collection speed; LZ-class wins on "
         "trace ratio (the paper shipped LZO for convenience)");

  // --- Corpus compression: run a workload, read its log back, recompress.
  const auto& w = Find("ompscr", "c_fft");
  harness::RunConfig base_config;
  base_config.tool = harness::ToolKind::kSword;
  base_config.params.threads = 8;
  base_config.codec = "raw";
  base_config.run_offline = false;
  base_config.trace_dir = "";

  TempDir corpus_dir("codec-corpus");
  base_config.trace_dir = corpus_dir.path();
  (void)harness::RunWorkload(w, base_config);

  // Concatenate the decompressed logs into one corpus.
  Bytes corpus;
  for (int t = 0;; t++) {
    const std::string path = corpus_dir.path() + "/sword_t" + std::to_string(t) + ".log";
    if (!FileExists(path)) break;
    auto data = ReadFileBytes(path);
    if (!data.ok()) break;
    ByteReader r(data.value());
    while (!r.AtEnd()) {
      FrameView view;
      if (!ReadFrame(r, &view).ok()) break;
      corpus.insert(corpus.end(), view.data.begin(), view.data.end());
    }
  }
  std::printf("trace corpus: %s of raw events from %s\n\n",
              FormatBytes(corpus.size()).c_str(), w.name.c_str());

  TextTable table({"codec", "ratio", "compress MB/s", "decompress MB/s",
                   "end-to-end collection"});
  double best_ratio = 1.0;

  for (const auto& name : CompressorNames()) {
    const Compressor* codec = FindCompressor(name);
    Bytes compressed;
    Timer ct;
    (void)codec->Compress(corpus.data(), corpus.size(), &compressed);
    const double compress_s = ct.ElapsedSeconds();
    Bytes out;
    Timer dt;
    (void)codec->Decompress(compressed.data(), compressed.size(), corpus.size(), &out);
    const double decompress_s = dt.ElapsedSeconds();

    const double mb = static_cast<double>(corpus.size()) / (1 << 20);
    const double ratio = static_cast<double>(corpus.size()) /
                         std::max<size_t>(1, compressed.size());
    best_ratio = std::max(best_ratio, ratio);

    // End-to-end: collection time with this codec on the live workload.
    harness::RunConfig config = base_config;
    config.codec = name;
    config.trace_dir = "";
    const auto r = harness::RunWorkload(w, config);

    table.AddRow({name, FmtX(ratio, 1), Fmt(mb / std::max(compress_s, 1e-9), 0),
                  Fmt(mb / std::max(decompress_s, 1e-9), 0),
                  FormatSeconds(r.dynamic_seconds)});
  }

  table.Print();
  std::printf("\n");

  // --- Fast-path ablation: one event per access (duplicate filter and
  // strided-run coalescer off, which writes exactly the retired v2 payload)
  // vs the default writer, on the same sweep-heavy access stream
  // (uncompressed, so the column isolates the encoding's contribution from
  // the codec's). bytes/event and ns/event are per instrumented access.
  TextTable fmt({"writer", "accesses in", "events encoded", "bytes/event",
                 "encode ns/event"});
  double per_event_bytes = 0, v3_bytes_per_event = 0;
  double per_event_ns = 0, v3_ns = 0;
  for (const bool fast_path : {false, true}) {
    TempDir fmt_dir("codec-fmt");
    trace::Flusher flusher(/*async=*/false);
    trace::WriterConfig wc;
    wc.log_path = fmt_dir.File("t.log");
    wc.meta_path = fmt_dir.File("t.meta");
    wc.flusher = &flusher;
    wc.codec = FindCompressor("raw");
    wc.access_filter = fast_path;
    wc.coalesce = fast_path;
    uint64_t accesses = 0, encoded = 0;
    double seconds = 0;
    {
      trace::ThreadTraceWriter writer(0, wc);
      trace::IntervalMeta meta;
      meta.label = osl::Label::Initial().Fork(0, 2);
      writer.BeginSegment(meta);
      Timer t;
      // Sweep-heavy stream with an accumulator re-access and a lock per
      // block - the shape array kernels actually log.
      for (uint64_t block = 0; block < 200; block++) {
        writer.Append(trace::RawEvent::MutexAcquire(1));
        for (uint64_t i = 0; i < 2048; i++) {
          writer.AppendAccess(0x100000 + i * 8, 8, /*flags=*/0, /*pc=*/21);
          writer.AppendAccess(0x80000, 8, /*flags=*/1, /*pc=*/22);
          accesses += 2;
        }
        writer.Append(trace::RawEvent::MutexRelease(1));
      }
      seconds = std::max(t.ElapsedSeconds(), 1e-9);
      writer.EndSegment();
      encoded = writer.events_logged();
      if (!writer.Finish().ok()) return 1;
    }
    uint64_t log_bytes = 0;
    if (auto size = FileSize(wc.log_path); size.ok()) log_bytes = size.value();
    const double bytes_per_event = static_cast<double>(log_bytes) / accesses;
    const double ns_per_event = seconds * 1e9 / static_cast<double>(accesses);
    if (!fast_path) {
      per_event_bytes = bytes_per_event;
      per_event_ns = ns_per_event;
    } else {
      v3_bytes_per_event = bytes_per_event;
      v3_ns = ns_per_event;
    }
    fmt.AddRow({fast_path ? "v3" : "v3 per-event", std::to_string(accesses),
                std::to_string(encoded), Fmt(bytes_per_event, 3),
                Fmt(ns_per_event)});
  }
  fmt.Print();
  std::printf("\n");

  Check(best_ratio > 2.0, "the LZ-class codec compresses trace data > 2x");
  Check(v3_bytes_per_event * 2 < per_event_bytes,
        "v3 coalescing+filtering halves bytes/event before the codec (" +
            Fmt(v3_bytes_per_event, 3) + " vs " + Fmt(per_event_bytes, 3) + ")");
  Check(v3_ns < per_event_ns,
        "v3 encodes cheaper per access than v3 per-event (" + Fmt(v3_ns) +
            " vs " + Fmt(per_event_ns) + " ns)");
  return 0;
}
