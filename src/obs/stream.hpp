// Live streaming exporter: OTLP-shaped NDJSON over a file (or stdout).
//
// Unlike the post-mortem exporters (obs/exporters.hpp), the stream exporter
// attaches to SpanTracer sinks and writes one self-contained JSON object
// per line *while the run is in flight*, so a week-long fault campaign can
// be watched with `tail -f`. Backpressure is explicit, never silent:
//
//  * records buffer in a bounded, mutex-guarded ring; when the ring is
//    full, new records are dropped and counted per record key;
//  * the buffer flushes to the file every `flushEveryRecords` records, or
//    whenever a record's timestamp has advanced `flushTimeDeltaNs` past the
//    last flush (sim-time flushing for kernel tracers);
//  * per-key sampling (`sampleEvery`, key = span/instant category, "trace"
//    for trace-ring records) keeps 1 of every N records so long
//    simulations don't drown the sink — sampled-out counts are reported;
//  * `finish()` (also run by the destructor) flushes and appends a final
//    `stream_summary` record carrying emitted/written/dropped/sampled-out
//    totals and the per-key breakdowns.
//
// Line protocol (every line parses under the strict obs/json.hpp parser):
//   {"kind":"span","domain":D,"name":N,"category":C,"span_id":I,
//    "start_ns":T,"duration_ns":U,"track":K,"links":[..],"attributes":{..}}
//   {"kind":"instant","domain":D,"name":N,"category":C,"at_ns":T,"track":K}
//   {"kind":"trace","domain":D,"at_ns":T,"trace_kind":TK,"detail":S}
//   {"kind":"stream_summary","emitted":..,"written":..,"dropped":..,...}
// `links`/`attributes` are omitted when empty.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics_registry.hpp"
#include "obs/span_tracer.hpp"

namespace vfpga::obs {

struct StreamOptions {
  /// Target file path; "-" streams to stdout. On Linux an inherited file
  /// descriptor works via "/dev/fd/<n>".
  std::string path;
  /// Buffered lines before drop accounting kicks in.
  std::size_t ringCapacity = 1024;
  /// Flush after this many buffered records (0 = only on finish()).
  std::size_t flushEveryRecords = 64;
  /// Flush when a record's timestamp is this far past the last flush
  /// (simulated ns for kernel tracers; 0 = disabled).
  std::uint64_t flushTimeDeltaNs = 0;
  /// Rotate to "<path>.1", "<path>.2", ... once a file exceeds this many
  /// bytes (0 = never rotate; ignored for stdout).
  std::size_t maxBytesPerFile = 0;
  /// Per-key sampling: keep 1 of every N records with that key (span and
  /// instant records key on their category; trace records on "trace").
  /// Values 0/1 mean keep everything.
  std::map<std::string, std::uint32_t> sampleEvery;
};

class StreamExporter {
 public:
  explicit StreamExporter(StreamOptions opt);
  ~StreamExporter();
  StreamExporter(const StreamExporter&) = delete;
  StreamExporter& operator=(const StreamExporter&) = delete;

  /// False when the target file could not be opened (callers should treat
  /// this as an export failure — CLI exit 3).
  bool ok() const { return out_ != nullptr; }

  /// Wires this exporter as the tracer's live sinks. `domain` names the
  /// source in every record (e.g. "flow", "os/partitioned_variable").
  void attach(SpanTracer& tracer, std::string domain);

  void onSpan(const SpanRecord& s, const std::string& domain);
  void onInstant(const InstantRecord& i, const std::string& domain);
  void onTrace(std::uint64_t atNs, std::string_view traceKind,
               std::string_view detail, const std::string& domain);

  /// Writes buffered records out, appends the stream_summary record and
  /// closes the file.
  /// Idempotent; the destructor calls it.
  void finish();

  std::uint64_t emitted() const;
  std::uint64_t written() const;
  std::uint64_t dropped() const;
  std::uint64_t sampledOut() const;
  std::map<std::string, std::uint64_t> droppedByKey() const;

  /// Wall-clock duration of every flush so far, in nanoseconds (one entry
  /// per flush, including the final one finish() runs). This is the
  /// telemetry overhead the exporter itself adds to the host process.
  std::vector<std::uint64_t> flushDurationsNs() const;
  /// Publishes the `vfpga_obs_flush_ns` self-observation histogram into
  /// `registry`, so reports can show what streaming cost. Wall-clock
  /// values — callers that need byte-deterministic output should surface
  /// only the sample count, never the durations.
  void publishSelfMetrics(MetricsRegistry& registry) const;

 private:
  /// Returns false when the record was sampled out or dropped.
  bool enqueue(const std::string& key, std::uint64_t atNs, std::string line);
  void flushLocked();
  void writeLineLocked(const std::string& line);
  std::string summaryLine() const;

  StreamOptions opt_;
  mutable std::mutex mu_;
  std::FILE* out_ = nullptr;
  bool ownsFile_ = false;
  bool finished_ = false;
  std::vector<std::string> buffer_;
  std::uint64_t emitted_ = 0;
  std::uint64_t written_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t sampledOut_ = 0;
  std::uint64_t flushes_ = 0;
  std::uint64_t lastFlushNs_ = 0;
  std::size_t bytesThisFile_ = 0;
  std::uint32_t rotation_ = 0;
  std::map<std::string, std::uint64_t> droppedByKey_;
  std::map<std::string, std::uint64_t> sampledOutByKey_;
  std::map<std::string, std::uint64_t> seenByKey_;
  std::vector<std::uint64_t> flushNs_;  ///< wall-clock ns per flush
};

}  // namespace vfpga::obs
