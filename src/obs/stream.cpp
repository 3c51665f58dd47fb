#include "obs/stream.hpp"

#include <chrono>

#include "obs/json.hpp"

namespace vfpga::obs {

namespace {

void appendAttributes(std::string& out, const AttrList& attrs) {
  if (attrs.empty()) return;
  out += ",\"attributes\":{";
  for (std::size_t i = 0; i < attrs.size(); ++i) {
    if (i) out += ',';
    out += '"';
    out += jsonEscape(attrs[i].first);
    out += "\":\"";
    out += jsonEscape(attrs[i].second);
    out += '"';
  }
  out += '}';
}

void appendKeyCounts(std::string& out, std::string_view field,
                     const std::map<std::string, std::uint64_t>& counts) {
  out += ",\"";
  out += field;
  out += "\":{";
  bool first = true;
  for (const auto& [k, n] : counts) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += jsonEscape(k);
    out += "\":";
    out += std::to_string(n);
  }
  out += '}';
}

}  // namespace

StreamExporter::StreamExporter(StreamOptions opt) : opt_(std::move(opt)) {
  if (opt_.path == "-") {
    out_ = stdout;
  } else if (!opt_.path.empty()) {
    out_ = std::fopen(opt_.path.c_str(), "wb");
    ownsFile_ = out_ != nullptr;
  }
  if (opt_.ringCapacity == 0) opt_.ringCapacity = 1;
  buffer_.reserve(opt_.ringCapacity < 4096 ? opt_.ringCapacity : 4096);
}

StreamExporter::~StreamExporter() { finish(); }

void StreamExporter::attach(SpanTracer& tracer, std::string domain) {
  tracer.setSinks(
      [this, domain](const SpanRecord& s) { onSpan(s, domain); },
      [this, domain](const InstantRecord& i) { onInstant(i, domain); });
}

void StreamExporter::onSpan(const SpanRecord& s, const std::string& domain) {
  std::string line = "{\"kind\":\"span\",\"domain\":\"" + jsonEscape(domain) +
                     "\",\"name\":\"" + jsonEscape(s.name) +
                     "\",\"category\":\"" + jsonEscape(s.category) +
                     "\",\"span_id\":" + std::to_string(s.spanId) +
                     ",\"start_ns\":" + std::to_string(s.startNs) +
                     ",\"duration_ns\":" + std::to_string(s.durationNs) +
                     ",\"track\":" + std::to_string(s.track);
  if (!s.links.empty()) {
    line += ",\"links\":[";
    for (std::size_t i = 0; i < s.links.size(); ++i) {
      if (i) line += ',';
      line += std::to_string(s.links[i]);
    }
    line += ']';
  }
  appendAttributes(line, s.attributes);
  line += '}';
  enqueue(s.category, s.startNs, std::move(line));
}

void StreamExporter::onInstant(const InstantRecord& i,
                               const std::string& domain) {
  std::string line = "{\"kind\":\"instant\",\"domain\":\"" +
                     jsonEscape(domain) + "\",\"name\":\"" +
                     jsonEscape(i.name) + "\",\"category\":\"" +
                     jsonEscape(i.category) +
                     "\",\"at_ns\":" + std::to_string(i.atNs) +
                     ",\"track\":" + std::to_string(i.track);
  appendAttributes(line, i.attributes);
  line += '}';
  enqueue(i.category, i.atNs, std::move(line));
}

void StreamExporter::onTrace(std::uint64_t atNs, std::string_view traceKind,
                             std::string_view detail,
                             const std::string& domain) {
  std::string line = "{\"kind\":\"trace\",\"domain\":\"" + jsonEscape(domain) +
                     "\",\"at_ns\":" + std::to_string(atNs) +
                     ",\"trace_kind\":\"" + jsonEscape(traceKind) +
                     "\",\"detail\":\"" + jsonEscape(detail) + "\"}";
  enqueue("trace", atNs, std::move(line));
}

bool StreamExporter::enqueue(const std::string& key, std::uint64_t atNs,
                             std::string line) {
  std::lock_guard<std::mutex> lock(mu_);
  if (finished_ || out_ == nullptr) return false;
  ++emitted_;
  const std::uint64_t seen = ++seenByKey_[key];
  auto sample = opt_.sampleEvery.find(key);
  if (sample != opt_.sampleEvery.end() && sample->second > 1 &&
      (seen - 1) % sample->second != 0) {
    ++sampledOut_;
    ++sampledOutByKey_[key];
    return false;
  }
  if (buffer_.size() >= opt_.ringCapacity) {
    ++dropped_;
    ++droppedByKey_[key];
    return false;
  }
  buffer_.push_back(std::move(line));
  const bool countFlush =
      opt_.flushEveryRecords > 0 && buffer_.size() >= opt_.flushEveryRecords;
  const bool timeFlush = opt_.flushTimeDeltaNs > 0 &&
                         atNs >= lastFlushNs_ + opt_.flushTimeDeltaNs;
  if (countFlush || timeFlush) {
    flushLocked();
    lastFlushNs_ = atNs;
  }
  return true;
}

void StreamExporter::flushLocked() {
  if (out_ == nullptr) return;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::string& line : buffer_) {
    writeLineLocked(line);
    ++written_;
  }
  buffer_.clear();
  std::fflush(out_);
  ++flushes_;
  // Self-observation: what this flush cost the host, wall-clock.
  flushNs_.push_back(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count()));
}

void StreamExporter::writeLineLocked(const std::string& line) {
  if (ownsFile_ && opt_.maxBytesPerFile > 0 && bytesThisFile_ > 0 &&
      bytesThisFile_ + line.size() + 1 > opt_.maxBytesPerFile) {
    std::fclose(out_);
    ++rotation_;
    const std::string next = opt_.path + "." + std::to_string(rotation_);
    out_ = std::fopen(next.c_str(), "wb");
    bytesThisFile_ = 0;
    if (out_ == nullptr) return;
  }
  std::fwrite(line.data(), 1, line.size(), out_);
  std::fputc('\n', out_);
  bytesThisFile_ += line.size() + 1;
}

std::string StreamExporter::summaryLine() const {
  std::string line = "{\"kind\":\"stream_summary\",\"emitted\":" +
                     std::to_string(emitted_) +
                     ",\"written\":" + std::to_string(written_) +
                     ",\"dropped\":" + std::to_string(dropped_) +
                     ",\"sampled_out\":" + std::to_string(sampledOut_) +
                     ",\"flushes\":" + std::to_string(flushes_);
  appendKeyCounts(line, "dropped_by_kind", droppedByKey_);
  appendKeyCounts(line, "sampled_out_by_kind", sampledOutByKey_);
  line += '}';
  return line;
}

void StreamExporter::finish() {
  std::lock_guard<std::mutex> lock(mu_);
  if (finished_) return;
  finished_ = true;
  if (out_ == nullptr) return;
  flushLocked();
  std::string summary = summaryLine();
  writeLineLocked(summary);
  ++written_;
  std::fflush(out_);
  if (ownsFile_) std::fclose(out_);
  out_ = nullptr;
}

std::uint64_t StreamExporter::emitted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return emitted_;
}

std::uint64_t StreamExporter::written() const {
  std::lock_guard<std::mutex> lock(mu_);
  return written_;
}

std::uint64_t StreamExporter::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

std::uint64_t StreamExporter::sampledOut() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sampledOut_;
}

std::map<std::string, std::uint64_t> StreamExporter::droppedByKey() const {
  std::lock_guard<std::mutex> lock(mu_);
  return droppedByKey_;
}

std::vector<std::uint64_t> StreamExporter::flushDurationsNs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return flushNs_;
}

void StreamExporter::publishSelfMetrics(MetricsRegistry& registry) const {
  HistogramMetric& h = registry.histogram(
      "vfpga_obs_flush_ns", 0.0, 1e7, 20, {},
      "Wall-clock nanoseconds per stream-exporter flush (telemetry "
      "self-overhead)");
  for (const std::uint64_t ns : flushDurationsNs()) {
    h.observe(static_cast<double>(ns));
  }
}

}  // namespace vfpga::obs
