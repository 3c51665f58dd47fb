#include "obs/flight_recorder.hpp"

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "obs/exporters.hpp"
#include "obs/json.hpp"
#include "obs/output_dir.hpp"

namespace vfpga::obs {

namespace {

std::string sanitize(std::string_view s) {
  std::string out;
  for (char c : s) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-';
    out.push_back(ok ? c : '_');
  }
  return out.empty() ? std::string("unknown") : out;
}

}  // namespace

std::string FlightRecorder::renderBundle(std::string_view ruleId,
                                         std::string_view context,
                                         std::string_view diagnosticsJson) const {
  std::ostringstream os;
  os << "{\n";
  os << "  \"rule_id\": \"" << jsonEscape(ruleId) << "\",\n";
  os << "  \"context\": \"" << jsonEscape(context) << "\",\n";
  os << "  \"diagnostics\": "
     << (diagnosticsJson.empty() ? std::string("null")
                                 : std::string(diagnosticsJson))
     << ",\n";

  os << "  \"trace_tail\": [";
  if (trace_ != nullptr) {
    const auto& records = trace_->records();
    const std::size_t n = records.size();
    const std::size_t start =
        n > options_.traceTail ? n - options_.traceTail : 0;
    bool first = true;
    for (std::size_t i = start; i < n; ++i) {
      const TraceRecord& r = records[i];
      os << (first ? "\n" : ",\n") << "    {\"at\": " << r.at
         << ", \"kind\": \"" << traceKindName(r.kind) << "\", \"detail\": \""
         << jsonEscape(r.detail) << "\"}";
      first = false;
    }
    if (!first) os << "\n  ";
  }
  os << "],\n";

  os << "  \"spans\": [";
  if (spans_ != nullptr) {
    bool first = true;
    for (const SpanRecord& s : spans_->spans()) {
      os << (first ? "\n" : ",\n") << "    {\"name\": \"" << jsonEscape(s.name)
         << "\", \"category\": \"" << jsonEscape(s.category)
         << "\", \"start_ns\": " << s.startNs
         << ", \"duration_ns\": " << s.durationNs << "}";
      first = false;
    }
    if (!first) os << "\n  ";
  }
  os << "],\n";

  os << "  \"notes\": [";
  {
    bool first = true;
    for (const Note& n : notes_) {
      os << (first ? "\n" : ",\n") << "    {\"at_ns\": " << n.atNs
         << ", \"text\": \"" << jsonEscape(n.text) << "\"}";
      first = false;
    }
    if (!first) os << "\n  ";
  }
  os << "],\n";

  os << "  \"metrics\": ";
  if (registry_ != nullptr) {
    os << renderMetricsJson(*registry_);
  } else {
    os << "[]\n";
  }
  os << "}\n";
  return os.str();
}

void FlightRecorder::note(std::uint64_t atNs, std::string text) {
  if (options_.noteCapacity == 0) return;
  if (notes_.size() == options_.noteCapacity) notes_.pop_front();
  notes_.push_back({atNs, std::move(text)});
}

std::string FlightRecorder::dump(std::string_view ruleId,
                                 std::string_view context,
                                 std::string_view diagnosticsJson) {
  std::string dir = options_.directory;
  if (dir.empty()) {
    const char* env = std::getenv("VFPGA_FLIGHT_DIR");
    dir = (env != nullptr && *env != '\0') ? std::string(env) : outputDir();
  }

  const std::string path = dir + "/" + options_.prefix + "_" +
                           sanitize(ruleId) + "_" + std::to_string(dumps_) +
                           ".json";
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    throw std::runtime_error("flight recorder: cannot write " + path);
  }
  out << renderBundle(ruleId, context, diagnosticsJson);
  out.close();
  if (!out) {
    throw std::runtime_error("flight recorder: write failed for " + path);
  }
  ++dumps_;
  return path;
}

}  // namespace vfpga::obs
