#include "obs/exporters.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <map>
#include <sstream>
#include <stdexcept>

#include "obs/json.hpp"

namespace vfpga::obs {

namespace {

/// trace_event timestamps are microseconds; keep sub-ns precision.
std::string tsMicros(std::uint64_t ns) {
  return formatDouble(static_cast<double>(ns) / 1000.0);
}

/// Keys render sorted: a span replayed from an NDJSON stream round-trips
/// its attributes through a key-sorted JSON object, so the live render
/// must use the same order to stay byte-identical with the replay.
void appendArgs(std::string& out, const AttrList& attrs,
                const AttrList& extra = {}) {
  AttrList merged = attrs;
  merged.insert(merged.end(), extra.begin(), extra.end());
  std::stable_sort(merged.begin(), merged.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  out += "\"args\":{";
  bool first = true;
  for (const auto& [k, v] : merged) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += jsonEscape(k);
    out += "\":\"";
    out += jsonEscape(v);
    out += '"';
  }
  out += '}';
}

/// span_id / links render as args (string values), keeping the trace_event
/// envelope and the validator untouched.
AttrList linkArgs(const SpanRecord& s) {
  AttrList extra;
  if (s.spanId != 0) extra.emplace_back("span_id", std::to_string(s.spanId));
  if (!s.links.empty()) {
    std::string joined;
    for (std::size_t i = 0; i < s.links.size(); ++i) {
      if (i) joined += ',';
      joined += std::to_string(s.links[i]);
    }
    extra.emplace_back("links", std::move(joined));
  }
  return extra;
}

void appendMetaEvent(std::string& out, bool& first, int pid,
                     const std::string& processName) {
  if (!first) out += ",\n";
  first = false;
  out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" +
         std::to_string(pid) +
         ",\"tid\":0,\"args\":{\"name\":\"" + jsonEscape(processName) +
         "\"}}";
}

void appendSpans(std::string& out, bool& first, int pid,
                 const SpanTracer& tracer) {
  for (const SpanRecord& s : tracer.spans()) {
    if (!first) out += ",\n";
    first = false;
    out += "{\"name\":\"" + jsonEscape(s.name) + "\",\"cat\":\"" +
           jsonEscape(s.category) + "\",\"ph\":\"X\",\"ts\":" +
           tsMicros(s.startNs) + ",\"dur\":" + tsMicros(s.durationNs) +
           ",\"pid\":" + std::to_string(pid) +
           ",\"tid\":" + std::to_string(s.track) + ",";
    appendArgs(out, s.attributes, linkArgs(s));
    out += '}';
  }
  for (const InstantRecord& i : tracer.instants()) {
    if (!first) out += ",\n";
    first = false;
    out += "{\"name\":\"" + jsonEscape(i.name) + "\",\"cat\":\"" +
           jsonEscape(i.category) + "\",\"ph\":\"i\",\"s\":\"t\",\"ts\":" +
           tsMicros(i.atNs) + ",\"pid\":" + std::to_string(pid) +
           ",\"tid\":" + std::to_string(i.track) + ",";
    appendArgs(out, i.attributes);
    out += '}';
  }
}

void appendTraceRecords(std::string& out, bool& first, int pid,
                        const Trace& trace) {
  for (const TraceRecord& r : trace.records()) {
    if (!first) out += ",\n";
    first = false;
    out += "{\"name\":\"" + std::string(traceKindName(r.kind)) +
           "\",\"cat\":\"os.trace\",\"ph\":\"i\",\"s\":\"t\",\"ts\":" +
           tsMicros(r.at) + ",\"pid\":" + std::to_string(pid) +
           ",\"tid\":0,\"args\":{\"detail\":\"" + jsonEscape(r.detail) +
           "\"}}";
  }
}

}  // namespace

std::string renderChromeTrace(const ChromeTraceInput& input) {
  std::string out = "{\"traceEvents\":[\n";
  bool first = true;
  if (input.wall != nullptr) {
    appendMetaEvent(out, first, 1, "vfpga compile flow (wall clock)");
    appendSpans(out, first, 1, *input.wall);
  }
  int pid = 2;
  for (const SimProcessTrace& p : input.sim) {
    appendMetaEvent(out, first, pid,
                    p.name.empty() ? "vfpga os (simulated time)" : p.name);
    if (p.spans != nullptr) appendSpans(out, first, pid, *p.spans);
    if (p.trace != nullptr) appendTraceRecords(out, first, pid, *p.trace);
    ++pid;
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

std::vector<std::string> validateChromeTrace(std::string_view json) {
  std::vector<std::string> problems;
  JsonValue doc;
  try {
    doc = JsonValue::parse(json);
  } catch (const JsonError& e) {
    problems.push_back(std::string("not valid JSON: ") + e.what());
    return problems;
  }
  if (!doc.isObject() || !doc.has("traceEvents")) {
    problems.push_back("top level must be an object with \"traceEvents\"");
    return problems;
  }
  const JsonValue& events = doc.at("traceEvents");
  if (!events.isArray()) {
    problems.push_back("\"traceEvents\" must be an array");
    return problems;
  }

  struct Interval {
    double start, end;
    std::string name;
  };
  std::map<std::pair<double, double>, std::vector<Interval>> tracks;

  std::size_t idx = 0;
  for (const JsonValue& ev : events.asArray()) {
    const std::string where = "event " + std::to_string(idx++);
    if (!ev.isObject()) {
      problems.push_back(where + ": not an object");
      continue;
    }
    if (!ev.has("ph") || !ev.at("ph").isString()) {
      problems.push_back(where + ": missing string \"ph\"");
      continue;
    }
    const std::string& ph = ev.at("ph").asString();
    if (ph != "X" && ph != "i" && ph != "M" && ph != "B" && ph != "E" &&
        ph != "C") {
      problems.push_back(where + ": unknown phase \"" + ph + "\"");
      continue;
    }
    if (!ev.has("name") || !ev.at("name").isString()) {
      problems.push_back(where + ": missing string \"name\"");
    }
    if (!ev.has("pid") || !ev.at("pid").isNumber()) {
      problems.push_back(where + ": missing numeric \"pid\"");
    }
    if (ph == "M") continue;  // metadata needs no timestamp
    if (!ev.has("ts") || !ev.at("ts").isNumber()) {
      problems.push_back(where + ": missing numeric \"ts\"");
      continue;
    }
    if (!ev.has("tid") || !ev.at("tid").isNumber()) {
      problems.push_back(where + ": missing numeric \"tid\"");
      continue;
    }
    if (ph == "X") {
      if (!ev.has("dur") || !ev.at("dur").isNumber()) {
        problems.push_back(where + ": complete span missing numeric \"dur\"");
        continue;
      }
      Interval iv{ev.at("ts").asNumber(),
                  ev.at("ts").asNumber() + ev.at("dur").asNumber(),
                  ev.has("name") ? ev.at("name").asString() : ""};
      tracks[{ev.at("pid").asNumber(), ev.at("tid").asNumber()}].push_back(iv);
    }
  }

  // Complete spans on one (pid, tid) track must nest: sorted by start, an
  // overlapping pair is legal only when one contains the other.
  for (auto& [key, ivs] : tracks) {
    std::sort(ivs.begin(), ivs.end(), [](const Interval& a, const Interval& b) {
      if (a.start != b.start) return a.start < b.start;
      return a.end > b.end;  // outermost first
    });
    std::vector<Interval> stack;
    for (const Interval& iv : ivs) {
      while (!stack.empty() && stack.back().end <= iv.start) stack.pop_back();
      if (!stack.empty() && iv.end > stack.back().end) {
        problems.push_back("spans \"" + stack.back().name + "\" and \"" +
                           iv.name + "\" partially overlap on one track");
      }
      stack.push_back(iv);
    }
  }
  return problems;
}

// ------------------------------------------------------------- prometheus

namespace {

/// Prometheus exposition-format label-value escaping. The text format
/// escapes exactly three characters — backslash, double-quote and newline
/// — unlike JSON (whose \t, \uXXXX etc. a Prometheus scraper would read
/// back literally, which is why jsonEscape is wrong here).
std::string promEscape(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (const char c : v) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string promLabels(const Labels& labels, const char* extraKey = nullptr,
                       const std::string& extraValue = {}) {
  if (labels.empty() && extraKey == nullptr) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += k + "=\"" + promEscape(v) + "\"";
  }
  if (extraKey != nullptr) {
    if (!first) out += ',';
    out += std::string(extraKey) + "=\"" + extraValue + "\"";
  }
  out += '}';
  return out;
}

void promHeader(std::ostringstream& os, std::string& lastName,
                const std::string& name, const std::string& help,
                const char* type) {
  if (name == lastName) return;
  lastName = name;
  if (!help.empty()) os << "# HELP " << name << " " << help << "\n";
  os << "# TYPE " << name << " " << type << "\n";
}

}  // namespace

std::string renderPrometheus(const MetricsRegistry& registry) {
  std::ostringstream os;
  std::string lastName;
  // Convenience percentile samples derived from histograms. They are their
  // own gauge families (`<name>_p50` etc.), so they cannot be emitted
  // inside the `# TYPE <name> histogram` block — exposition requires every
  // sample of a family to sit contiguously under its own TYPE header. They
  // are collected during the walk and emitted at the end, grouped per
  // family in sorted order.
  std::map<std::string, std::vector<std::string>> percentileFamilies;
  for (const Metric* m : registry.sorted()) {
    switch (m->kind()) {
      case MetricKind::kCounter: {
        promHeader(os, lastName, m->name, m->help, "counter");
        os << m->name << promLabels(m->labels) << " "
           << std::get<Counter>(m->value).value() << "\n";
        break;
      }
      case MetricKind::kGauge: {
        promHeader(os, lastName, m->name, m->help, "gauge");
        os << m->name << promLabels(m->labels) << " "
           << formatDouble(std::get<Gauge>(m->value).value()) << "\n";
        break;
      }
      case MetricKind::kStats: {
        promHeader(os, lastName, m->name, m->help, "summary");
        const OnlineStats& s = std::get<StatsMetric>(m->value).stats();
        os << m->name << promLabels(m->labels, "quantile", "0") << " "
           << formatDouble(s.min()) << "\n";
        os << m->name << promLabels(m->labels, "quantile", "1") << " "
           << formatDouble(s.max()) << "\n";
        os << m->name << "_sum" << promLabels(m->labels) << " "
           << formatDouble(s.sum()) << "\n";
        os << m->name << "_count" << promLabels(m->labels) << " " << s.count()
           << "\n";
        break;
      }
      case MetricKind::kHistogram: {
        promHeader(os, lastName, m->name, m->help, "histogram");
        const HistogramMetric& hm = std::get<HistogramMetric>(m->value);
        const Histogram& h = hm.histogram();
        std::uint64_t cum = 0;
        for (std::size_t i = 0; i < h.bucketCount(); ++i) {
          cum += h.bucket(i);
          os << m->name << "_bucket"
             << promLabels(m->labels, "le", formatDouble(h.bucketHigh(i))) << " "
             << cum << "\n";
        }
        os << m->name << "_bucket" << promLabels(m->labels, "le", "+Inf")
           << " " << h.total() << "\n";
        os << m->name << "_sum" << promLabels(m->labels) << " "
           << formatDouble(hm.sum()) << "\n";
        os << m->name << "_count" << promLabels(m->labels) << " " << h.total()
           << "\n";
        // Percentile samples via the fixed-width quantile accessor,
        // buffered for the trailing gauge families.
        for (const auto& [suffix, p] :
             {std::pair{"_p50", 50.0}, {"_p90", 90.0}, {"_p99", 99.0}}) {
          percentileFamilies[m->name + suffix].push_back(
              m->name + suffix + promLabels(m->labels) + " " +
              formatDouble(h.percentile(p)) + "\n");
        }
        break;
      }
    }
  }
  for (const auto& [family, samples] : percentileFamilies) {
    os << "# TYPE " << family << " gauge\n";
    for (const std::string& line : samples) os << line;
  }
  return os.str();
}

std::vector<PromSample> parsePrometheus(std::string_view text) {
  std::vector<PromSample> out;
  std::size_t pos = 0;
  auto fail = [](const std::string& why, std::string_view line) {
    throw std::runtime_error("bad prometheus line (" + why + "): " +
                             std::string(line));
  };
  while (pos < text.size()) {
    const std::size_t eol = text.find('\n', pos);
    std::string_view line = text.substr(
        pos, eol == std::string_view::npos ? std::string_view::npos
                                           : eol - pos);
    pos = eol == std::string_view::npos ? text.size() : eol + 1;
    if (line.empty() || line[0] == '#') continue;

    PromSample s;
    std::size_t i = 0;
    while (i < line.size() && line[i] != '{' && line[i] != ' ') ++i;
    if (i == 0) fail("no metric name", line);
    s.name = std::string(line.substr(0, i));
    if (i < line.size() && line[i] == '{') {
      ++i;
      while (i < line.size() && line[i] != '}') {
        const std::size_t eq = line.find('=', i);
        if (eq == std::string_view::npos || eq + 1 >= line.size() ||
            line[eq + 1] != '"') {
          fail("bad label", line);
        }
        std::string key(line.substr(i, eq - i));
        std::string value;
        std::size_t j = eq + 2;
        while (j < line.size() && line[j] != '"') {
          if (line[j] == '\\' && j + 1 < line.size()) {
            ++j;
            // Decode the exposition format's three escapes; \n is the only
            // one that maps to a different character than it spells.
            value.push_back(line[j] == 'n' ? '\n' : line[j]);
          } else {
            value.push_back(line[j]);
          }
          ++j;
        }
        if (j >= line.size()) fail("unterminated label value", line);
        s.labels.emplace_back(std::move(key), std::move(value));
        i = j + 1;
        if (i < line.size() && line[i] == ',') ++i;
      }
      if (i >= line.size()) fail("unterminated label set", line);
      ++i;  // '}'
    }
    while (i < line.size() && line[i] == ' ') ++i;
    std::string_view num = line.substr(i);
    if (num == "+Inf") {
      s.value = std::numeric_limits<double>::infinity();
    } else if (num == "-Inf") {
      s.value = -std::numeric_limits<double>::infinity();
    } else {
      const auto res =
          std::from_chars(num.data(), num.data() + num.size(), s.value);
      if (res.ec != std::errc{} || res.ptr != num.data() + num.size()) {
        fail("bad value", line);
      }
    }
    out.push_back(std::move(s));
  }
  return out;
}

// ------------------------------------------------------------------ csv

std::string renderCsv(const MetricsRegistry& registry) {
  std::ostringstream os;
  os << "name,labels,kind,field,value\n";
  auto row = [&](const Metric* m, const char* field, const std::string& v) {
    os << m->name << ",\"" << labelsToString(m->labels) << "\","
       << metricKindName(m->kind()) << "," << field << "," << v << "\n";
  };
  for (const Metric* m : registry.sorted()) {
    switch (m->kind()) {
      case MetricKind::kCounter:
        row(m, "value",
            std::to_string(std::get<Counter>(m->value).value()));
        break;
      case MetricKind::kGauge:
        row(m, "value", formatDouble(std::get<Gauge>(m->value).value()));
        break;
      case MetricKind::kStats: {
        const OnlineStats& s = std::get<StatsMetric>(m->value).stats();
        row(m, "count", std::to_string(s.count()));
        row(m, "sum", formatDouble(s.sum()));
        row(m, "mean", formatDouble(s.mean()));
        row(m, "min", formatDouble(s.min()));
        row(m, "max", formatDouble(s.max()));
        break;
      }
      case MetricKind::kHistogram: {
        const HistogramMetric& hm = std::get<HistogramMetric>(m->value);
        row(m, "count", std::to_string(hm.histogram().total()));
        row(m, "sum", formatDouble(hm.sum()));
        row(m, "p50", formatDouble(hm.histogram().percentile(50)));
        row(m, "p90", formatDouble(hm.histogram().percentile(90)));
        row(m, "p99", formatDouble(hm.histogram().percentile(99)));
        break;
      }
    }
  }
  return os.str();
}

// ----------------------------------------------------------------- json

std::string renderMetricsJson(const MetricsRegistry& registry) {
  std::ostringstream os;
  os << "[";
  bool first = true;
  for (const Metric* m : registry.sorted()) {
    if (!first) os << ",";
    first = false;
    os << "\n{\"name\":\"" << jsonEscape(m->name) << "\",\"kind\":\""
       << metricKindName(m->kind()) << "\",\"labels\":{";
    for (std::size_t i = 0; i < m->labels.size(); ++i) {
      if (i) os << ",";
      os << "\"" << jsonEscape(m->labels[i].first) << "\":\""
         << jsonEscape(m->labels[i].second) << "\"";
    }
    os << "}";
    switch (m->kind()) {
      case MetricKind::kCounter:
        os << ",\"value\":" << std::get<Counter>(m->value).value();
        break;
      case MetricKind::kGauge:
        os << ",\"value\":" << formatDouble(std::get<Gauge>(m->value).value());
        break;
      case MetricKind::kStats: {
        const OnlineStats& s = std::get<StatsMetric>(m->value).stats();
        os << ",\"count\":" << s.count() << ",\"sum\":" << formatDouble(s.sum())
           << ",\"mean\":" << formatDouble(s.mean())
           << ",\"min\":" << formatDouble(s.count() ? s.min() : 0.0)
           << ",\"max\":" << formatDouble(s.count() ? s.max() : 0.0);
        break;
      }
      case MetricKind::kHistogram: {
        const HistogramMetric& hm = std::get<HistogramMetric>(m->value);
        os << ",\"count\":" << hm.histogram().total()
           << ",\"sum\":" << formatDouble(hm.sum())
           << ",\"p50\":" << formatDouble(hm.histogram().percentile(50))
           << ",\"p90\":" << formatDouble(hm.histogram().percentile(90))
           << ",\"p99\":" << formatDouble(hm.histogram().percentile(99));
        break;
      }
    }
    os << "}";
  }
  os << "\n]\n";
  return os.str();
}

}  // namespace vfpga::obs
