// Input/output helpers and campaign fixtures shared by the command files.
#include <cstdarg>
#include <fstream>
#include <sstream>

#include "analysis/diagnostics.hpp"
#include "cli.hpp"
#include "netlist/library/coding.hpp"
#include "netlist/library/control.hpp"
#include "netlist/library/datapath.hpp"
#include "netlist/text_io.hpp"
#include "workloads/compile_suite.hpp"

namespace vfpga::cli {

workloads::AppCircuit loadCircuit(const Args& a) {
  if (a.has("netlist")) {
    std::ifstream in(a.get("netlist"));
    if (!in) throw std::runtime_error("cannot open " + a.get("netlist"));
    std::stringstream buf;
    buf << in.rdbuf();
    Netlist nl = parseNetlistText(buf.str());
    std::string name = nl.name().empty() ? a.get("netlist") : nl.name();
    return workloads::AppCircuit{name, "user", std::move(nl)};
  }
  return workloads::appCircuitByName(a.get("circuit"));
}

CompiledCircuit compileStrip(const Args& a, Compiler& compiler,
                             const Netlist& nl, const CompileOptions& opt) {
  if (!a.has("width")) {
    return workloads::compileMinimal(compiler, nl, opt.seed);
  }
  const auto w = static_cast<std::uint16_t>(a.count("width", 0));
  return compiler.compile(nl, Region::columns(compiler.geometry(), 0, w),
                          opt);
}

int emitPayload(const Args& a, const std::string& payload, int exitCode) {
  if (a.has("out")) {
    std::ofstream out(a.get("out"), std::ios::binary);
    out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
    out.flush();
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", a.get("out").c_str());
      return 3;
    }
    std::fprintf(stderr, "wrote %zu bytes to %s\n", payload.size(),
                 a.get("out").c_str());
    return exitCode;
  }
  std::fwrite(payload.data(), 1, payload.size(), stdout);
  return exitCode;
}

void ReportText::line(const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  out_ += buf;
}

namespace {

/// --stream-* knobs -> exporter options ("-" streams to stdout).
obs::StreamOptions streamOptions(const Args& a) {
  obs::StreamOptions o;
  o.path = a.get("stream");
  o.ringCapacity = a.count("stream-ring", 1024);
  o.flushEveryRecords = a.count("stream-flush", 64);
  o.flushTimeDeltaNs = a.count("stream-flush-ns", 0);
  // --stream-sample key=N[,key=N]: keep 1 of every N records per key
  // (span/instant category, or "trace" for Trace-ring records).
  std::stringstream ss(a.get("stream-sample"));
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    const std::size_t eq = tok.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw std::runtime_error("bad --stream-sample entry '" + tok + "'");
    }
    o.sampleEvery[tok.substr(0, eq)] =
        static_cast<std::uint32_t>(std::stoul(tok.substr(eq + 1)));
  }
  return o;
}

}  // namespace

LiveStream::LiveStream(const Args& a) {
  if (!a.has("stream")) return;
  stream_.emplace(streamOptions(a));
  if (!stream_->ok()) {
    std::fprintf(stderr, "error: cannot open stream %s\n",
                 a.get("stream").c_str());
    ok_ = false;
  }
}

void LiveStream::attach(OsKernel& kernel, const std::string& domain) {
  if (!stream_) return;
  obs::StreamExporter& stream = *stream_;
  stream.attach(kernel.spanTracer(), domain);
  kernel.traceRing().setRecordSink([&stream, domain](const TraceRecord& r) {
    stream.onTrace(r.at, traceKindName(r.kind), r.detail, domain);
  });
}

void LiveStream::finish(const char* cmd, obs::MetricsRegistry* selfMetrics) {
  if (!stream_) return;
  obs::StreamExporter& stream = *stream_;
  stream.finish();
  if (selfMetrics != nullptr) stream.publishSelfMetrics(*selfMetrics);
  std::fprintf(stderr,
               "%s: stream wrote %llu records (%llu emitted, %llu dropped,"
               " %llu sampled out)\n",
               cmd, ull(stream.written()), ull(stream.emitted()),
               ull(stream.dropped()), ull(stream.sampledOut()));
  for (const auto& [key, n] : stream.droppedByKey()) {
    std::fprintf(stderr, "%s: stream dropped %llu x %s\n", cmd, ull(n),
                 key.c_str());
  }
}

Netlist named(Netlist nl, const char* name) {
  nl.setName(name);
  return nl;
}

std::array<Netlist, 3> trioNetlists() {
  return {named(lib::makeCounter(6), "count"),
          named(lib::makeChecksum(6), "csum"),
          named(lib::makeLfsr(8, 0b10111000), "lfsr")};
}

std::array<CompiledCircuit, 3> compileTrio(Compiler& compiler) {
  const Region strip = Region::columns(compiler.geometry(), 0, kTrioWidth);
  const std::array<Netlist, 3> nls = trioNetlists();
  return {compiler.compile(nls[0], strip), compiler.compile(nls[1], strip),
          compiler.compile(nls[2], strip)};
}

bool lintClean(const analysis::Report& rep) {
  if (!rep.diagnostics().empty()) {
    std::fprintf(stderr, "%s", rep.renderText().c_str());
  }
  return rep.ok();
}

}  // namespace vfpga::cli
