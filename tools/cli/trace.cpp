// trace and report: the merged Perfetto timeline (live or replayed from a
// captured NDJSON stream) and the six-technique metrics report.
#include <algorithm>
#include <fstream>
#include <sstream>

#include "cli.hpp"
#include "core/dynamic_loader.hpp"
#include "core/io_mux.hpp"
#include "core/obs_bridge.hpp"
#include "core/overlay_manager.hpp"
#include "core/page_manager.hpp"
#include "core/partition_manager.hpp"
#include "core/prefetch_loader.hpp"
#include "core/segment_manager.hpp"
#include "netlist/library/datapath.hpp"
#include "obs/exporters.hpp"
#include "obs/json.hpp"
#include "sim/compiled/compiled_fabric.hpp"
#include "workloads/compile_suite.hpp"

namespace vfpga::cli {

namespace {

std::string csvField(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string quoted = "\"";
  for (char c : s) {
    if (c == '"') quoted += '"';
    quoted += c;
  }
  quoted += '"';
  return quoted;
}

/// CSV sibling of the Chrome export: spans, instants and Trace records of
/// every process as flat rows.
std::string renderTimelineCsv(const obs::ChromeTraceInput& input) {
  std::string out = "process,type,track,category,name,start_ns,duration_ns\n";
  auto row = [&out](const std::string& proc, const char* type,
                    std::uint32_t track, const std::string& category,
                    const std::string& name, std::uint64_t start,
                    std::uint64_t dur) {
    out += csvField(proc) + ',' + type + ',' + std::to_string(track) + ',' +
           csvField(category) + ',' + csvField(name) + ',' +
           std::to_string(start) + ',' + std::to_string(dur) + '\n';
  };
  auto addTracer = [&row](const std::string& proc, const obs::SpanTracer* t) {
    if (t == nullptr) return;
    for (const obs::SpanRecord& s : t->spans()) {
      row(proc, "span", s.track, s.category, s.name, s.startNs, s.durationNs);
    }
    for (const obs::InstantRecord& i : t->instants()) {
      row(proc, "instant", i.track, i.category, i.name, i.atNs, 0);
    }
  };
  addTracer("flow", input.wall);
  for (const obs::SimProcessTrace& p : input.sim) {
    addTracer(p.name, p.spans);
    if (p.trace != nullptr) {
      for (const TraceRecord& r : p.trace->records()) {
        row(p.name, "trace", 0, "os.trace", traceKindName(r.kind), r.at, 0);
      }
    }
  }
  return out;
}

TraceKind traceKindByName(std::string_view name) {
  for (std::size_t k = 0; k < kTraceKindCount; ++k) {
    const auto kind = static_cast<TraceKind>(k);
    if (name == traceKindName(kind)) return kind;
  }
  return TraceKind::kInfo;
}

/// A captured NDJSON stream rebuilt into per-domain tracers and Trace
/// rings; "flow" maps back to the wall-clock process, every other domain
/// to a simulated process.
struct CapturedStream {
  std::map<std::string, obs::SpanTracer> tracers;
  std::map<std::string, Trace> traces;
  std::uint64_t records = 0;
  std::uint64_t summaries = 0;
};

std::uint64_t asU64(const obs::JsonValue& v) {
  return static_cast<std::uint64_t>(v.asNumber());
}

obs::AttrList attributes(const obs::JsonValue& v) {
  obs::AttrList out;
  if (!v.has("attributes")) return out;
  for (const auto& [k, val] : v.at("attributes").asObject()) {
    out.emplace_back(k, val.asString());
  }
  return out;
}

/// Parses a captured stream strictly: every line must be a complete JSON
/// record of a known kind. A truncated tail (killed writer, partial
/// flush) is an error — returns 3 with a file:line diagnostic; 0 on
/// success.
int loadStream(const std::string& path, CapturedStream& out) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "error: cannot open stream %s\n", path.c_str());
    return 3;
  }
  std::string text;
  std::uint64_t lineNo = 0;
  while (std::getline(in, text)) {
    ++lineNo;
    if (text.empty()) continue;
    try {
      const obs::JsonValue v = obs::JsonValue::parse(text);
      const std::string& kind = v.at("kind").asString();
      if (kind == "span") {
        obs::SpanRecord s;
        s.name = v.at("name").asString();
        s.category = v.at("category").asString();
        s.startNs = asU64(v.at("start_ns"));
        s.durationNs = asU64(v.at("duration_ns"));
        s.track = static_cast<std::uint32_t>(asU64(v.at("track")));
        s.spanId = asU64(v.at("span_id"));
        if (v.has("links")) {
          for (const obs::JsonValue& l : v.at("links").asArray()) {
            s.links.push_back(asU64(l));
          }
        }
        s.attributes = attributes(v);
        out.tracers[v.at("domain").asString()].import(std::move(s));
      } else if (kind == "instant") {
        obs::InstantRecord i;
        i.name = v.at("name").asString();
        i.category = v.at("category").asString();
        i.atNs = asU64(v.at("at_ns"));
        i.track = static_cast<std::uint32_t>(asU64(v.at("track")));
        i.attributes = attributes(v);
        out.tracers[v.at("domain").asString()].import(std::move(i));
      } else if (kind == "trace") {
        const std::string& domain = v.at("domain").asString();
        Trace& trace =
            out.traces.try_emplace(domain, std::size_t{1} << 20).first->second;
        trace.record(asU64(v.at("at_ns")),
                     traceKindByName(v.at("trace_kind").asString()),
                     v.at("detail").asString());
      } else if (kind == "stream_summary") {
        ++out.summaries;
      } else {
        throw obs::JsonError("unknown record kind '" + kind + "'");
      }
    } catch (const obs::JsonError& e) {
      std::fprintf(stderr,
                   "error: %s:%llu: truncated or invalid stream record: %s\n",
                   path.c_str(), ull(lineNo), e.what());
      return 3;
    }
    ++out.records;
  }
  return 0;
}

/// View over a CapturedStream in renderChromeTrace/renderTimelineCsv form.
obs::ChromeTraceInput capturedInput(const CapturedStream& cap) {
  obs::ChromeTraceInput input;
  const auto flow = cap.tracers.find("flow");
  if (flow != cap.tracers.end()) input.wall = &flow->second;
  for (const auto& [domain, tracer] : cap.tracers) {
    if (domain == "flow") continue;
    const auto t = cap.traces.find(domain);
    input.sim.push_back(
        {domain, &tracer, t == cap.traces.end() ? nullptr : &t->second});
  }
  for (const auto& [domain, trace] : cap.traces) {
    if (domain == "flow" || cap.tracers.count(domain) != 0) continue;
    input.sim.push_back({domain, nullptr, &trace});
  }
  return input;
}

/// Renders the timeline in --format, validating the Chrome form first
/// under --validate (exit 3 when it does not validate).
int emitTimeline(const Args& a, const obs::ChromeTraceInput& input) {
  const std::string chrome = obs::renderChromeTrace(input);
  if (a.has("validate")) {
    const std::vector<std::string> problems = obs::validateChromeTrace(chrome);
    for (const std::string& problem : problems) {
      std::fprintf(stderr, "trace: invalid: %s\n", problem.c_str());
    }
    if (!problems.empty()) return 3;
    std::fprintf(stderr, "trace: chrome trace validates clean\n");
  }
  return emitPayload(
      a, a.get("format") == "chrome" ? chrome : renderTimelineCsv(input));
}

/// One OS policy trace and report demonstrate on the caller's device:
/// `circuits` registered, then three tasks <prefix>0..2 arriving 40 us
/// apart, cycling over them, run to completion. Dynamic loading gets a
/// 100 us preemption slice so it saves and restores state.
struct PolicyRun {
  PolicyRun(FpgaPolicy policy, DeviceRig& rig, LiveStream& stream,
            const std::vector<const CompiledCircuit*>& circuits,
            const char* prefix)
      : domain(std::string("os/") + fpgaPolicyName(policy)),
        kernel(sim, rig.dev, rig.port, rig.compiler, options(policy)) {
    stream.attach(kernel, domain);
    std::vector<ConfigId> ids;
    for (const CompiledCircuit* c : circuits) {
      ids.push_back(kernel.registerConfig(*c));
    }
    const std::uint64_t cycles[3] = {30000, 20000, 12000};
    for (std::size_t i = 0; i < 3; ++i) {
      TaskSpec t;
      t.name = prefix + std::to_string(i);
      t.arrival = micros(40) * i;
      t.ops = {CpuBurst{micros(20)}, FpgaExec{ids[i % ids.size()], cycles[i]},
               CpuBurst{micros(10)}};
      kernel.addTask(std::move(t));
    }
    kernel.run();
  }
  static OsOptions options(FpgaPolicy policy) {
    OsOptions opt;
    opt.policy = policy;
    if (policy == FpgaPolicy::kDynamicLoading) opt.fpgaSlice = micros(100);
    return opt;
  }
  std::string domain;  ///< os/<policy>, the process name in the timeline
  Simulation sim;
  OsKernel kernel;
};

}  // namespace

/// Compiles the circuit and runs it under two OS policies (sliced dynamic
/// loading, variable partitions); emits the merged wall-clock + simulated
/// timeline (Perfetto-loadable). --stream additionally writes live NDJSON
/// records while the run is in flight; --from instead re-renders a
/// captured stream (exit 3 when any line is truncated or fails the strict
/// JSON parser).
int traceCmd(const Args& a) {
  // Replay path: re-render (and optionally validate) a captured NDJSON
  // stream instead of running a workload.
  if (a.has("from")) {
    CapturedStream cap;
    const int rc = loadStream(a.get("from"), cap);
    if (rc != 0) return rc;
    std::fprintf(stderr,
                 "trace: replayed %llu stream records across %zu domains"
                 " (%llu summaries)\n",
                 ull(cap.records), cap.tracers.size() + cap.traces.size(),
                 ull(cap.summaries));
    return emitTimeline(a, capturedInput(cap));
  }

  workloads::AppCircuit circuit = loadCircuit(a);
  DeviceRig rig(profileByName(a.get("device", "medium_partial")));

  // Wall-clock flow spans: every compile below lands on pid 1.
  obs::SpanTracer wall;
  obs::MetricsRegistry flowMetrics;
  rig.compiler.setObservers(&wall, &flowMetrics);

  // Live streaming: attach before anything compiles or runs so the NDJSON
  // file fills while the workload is in flight.
  LiveStream stream(a);
  if (!stream.ok()) return 3;
  stream.attach(wall, "flow");

  const CompiledCircuit primary =
      compileStrip(a, rig.compiler, circuit.netlist);
  // A second circuit so the kernels genuinely context-switch.
  const CompiledCircuit aux =
      workloads::compileMinimal(rig.compiler, trioNetlists()[1]);

  // Simulated process 1: whole-device dynamic loading (downloads, state
  // save/restore); process 2: variable column-strip partitions
  // (concurrent residency, garbage collection).
  const PolicyRun dyn(FpgaPolicy::kDynamicLoading, rig, stream,
                      {&primary, &aux}, "t");
  const PolicyRun part(FpgaPolicy::kPartitionedVariable, rig, stream,
                       {&primary, &aux}, "t");
  stream.finish("trace");

  obs::ChromeTraceInput input;
  input.wall = &wall;
  for (const PolicyRun* run : {&dyn, &part}) {
    input.sim.push_back(
        {run->domain, &run->kernel.spanTracer(), &run->kernel.trace()});
  }
  return emitTimeline(a, input);
}

/// Runs a six-technique workload and exposes every metric the substrate
/// collected. --stream additionally writes live NDJSON records and
/// publishes the vfpga_obs_flush_ns self-observation histogram (what
/// streaming itself cost); --links instead prints the compile-span ->
/// OS-span link table (exit 1 when any FPGA task resolves no link).
int reportCmd(const Args& a) {
  const std::string fmt = a.get("format");
  DeviceProfile p = profileByName(a.get("device", "medium_partial"));
  DeviceRig rig(p);
  Device& dev = rig.dev;
  ConfigPort& port = rig.port;
  Compiler& compiler = rig.compiler;

  obs::MetricsRegistry reg;
  // vfpga_flow_* phase timings; the wall tracer also gives every compile a
  // process-unique span id that the kernels' download/exec spans link back
  // to — the --links join below resolves them.
  obs::SpanTracer wall;
  compiler.setObservers(&wall, &reg);

  // --stream: live NDJSON of the wall tracer and both kernel runs. The
  // exporter's own flush cost lands in the vfpga_obs_flush_ns histogram
  // (published only when a stream is attached, so plain runs keep their
  // exact metric-family set).
  LiveStream stream(a);
  if (!stream.ok()) return 3;
  stream.attach(wall, "flow");

  // --links: per-config counts of OS spans carrying the compile span id,
  // plus a per-task verdict (>=1 linked download span for some config the
  // task names).
  struct LinkRow {
    std::string policy;
    std::string config;
    std::uint64_t compileSpan = 0;
    std::uint64_t downloads = 0;
    std::uint64_t execs = 0;
  };
  struct TaskLinks {
    std::string policy;
    std::string task;
    bool resolved = false;
  };
  std::vector<LinkRow> linkRows;
  std::vector<TaskLinks> taskLinks;
  auto collectLinks = [&linkRows, &taskLinks](OsKernel& kernel,
                                              const char* policy) {
    const std::size_t first = linkRows.size();  // row of ConfigId 0
    for (ConfigId id = 0; id < kernel.registry().size(); ++id) {
      LinkRow row{policy, kernel.registry().circuit(id).name,
                  kernel.compileSpanOf(id)};
      for (const obs::SpanRecord& s : kernel.spanTracer().spans()) {
        if (row.compileSpan == 0 ||
            std::find(s.links.begin(), s.links.end(), row.compileSpan) ==
                s.links.end()) {
          continue;
        }
        ++(s.category == "os.config" ? row.downloads : row.execs);
      }
      linkRows.push_back(std::move(row));
    }
    for (const TaskRuntime& t : kernel.tasks()) {
      TaskLinks tl{policy, t.spec.name};
      for (const TaskOp& op : t.spec.ops) {
        const FpgaExec* fx = std::get_if<FpgaExec>(&op);
        if (fx != nullptr && linkRows[first + fx->config].downloads > 0) {
          tl.resolved = true;
        }
      }
      taskLinks.push_back(std::move(tl));
    }
  };

  const auto [count, csum, lfsr] = compileTrio(compiler);

  // Techniques 1+2 through the kernel: sliced dynamic loading, then
  // variable partitions. Each run's registry merges in under its policy
  // label.
  for (const FpgaPolicy policy :
       {FpgaPolicy::kDynamicLoading, FpgaPolicy::kPartitionedVariable}) {
    const bool dynamic = policy == FpgaPolicy::kDynamicLoading;
    PolicyRun run(policy, rig, stream,
                  dynamic ? std::vector{&count, &csum}
                          : std::vector{&count, &csum, &lfsr},
                  dynamic ? "d" : "p");
    reg.merge(run.kernel.metricsRegistry());
    if (a.has("links")) collectLinks(run.kernel, fpgaPolicyName(policy));
  }
  // Standalone manager exercises for the remaining techniques (the §2
  // tour), snapshotted via publishMetrics.
  {
    ConfigRegistry cfgs(dev);
    DynamicLoader loader(dev, port, cfgs);
    const ConfigId la = cfgs.add(count);
    const ConfigId lb = cfgs.add(csum);
    loader.activate(la, la);
    loader.activate(lb, lb);
    loader.activate(la, la);
    publishMetrics(loader, reg);
  }
  {
    ConfigRegistry cfgs(dev);
    PartitionManager pm(dev, port, cfgs, compiler, {});
    pm.load(cfgs.add(count));
    pm.load(cfgs.add(csum));
    pm.load(cfgs.add(lfsr));
    publishMetrics(pm, reg);
  }
  {
    OverlayManager om(dev, port, compiler, 4);
    om.installResident(csum);
    const OverlayId f1 = om.addOverlay(count);
    const OverlayId f2 = om.addOverlay(lfsr);
    om.invoke(f1);
    om.invoke(f1);
    om.invoke(f2);
    om.invoke(f1);
    publishMetrics(om, reg);
  }
  {
    SegmentManager sm(dev, port, compiler);
    std::vector<SegmentId> segs;
    for (int i = 0; i < 3; ++i) {
      Netlist nl = lib::makeChecksum(4);
      nl.setName("seg" + std::to_string(i));
      segs.push_back(sm.addSegment(
          compiler.compile(nl, Region::columns(dev.geometry(), 0, 5))));
    }
    for (SegmentId s : {segs[0], segs[1], segs[0], segs[2], segs[0]}) {
      sm.access(s);
    }
    publishMetrics(sm, reg);
  }
  {
    PageManager pg(p.port, dev.configMap().frameBits(),
                   PageManagerOptions{4, 32, ReplacementPolicy::kLru});
    const ConfigId big = pg.addFunction(112);
    const ConfigId sml = pg.addFunction(20);
    pg.access(big);
    pg.access(sml);
    pg.access(big);
    publishMetrics(pg, reg);
  }
  {
    ConfigRegistry cfgs(dev);
    PrefetchLoader pf(dev, port, cfgs, compiler);
    const ConfigId fa = cfgs.add(count);
    const ConfigId fb = cfgs.add(csum);
    SimTime now = 0;
    for (int i = 0; i < 8; ++i) {
      pf.activate(i % 2 ? fb : fa, now);
      now += millis(50);
    }
    publishMetrics(pf, reg);
  }
  {
    IoMux mux(IoMuxSpec{16, nanos(50), nanos(20), nanos(5)});
    mux.rebind(64);
    mux.transfer(64);
    mux.transfer(64);
    publishMetrics(mux, reg);
  }
  {
    // Compiled fast path: replay two circuits back to back on a scratch
    // device (build, invalidation on the reconfiguration, rebuild) plus
    // one forced interpretive service, so every
    // vfpga_sim_compiled_*_total family carries signal.
    Device cdev = p.makeDevice();
    compiled::CompiledKernelCache kcache(16);
    compiled::CompiledFabric engine(cdev, &kcache);
    for (const CompiledCircuit* c : {&count, &csum}) {
      cdev.applyBitstream(c->fullBitstream());
      for (int i = 0; i < 256; ++i) {
        cdev.evaluate();
        cdev.tick();
      }
    }
    cdev.setFastPathInhibited(true);
    cdev.evaluate();
    cdev.setFastPathInhibited(false);
    publishMetrics(engine, reg);
  }
  stream.finish("report", &reg);

  if (a.has("links")) {
    std::size_t resolved = 0;
    for (const TaskLinks& t : taskLinks) resolved += t.resolved ? 1 : 0;
    std::ostringstream os;
    if (fmt == "json") {
      os << "{\n\"configs\":[";
      for (std::size_t i = 0; i < linkRows.size(); ++i) {
        const LinkRow& r = linkRows[i];
        os << (i ? ",\n" : "\n") << "{\"policy\":\"" << obs::jsonEscape(r.policy)
           << "\",\"config\":\"" << obs::jsonEscape(r.config)
           << "\",\"compile_span\":" << r.compileSpan
           << ",\"download_spans\":" << r.downloads
           << ",\"exec_spans\":" << r.execs << "}";
      }
      os << "\n],\n\"tasks\":[";
      for (std::size_t i = 0; i < taskLinks.size(); ++i) {
        const TaskLinks& t = taskLinks[i];
        os << (i ? ",\n" : "\n") << "{\"policy\":\"" << obs::jsonEscape(t.policy)
           << "\",\"task\":\"" << obs::jsonEscape(t.task)
           << "\",\"resolved\":" << (t.resolved ? "true" : "false") << "}";
      }
      os << "\n]\n}\n";
    } else {
      ReportText r;
      r.line("span links (compile -> OS)\n");
      r.line("==========================\n");
      r.line("%-22s %-8s %12s %10s %10s\n", "policy", "config",
             "compile_span", "downloads", "execs");
      for (const LinkRow& row : linkRows) {
        r.line("%-22s %-8s %12llu %10llu %10llu\n", row.policy.c_str(),
               row.config.c_str(), ull(row.compileSpan), ull(row.downloads),
               ull(row.execs));
      }
      r.line("\ntask link coverage\n");
      for (const TaskLinks& t : taskLinks) {
        r.line("%-22s %-8s %s\n", t.policy.c_str(), t.task.c_str(),
               t.resolved ? "resolved" : "UNRESOLVED");
      }
      r.line("resolved: %zu/%zu tasks\n", resolved, taskLinks.size());
      os << r.str();
    }
    std::fprintf(stderr,
                 "report: %zu/%zu tasks resolved a compile->download link\n",
                 resolved, taskLinks.size());
    const bool allResolved = resolved == taskLinks.size() && !taskLinks.empty();
    return emitPayload(a, os.str(), allResolved ? 0 : 1);
  }

  std::fprintf(stderr, "report: %zu metric families, %zu series\n",
               reg.familyCount(), reg.size());
  if (a.has("min-names")) {
    const std::uint64_t need = a.count("min-names", 0);
    if (reg.familyCount() < need) {
      std::fprintf(stderr,
                   "report: only %zu metric families (< %llu required)\n",
                   reg.familyCount(), ull(need));
      return 3;
    }
  }
  const std::string payload = fmt == "prometheus" ? obs::renderPrometheus(reg)
                              : fmt == "csv"      ? obs::renderCsv(reg)
                                                  : obs::renderMetricsJson(reg);
  return emitPayload(a, payload);
}

}  // namespace vfpga::cli
