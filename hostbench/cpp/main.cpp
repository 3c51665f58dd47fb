// hostbench: host-time benchmark of the virtual-FPGA stack.
//
//   hostbench --workload <cad_verify|os_campaign|fabric_replay> --seed N
//             --seconds S --trace <0|1>
//   hostbench --self-check [--seed N]
//
// One single-threaded closed-loop client: one operation in flight, no
// think time. --trace 0 measures the end-to-end metrics with tracing off;
// --trace 1 alternates untraced and traced passes over the pool and
// reports per-layer self times and counts, the share of operation time no
// span covers, and the tracing overhead. Every operation's output is
// checked outside the timed region. The last line of stdout is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
// See ../NOTES.md for the workloads, the metrics and what each layer
// metric should move.
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/diagnostics.hpp"
#include "harness.hpp"
#include "obs/profile/flamegraph.hpp"

namespace hostbench {
namespace {

using vfpga::obs::SpanTracer;

struct WorkloadSpec {
  const char* name;
  std::unique_ptr<Workload> (*make)(std::uint64_t seed, SpanTracer* trace);
};

const WorkloadSpec kWorkloads[] = {
    {"cad_verify", makeCadVerify},
    {"os_campaign", makeOsCampaign},
    {"fabric_replay", makeFabricReplay},
};

/// An untraced run sets up at least this many times and for at least this
/// long; setup_s is the median. Short set-ups repeat more often, so their
/// median is as steady as that of long ones.
constexpr std::size_t kSetupMinRepeats = 5;
constexpr double kSetupMinSeconds = 1.0;
/// A window keeps going past its deadline until every pool entry ran once,
/// but never longer than this.
constexpr double kCoverageGraceS = 30.0;
struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// The deterministic model metrics every workload reports (means over the
/// pool of the per-operation values).
const char* const kModelMetrics[][2] = {
    {"crit_path_ns", "ns"},
    {"sim_makespan_ms", "ms"},
    {"sim_mean_wait_ms", "ms"},
};

/// Per-layer metrics of the traced run. Self times are per-operation means
/// over the traced passes; counts are per-operation means over the pool.
const char* const kLayerMetrics[][2] = {
    {"netlist.optimize_ms", "ms"},
    {"techmap.self_ms", "ms"},
    {"place.self_ms", "ms"},
    {"route.self_ms", "ms"},
    {"compile.bitstream_ms", "ms"},
    {"compile.self_ms", "ms"},
    {"route.iterations", "count"},
    {"route.nodes_expanded", "count"},
    {"fabric.download_ms", "ms"},
    {"fabric.device_ms", "ms"},
    {"analysis_equiv.check_ms", "ms"},
    {"analysis_equiv.cones_exhaustive", "count"},
    {"analysis_equiv.vectors_exhaustive", "count"},
    {"analysis_equiv.cones_structural", "count"},
    {"analysis_equiv.cones_bdd", "count"},
    {"analysis_equiv.bdd_nodes", "count"},
    {"analysis_equiv.cones_seqsim", "count"},
    {"analysis_equiv.fully_proven_frac", "ratio"},
    {"core.boot_ms", "ms"},
    {"core.register_ms", "ms"},
    {"core.run_ms", "ms"},
    {"core.downloads", "count"},
    {"core.bits_downloaded", "bits"},
    {"core.gc_runs", "count"},
    {"core.relocations", "count"},
    {"core.trace_records", "count"},
    {"core.spans", "count"},
    {"fault.scrub_runs", "count"},
    {"fault.scrub_deferred", "count"},
    {"obs.export_ms", "ms"},
    {"obs.export_bytes", "bytes"},
    {"sim_compiled.resolve_ms", "ms"},
    {"sim_compiled.scalar_ms", "ms"},
    {"sim_compiled.batch_ms", "ms"},
    {"sim_compiled.builds", "count"},
    {"sim_compiled.hits", "count"},
    {"sim_compiled.fallbacks", "count"},
    {"sim_compiled.program_ops", "count"},
    {"sim_compiled.cycles", "count"},
    {"fabric.interp_ms", "ms"},
    {"workloads.gen_ms", "ms"},
    {"setup.compile_ms", "ms"},
    {"trace.unattributed_frac", "ratio"},
    {"trace.overhead_frac", "ratio"},
    {"trace.untraced_op_p50_ms", "ms"},
    {"trace.traced_op_p50_ms", "ms"},
    {"trace.spans_per_op", "count"},
};

/// Per-layer metric of a span's self time. The compiler's flow phases map
/// to the modules that do the work; the benchmark's own spans are named
/// "<layer>.<call>" already.
std::string selfMetricName(const std::string& span) {
  static const std::map<std::string, std::string> kFlow = {
      {"synth", "netlist.optimize_ms"},  {"techmap", "techmap.self_ms"},
      {"place", "place.self_ms"},        {"route", "route.self_ms"},
      {"bitstream", "compile.bitstream_ms"}, {"compile", "compile.self_ms"}};
  const auto it = kFlow.find(span);
  return it != kFlow.end() ? it->second : span + "_ms";
}

/// Self time per span name over every span `tracer` holds, read from the
/// repository's collapsed-stack fold (obs::profile): a span's duration
/// minus the time its direct children cover.
std::map<std::string, double> selfNsByName(const SpanTracer& tracer) {
  vfpga::obs::profile::FlamegraphInput in;
  in.tracer = &tracer;
  std::istringstream lines(vfpga::obs::profile::renderCollapsedStacks(in));
  std::map<std::string, double> out;
  for (std::string line; std::getline(lines, line);) {
    const std::size_t space = line.rfind(' ');
    const std::size_t frame = line.rfind(';', space);
    out[line.substr(frame + 1, space - frame - 1)] +=
        std::stod(line.substr(space + 1));
  }
  return out;
}

/// Linear-interpolated quantile of a sorted sample.
double percentile(const std::vector<double>& sorted, double q) {
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  if (frac == 0 || lo + 1 >= sorted.size()) return sorted[lo];
  return sorted[lo] + (sorted[lo + 1] - sorted[lo]) * frac;
}

/// Linear-interpolated quantile of an unsorted sample.
double quantileOf(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  return percentile(v, q);
}

/// The CPUs this process may run on. Passes rotate over them: on a shared
/// host, some CPUs are slowed by other tenants at any moment, and which
/// ones changes over minutes. Rotating lets every pool entry run on all of
/// them, instead of whichever CPU the scheduler happened to leave it on.
class CpuRotation {
 public:
  CpuRotation() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) cpus_.push_back(c);
      }
    }
  }
  std::size_t size() const { return cpus_.size(); }
  /// Moves this thread to the `k`-th allowed CPU (cyclically).
  void pin(std::size_t k) const {
    if (cpus_.empty()) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpus_[k % cpus_.size()], &set);
    sched_setaffinity(0, sizeof(set), &set);
  }

 private:
  std::vector<int> cpus_;
};

/// Correctness state shared by every window of one run: the first values
/// each pool entry produced (later runs of the entry must repeat them).
struct RunState {
  std::vector<std::optional<Values>> first;
  bool wrong = false;
  std::vector<std::string> problems;

  void problem(std::string p) {
    wrong = true;
    if (problems.size() < 8) problems.push_back(std::move(p));
  }
};

/// The operations of one measuring window. The end-to-end metrics are
/// taken over all of them: `ops_per_s` is successful operations per second
/// of operation time; `op_p50_ms`/`op_p90_ms` are percentiles of every
/// operation's latency, failed operations sorting last as +inf.
struct Window {
  std::vector<double> latencyMs;
  double timedNs = 0;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::map<std::string, std::size_t> causes;

  double opsPerS() const {
    return static_cast<double>(attempted - failed) / (timedNs / 1e9);
  }
  double latency(double q) const { return quantileOf(latencyMs, q); }
  double meanMs() const { return timedNs / 1e6 / double(attempted); }
};

/// Runs one pool entry and checks it. Returns the timed duration (ns), or
/// nothing when the operation threw. When tracing, the operation runs in
/// an "op" span carrying its id; every span of the call nests inside it.
std::optional<std::uint64_t> runChecked(Workload& w, std::size_t entry,
                                        SpanTracer* trace, std::uint64_t opId,
                                        OpCheck& chk, Values& values,
                                        RunState& st) {
  const std::uint64_t t0 = nowNs();
  try {
    std::optional<SpanTracer::Scoped> op;
    if (trace != nullptr) {
      op.emplace(trace->scoped("op", "hostbench",
                               {{"op", std::to_string(opId)}}));
    }
    w.run(entry, trace);
  } catch (const std::exception& e) {
    chk.failed = true;
    chk.cause = "exception";
    st.problem(std::string("entry ") + std::to_string(entry) +
               " threw: " + e.what());
    w.reset();
    return std::nullopt;
  }
  const std::uint64_t t1 = nowNs();
  try {
    chk = w.check(entry, values);
  } catch (const std::exception& e) {
    chk.failed = chk.wrong = true;
    chk.cause = "check_exception";
    st.problem("entry " + std::to_string(entry) +
               " check threw: " + e.what());
    values.clear();
  }
  w.reset();
  if (chk.wrong) {
    st.problem("entry " + std::to_string(entry) + ": " + chk.cause);
  }
  return t1 - t0;
}

/// One timed operation on `entry`, checked and booked into `win`. Every
/// later run of an entry must repeat the values of its first run.
void timedOp(Workload& w, std::size_t entry, SpanTracer* trace, RunState& st,
             Window& win, std::uint64_t& opId) {
  OpCheck chk;
  Values values;
  const std::optional<std::uint64_t> ns =
      runChecked(w, entry, trace, ++opId, chk, values, st);
  ++win.attempted;
  win.timedNs += ns ? static_cast<double>(*ns) : 0.0;
  if (chk.failed || !ns) {
    ++win.failed;
    ++win.causes[chk.cause];
    win.latencyMs.push_back(std::numeric_limits<double>::infinity());
  } else {
    win.latencyMs.push_back(static_cast<double>(*ns) / 1e6);
  }
  if (!ns) return;
  std::optional<Values>& first = st.first[entry];
  if (!first) {
    first = values;
  } else if (*first != values) {
    std::string what = "entry " + std::to_string(entry) +
                       " produced different values on a repeat run:";
    for (std::size_t i = 0; i < values.size() && i < first->size(); ++i) {
      if (values[i] != (*first)[i]) what += " " + values[i].first;
    }
    st.problem(what);
  }
}

/// Untraced closed loop over the pool for `seconds` of wall time, and at
/// least one whole pass over the pool. Each pass runs on the next CPU.
Window runWindow(Workload& w, double seconds, RunState& st,
                 const CpuRotation& cpus) {
  const std::size_t pool = w.poolSize();
  Window win;
  std::uint64_t opId = 0;
  const auto deadline = nowNs() + static_cast<std::uint64_t>(seconds * 1e9);
  const auto hardStop =
      deadline + static_cast<std::uint64_t>(kCoverageGraceS * 1e9);
  for (std::size_t k = 0;; ++k) {
    const std::uint64_t t = nowNs();
    if (t >= hardStop || (t >= deadline && k >= pool)) break;
    if (k % pool == 0) cpus.pin(k / pool);
    timedOp(w, k % pool, nullptr, st, win, opId);
  }
  if (win.attempted < pool) {
    st.problem("window ended before every pool entry ran");
  }
  return win;
}

/// The traced run's loop: whole passes over the pool, alternately untraced
/// and traced, so both see the same entries under the same machine
/// conditions; ends after an equal number of each (at least one).
void runAlternating(Workload& w, double seconds, SpanTracer& tracer,
                    RunState& st, const CpuRotation& cpus, Window& plain,
                    Window& traced) {
  std::uint64_t opId = 0;
  const auto deadline = nowNs() + static_cast<std::uint64_t>(seconds * 1e9);
  const auto hardStop =
      deadline + static_cast<std::uint64_t>(kCoverageGraceS * 1e9);
  for (int pass = 0;; ++pass) {
    const bool tracing = pass % 2 == 1;
    const std::uint64_t t = nowNs();
    if (!tracing && t >= deadline && pass >= 2) break;
    if (t >= hardStop) {
      st.problem("traced run ended with unequal traced and untraced passes");
      break;
    }
    cpus.pin(pass / 2);  // each untraced/traced pair shares a CPU
    for (std::size_t e = 0; e < w.poolSize(); ++e) {
      timedOp(w, e, tracing ? &tracer : nullptr, st, tracing ? traced : plain,
              opId);
    }
  }
}

/// Untimed warm-up: the workload's warm-up entries, each checked.
void warmUp(Workload& w, RunState& st) {
  for (std::size_t i = 0; i < w.warmupOps(); ++i) {
    OpCheck chk;
    Values values;
    runChecked(w, i % w.poolSize(), nullptr, 0, chk, values, st);
  }
}

/// Per-operation means over the pool of the values the entries produced.
std::map<std::string, double> poolMeans(const RunState& st) {
  std::map<std::string, std::pair<double, std::size_t>> acc;
  for (const std::optional<Values>& v : st.first) {
    if (!v) continue;
    for (const auto& [name, value] : *v) {
      acc[name].first += value;
      ++acc[name].second;
    }
  }
  std::map<std::string, double> out;
  for (const auto& [name, sn] : acc) out[name] = sn.first / double(sn.second);
  return out;
}

void printWindow(const char* label, const Window& win) {
  std::printf("%s: ops=%zu failed=%zu p50=%.4f ms p90=%.4f ms mean=%.4f ms "
              "ops_per_s=%.3f\n",
              label, win.attempted, win.failed, win.latency(0.5),
              win.latency(0.9), win.meanMs(), win.opsPerS());
  std::printf("  deciles ms:");
  for (int d = 1; d <= 9; ++d) std::printf(" %.3f", win.latency(d / 10.0));
  std::printf("\n");
  for (const auto& [cause, n] : win.causes) {
    std::printf("  failed %-22s %zu of %zu\n", cause.c_str(), n,
                win.attempted);
  }
}

/// The pinned checker false alarm: seed 1022 of the 8-input random-netlist
/// shape is a correct design, as the cad_verify operation proves and its
/// lockstep run confirms, that checkConfiguredAgainst calls "NOT equivalent
/// (fully proven)". Run through that one-call proof it is one failed
/// operation whose cause is the contradicted verdict. True while the false
/// alarm reproduces exactly so.
bool pinnedFalseAlarm() {
  const PinnedCase pin = runPinnedFalseAlarm();
  const bool asExpected = !pin.operation.failed && !pin.provenAgainstSource;
  std::printf("pinned_false_alarm netlist_seed=1022 checkConfiguredAgainst "
              "attempted=1 failed=%d cause=%s; cad_verify operation: %s "
              "(%s)\n",
              pin.provenAgainstSource ? 0 : 1,
              pin.provenAgainstSource ? "none" : "verdict_contradicted",
              pin.operation.failed ? pin.operation.cause.c_str() : "ok",
              asExpected ? "reproduced" : "NOT as expected");
  return asExpected;
}

void printResult(bool correct, std::size_t attempted, std::size_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("metric %-36s %.6g %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : -1;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit);
  }
  std::printf("}}\n");
}

/// The traced run's per-layer metrics: the set-up spans' totals, then the
/// traced passes' self times, span attributes and counts.
std::vector<Metric> layerMetrics(SpanTracer& tracer, Workload& w,
                                 double seconds, RunState& st,
                                 const CpuRotation& cpus, Window& plain,
                                 Window& traced) {
  std::map<std::string, double> values;
  for (const vfpga::obs::SpanRecord& sp : tracer.spans()) {
    const char* key = sp.name == "compile"         ? "setup.compile_ms"
                      : sp.name == "workloads.gen" ? "workloads.gen_ms"
                      : sp.name == "fabric.interp" ? "fabric.interp_ms"
                                                   : nullptr;
    if (key != nullptr) values[key] += static_cast<double>(sp.durationNs) / 1e6;
  }
  tracer.clear();

  runAlternating(w, seconds, tracer, st, cpus, plain, traced);
  printWindow("untraced passes", plain);
  printWindow("traced passes  ", traced);

  const double n = static_cast<double>(traced.attempted);
  const std::map<std::string, double> selfNs = selfNsByName(tracer);
  for (const auto& [name, ns] : selfNs) {
    if (name != "op") values[selfMetricName(name)] = ns / 1e6 / n;
  }
  // Numeric attributes of the benchmark's own spans, per operation:
  // "obs.export" {"bytes": N} -> obs.export_bytes.
  for (const vfpga::obs::SpanRecord& sp : tracer.spans()) {
    if (sp.category != "hostbench" || sp.name == "op") continue;
    for (const auto& [key, v] : sp.attributes) {
      values[sp.name + "_" + key] += std::stod(v) / n;
    }
  }
  for (const auto& [name, v] : poolMeans(st)) values[name] = v;
  const auto opSelf = selfNs.find("op");
  values["trace.unattributed_frac"] =
      (opSelf == selfNs.end() ? 0.0 : opSelf->second) / traced.timedNs;
  values["trace.overhead_frac"] = traced.meanMs() / plain.meanMs() - 1.0;
  values["trace.untraced_op_p50_ms"] = plain.latency(0.5);
  values["trace.traced_op_p50_ms"] = traced.latency(0.5);
  values["trace.spans_per_op"] =
      static_cast<double>(tracer.spans().size()) / n;

  // Every entry must repeat its values exactly across traced and untraced
  // passes, or the run is marked incorrect.
  for (const auto& [name, unit] : kModelMetrics) {
    std::printf("model %-36s %.6g %s (%s)\n", name, values[name], unit,
                st.wrong ? "see problems" : "traced == untraced");
  }
  std::vector<Metric> metrics;
  for (const auto& [name, unit] : kLayerMetrics) {
    const auto it = values.find(name);
    metrics.push_back({name, it == values.end() ? 0 : it->second, unit});
  }
  return metrics;
}

int runBenchmark(const WorkloadSpec& spec, std::uint64_t seed, double seconds,
                 bool traced) {
  RunState st;
  std::unique_ptr<Workload> w;
  SpanTracer tracer;
  const CpuRotation cpus;
  std::vector<double> setups;
  double setupTotal = 0;
  while (setups.empty() ||
         (!traced && (setups.size() < kSetupMinRepeats ||
                      setupTotal < kSetupMinSeconds))) {
    w.reset();
    cpus.pin(setups.size());
    const std::uint64_t t0 = nowNs();
    w = spec.make(seed, traced ? &tracer : nullptr);
    st.first.assign(w->poolSize(), std::nullopt);
    warmUp(*w, st);
    setups.push_back(static_cast<double>(nowNs() - t0) / 1e9);
    setupTotal += setups.back();
  }
  std::printf("setup_s: median %.4f over %zu set-ups\n",
              quantileOf(setups, 0.5), setups.size());
  std::printf("pool: %s; passes rotate over %zu CPUs\n",
              w->describe().c_str(), cpus.size());

  std::vector<Metric> metrics;
  std::size_t attempted = 0, failed = 0;
  if (!traced) {
    const Window win = runWindow(*w, seconds, st, cpus);
    printWindow("window", win);
    metrics = {
        {"ops_per_s", win.opsPerS(), "1/s"},
        {"op_p50_ms", win.latency(0.5), "ms"},
        {"op_p90_ms", win.latency(0.9), "ms"},
        {"setup_s", quantileOf(setups, 0.5), "s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
    };
    const std::map<std::string, double> means = poolMeans(st);
    for (const auto& [name, unit] : kModelMetrics) {
      const auto it = means.find(name);
      metrics.push_back({name, it == means.end() ? 0 : it->second, unit});
    }
    attempted = win.attempted;
    failed = win.failed;
  } else {
    Window plain, tracedWin;
    metrics =
        layerMetrics(tracer, *w, seconds, st, cpus, plain, tracedWin);
    attempted = plain.attempted + tracedWin.attempted;
    failed = plain.failed + tracedWin.failed;
  }

  if (spec.make == makeCadVerify) pinnedFalseAlarm();
  for (const std::string& p : st.problems) {
    std::printf("problem: %s\n", p.c_str());
  }
  printResult(!st.wrong, attempted, failed, metrics);
  return 0;
}

/// One untimed pass over the whole pool after a fresh set-up: every
/// entry's values, in pool order.
std::vector<Values> fingerprint(const WorkloadSpec& spec, std::uint64_t seed,
                                bool traced, RunState& st) {
  SpanTracer tracer;
  std::unique_ptr<Workload> w = spec.make(seed, nullptr);
  st.first.assign(w->poolSize(), std::nullopt);
  warmUp(*w, st);
  std::vector<Values> out;
  for (std::size_t e = 0; e < w->poolSize(); ++e) {
    OpCheck chk;
    Values values;
    runChecked(*w, e, traced ? &tracer : nullptr, e + 1, chk, values, st);
    out.push_back(std::move(values));
  }
  return out;
}

int selfCheck(std::uint64_t seed) {
  bool ok = true;
  auto verdict = [&](const char* what, const char* workload, bool pass) {
    std::printf("self-check %-14s %-44s %s\n", workload, what,
                pass ? "ok" : "FAILED");
    ok = ok && pass;
  };
  for (const WorkloadSpec& spec : kWorkloads) {
    RunState st;
    const std::vector<Values> a = fingerprint(spec, seed, false, st);
    const std::vector<Values> b = fingerprint(spec, seed, false, st);
    const std::vector<Values> traced = fingerprint(spec, seed, true, st);
    const std::uint64_t digestA = spec.make(seed, nullptr)->inputDigest();
    const std::uint64_t digestB = spec.make(seed + 1, nullptr)->inputDigest();
    verdict("same seed repeats every value", spec.name, a == b);
    verdict("traced run repeats every value", spec.name, a == traced);
    verdict("another seed changes the inputs", spec.name, digestA != digestB);
    verdict("no wrong results", spec.name, !st.wrong);
    for (const std::string& p : st.problems) {
      std::printf("  problem: %s\n", p.c_str());
    }
  }
  verdict("pinned false alarm reproduces", "cad_verify",
          pinnedFalseAlarm());
  std::printf("self-check %s\n", ok ? "passed" : "FAILED");
  return ok ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: hostbench --workload <cad_verify|os_campaign|"
               "fabric_replay> --seed N --seconds S --trace <0|1>\n"
               "       hostbench --self-check [--seed N]\n");
  return 2;
}

}  // namespace
}  // namespace hostbench

int main(int argc, char** argv) {
  using namespace hostbench;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool traced = false, self = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool hasValue = i + 1 < argc;
    if (a == "--self-check") {
      self = true;
    } else if (a == "--workload" && hasValue) {
      workload = argv[++i];
    } else if (a == "--seed" && hasValue) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && hasValue) {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && hasValue) {
      traced = std::strcmp(argv[++i], "0") != 0;
    } else {
      return usage();
    }
  }

  // Pin behaviour that depends on the environment: a VFPGA_CHECK_INVARIANTS
  // in the shell would add an equivalence proof to every GC relocation.
  vfpga::analysis::setInvariantChecks(false);
  std::printf("hostbench build_type=%s compiler=\"%s\" nproc=%ld "
              "invariant_checks=off\n",
              HOSTBENCH_BUILD_TYPE, HOSTBENCH_COMPILER,
              sysconf(_SC_NPROCESSORS_ONLN));
  if (self) return selfCheck(seed);
  for (const WorkloadSpec& spec : kWorkloads) {
    if (workload != spec.name) continue;
    std::printf("workload=%s seed=%llu seconds=%g trace=%d\n", spec.name,
                static_cast<unsigned long long>(seed), seconds, traced ? 1 : 0);
    return runBenchmark(spec, seed, seconds, traced);
  }
  return usage();
}
