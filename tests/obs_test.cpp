// Observability substrate: span tracer, metrics registry, exporters
// (Chrome trace_event, Prometheus text exposition, CSV) and the flight
// recorder, including the kernel's own post-mortem dump (core/obs_bridge).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "analysis/diagnostics.hpp"
#include "core/obs_bridge.hpp"
#include "core/os_kernel.hpp"
#include "fabric/device_family.hpp"
#include "netlist/library/control.hpp"
#include "obs/exporters.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/heatmap.hpp"
#include "obs/json.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/output_dir.hpp"
#include "obs/span_tracer.hpp"
#include "obs/stream.hpp"
#include "sim/stats.hpp"
#include "sim/trace.hpp"

namespace vfpga {
namespace {

/// Deterministic tracer clock: advances by a fixed step per read.
obs::SpanTracer steppedTracer(std::uint64_t step) {
  auto t = std::make_shared<std::uint64_t>(0);
  return obs::SpanTracer(
      obs::SpanTracer::Clock([t, step] { return *t += step; }));
}

TEST(SpanTracer, ScopedSpansNestAndClose) {
  obs::SpanTracer tracer = steppedTracer(10);
  {
    auto outer = tracer.scoped("outer", "test");
    EXPECT_EQ(tracer.openSpans(), 1u);
    {
      auto inner = tracer.scoped("inner", "test");
      inner.note("k", "v");
      EXPECT_EQ(tracer.openSpans(), 2u);
    }
    EXPECT_EQ(tracer.openSpans(), 1u);
  }
  ASSERT_EQ(tracer.spans().size(), 2u);
  // Spans record in completion order: inner closes first.
  const obs::SpanRecord& inner = tracer.spans()[0];
  const obs::SpanRecord& outer = tracer.spans()[1];
  EXPECT_EQ(inner.name, "inner");
  EXPECT_EQ(inner.depth, 1u);
  ASSERT_EQ(inner.attributes.size(), 1u);
  EXPECT_EQ(inner.attributes[0].first, "k");
  EXPECT_EQ(outer.name, "outer");
  EXPECT_EQ(outer.depth, 0u);
  // The outer interval contains the inner one.
  EXPECT_LE(outer.startNs, inner.startNs);
  EXPECT_GE(outer.startNs + outer.durationNs,
            inner.startNs + inner.durationNs);
}

TEST(SpanTracer, CompleteAndInstantCarryExplicitTiming) {
  obs::SpanTracer tracer = steppedTracer(1);
  tracer.complete("exec", "os.fpga_exec", 100, 50, {{"config", "c"}}, 3);
  tracer.instantAt(120, "marker", "os.trace", {}, 3);
  ASSERT_EQ(tracer.spans().size(), 1u);
  EXPECT_EQ(tracer.spans()[0].startNs, 100u);
  EXPECT_EQ(tracer.spans()[0].durationNs, 50u);
  EXPECT_EQ(tracer.spans()[0].track, 3u);
  ASSERT_EQ(tracer.instants().size(), 1u);
  EXPECT_EQ(tracer.instants()[0].atNs, 120u);
}

TEST(SpanTracer, DisabledTracerRecordsNothing) {
  obs::SpanTracer tracer = steppedTracer(1);
  tracer.setEnabled(false);
  {
    auto s = tracer.scoped("quiet", "test");
  }
  tracer.complete("quiet2", "test", 0, 1);
  tracer.instant("quiet3", "test");
  EXPECT_TRUE(tracer.spans().empty());
  EXPECT_TRUE(tracer.instants().empty());
}

TEST(MetricsRegistry, HandlesAreStableAndKeyedByLabels) {
  obs::MetricsRegistry reg;
  obs::Counter& a = reg.counter("vfpga_test_total", {{"k", "a"}});
  obs::Counter& b = reg.counter("vfpga_test_total", {{"k", "b"}});
  a.inc(2);
  b.inc(5);
  EXPECT_NE(&a, &b);
  // Re-lookup returns the same instance.
  EXPECT_EQ(&reg.counter("vfpga_test_total", {{"k", "a"}}), &a);
  EXPECT_EQ(reg.size(), 2u);
  EXPECT_EQ(reg.familyCount(), 1u);
  EXPECT_EQ(reg.counter("vfpga_test_total", {{"k", "a"}}).value(), 2u);
}

TEST(MetricsRegistry, KindConflictAndBadNameThrow) {
  obs::MetricsRegistry reg;
  reg.counter("vfpga_conflict");
  EXPECT_THROW(reg.gauge("vfpga_conflict"), std::logic_error);
  EXPECT_THROW(reg.counter("not a metric name!"), std::logic_error);
  EXPECT_THROW(reg.counter(""), std::logic_error);
}

TEST(MetricsRegistry, MergeAddsCountersAndFoldsStats) {
  obs::MetricsRegistry a;
  obs::MetricsRegistry b;
  a.counter("vfpga_m_total").inc(3);
  b.counter("vfpga_m_total").inc(4);
  a.stats("vfpga_m_ns").observe(10.0);
  b.stats("vfpga_m_ns").observe(30.0);
  a.merge(b);
  EXPECT_EQ(a.counter("vfpga_m_total").value(), 7u);
  const OnlineStats& s = a.stats("vfpga_m_ns").stats();
  EXPECT_EQ(s.count(), 2u);
  EXPECT_DOUBLE_EQ(s.min(), 10.0);
  EXPECT_DOUBLE_EQ(s.max(), 30.0);
}

TEST(ChromeTrace, GoldenEnvelopeAndNestedSpansValidate) {
  obs::SpanTracer wall = steppedTracer(100);
  {
    auto compile = wall.scoped("compile", "flow");
    {
      auto place = wall.scoped("place", "flow", {{"attempt", "1"}});
    }
  }
  Trace ring;
  ring.record(500, TraceKind::kConfigDownload, "cfg0");
  obs::SpanTracer sim(obs::SpanTracer::Clock([] { return std::uint64_t{0}; }));
  sim.complete("exec", "os.fpga_exec", 1000, 2000, {}, 1);
  sim.complete("download", "os.config", 1200, 300, {}, 1);  // nested

  obs::ChromeTraceInput input;
  input.wall = &wall;
  input.sim.push_back({"kernel", &sim, &ring});
  const std::string json = obs::renderChromeTrace(input);

  // Structural self-validation finds nothing wrong.
  EXPECT_TRUE(obs::validateChromeTrace(json).empty());

  // Golden-schema spot checks through the strict JSON parser.
  const obs::JsonValue doc = obs::JsonValue::parse(json);
  ASSERT_TRUE(doc.isObject());
  const obs::JsonValue& events = doc.at("traceEvents");
  ASSERT_TRUE(events.isArray());
  bool sawWallMeta = false, sawKernelMeta = false, sawExec = false,
       sawInstant = false;
  for (const obs::JsonValue& e : events.asArray()) {
    const std::string ph = e.at("ph").asString();
    if (ph == "M" && e.at("pid").asNumber() == 1) sawWallMeta = true;
    if (ph == "M" && e.at("pid").asNumber() == 2) sawKernelMeta = true;
    if (ph == "X" && e.at("name").asString() == "exec") {
      sawExec = true;
      EXPECT_DOUBLE_EQ(e.at("ts").asNumber(), 1.0);   // 1000 ns -> 1 us
      EXPECT_DOUBLE_EQ(e.at("dur").asNumber(), 2.0);  // 2000 ns -> 2 us
      EXPECT_EQ(e.at("pid").asNumber(), 2.0);
    }
    if (ph == "i") sawInstant = true;
  }
  EXPECT_TRUE(sawWallMeta);
  EXPECT_TRUE(sawKernelMeta);
  EXPECT_TRUE(sawExec);
  EXPECT_TRUE(sawInstant);
}

TEST(ChromeTrace, ValidatorRejectsPartialOverlap) {
  obs::SpanTracer sim(obs::SpanTracer::Clock([] { return std::uint64_t{0}; }));
  // [0,100) and [50,150) on one track: partial overlap cannot nest.
  sim.complete("a", "t", 0, 100, {}, 1);
  sim.complete("b", "t", 50, 100, {}, 1);
  obs::ChromeTraceInput input;
  input.sim.push_back({"p", &sim, nullptr});
  const auto problems = obs::validateChromeTrace(obs::renderChromeTrace(input));
  EXPECT_FALSE(problems.empty());
}

TEST(Prometheus, RoundTripPreservesEveryScalar) {
  obs::MetricsRegistry reg;
  reg.counter("vfpga_rt_total", {{"policy", "x"}}, "a counter").inc(42);
  reg.gauge("vfpga_rt_gauge", {}, "a gauge").set(2.5);
  obs::StatsMetric& st = reg.stats("vfpga_rt_ns", {}, "a summary");
  st.observe(1.0);
  st.observe(3.0);
  obs::HistogramMetric& h =
      reg.histogram("vfpga_rt_hist", 0.0, 10.0, 5, {}, "a histogram");
  h.observe(1.0);
  h.observe(9.0);

  const std::string text = obs::renderPrometheus(reg);
  const std::vector<obs::PromSample> samples = obs::parsePrometheus(text);

  auto find = [&](const std::string& name,
                  const obs::Labels& labels) -> const obs::PromSample* {
    for (const obs::PromSample& s : samples) {
      if (s.name == name && s.labels == labels) return &s;
    }
    return nullptr;
  };
  const obs::PromSample* c = find("vfpga_rt_total", {{"policy", "x"}});
  ASSERT_NE(c, nullptr);
  EXPECT_DOUBLE_EQ(c->value, 42.0);
  const obs::PromSample* g = find("vfpga_rt_gauge", {});
  ASSERT_NE(g, nullptr);
  EXPECT_DOUBLE_EQ(g->value, 2.5);
  const obs::PromSample* cnt = find("vfpga_rt_ns_count", {});
  ASSERT_NE(cnt, nullptr);
  EXPECT_DOUBLE_EQ(cnt->value, 2.0);
  const obs::PromSample* mn = find("vfpga_rt_ns", {{"quantile", "0"}});
  ASSERT_NE(mn, nullptr);
  EXPECT_DOUBLE_EQ(mn->value, 1.0);
  const obs::PromSample* inf = find("vfpga_rt_hist_bucket", {{"le", "+Inf"}});
  ASSERT_NE(inf, nullptr);
  EXPECT_DOUBLE_EQ(inf->value, 2.0);
  const obs::PromSample* hsum = find("vfpga_rt_hist_sum", {});
  ASSERT_NE(hsum, nullptr);
  EXPECT_DOUBLE_EQ(hsum->value, 10.0);
}

// Pinned golden exposition: cumulative `le` buckets, `+Inf` == `_count`,
// `_sum`, and the derived percentile gauges as their own trailing families
// (exposition format requires every sample of a family to sit contiguously
// under a single TYPE header).
TEST(Prometheus, GoldenHistogramExposition) {
  obs::MetricsRegistry reg;
  reg.counter("vfpga_gold_total", {{"dev", "0"}}, "jobs").inc(3);
  obs::HistogramMetric& h =
      reg.histogram("vfpga_gold_wait_ns", 0.0, 10.0, 5, {}, "wait");
  h.observe(1.0);
  h.observe(3.0);
  h.observe(25.0);  // clamps into the last bucket

  const std::string expected =
      "# HELP vfpga_gold_total jobs\n"
      "# TYPE vfpga_gold_total counter\n"
      "vfpga_gold_total{dev=\"0\"} 3\n"
      "# HELP vfpga_gold_wait_ns wait\n"
      "# TYPE vfpga_gold_wait_ns histogram\n"
      "vfpga_gold_wait_ns_bucket{le=\"2\"} 1\n"
      "vfpga_gold_wait_ns_bucket{le=\"4\"} 2\n"
      "vfpga_gold_wait_ns_bucket{le=\"6\"} 2\n"
      "vfpga_gold_wait_ns_bucket{le=\"8\"} 2\n"
      "vfpga_gold_wait_ns_bucket{le=\"10\"} 3\n"
      "vfpga_gold_wait_ns_bucket{le=\"+Inf\"} 3\n"
      "vfpga_gold_wait_ns_sum 29\n"
      "vfpga_gold_wait_ns_count 3\n"
      "# TYPE vfpga_gold_wait_ns_p50 gauge\n"
      "vfpga_gold_wait_ns_p50 3\n"
      "# TYPE vfpga_gold_wait_ns_p90 gauge\n"
      "vfpga_gold_wait_ns_p90 9\n"
      "# TYPE vfpga_gold_wait_ns_p99 gauge\n"
      "vfpga_gold_wait_ns_p99 9\n";
  EXPECT_EQ(obs::renderPrometheus(reg), expected);
}

// Conformance invariants every exposition must keep, checked through the
// strict parser: bucket counts are cumulative (monotonically non-decreasing
// in `le` order) and the `+Inf` bucket equals `_count` exactly.
TEST(Prometheus, HistogramBucketsAreCumulativeAndInfMatchesCount) {
  obs::MetricsRegistry reg;
  obs::HistogramMetric& h =
      reg.histogram("vfpga_conf_ns", 0.0, 100.0, 8, {{"dev", "1"}}, "lat");
  for (double v : {5.0, 5.0, 37.0, 61.0, 61.0, 61.0, 99.0, 250.0}) {
    h.observe(v);
  }
  const std::vector<obs::PromSample> samples =
      obs::parsePrometheus(obs::renderPrometheus(reg));
  auto label = [](const obs::PromSample& s, const std::string& key) {
    for (const auto& [k, v] : s.labels) {
      if (k == key) return v;
    }
    return std::string();
  };
  double prev = 0.0;
  double infValue = -1.0;
  double countValue = -2.0;
  std::size_t buckets = 0;
  for (const obs::PromSample& s : samples) {
    if (s.name == "vfpga_conf_ns_bucket") {
      ++buckets;
      EXPECT_GE(s.value, prev) << "non-cumulative at le=" << label(s, "le");
      prev = s.value;
      if (label(s, "le") == "+Inf") infValue = s.value;
    } else if (s.name == "vfpga_conf_ns_count") {
      countValue = s.value;
    }
  }
  EXPECT_EQ(buckets, 9u);  // 8 finite bounds + +Inf
  EXPECT_DOUBLE_EQ(infValue, 8.0);
  EXPECT_DOUBLE_EQ(infValue, countValue);
}

TEST(Exporters, CsvAndJsonSnapshots) {
  obs::MetricsRegistry reg;
  reg.counter("vfpga_csv_total", {{"k", "v"}}).inc(7);
  reg.gauge("vfpga_csv_gauge").set(1.25);
  const std::string csv = obs::renderCsv(reg);
  EXPECT_NE(csv.find("vfpga_csv_total,\"k=v\",counter,value,7"),
            std::string::npos);
  EXPECT_NE(csv.find("vfpga_csv_gauge"), std::string::npos);

  const obs::JsonValue arr = obs::JsonValue::parse(obs::renderMetricsJson(reg));
  ASSERT_TRUE(arr.isArray());
  ASSERT_EQ(arr.asArray().size(), 2u);
}

TEST(FlightRecorder, BundleCarriesRuleTraceTailAndMetrics) {
  Trace ring;
  for (int i = 0; i < 10; ++i) {
    ring.record(static_cast<SimTime>(i), TraceKind::kInfo,
                "r" + std::to_string(i));
  }
  obs::MetricsRegistry reg;
  reg.counter("vfpga_fr_total").inc(9);

  obs::FlightRecorder::Options opt;
  opt.traceTail = 4;
  obs::FlightRecorder fr(opt);
  fr.attachTrace(&ring);
  fr.attachRegistry(&reg);

  const std::string bundle = fr.renderBundle("AL002", "unit test", "{}");
  const obs::JsonValue doc = obs::JsonValue::parse(bundle);
  EXPECT_EQ(doc.at("rule_id").asString(), "AL002");
  EXPECT_EQ(doc.at("context").asString(), "unit test");
  ASSERT_TRUE(doc.at("trace_tail").isArray());
  // Only the newest traceTail records survive.
  EXPECT_EQ(doc.at("trace_tail").asArray().size(), 4u);
  EXPECT_EQ(doc.at("trace_tail").asArray().back().at("detail").asString(),
            "r9");
  ASSERT_TRUE(doc.at("metrics").isArray());
  EXPECT_EQ(doc.at("metrics").asArray().size(), 1u);
}

/// A kernel on its own medium device running one counter task named
/// `task`, so its trace records say whose they are.
struct KernelRig {
  explicit KernelRig(const std::string& task)
      : profile(mediumPartialProfile()), dev(profile.makeDevice()),
        port(dev, profile.port), compiler(dev),
        kernel(sim, dev, port, compiler, OsOptions{}) {
    Netlist nl = lib::makeCounter(6);
    nl.setName(task + "_cfg");
    const ConfigId cfg = kernel.registerConfig(
        compiler.compile(nl, Region::columns(dev.geometry(), 0, 4)));
    TaskSpec t;
    t.name = task;
    t.ops = {CpuBurst{micros(20)}, FpgaExec{cfg, 5000}, CpuBurst{micros(20)}};
    kernel.addTask(std::move(t));
  }
  DeviceProfile profile;
  Device dev;
  ConfigPort port;
  Compiler compiler;
  Simulation sim;
  OsKernel kernel;
};

TEST(FlightRecorder, InvariantViolationDumpsTheFailingKernelsOwnRecorder) {
  const std::string dir = ::testing::TempDir() + "/vfpga_own_recorder";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  setenv("VFPGA_FLIGHT_DIR", dir.c_str(), 1);

  KernelRig failing("victim");
  // Seed a defect the way a manager's verifier would report it, from a
  // monitor tick of the failing kernel.
  failing.kernel.setMonitorTick(micros(100), [](SimTime at) {
    if (at < micros(300)) return;
    analysis::Report rep;
    rep.add("AL002", "seeded zero-width strip");
    analysis::throwIfErrors(rep, "obs_test monitor tick");
  });
  // Constructed last and alive throughout: a process-wide recorder slot
  // would point here.
  KernelRig bystander("bystander");
  bystander.kernel.run();

  EXPECT_THROW(failing.kernel.run(), analysis::InvariantViolation);
  EXPECT_EQ(failing.kernel.flightRecorder().dumpCount(), 1u);
  EXPECT_EQ(bystander.kernel.flightRecorder().dumpCount(), 0u);

  const std::string path = dir + "/vfpga_flight_AL002_0.json";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "expected bundle at " << path;
  std::stringstream buf;
  buf << in.rdbuf();
  const obs::JsonValue doc = obs::JsonValue::parse(buf.str());
  EXPECT_EQ(doc.at("rule_id").asString(), "AL002");
  EXPECT_EQ(doc.at("context").asString(), "obs_test monitor tick");
  ASSERT_TRUE(doc.at("diagnostics").isObject());
  EXPECT_NE(buf.str().find("seeded zero-width strip"), std::string::npos);
  // The trace tail is the failing kernel's own.
  ASSERT_TRUE(doc.at("trace_tail").isArray());
  ASSERT_FALSE(doc.at("trace_tail").asArray().empty());
  EXPECT_NE(buf.str().find("victim"), std::string::npos);
  EXPECT_EQ(buf.str().find("bystander"), std::string::npos);
}

TEST(Histogram, PercentileEmptySingleAndDuplicateHeavy) {
  // Empty: every percentile collapses to the low edge.
  Histogram empty(0.0, 10.0, 10);
  EXPECT_EQ(empty.percentile(50), 0.0);
  EXPECT_EQ(empty.percentile(99), 0.0);

  // One sample: every percentile is that sample's bucket midpoint, and
  // out-of-range p clamps instead of misbehaving.
  Histogram one(0.0, 10.0, 10);
  one.add(5.0);
  EXPECT_DOUBLE_EQ(one.percentile(50), 5.5);
  EXPECT_DOUBLE_EQ(one.percentile(100), 5.5);
  EXPECT_DOUBLE_EQ(one.percentile(150), 5.5);  // clamps to p100
  // Clamps to p0, which is the sample's own bucket (the first *non-empty*
  // one), not bucket 0.
  EXPECT_DOUBLE_EQ(one.percentile(-5), 5.5);

  // All samples clamped into the overflow bucket: every percentile —
  // including p0 — reports the overflow bucket's midpoint.
  Histogram overflow(0.0, 10.0, 10);
  overflow.add(50.0);
  overflow.add(99.0);
  EXPECT_DOUBLE_EQ(overflow.percentile(0), 9.5);
  EXPECT_DOUBLE_EQ(overflow.percentile(50), 9.5);
  EXPECT_DOUBLE_EQ(overflow.percentile(100), 9.5);

  // Duplicate-heavy: the mode dominates up through p99; only p100 reaches
  // the lone outlier.
  Histogram heavy(0.0, 10.0, 10);
  for (int i = 0; i < 100; ++i) heavy.add(5.0);
  heavy.add(9.0);
  EXPECT_DOUBLE_EQ(heavy.percentile(50), 5.5);
  EXPECT_DOUBLE_EQ(heavy.percentile(99), 5.5);
  EXPECT_DOUBLE_EQ(heavy.percentile(100), 9.5);
}

TEST(MetricsRegistry, CardinalityGuardCollapsesOverflowSeries) {
  obs::MetricsRegistry reg;
  reg.setMaxSeriesPerFamily(2);
  reg.counter("vfpga_guarded_total", {{"k", "a"}}).inc();
  reg.counter("vfpga_guarded_total", {{"k", "b"}}).inc();
  // Over the cap: both land in the {overflow="true"} collapse series.
  reg.counter("vfpga_guarded_total", {{"k", "c"}}).inc();
  reg.counter("vfpga_guarded_total", {{"k", "d"}}).inc();
  EXPECT_EQ(reg.droppedSeries(), 2u);
  EXPECT_EQ(reg.counter("vfpga_obs_dropped_series").value(), 2u);
  EXPECT_EQ(reg.counter("vfpga_guarded_total", {{"overflow", "true"}}).value(),
            2u);
  // Series that existed before the cap tripped still resolve normally.
  EXPECT_EQ(reg.counter("vfpga_guarded_total", {{"k", "a"}}).value(), 1u);
}

TEST(StreamExporter, TinyRingDropsAreCountedAndEveryLineParses) {
  const std::string path = ::testing::TempDir() + "/stream_tiny.ndjson";
  obs::StreamOptions opt;
  opt.path = path;
  opt.ringCapacity = 2;
  opt.flushEveryRecords = 0;  // only finish() flushes, so the ring overflows
  obs::StreamExporter stream(opt);
  ASSERT_TRUE(stream.ok());
  obs::SpanTracer tracer = steppedTracer(10);
  stream.attach(tracer, "unit");
  for (int i = 0; i < 20; ++i) {
    tracer.complete("s" + std::to_string(i), "os.test",
                    static_cast<std::uint64_t>(i) * 10, 5);
  }
  stream.finish();
  EXPECT_EQ(stream.emitted(), 20u);
  EXPECT_EQ(stream.dropped(), 18u);
  EXPECT_EQ(stream.written(), 3u);  // two buffered spans + stream_summary
  EXPECT_EQ(stream.droppedByKey().at("os.test"), 18u);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::size_t lines = 0;
  obs::JsonValue last;
  while (std::getline(in, line)) {
    last = obs::JsonValue::parse(line);  // throws on any malformed line
    ++lines;
  }
  EXPECT_EQ(lines, 3u);
  EXPECT_EQ(last.at("kind").asString(), "stream_summary");
  EXPECT_EQ(last.at("dropped").asNumber(), 18.0);
  EXPECT_EQ(last.at("dropped_by_kind").at("os.test").asNumber(), 18.0);
}

TEST(StreamExporter, SamplingKeepsOneOfNPerKey) {
  const std::string path = ::testing::TempDir() + "/stream_sampled.ndjson";
  obs::StreamOptions opt;
  opt.path = path;
  opt.sampleEvery["os.test"] = 5;
  obs::StreamExporter stream(opt);
  ASSERT_TRUE(stream.ok());
  obs::SpanTracer tracer = steppedTracer(10);
  stream.attach(tracer, "unit");
  for (int i = 0; i < 10; ++i) {
    tracer.complete("s", "os.test", static_cast<std::uint64_t>(i) * 10, 1);
  }
  stream.finish();
  EXPECT_EQ(stream.emitted(), 10u);
  EXPECT_EQ(stream.sampledOut(), 8u);
  EXPECT_EQ(stream.written(), 3u);  // records 1 and 6, plus the summary
}

TEST(Heatmap, MatrixGoldenOnScriptedSequence) {
  using CS = obs::CellState;
  obs::HeatmapCollector hm(4);
  hm.sample(0, "start", {CS::kIdle, CS::kIdle, CS::kIdle, CS::kIdle});
  hm.sample(10, "allocate", {CS::kBusy, CS::kBusy, CS::kIdle, CS::kIdle});
  hm.sample(20, "relocate", {CS::kIdle, CS::kIdle, CS::kBusy, CS::kBusy});
  hm.sample(30, "quarantine", {CS::kFaulty, CS::kIdle, CS::kBusy, CS::kBusy});
  // A ragged snapshot pads with idle instead of skewing the matrix.
  hm.sample(40, "release", {CS::kFaulty, CS::kIdle});

  EXPECT_EQ(hm.renderCsv(),
            "time_ns,event,c0,c1,c2,c3\n"
            "0,start,0,0,0,0\n"
            "10,allocate,1,1,0,0\n"
            "20,relocate,0,0,1,1\n"
            "30,quarantine,2,0,1,1\n"
            "40,release,2,0,0,0\n");

  const obs::JsonValue doc = obs::JsonValue::parse(hm.renderJson());
  EXPECT_EQ(doc.at("columns").asNumber(), 4.0);
  ASSERT_EQ(doc.at("samples").asArray().size(), 5u);
  const obs::JsonValue& quarantineRow = doc.at("samples").asArray()[3];
  EXPECT_EQ(quarantineRow.at("event").asString(), "quarantine");
  EXPECT_EQ(quarantineRow.at("t_ns").asNumber(), 30.0);
  EXPECT_EQ(quarantineRow.at("cells").asArray()[0].asNumber(), 2.0);

  const std::string html = hm.renderHtml("unit");
  EXPECT_NE(html.find("<html"), std::string::npos);
  EXPECT_NE(html.find("quarantine"), std::string::npos);
}

TEST(Heatmap, PartitionManagerObserverSnapshotsAllocatorState) {
  DeviceProfile p = profileByName("medium_partial");
  Device dev = p.makeDevice();
  ConfigPort port(dev, p.port);
  Compiler compiler(dev);
  ConfigRegistry cfgs(dev);
  PartitionManager pm(dev, port, cfgs, compiler, {});
  obs::HeatmapCollector hm(static_cast<std::uint16_t>(dev.geometry().cols));
  std::uint64_t tick = 0;
  pm.setOccupancyObserver([&](const char* event) {
    hm.sample(tick++, event, occupancyCells(pm.allocator()));
  });

  Netlist nl = lib::makeCounter(6);
  nl.setName("count");
  const ConfigId id =
      cfgs.add(compiler.compile(nl, Region::columns(dev.geometry(), 0, 4)));
  const auto loaded = pm.load(id);
  ASSERT_TRUE(loaded.has_value());
  const auto q = pm.quarantine(11);  // idle column: fenced immediately
  EXPECT_TRUE(q.quarantined);
  pm.unload(loaded->partition);

  ASSERT_EQ(hm.samples().size(), 3u);
  EXPECT_EQ(hm.samples()[0].event, "allocate");
  EXPECT_EQ(hm.samples()[1].event, "quarantine");
  EXPECT_EQ(hm.samples()[2].event, "release");
  EXPECT_EQ(hm.samples()[0].cells[0], obs::CellState::kBusy);
  EXPECT_EQ(hm.samples()[1].cells[11], obs::CellState::kFaulty);
  EXPECT_EQ(hm.samples()[2].cells[0], obs::CellState::kIdle);
}

TEST(Prometheus, LabelValuesEscapeBackslashQuoteAndNewline) {
  obs::MetricsRegistry reg;
  // One value per escape case the exposition format defines, plus one
  // mixing all three.
  reg.counter("vfpga_esc_total", {{"p", "a\\b"}}).inc(1);
  reg.counter("vfpga_esc_total", {{"p", "a\"b"}}).inc(2);
  reg.counter("vfpga_esc_total", {{"p", "a\nb"}}).inc(3);
  reg.counter("vfpga_esc_total", {{"p", "\\\"\n"}}).inc(4);

  const std::string text = obs::renderPrometheus(reg);
  // Golden escapes: every label value stays on one physical line with the
  // two-character sequences the format requires.
  EXPECT_NE(text.find("p=\"a\\\\b\""), std::string::npos);
  EXPECT_NE(text.find("p=\"a\\\"b\""), std::string::npos);
  EXPECT_NE(text.find("p=\"a\\nb\""), std::string::npos);
  EXPECT_EQ(text.find('\n', text.find("a\\nb")),
            text.find("} 3", text.find("a\\nb")) + 3);

  // And the parser decodes them back to the original bytes.
  const std::vector<obs::PromSample> samples = obs::parsePrometheus(text);
  auto value = [&](const std::string& labelValue) -> double {
    for (const obs::PromSample& s : samples) {
      if (s.name == "vfpga_esc_total" && !s.labels.empty() &&
          s.labels[0].second == labelValue) {
        return s.value;
      }
    }
    return -1.0;
  };
  EXPECT_DOUBLE_EQ(value("a\\b"), 1.0);
  EXPECT_DOUBLE_EQ(value("a\"b"), 2.0);
  EXPECT_DOUBLE_EQ(value("a\nb"), 3.0);
  EXPECT_DOUBLE_EQ(value("\\\"\n"), 4.0);
}

TEST(StreamExporter, FlushDurationsFeedTheSelfHistogram) {
  const std::string path = ::testing::TempDir() + "/stream_self.ndjson";
  obs::StreamOptions opt;
  opt.path = path;
  opt.flushEveryRecords = 0;  // exactly one flush: the one finish() runs
  obs::StreamExporter stream(opt);
  ASSERT_TRUE(stream.ok());
  obs::SpanTracer tracer = steppedTracer(10);
  stream.attach(tracer, "unit");
  tracer.complete("s", "os.test", 0, 5);
  stream.finish();

  ASSERT_EQ(stream.flushDurationsNs().size(), 1u);

  obs::MetricsRegistry reg;
  stream.publishSelfMetrics(reg);
  const std::vector<obs::PromSample> samples =
      obs::parsePrometheus(obs::renderPrometheus(reg));
  double count = -1.0;
  for (const obs::PromSample& s : samples) {
    if (s.name == "vfpga_obs_flush_ns_count") count = s.value;
  }
  EXPECT_DOUBLE_EQ(count, 1.0);
}

TEST(OutputDir, CreatesNestedPathsAndFollowsMidProcessOverride) {
  const char* saved = std::getenv("VFPGA_OBS_DIR");
  const std::string savedValue = saved ? saved : "";

  // Nested, not-yet-existing path: created on demand.
  const std::string nested = ::testing::TempDir() + "/vfpga_od/a/b/c";
  ASSERT_EQ(setenv("VFPGA_OBS_DIR", nested.c_str(), 1), 0);
  EXPECT_EQ(obs::outputDir(), nested);
  EXPECT_TRUE(std::filesystem::is_directory(nested));

  // Trailing slash is preserved verbatim and still usable as a prefix.
  const std::string slashed = ::testing::TempDir() + "/vfpga_od/slash/";
  ASSERT_EQ(setenv("VFPGA_OBS_DIR", slashed.c_str(), 1), 0);
  EXPECT_EQ(obs::outputDir(), slashed);
  EXPECT_TRUE(std::filesystem::is_directory(slashed));
  {
    std::ofstream probe(obs::outputDir() + "probe.txt");
    EXPECT_TRUE(probe.good());
  }

  // The env var is read on every call, so a mid-process override moves
  // subsequent outputs without any re-initialization.
  const std::string second = ::testing::TempDir() + "/vfpga_od/second";
  ASSERT_EQ(setenv("VFPGA_OBS_DIR", second.c_str(), 1), 0);
  EXPECT_EQ(obs::outputDir(), second);

  if (saved) {
    setenv("VFPGA_OBS_DIR", savedValue.c_str(), 1);
  } else {
    unsetenv("VFPGA_OBS_DIR");
  }
}

}  // namespace
}  // namespace vfpga
