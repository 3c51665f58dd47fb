// cluster and monitor: the seeded multi-device campaigns.
#include <fstream>

#include "analysis/cluster_lint.hpp"
#include "analysis/monitor_lint.hpp"
#include "cli.hpp"
#include "cluster/scheduler.hpp"
#include "core/obs_bridge.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/json.hpp"
#include "obs/monitor/dashboard.hpp"
#include "obs/output_dir.hpp"
#include "sim/rng.hpp"

namespace vfpga::cli {

namespace {

/// Writes a copy of a report into the obs output directory (never the
/// repo root) and names it on stderr.
void writeSidecar(const std::string& name, const std::string& payload,
                  const char* label) {
  const std::string path = obs::outputDir() + "/" + name;
  std::ofstream sf(path, std::ios::binary);
  sf.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  if (sf) std::fprintf(stderr, "%s %s\n", label, path.c_str());
}

/// What a named cluster campaign fixes; dev1 is its unlucky device.
struct ClusterPlan {
  cluster::ClusterOptions options;
  fault::FaultPlanSpec faulty;  ///< dev1's fault plan
  std::size_t jobsPerDevice = 5;
};

/// The ci, heal or stress campaign.
ClusterPlan clusterPlan(const std::string& campaign, std::uint64_t seed) {
  ClusterPlan plan;
  cluster::ClusterOptions& copt = plan.options;
  copt.minUsableColumns = 8;
  copt.maxJobsPerDevice = 3;
  copt.slos.maxRejectedFraction = 0.0;
  copt.slos.maxP99QueueWaitNs = millis(20);
  plan.faulty.seed = seed + 1;
  if (campaign == "ci") {
    // dev1 loses strip columns 2 and 9 at 2 ms and 4 ms while jobs keep
    // arriving.
    plan.faulty.stripFailures = {{millis(2), 2}, {millis(4), 9}};
  } else if (campaign == "heal") {
    // One transient fault: the strip heals after 3 ms and the rebalancer
    // migrates work back onto the recovered device.
    plan.faulty.stripFailures = {{millis(2), 5, millis(3)}};
    copt.rebalanceGap = 2;
  } else {  // stress
    plan.faulty.stripFailures = {{millis(1), 2}, {millis(3), 9}};
    copt.admissionQueueDepth = 4;
    copt.maxJobsPerDevice = 2;
    plan.jobsPerDevice = 10;
    copt.slos.maxRejectedFraction = 0.6;
    copt.slos.maxP99QueueWaitNs = millis(50);
  }
  return plan;
}

/// --devices (default 3), which must lie in [2, 8].
std::size_t clusterDevices(const Args& a) {
  const std::uint64_t devices = a.count("devices", 3);
  if (devices < 2 || devices > 8) {
    throw UsageError("--devices must be in [2, 8]");
  }
  return static_cast<std::size_t>(devices);
}

std::vector<cluster::DeviceNodeSpec> nodeSpecs(
    std::size_t devices, const fault::FaultPlanSpec& faulty) {
  std::vector<cluster::DeviceNodeSpec> specs;
  for (std::size_t i = 0; i < devices; ++i) {
    cluster::DeviceNodeSpec s;
    s.name = "dev" + std::to_string(i);
    s.profile = mediumPartialProfile();
    if (i == 1) {
      s.faulty = true;
      s.faultSpec = faulty;
    }
    specs.push_back(std::move(s));
  }
  return specs;
}

OsOptions priorityScheduling() {
  OsOptions base;
  base.priorityScheduling = true;
  return base;
}

/// `devices` medium_partial nodes sharing one simulation and circuit
/// store, the trio registered and jobsPerDevice * devices seeded jobs
/// submitted; ready to run.
struct ClusterCampaign {
  ClusterCampaign(const ClusterPlan& plan, std::size_t devices,
                  std::uint64_t seed)
      : specs(nodeSpecs(devices, plan.faulty)),
        pool(sim, specs, store, priorityScheduling()),
        sched(sim, pool, plan.options) {
    std::array<cluster::WorkloadId, 3> ws{};
    const std::array<Netlist, 3> nls = trioNetlists();
    for (std::size_t i = 0; i < ws.size(); ++i) {
      ws[i] = pool.registerWorkload(nls[i].name(), nls[i], kTrioWidth);
    }
    Rng rng(seed);
    for (std::size_t j = 0; j < plan.jobsPerDevice * devices; ++j) {
      cluster::ClusterJobSpec job;
      job.name = "j" + std::to_string(j);
      job.submitAt = static_cast<SimTime>(j) * micros(120) +
                     rng.below(micros(60));
      job.priority = static_cast<int>(rng.below(3));
      job.ops = {CpuBurst{micros(20)},
                 FpgaExec{ws[rng.below(3)], 15000 + 1000 * rng.below(20)},
                 CpuBurst{micros(10)}};
      sched.submit(std::move(job));
    }
  }
  std::vector<cluster::DeviceNodeSpec> specs;
  Simulation sim;
  CircuitStore store;
  cluster::DevicePool pool;
  cluster::ClusterScheduler sched;
};

}  // namespace

/// Seeded multi-device cluster campaign: N partitioned kernels sharing one
/// simulation and one content-keyed circuit store, admission
/// backpressure, pluggable placement and live migration off degraded
/// devices (with failback after transient faults heal). The report is
/// byte-identical per (seed, devices, policy, campaign); a copy always
/// lands in the obs output directory so repo-root stays clean. Exit 0 iff
/// every SLO was met.
int clusterCmd(const Args& a) {
  const std::uint64_t seed = a.count("seed", 7);
  const std::size_t devices = clusterDevices(a);
  const std::string campaign = a.get("campaign");
  const std::string fmt = a.get("format");
  ClusterPlan plan = clusterPlan(campaign, seed);
  cluster::ClusterOptions& copt = plan.options;
  copt.placement = cluster::placementPolicyByName(a.get("policy"));

  // Static sanity check of the campaign before anything runs (CL rules).
  {
    analysis::ClusterProfile prof;
    prof.deviceColumns.assign(devices, mediumPartialProfile().geometry.cols);
    prof.workloadWidths = {kTrioWidth, kTrioWidth, kTrioWidth};
    prof.admissionQueueDepth = copt.admissionQueueDepth;
    prof.minUsableColumns = copt.minUsableColumns;
    prof.rebalanceGap = copt.rebalanceGap;
    prof.anyStripFailures = true;
    analysis::Report rep;
    analysis::lintCluster(prof, rep);
    if (!lintClean(rep)) return 1;
  }

  ClusterCampaign run(plan, devices, seed);
  run.sched.run();

  const std::string payload =
      fmt == "json" ? run.sched.renderJsonReport() : run.sched.renderReport();
  writeSidecar("cluster_" + campaign + "_" +
                   cluster::placementPolicyName(copt.placement) + "_" +
                   std::to_string(seed) + (fmt == "json" ? ".json" : ".txt"),
               payload, "cluster: report sidecar");
  return emitPayload(a, payload, run.sched.summary().slosMet ? 0 : 1);
}

/// Continuous health monitor over a seeded cluster degradation campaign:
/// the ci cluster workload with dev1 losing two strips mid-run, watched by
/// a TimeSeriesStore + AlertEngine + HealthModel attached to the
/// scheduler. The alert engine evaluates SLO burn-rate / rate-of-change /
/// threshold / EWMA-anomaly rules with pending->firing->resolved
/// hysteresis, and the per-device health model steers placement away from
/// degrading devices before hard quarantine. Every signal is sampled on a
/// sim-time cadence and every render is byte-identical per seed — the
/// determinism ctest runs the command twice and compares. Alert
/// transitions land as span instants on dev0's tracer and as
/// flight-recorder notes. --refresh N prints N live dashboard frames to
/// stderr while the campaign runs. Exit code is the worst firing severity
/// at campaign end (0 none, 1 warning, 2 critical): a healthy campaign
/// resolves everything and exits 0.
int monitorCmd(const Args& a) {
  const std::uint64_t seed = a.count("seed", 7);
  const std::size_t devices = clusterDevices(a);
  const std::uint64_t refresh = a.count("refresh", 0);
  const std::string fmt = a.get("format");

  ClusterCampaign run(clusterPlan("ci", seed), devices, seed);
  cluster::ClusterScheduler& sched = run.sched;

  // ---- signal plane ----
  const SimDuration interval = micros(50);
  obs::monitor::TimeSeriesStore store(4096);
  store.setSampleIntervalNs(interval);
  store.addSeries("cluster.queue_depth", [&sched] {
    return static_cast<double>(sched.queueDepth());
  });
  store.addSeries("cluster.oldest_wait_ns", [&sched] {
    return static_cast<double>(sched.oldestQueuedWaitNs());
  }, "ns");
  store.addSeries("cluster.p99_wait_ns", [&sched] {
    return static_cast<double>(sched.liveP99QueueWaitNs());
  }, "ns");
  store.addSeries("cluster.rejected_fraction", [&sched] {
    return sched.liveRejectedFraction();
  });
  // SLO badness series (fraction of ticks in [0,1]): a tick is bad when
  // some admitted job has been stuck in the queue longer than the burn
  // target — well under the hard 20 ms SLO, so the burn alert leads it.
  const SimDuration waitTarget = micros(300);
  store.addSeries("slo.wait_bad", [&sched, waitTarget] {
    return sched.oldestQueuedWaitNs() > waitTarget ? 1.0 : 0.0;
  });
  obs::monitor::HealthModel health;
  for (std::size_t d = 0; d < devices; ++d) {
    const std::string prefix = "dev" + std::to_string(d) + ".";
    bindKernelSeries(store, run.pool.node(d).kernel(), prefix);
    // Named OUTSIDE the "devN." attribution prefix: an alert on the score
    // would otherwise feed back into the score it watches (firing-alert
    // weight), and a self-sustained alert can never resolve.
    const std::string name = "dev" + std::to_string(d);
    store.addSeries("health." + name + ".score",
                    [&health, name] { return health.score(name); });
  }

  // ---- alert rules ----
  obs::monitor::AlertEngine engine;
  {
    using namespace obs::monitor;
    AlertRule burn;
    burn.name = "slo_wait_burn";
    burn.series = "slo.wait_bad";
    burn.kind = RuleKind::kBurnRate;
    burn.severity = AlertSeverity::kCritical;
    burn.objective = 0.10;  // 10% of ticks may exceed the wait target
    burn.burnFactor = 2.0;
    burn.windowNs = micros(400);
    burn.longWindowNs = micros(1600);
    burn.forNs = micros(100);
    burn.resolveNs = micros(300);
    engine.addRule(burn);

    AlertRule reject;
    reject.name = "reject_burn";
    reject.series = "cluster.rejected_fraction";
    reject.kind = RuleKind::kBurnRate;
    reject.severity = AlertSeverity::kCritical;
    reject.objective = 0.01;
    reject.burnFactor = 1.0;
    reject.windowNs = micros(400);
    reject.longWindowNs = micros(1600);
    engine.addRule(reject);

    AlertRule cols;
    cols.name = "dev1_capacity_drop";
    cols.series = "dev1.usable_columns";
    cols.kind = RuleKind::kRateOfChange;
    cols.severity = AlertSeverity::kWarning;
    cols.threshold = -1.0;  // any sustained column loss per second
    cols.above = false;
    cols.windowNs = micros(200);
    cols.resolveNs = micros(200);
    engine.addRule(cols);

    AlertRule score;
    score.name = "dev1_health_degraded";
    score.series = "health.dev1.score";
    score.kind = RuleKind::kThreshold;
    score.severity = AlertSeverity::kCritical;
    score.threshold = health.options().degradedAt;
    score.forNs = micros(100);
    score.resolveNs = micros(200);
    engine.addRule(score);

    AlertRule anomaly;
    anomaly.name = "queue_depth_anomaly";
    anomaly.series = "cluster.queue_depth";
    anomaly.kind = RuleKind::kEwmaZScore;
    anomaly.severity = AlertSeverity::kWarning;
    anomaly.ewmaAlpha = 0.2;
    anomaly.zThreshold = 3.0;
    anomaly.warmupSamples = 10;
    anomaly.resolveNs = micros(200);
    engine.addRule(anomaly);

    AlertRule parked;
    parked.name = "dev1_parked_tasks";
    parked.series = "dev1.parked";
    parked.kind = RuleKind::kThreshold;
    parked.severity = AlertSeverity::kCritical;
    parked.threshold = 0.5;
    engine.addRule(parked);
  }

  // Static sanity check of the monitor setup before anything runs (MO
  // rules), same pattern as the cluster lint.
  {
    analysis::MonitorProfile prof;
    prof.seriesNames = store.seriesNames();
    for (const obs::monitor::RuleStatus& rs : engine.rules()) {
      analysis::MonitorRuleProfile rp;
      rp.name = rs.rule.name;
      rp.series = rs.rule.series;
      rp.kind = obs::monitor::ruleKindName(rs.rule.kind);
      rp.windowNs = rs.rule.windowNs;
      rp.longWindowNs = rs.rule.longWindowNs;
      rp.isBurnRate = rs.rule.kind == obs::monitor::RuleKind::kBurnRate;
      rp.isRateOfChange =
          rs.rule.kind == obs::monitor::RuleKind::kRateOfChange;
      prof.rules.push_back(std::move(rp));
    }
    prof.sampleIntervalNs = interval;
    prof.healthAttached = true;
    prof.healthHasFaultInputs = health.hasFaultInputs();
    analysis::Report rep;
    analysis::lintMonitor(prof, rep);
    if (!lintClean(rep)) return 1;
  }

  // Alert transitions land on dev0's span track and in its flight
  // recorder's note ring, so a post-mortem shows what was firing.
  engine.setTransitionObserver(
      [&run](const obs::monitor::AlertTransition& t) {
        OsKernel& dev0 = run.pool.node(0).kernel();
        dev0.spanTracer().instantAt(
            t.atNs, "alert/" + t.rule, "monitor.alert",
            {{"rule", t.rule},
             {"to", t.to},
             {"severity", obs::monitor::alertSeverityName(t.severity)},
             {"value", obs::formatDouble(t.value)}},
            0);
        dev0.flightRecorder().note(t.atNs, "alert " + t.rule + " -> " + t.to);
      });

  cluster::ClusterScheduler::MonitorAttachment mon;
  mon.store = &store;
  mon.engine = &engine;
  mon.health = &health;
  mon.sampleInterval = interval;
  sched.attachMonitor(mon);

  auto dashboard = [&](std::string title, std::uint64_t atNs) {
    return obs::monitor::DashboardInput{&store, &engine, &health,
                                        std::move(title), atNs};
  };
  // Live refresh: N dashboard frames to stderr while the campaign runs,
  // evenly spaced over the first 6 ms (the campaign's active span).
  const SimDuration span = millis(6);
  for (std::size_t f = 1; f <= refresh; ++f) {
    run.sim.scheduleAt(span * f / refresh, [&dashboard, &run] {
      std::fprintf(stderr, "%s\n",
                   obs::monitor::renderMonitorText(
                       dashboard("vfpga monitor (live)", run.sim.now()))
                       .c_str());
    });
  }

  sched.run();

  const obs::monitor::DashboardInput in = dashboard(
      "vfpga monitor - degradation campaign, seed " + std::to_string(seed),
      store.lastTickNs());
  const std::string text = obs::monitor::renderMonitorText(in);
  const std::string json = obs::monitor::renderMonitorJson(in);
  const std::string html = obs::monitor::renderMonitorHtml(in);

  // Sidecar copies of all three renders; the CI determinism job compares
  // them bytewise.
  const std::string stem = "monitor_ci_" + std::to_string(seed);
  writeSidecar(stem + ".txt", text, "monitor: sidecar");
  writeSidecar(stem + ".json", json, "monitor: sidecar");
  writeSidecar(stem + ".html", html, "monitor: sidecar");

  // Grade the exit by what is *still* firing: a campaign whose alerts all
  // resolved exits 0 even though incidents happened along the way.
  return emitPayload(a,
                     fmt == "json"   ? json
                     : fmt == "html" ? html
                                     : text,
                     engine.worstFiringGrade());
}

}  // namespace vfpga::cli
