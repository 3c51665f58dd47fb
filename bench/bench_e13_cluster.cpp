// E13 — Multi-device cluster scheduling (cluster extension).
//
// Three sweeps over a seeded 24-job campaign, all devices medium_partial,
// one shared simulation and one shared content-keyed circuit store:
//  1. device scaling: fixed offered load spread over 2/3/4 devices —
//     queue-wait percentiles and throughput as capacity grows;
//  2. placement policies under degradation: first-fit vs least-loaded vs
//     best-fit while dev1 loses two columns and its tasks drain away;
//  3. store dedupe proof: registering W workloads on N devices compiles
//     each distinct circuit exactly once, every other registration is a
//     store hit.
//  4. monitor overhead: the same campaign with the continuous-monitor
//     sampler off vs on (50 us cadence, per-device series + health) —
//     sim-side outcomes must be identical (baselined), wall-clock ratio is
//     informational only.
// Every row is reproducible byte for byte (seeded arrivals, seeded fault
// plans, index-ordered scheduler iteration).
#include <chrono>

#include "bench_util.hpp"
#include "cluster/scheduler.hpp"
#include "core/obs_bridge.hpp"
#include "sim/rng.hpp"

using namespace vfpga;
using namespace vfpga::bench;

namespace {

constexpr std::uint64_t kSeed = 13;
constexpr std::size_t kJobs = 24;
constexpr std::size_t kWorkloads = 3;

struct ClusterResult {
  cluster::ClusterScheduler::Summary summary;
  CircuitStoreStats cache;
  double cacheHitRate = 0;
  std::size_t registrations = 0;
  std::uint64_t monitorTicks = 0;   ///< store ticks taken (sampler on only)
  std::uint64_t monitorSamples = 0; ///< ticks x series (sampler on only)
  double wallMs = 0;                ///< informational, never baselined
};

ClusterResult runCluster(std::size_t devices, cluster::PlacementPolicy policy,
                         bool faulty, bool monitored = false) {
  Simulation sim;
  CircuitStore circuitStore;

  std::vector<cluster::DeviceNodeSpec> specs;
  for (std::size_t i = 0; i < devices; ++i) {
    cluster::DeviceNodeSpec s;
    s.name = "dev" + std::to_string(i);
    s.profile = mediumPartialProfile();
    if (faulty && i == 1) {
      s.faulty = true;
      s.faultSpec.seed = kSeed + 1;
      s.faultSpec.stripFailures = {{millis(2), 2}, {millis(4), 9}};
    }
    specs.push_back(std::move(s));
  }

  OsOptions base;
  base.priorityScheduling = true;
  cluster::DevicePool pool(sim, specs, circuitStore, base);
  auto circuits = standardCircuits();
  std::vector<cluster::WorkloadId> ws;
  for (std::size_t i = 0; i < kWorkloads; ++i) {
    ws.push_back(pool.registerWorkload(circuits[i].name, circuits[i].netlist,
                                       circuits[i].width));
  }

  cluster::ClusterOptions copt;
  copt.placement = policy;
  copt.minUsableColumns = 8;
  copt.maxJobsPerDevice = 2;  // the cap is what makes queue waits real
  cluster::ClusterScheduler sched(sim, pool, copt);

  Rng rng(kSeed);
  for (std::size_t j = 0; j < kJobs; ++j) {
    cluster::ClusterJobSpec job;
    job.name = "e13_" + std::to_string(j);
    job.submitAt =
        static_cast<SimTime>(j) * micros(100) + rng.below(micros(50));
    job.priority = static_cast<int>(rng.below(3));
    job.ops = {CpuBurst{micros(20)},
               FpgaExec{ws[rng.below(kWorkloads)], 15000 + 1000 * rng.below(20)},
               CpuBurst{micros(10)}};
    sched.submit(std::move(job));
  }

  obs::monitor::TimeSeriesStore store(4096);
  obs::monitor::AlertEngine engine;
  obs::monitor::HealthModel health;
  if (monitored) {
    for (std::size_t i = 0; i < devices; ++i) {
      bindKernelSeries(store, pool.node(i).kernel(),
                       pool.node(i).name() + ".");
    }
    store.addSeries("cluster.queue_depth", [&sched] {
      return static_cast<double>(sched.queueDepth());
    });
    store.addSeries("cluster.p99_wait_ns", [&sched] {
      return static_cast<double>(sched.liveP99QueueWaitNs());
    });
    cluster::ClusterScheduler::MonitorAttachment mon;
    mon.store = &store;
    mon.engine = &engine;
    mon.health = &health;
    mon.sampleInterval = micros(50);
    sched.attachMonitor(mon);
  }

  const auto t0 = std::chrono::steady_clock::now();
  sched.run();
  const auto t1 = std::chrono::steady_clock::now();

  ClusterResult r;
  r.summary = sched.summary();
  r.cache = circuitStore.stats();
  r.cacheHitRate = circuitStore.hitRate();
  r.registrations = kWorkloads * devices;
  r.monitorTicks = store.totalTicks();
  r.monitorSamples = store.totalTicks() * store.seriesCount();
  r.wallMs = std::chrono::duration<double, std::milli>(t1 - t0).count();
  return r;
}

}  // namespace

int main() {
  BenchJson json("e13_cluster");
  int rc = 0;

  tableHeader("E13", "device scaling (24 jobs, least_loaded, fault-free)");
  std::printf("%-8s | %9s %9s %12s %12s %12s\n", "devices", "admitted",
              "completed", "p99_wait_ms", "makespan_ms", "jobs/s");
  std::vector<std::pair<std::size_t, ClusterResult>> sweep;
  for (std::size_t devices : {std::size_t{2}, std::size_t{3}, std::size_t{4}}) {
    const ClusterResult r =
        runCluster(devices, cluster::PlacementPolicy::kLeastLoaded, false);
    sweep.emplace_back(devices, r);
    std::printf("%-8zu | %9llu %9llu %12.3f %12.3f %12.2f\n", devices,
                static_cast<unsigned long long>(r.summary.admitted),
                static_cast<unsigned long long>(r.summary.completed),
                toMilliseconds(r.summary.p99QueueWaitNs),
                toMilliseconds(r.summary.makespanNs),
                r.summary.throughputJobsPerSec);
    const obs::Labels l = {{"devices", std::to_string(devices)}};
    json.sample("vfpga_bench_e13_throughput_jobs_s", l,
                r.summary.throughputJobsPerSec);
    json.sample("vfpga_bench_e13_p99_wait_ns", l,
                static_cast<double>(r.summary.p99QueueWaitNs));
    json.sample("vfpga_bench_e13_completed", l,
                static_cast<double>(r.summary.completed));
  }

  tableHeader("E13",
              "placement policy x degradation (3 devices, dev1 loses 2 cols)");
  std::printf("%-14s | %9s %9s %9s %12s %12s\n", "policy", "completed",
              "drain", "rebal", "p99_wait_ms", "makespan_ms");
  for (cluster::PlacementPolicy policy :
       {cluster::PlacementPolicy::kFirstFit,
        cluster::PlacementPolicy::kLeastLoaded,
        cluster::PlacementPolicy::kBestFit}) {
    const ClusterResult r = runCluster(3, policy, true);
    const char* name = cluster::placementPolicyName(policy);
    std::printf("%-14s | %9llu %9llu %9llu %12.3f %12.3f\n", name,
                static_cast<unsigned long long>(r.summary.completed),
                static_cast<unsigned long long>(r.summary.migrationsDrain),
                static_cast<unsigned long long>(r.summary.migrationsRebalance),
                toMilliseconds(r.summary.p99QueueWaitNs),
                toMilliseconds(r.summary.makespanNs));
    const obs::Labels l = {{"policy", name}};
    json.sample("vfpga_bench_e13_policy_makespan_ms", l,
                toMilliseconds(r.summary.makespanNs));
    json.sample("vfpga_bench_e13_policy_drain_migrations", l,
                static_cast<double>(r.summary.migrationsDrain));
    json.sample("vfpga_bench_e13_policy_completed", l,
                static_cast<double>(r.summary.completed));
  }

  tableHeader("E13", "shared bitstream cache dedupe "
                     "(3 workloads registered on every device)");
  std::printf("%-8s | %8s %9s %9s %8s %9s %9s\n", "devices", "regs",
              "compiles", "digests", "hits", "hit_rate", "dedupe_ok");
  for (const auto& [devices, r] : sweep) {
    // Every miss compiles a new key, so the store's digests are its
    // compiles; what remains to prove is one compile per distinct circuit.
    const bool dedupeOk = r.cache.compiles == kWorkloads &&
                          r.cache.hits + r.cache.compiles == r.registrations;
    if (!dedupeOk) rc = 1;  // the store's core guarantee failed
    std::printf("%-8zu | %8zu %9llu %9llu %8llu %9.4f %9s\n", devices,
                r.registrations,
                static_cast<unsigned long long>(r.cache.compiles),
                static_cast<unsigned long long>(r.cache.compiles),
                static_cast<unsigned long long>(r.cache.hits), r.cacheHitRate,
                dedupeOk ? "yes" : "NO");
    const obs::Labels l = {{"devices", std::to_string(devices)}};
    json.sample("vfpga_bench_e13_cache_compiles", l,
                static_cast<double>(r.cache.compiles));
    json.sample("vfpga_bench_e13_cache_unique_digests", l,
                static_cast<double>(r.cache.compiles));
    json.sample("vfpga_bench_e13_cache_hit_rate", l, r.cacheHitRate);
  }

  tableHeader("E13", "continuous-monitor overhead "
                     "(3 devices, least_loaded, 50 us sampler)");
  std::printf("%-8s | %9s %12s %9s %10s %10s\n", "sampler", "completed",
              "makespan_ms", "ticks", "samples", "wall_ms");
  const ClusterResult off =
      runCluster(3, cluster::PlacementPolicy::kLeastLoaded, false, false);
  const ClusterResult on =
      runCluster(3, cluster::PlacementPolicy::kLeastLoaded, false, true);
  for (const auto& [name, r] :
       {std::pair<const char*, const ClusterResult*>{"off", &off},
        {"on", &on}}) {
    std::printf("%-8s | %9llu %12.3f %9llu %10llu %10.2f\n", name,
                static_cast<unsigned long long>(r->summary.completed),
                toMilliseconds(r->summary.makespanNs),
                static_cast<unsigned long long>(r->monitorTicks),
                static_cast<unsigned long long>(r->monitorSamples), r->wallMs);
    const obs::Labels l = {{"sampler", name}};
    // Sim-side outcomes are deterministic and trend-gated: the sampler must
    // not perturb scheduling (fault-free campaign, every device healthy).
    json.sample("vfpga_bench_e13_monitor_makespan_ms", l,
                toMilliseconds(r->summary.makespanNs));
    json.sample("vfpga_bench_e13_monitor_completed", l,
                static_cast<double>(r->summary.completed));
  }
  json.sample("vfpga_bench_e13_monitor_ticks", {{"sampler", "on"}},
              static_cast<double>(on.monitorTicks));
  json.sample("vfpga_bench_e13_monitor_samples", {{"sampler", "on"}},
              static_cast<double>(on.monitorSamples));
  // Wall-clock ratio is machine-dependent: printed, not baselined.
  std::printf("sampler wall overhead: %+.1f%%\n",
              off.wallMs > 0.0 ? (on.wallMs / off.wallMs - 1.0) * 100.0 : 0.0);
  if (on.summary.makespanNs != off.summary.makespanNs ||
      on.summary.completed != off.summary.completed) {
    std::printf("MONITOR PERTURBED THE CAMPAIGN\n");
    rc = 1;  // observation must not change the observed schedule
  }

  tableHeader("E13", "parallel fabric replay "
                     "(3 devices, 30k cycles, shared kernel cache)");
  {
    Simulation sim;
    CircuitStore store;
    std::vector<cluster::DeviceNodeSpec> specs;
    for (std::size_t i = 0; i < 3; ++i) {
      cluster::DeviceNodeSpec s;
      s.name = "replay" + std::to_string(i);
      s.profile = mediumPartialProfile();
      specs.push_back(std::move(s));
    }
    cluster::DevicePool pool(sim, specs, store, OsOptions{});
    auto circuits = standardCircuits();
    const cluster::WorkloadId w = pool.registerWorkload(
        circuits[0].name, circuits[0].netlist, circuits[0].width);

    cluster::FabricReplaySpec spec;
    spec.workload = w;
    spec.cycles = 30000;
    spec.syncEvery = 512;
    spec.seed = kSeed;

    auto timed = [&pool, &spec](double& wallMs) {
      const auto t0 = std::chrono::steady_clock::now();
      cluster::FabricReplayResult r = pool.replayFabrics(spec);
      const auto t1 = std::chrono::steady_clock::now();
      wallMs = std::chrono::duration<double, std::milli>(t1 - t0).count();
      return r;
    };
    double wall1 = 0, wall4 = 0, wallI = 0;
    spec.threads = 1;
    const auto r1 = timed(wall1);
    spec.threads = 4;
    const auto r4 = timed(wall4);
    spec.threads = 1;
    spec.compiledFastPath = false;
    const auto ri = timed(wallI);

    std::uint64_t builds = 0, hits = 0, cycles = 0;
    for (const auto& run : {&r1, &r4})
      for (const auto& d : run->devices) {
        builds += d.stats.builds;
        hits += d.stats.hits;
        cycles += d.cycles;
      }
    const bool deterministic = r1.mergedDigest == r4.mergedDigest;
    const bool agrees = ri.mergedDigest == r1.mergedDigest;
    if (!deterministic || !agrees) rc = 1;  // byte-identical merge broken

    std::printf("%-14s | %8s %18s %8s %7s %10s\n", "mode", "threads",
                "merged_digest", "builds", "hits", "wall_ms");
    std::printf("%-14s | %8u %18llx %8llu %7llu %10.2f\n", "compiled", 1u,
                static_cast<unsigned long long>(r1.mergedDigest),
                static_cast<unsigned long long>(builds),
                static_cast<unsigned long long>(hits), wall1);
    std::printf("%-14s | %8u %18llx %8s %7s %10.2f\n", "compiled", 4u,
                static_cast<unsigned long long>(r4.mergedDigest), "-", "-",
                wall4);
    std::printf("%-14s | %8u %18llx %8s %7s %10.2f\n", "interpretive", 1u,
                static_cast<unsigned long long>(ri.mergedDigest), "-", "-",
                wallI);
    std::printf("thread determinism: %s; interpretive agreement: %s; "
                "compiled/interpretive wall ratio %.2fx (informational)\n",
                deterministic ? "yes" : "NO", agrees ? "yes" : "NO",
                wall1 > 0.0 ? wallI / wall1 : 0.0);

    // The digests themselves depend on the workload image, so the gated
    // gauges are the invariants: merge is thread-count independent, the
    // compiled engines reproduce the interpretive walk bit for bit, and
    // the shared cache levelizes the image exactly once across both runs.
    json.sample("vfpga_bench_e13_replay_deterministic", {},
                deterministic ? 1.0 : 0.0);
    json.sample("vfpga_bench_e13_replay_compiled_match", {},
                agrees ? 1.0 : 0.0);
    json.sample("vfpga_bench_e13_replay_cycles", {},
                static_cast<double>(cycles));
    json.sample("vfpga_bench_e13_replay_builds", {},
                static_cast<double>(builds));
    json.sample("vfpga_bench_e13_replay_hits", {}, static_cast<double>(hits));
  }

  json.write();
  return rc;
}
