// os_campaign: the paper's OS running its richest technique. One operation
// boots a fresh device, configuration port, compiler, simulation and
// kernel (variable partitions with split/merge, garbage collection on, 1 ms
// CPU slice, an all-zero-rate fault plan that turns on download
// verification and a 500 us readback scrub), registers the precompiled
// control and telecom circuits that fit in 6 columns, runs one seeded task
// set to completion, and renders the kernel's registry (Prometheus) and its
// spans and trace (Chrome trace) in memory.
//
// The output check requires every task to finish and none to be parked.
#include <memory>
#include <string>
#include <vector>

#include "compile/compiler.hpp"
#include "core/os_kernel.hpp"
#include "fabric/device_family.hpp"
#include "fault/fault_plan.hpp"
#include "harness.hpp"
#include "obs/exporters.hpp"
#include "obs/span_tracer.hpp"
#include "workloads/app_circuits.hpp"
#include "workloads/compile_suite.hpp"
#include "workloads/taskset.hpp"

namespace hostbench {
namespace {

using namespace vfpga;

constexpr std::size_t kPool = 128;
constexpr std::uint16_t kMaxWidth = 6;

workloads::TaskSetParams taskSetParams(std::size_t numConfigs) {
  workloads::TaskSetParams p;
  p.numTasks = 24;
  p.execsPerTask = 4;
  p.numConfigs = numConfigs;
  p.meanArrivalGapMs = 0.2;
  p.meanCpuBurstMs = 0.5;
  p.minCycles = 20000;
  p.maxCycles = 200000;
  p.configZipf = 0.8;
  return p;
}

/// Sums every series of one metric family (the fault families carry the
/// policy as a label).
double familyTotal(const obs::MetricsRegistry& reg, const std::string& name) {
  double total = 0;
  for (const obs::Metric* m : reg.sorted()) {
    if (m->name != name) continue;
    if (const auto* c = std::get_if<obs::Counter>(&m->value)) {
      total += static_cast<double>(c->value());
    }
  }
  return total;
}

class OsCampaign final : public Workload {
 public:
  OsCampaign(std::uint64_t seed, obs::SpanTracer* trace)
      : profile_(mediumPartialProfile()) {
    {
      Device dev = profile_.makeDevice();
      Compiler compiler(dev);
      compiler.setObservers(trace, nullptr);
      std::vector<workloads::AppCircuit> apps = workloads::controlSuite();
      for (workloads::AppCircuit& a : workloads::telecomSuite()) {
        apps.push_back(std::move(a));
      }
      for (const workloads::AppCircuit& a : apps) {
        CompiledCircuit c = workloads::compileMinimal(compiler, a.netlist);
        if (c.region.w <= kMaxWidth) circuits_.push_back(std::move(c));
      }
    }
    auto span = scope(trace, "workloads.gen");
    Rng master(seed);
    for (std::size_t i = 0; i < kPool; ++i) {
      Rng rng(master.next());
      pool_.push_back(
          workloads::makeTaskSet(taskSetParams(circuits_.size()), rng));
      for (const TaskSpec& t : pool_.back()) {
        digest_ = fnv(digest_, t.arrival);
        digest_ = fnv(digest_, t.ops.size());
      }
    }
  }

  std::size_t poolSize() const override { return pool_.size(); }
  std::string describe() const override {
    return std::to_string(pool_.size()) + " task sets over " +
           std::to_string(circuits_.size()) + " circuits";
  }
  std::uint64_t inputDigest() const override { return digest_; }
  std::size_t warmupOps() const override { return 2; }

  void run(std::size_t entry, obs::SpanTracer* trace) override {
    {
      auto span = scope(trace, "fabric.device");
      dev_ = std::make_unique<Device>(profile_.makeDevice());
      port_ = std::make_unique<ConfigPort>(*dev_, profile_.port);
    }
    {
      auto span = scope(trace, "core.boot");
      compiler_ = std::make_unique<Compiler>(*dev_);
      sim_ = std::make_unique<Simulation>();
      fault::FaultPlanSpec spec;  // every fault rate zero
      spec.seed = entry + 1;
      plan_ = std::make_unique<fault::FaultPlan>(spec);
      OsOptions o;
      o.policy = FpgaPolicy::kPartitionedVariable;
      o.garbageCollect = true;
      o.cpuTimeSlice = millis(1);
      o.ft.plan = plan_.get();
      o.ft.scrubInterval = micros(500);
      kernel_ = std::make_unique<OsKernel>(*sim_, *dev_, *port_, *compiler_, o);
    }
    {
      auto span = scope(trace, "core.register");
      for (const CompiledCircuit& c : circuits_) kernel_->registerConfig(c);
      for (const TaskSpec& t : pool_[entry]) kernel_->addTask(t);
    }
    {
      auto span = scope(trace, "core.run");
      kernel_->run();
    }
    auto span = scope(trace, "obs.export");
    const std::string prometheus =
        obs::renderPrometheus(kernel_->metricsRegistry());
    obs::ChromeTraceInput in;
    in.sim.push_back({"os", &kernel_->spanTracer(), &kernel_->trace()});
    const std::string chrome = obs::renderChromeTrace(in);
    // The rendered size grows with the process-wide span-id counter, so it
    // is an attribute of the traced span, not a value that must repeat.
    if (span) {
      span->note("bytes", std::to_string(prometheus.size() + chrome.size()));
    }
  }

  OpCheck check(std::size_t entry, Values& values) override {
    OpCheck out;
    std::size_t unfinished = 0, parked = 0;
    for (const TaskRuntime& t : kernel_->tasks()) {
      if (t.state == TaskState::kParked) ++parked;
      if (t.state != TaskState::kDone) ++unfinished;
    }
    if (unfinished != 0 || kernel_->tasks().size() != pool_[entry].size()) {
      out.failed = out.wrong = true;
      out.cause = parked != 0 ? "task_parked" : "task_unfinished";
    }

    // Mean worst routed path over the task set's FPGA executions.
    double critSum = 0;
    std::size_t execs = 0;
    for (const TaskSpec& t : pool_[entry]) {
      for (const TaskOp& op : t.ops) {
        if (const auto* fx = std::get_if<FpgaExec>(&op)) {
          critSum += static_cast<double>(kernel_->clockPeriod(fx->config) -
                                         dev_->timing().clockMargin);
          ++execs;
        }
      }
    }
    std::uint64_t traceRecords = 0;
    for (std::size_t k = 0; k < kTraceKindCount; ++k) {
      traceRecords += kernel_->trace().count(static_cast<TraceKind>(k));
    }
    const OsMetrics& m = kernel_->metrics();
    const obs::MetricsRegistry& reg = kernel_->metricsRegistry();
    values = {
        {"ok", out.failed ? 0 : 1},
        {"crit_path_ns", execs == 0 ? 0 : critSum / double(execs)},
        {"sim_makespan_ms", toMilliseconds(m.makespan)},
        {"sim_mean_wait_ms", m.waitTime.mean() / double(kMillisecond)},
        {"core.downloads", static_cast<double>(m.downloads)},
        {"core.bits_downloaded", static_cast<double>(m.bitsDownloaded)},
        {"core.gc_runs", static_cast<double>(m.garbageCollections)},
        {"core.relocations", static_cast<double>(m.relocations)},
        {"core.trace_records", static_cast<double>(traceRecords)},
        {"core.spans",
         static_cast<double>(kernel_->spanTracer().spans().size())},
        {"fault.scrub_runs", familyTotal(reg, "vfpga_fault_scrub_runs_total")},
        {"fault.scrub_deferred",
         familyTotal(reg, "vfpga_fault_scrub_deferred_total")},
    };
    return out;
  }

  void reset() override {
    // The kernel detaches from the port on destruction: it goes first.
    kernel_.reset();
    plan_.reset();
    sim_.reset();
    compiler_.reset();
    port_.reset();
    dev_.reset();
  }

 private:
  DeviceProfile profile_;
  std::vector<CompiledCircuit> circuits_;
  std::vector<std::vector<TaskSpec>> pool_;
  std::uint64_t digest_ = kFnvBasis;

  // The last operation's system, kept alive for the check.
  std::unique_ptr<Device> dev_;
  std::unique_ptr<ConfigPort> port_;
  std::unique_ptr<Compiler> compiler_;
  std::unique_ptr<Simulation> sim_;
  std::unique_ptr<fault::FaultPlan> plan_;
  std::unique_ptr<OsKernel> kernel_;
};

}  // namespace

std::unique_ptr<Workload> makeOsCampaign(std::uint64_t seed,
                                         obs::SpanTracer* trace) {
  return std::make_unique<OsCampaign>(seed, trace);
}

}  // namespace hostbench
