// cad_verify: the compile-and-prove path behind `vfpga_cli compile` and
// `equiv`. One operation compiles one seeded random netlist into a fixed
// 8-column strip of medium_partial, downloads it (clearConfig +
// applyBitstream) and proves the configured fabric equal to the source
// netlist in two stages: checkConfigured proves the fabric equal to the
// compiled mapped netlist (registers pinned by CLB site, the proof the OS
// runs after relocation, scrub repair and migration), and checkEquivalence
// proves the mapped netlist equal to the source netlist.
//
// The output check, outside the timed region, runs the configured device
// in lockstep with the source netlist's Evaluator from reset. A compile
// error, a lockstep mismatch or a "not equivalent" verdict of either stage
// is a failed operation. A lockstep mismatch or a refuted fabric stage
// marks the run incorrect; a refuted source stage the lockstep run and the
// fabric stage do not confirm stays a counted failure.
//
// The one-call proof checkConfiguredAgainst is not timed: it calls some
// correct designs "NOT equivalent" (see runPinnedFalseAlarm).
#include <optional>
#include <string>
#include <vector>

#include "analysis/equiv/check.hpp"
#include "analysis/equiv/extract.hpp"
#include "analysis/equiv/verify.hpp"
#include "compile/compiler.hpp"
#include "compile/loaded_circuit.hpp"
#include "fabric/config_port.hpp"
#include "fabric/device_family.hpp"
#include "fabric/sta.hpp"
#include "harness.hpp"
#include "netlist/evaluator.hpp"
#include "workloads/random_netlist.hpp"

namespace hostbench {
namespace {

using namespace vfpga;

namespace equiv = analysis::equiv;

constexpr std::size_t kPool = 256;
constexpr int kLockstepCycles = 1000;

struct Entry {
  Netlist netlist;
  std::uint64_t stimulusSeed = 0;
};

class CadVerify final : public Workload {
 public:
  CadVerify(const workloads::RandomNetlistParams& params,
            const std::vector<std::uint64_t>& netlistSeeds,
            std::uint16_t stripWidth, obs::SpanTracer* trace)
      : profile_(mediumPartialProfile()),
        dev_(profile_.makeDevice()),
        port_(dev_, profile_.port),
        compiler_(dev_),
        region_(Region::columns(dev_.geometry(), 0, stripWidth)) {
    auto span = scope(trace, "workloads.gen");
    for (std::uint64_t s : netlistSeeds) {
      Rng rng(s);
      Entry e;
      e.netlist = workloads::randomNetlist(params, rng);
      e.stimulusSeed = s * 0x9e3779b97f4a7c15ull + 1;
      digest_ = fnv(digest_, s);
      digest_ = fnv(digest_, e.netlist.size());
      pool_.push_back(std::move(e));
    }
  }

  std::size_t poolSize() const override { return pool_.size(); }
  std::string describe() const override {
    return std::to_string(pool_.size()) + " random netlists";
  }
  std::uint64_t inputDigest() const override { return digest_; }
  std::size_t warmupOps() const override { return 16; }

  void run(std::size_t entry, obs::SpanTracer* trace) override {
    const Netlist& nl = pool_[entry].netlist;
    compiler_.setObservers(trace, nullptr);
    try {
      circuit_ = compiler_.compile(nl, region_);
    } catch (const CompileError&) {
      return;
    }
    {
      auto span = scope(trace, "fabric.download");
      bitstream_ = circuit_->partialBitstream();
      dev_.clearConfig();
      dev_.applyBitstream(bitstream_);
    }
    auto span = scope(trace, "analysis_equiv.check");
    fabricProof_ = equiv::checkConfigured(dev_, *circuit_);
    sourceProof_ = equiv::checkEquivalence(
        nl, equiv::mappedToNetlist(circuit_->mapped, nl.name() + "@mapped"));
  }

  /// Untimed: the one-call proof of the last operation's fabric against
  /// its source netlist.
  bool provenAgainstSource(std::size_t entry) {
    return equiv::checkConfiguredAgainst(dev_, *circuit_, pool_[entry].netlist)
        .ok();
  }

  OpCheck check(std::size_t entry, Values& values) override {
    OpCheck out;
    if (!circuit_) {
      out.failed = true;
      out.cause = "compile_error";
      values = {{"ok", 0}};
      return out;
    }
    if (!lockstep(pool_[entry])) {
      out.failed = true;
      out.wrong = true;
      out.cause = "lockstep_mismatch";
    } else if (!fabricProof_->ok()) {
      // Registers are pinned by site: the fabric differs from what the
      // mapper produced, in a way random stimulus missed.
      out.failed = true;
      out.wrong = true;
      out.cause = "fabric_refuted";
    } else if (!sourceProof_->equivalent) {
      out.failed = true;
      out.cause = "verdict_contradicted";
    }

    const TimingAnalysis ta = analyzeTiming(dev_, 1);
    const double critNs =
        ta.paths.empty() ? 0.0 : static_cast<double>(ta.paths.front().arrival);
    // Modelled configuration latency: the partial download plus, for
    // circuits with nonzero register init values, the state writeback.
    const SimDuration configure =
        port_.downloadCost(bitstream_) +
        (circuit_->needsInitialState()
             ? port_.stateWriteCost(circuit_->ffCount())
             : 0);
    const double downloadMs = toMilliseconds(configure);
    const double runMs = toMilliseconds(ta.minClockPeriod) * kLockstepCycles;
    const equiv::EquivResult& f = fabricProof_->result;
    const equiv::EquivResult& r = *sourceProof_;
    values = {
        {"ok", out.failed ? 0 : 1},
        {"crit_path_ns", critNs},
        {"sim_mean_wait_ms", downloadMs},
        {"sim_makespan_ms", downloadMs + runMs},
        {"route.iterations", circuit_->routes.iterations},
        {"route.nodes_expanded",
         static_cast<double>(circuit_->routes.nodesExpanded)},
        {"analysis_equiv.cones_exhaustive",
         static_cast<double>(f.conesExhaustive + r.conesExhaustive)},
        {"analysis_equiv.vectors_exhaustive",
         static_cast<double>(f.exhaustiveVectors + r.exhaustiveVectors)},
        {"analysis_equiv.cones_structural",
         static_cast<double>(f.conesStructural + r.conesStructural)},
        {"analysis_equiv.cones_bdd",
         static_cast<double>(f.conesBdd + r.conesBdd)},
        {"analysis_equiv.bdd_nodes",
         static_cast<double>(f.bddNodes + r.bddNodes)},
        {"analysis_equiv.cones_seqsim",
         static_cast<double>(f.conesSequentialSim + r.conesSequentialSim)},
        {"analysis_equiv.fully_proven_frac",
         f.fullyProven && r.fullyProven ? 1 : 0},
    };
    return out;
  }

  void reset() override {
    circuit_.reset();
    fabricProof_.reset();
    sourceProof_.reset();
  }

 private:
  /// Runs the configured device against the source Evaluator from reset
  /// over seeded input vectors; true when every output agrees every cycle.
  bool lockstep(const Entry& e) {
    const Netlist& nl = e.netlist;
    const CompiledCircuit& c = *circuit_;
    // Inputs the optimizer removed have no pad; they cannot matter.
    std::vector<std::int64_t> inSlot;
    for (GateId g : nl.inputs()) {
      std::int64_t slot = -1;
      for (const PortBinding& p : c.ports) {
        if (p.isInput && p.name == nl.gate(g).name) slot = p.padSlot;
      }
      inSlot.push_back(slot);
    }
    std::vector<std::uint32_t> outSlot;
    for (GateId g : nl.outputs()) {
      bool found = false;
      for (const PortBinding& p : c.ports) {
        if (!p.isInput && p.name == nl.gate(g).name) {
          outSlot.push_back(p.padSlot);
          found = true;
        }
      }
      if (!found) return false;
    }

    dev_.resetFfs();
    LoadedCircuit(dev_, c).applyInitialState();
    Evaluator ref(nl);
    ref.reset();
    Rng drive(e.stimulusSeed);
    std::vector<bool> in(inSlot.size());
    for (int cycle = 0; cycle < kLockstepCycles; ++cycle) {
      for (std::size_t i = 0; i < in.size(); ++i) {
        in[i] = drive.bernoulli(0.5);
        if (inSlot[i] >= 0) {
          dev_.setPadSlotInput(static_cast<std::size_t>(inSlot[i]), in[i]);
        }
      }
      ref.setInputs(in);
      ref.eval();
      dev_.evaluate();
      for (std::size_t o = 0; o < outSlot.size(); ++o) {
        if (dev_.padSlotOutput(outSlot[o]) != ref.value(nl.outputs()[o])) {
          return false;
        }
      }
      ref.tick();
      dev_.tick();
    }
    return true;
  }

  DeviceProfile profile_;
  Device dev_;
  ConfigPort port_;  ///< cost queries only
  Compiler compiler_;
  Region region_;
  std::vector<Entry> pool_;
  std::uint64_t digest_ = kFnvBasis;

  // Output of the last operation.
  std::optional<CompiledCircuit> circuit_;
  Bitstream bitstream_;
  std::optional<equiv::ConfiguredCheck> fabricProof_;
  std::optional<equiv::EquivResult> sourceProof_;
};

const workloads::RandomNetlistParams kParams{16, 6, 80, 4, 2};

}  // namespace

std::unique_ptr<Workload> makeCadVerify(std::uint64_t seed,
                                        obs::SpanTracer* trace) {
  Rng master(seed);
  std::vector<std::uint64_t> seeds(kPool);
  for (std::uint64_t& s : seeds) s = master.next();
  return std::make_unique<CadVerify>(kParams, seeds, 8, trace);
}

PinnedCase runPinnedFalseAlarm() {
  CadVerify w(workloads::RandomNetlistParams{8, 6, 60, 4, 2}, {1022}, 6,
              nullptr);
  w.run(0, nullptr);
  Values values;
  PinnedCase out;
  out.operation = w.check(0, values);
  out.provenAgainstSource = w.provenAgainstSource(0);
  return out;
}

}  // namespace hostbench
