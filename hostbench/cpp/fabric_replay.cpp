// fabric_replay: the simulator path behind simulate, the differential
// oracle and replay. One operation takes the next image of a seeded pool
// (library circuits and random netlists, compiled and relocated to seeded
// strips during set-up), downloads it into one device whose
// CompiledFabric shares a kernel cache, resolves the compiled program,
// replays seeded stimulus through Device::evaluate/tick, and runs the same
// stimulus as lane 0 of 64 in a BatchEvaluator.
//
// The pool is smaller than the kernel cache, and set-up runs every image
// once, so timed operations hit the cache: levelizing and the interpretive
// reference walk (which records each image's reference digest) happen only
// in set-up. The output check requires the scalar digest, the batch lane-0
// digest and the interpretive reference digest to be equal, with zero
// interpretive fallbacks.
#include <memory>
#include <optional>
#include <vector>

#include "compile/compiler.hpp"
#include "fabric/config_port.hpp"
#include "fabric/device_family.hpp"
#include "fabric/sta.hpp"
#include "harness.hpp"
#include "sim/compiled/batch.hpp"
#include "sim/compiled/compiled_fabric.hpp"
#include "sim/compiled/kernel_cache.hpp"
#include "workloads/app_circuits.hpp"
#include "workloads/random_netlist.hpp"

namespace hostbench {
namespace {

using namespace vfpga;

constexpr std::size_t kPool = 60;  // below CompiledKernelCache's 64 entries
constexpr std::uint16_t kMaxWidth = 6;
constexpr std::uint32_t kCycles = 4000;
/// Stimulus vectors per image, replayed cyclically over the kCycles: the
/// registers keep evolving, and the benchmark's own input stays small
/// enough to live in cache, so it measures the engines, not its stimulus.
constexpr std::uint32_t kStimulusPeriod = 256;

struct Image {
  Bitstream bitstream;
  std::vector<std::uint32_t> inputSlots;
  std::vector<std::uint32_t> outputSlots;
  std::size_t ffCount = 0;
  /// Stimulus words, kStimulusPeriod x inputSlots: bit i = lane i's input
  /// value; the scalar replay drives lane 0.
  std::vector<std::uint64_t> stimulus;
  std::uint64_t referenceDigest = 0;
  double critPathNs = 0;
  double downloadMs = 0;
  double runMs = 0;
};

/// Folds one cycle's output bits (or the final register state) into a
/// digest, 64 bits at a time.
class BitDigest {
 public:
  void bit(bool b) {
    word_ |= static_cast<std::uint64_t>(b) << n_;
    if (++n_ == 64) flush();
  }
  void flush() {
    h_ = fnv(h_, word_ ^ n_);
    word_ = 0;
    n_ = 0;
  }
  std::uint64_t value() {
    flush();
    return h_;
  }

 private:
  std::uint64_t h_ = kFnvBasis;
  std::uint64_t word_ = 0;
  unsigned n_ = 0;
};

/// Replays an image's stimulus through a configured device (compiled or
/// interpretive, as attached) from the all-zero register state.
std::uint64_t replayDevice(Device& dev, const Image& img) {
  BitDigest d;
  dev.resetFfs();
  const std::size_t nIn = img.inputSlots.size();
  for (std::uint32_t cyc = 0; cyc < kCycles; ++cyc) {
    const std::uint64_t* words =
        img.stimulus.data() + (cyc % kStimulusPeriod) * nIn;
    for (std::size_t i = 0; i < nIn; ++i) {
      dev.setPadSlotInput(img.inputSlots[i], (words[i] & 1) != 0);
    }
    dev.evaluate();
    for (std::uint32_t slot : img.outputSlots) d.bit(dev.padSlotOutput(slot));
    d.flush();
    dev.tick();
  }
  for (bool b : dev.ffState()) d.bit(b);
  return d.value();
}

std::uint64_t replayBatch(compiled::BatchEvaluator& batch, const Image& img) {
  BitDigest d;
  batch.resetFfs();
  const std::size_t nIn = img.inputSlots.size();
  for (std::uint32_t cyc = 0; cyc < kCycles; ++cyc) {
    const std::uint64_t* words =
        img.stimulus.data() + (cyc % kStimulusPeriod) * nIn;
    for (std::size_t i = 0; i < nIn; ++i) {
      batch.setPadInput(img.inputSlots[i], words[i]);
    }
    batch.evaluate();
    for (std::uint32_t slot : img.outputSlots) {
      d.bit((batch.padOutput(slot) & 1) != 0);
    }
    d.flush();
    batch.tick();
  }
  for (std::uint32_t i = 0; i < img.ffCount; ++i) {
    d.bit((batch.ffWord(i) & 1) != 0);
  }
  return d.value();
}

/// Compiles into the narrowest strip of at most kMaxWidth columns.
std::optional<CompiledCircuit> compileNarrow(Compiler& compiler,
                                             const Netlist& nl) {
  for (std::uint16_t w = 1; w <= kMaxWidth; ++w) {
    try {
      return compiler.compile(nl, Region::columns(compiler.geometry(), 0, w));
    } catch (const CompileError&) {
    }
  }
  return std::nullopt;
}

class FabricReplay final : public Workload {
 public:
  FabricReplay(std::uint64_t seed, obs::SpanTracer* trace)
      : profile_(mediumPartialProfile()),
        dev_(profile_.makeDevice()),
        engine_(dev_, &cache_) {
    Rng rng(seed);
    std::vector<workloads::AppCircuit> library;
    {
      auto span = scope(trace, "workloads.gen");
      library = workloads::allSuites();
    }
    Device ref = profile_.makeDevice();  // interpretive: no engine attached
    ConfigPort port(ref, profile_.port);   // cost queries only
    Compiler compiler(ref);
    compiler.setObservers(trace, nullptr);
    auto add = [&](const Netlist& nl) {
      std::optional<CompiledCircuit> c = compileNarrow(compiler, nl);
      if (!c) return false;
      const auto x0 = static_cast<std::uint16_t>(
          rng.below(ref.geometry().cols - c->region.w + 1u));
      if (x0 != c->region.x0) c = compiler.relocate(*c, x0);
      pool_.push_back(makeImage(ref, port, *c, rng, trace));
      return true;
    };
    for (const workloads::AppCircuit& a : library) {
      if (add(a.netlist)) ++libraryImages_;
    }
    const workloads::RandomNetlistParams params{12, 6, 60, 4, 2};
    while (pool_.size() < kPool) {
      Netlist nl;
      {
        auto span = scope(trace, "workloads.gen");
        Rng r(rng.next());
        nl = workloads::randomNetlist(params, r);
      }
      add(nl);
    }
  }

  std::size_t poolSize() const override { return pool_.size(); }
  std::string describe() const override {
    return std::to_string(pool_.size()) + " images (" +
           std::to_string(libraryImages_) + " library circuits)";
  }
  std::uint64_t inputDigest() const override { return digest_; }
  std::size_t warmupOps() const override { return pool_.size(); }

  void run(std::size_t entry, obs::SpanTracer* trace) override {
    const Image& img = pool_[entry];
    before_ = engine_.stats();
    {
      auto span = scope(trace, "fabric.download");
      dev_.clearConfig();
      dev_.applyBitstream(img.bitstream);
    }
    {
      auto span = scope(trace, "sim_compiled.resolve");
      ready_ = engine_.ready();
    }
    {
      auto span = scope(trace, "sim_compiled.scalar");
      scalarDigest_ = replayDevice(dev_, img);
    }
    if (!ready_) return;
    auto span = scope(trace, "sim_compiled.batch");
    compiled::BatchEvaluator batch(engine_.program());
    batchDigest_ = replayBatch(batch, img);
  }

  OpCheck check(std::size_t entry, Values& values) override {
    const Image& img = pool_[entry];
    const compiled::CompiledFabricStats& s = engine_.stats();
    const std::uint64_t fallbacks = s.fallbacks - before_.fallbacks;
    OpCheck out;
    if (!ready_ || fallbacks != 0) {
      out.failed = out.wrong = true;
      out.cause = "interpretive_fallback";
    } else if (scalarDigest_ != img.referenceDigest ||
               batchDigest_ != img.referenceDigest) {
      out.failed = out.wrong = true;
      out.cause = "digest_mismatch";
    }
    values = {
        {"ok", out.failed ? 0 : 1},
        {"crit_path_ns", img.critPathNs},
        {"sim_mean_wait_ms", img.downloadMs},
        {"sim_makespan_ms", img.downloadMs + img.runMs},
        // Cumulative: after warm-up these are the cold builds of set-up.
        {"sim_compiled.builds", static_cast<double>(s.builds)},
        {"sim_compiled.hits", static_cast<double>(s.hits - before_.hits)},
        {"sim_compiled.fallbacks", static_cast<double>(fallbacks)},
        {"sim_compiled.program_ops",
         ready_ ? static_cast<double>(engine_.program()->opCount()) : 0},
        {"sim_compiled.cycles",
         static_cast<double>(s.compiledEvaluates - before_.compiledEvaluates +
                             s.compiledTicks - before_.compiledTicks)},
    };
    return out;
  }

 private:
  Image makeImage(Device& ref, ConfigPort& port, const CompiledCircuit& c,
                  Rng& rng, obs::SpanTracer* trace) {
    Image img;
    img.bitstream = c.partialBitstream();
    ref.clearConfig();
    ref.applyBitstream(img.bitstream);
    const Elaboration& e = ref.elaboration();
    img.inputSlots = e.inputSlots;
    for (const Elaboration::PadOut& po : e.padOuts) {
      img.outputSlots.push_back(po.slot);
    }
    img.ffCount = e.ffCount;
    img.stimulus.resize(std::size_t{kStimulusPeriod} * img.inputSlots.size());
    for (std::uint64_t& w : img.stimulus) w = rng.next();

    const TimingAnalysis ta = analyzeTiming(ref, 1);
    img.critPathNs =
        ta.paths.empty() ? 0.0 : static_cast<double>(ta.paths.front().arrival);
    img.downloadMs = toMilliseconds(port.downloadCost(img.bitstream));
    img.runMs = toMilliseconds(ta.minClockPeriod) * kCycles;
    {
      auto span = scope(trace, "fabric.interp");
      img.referenceDigest = replayDevice(ref, img);
    }
    digest_ = fnv(digest_, img.referenceDigest);
    return img;
  }

  DeviceProfile profile_;
  Device dev_;
  compiled::CompiledKernelCache cache_;
  compiled::CompiledFabric engine_;
  std::vector<Image> pool_;
  std::size_t libraryImages_ = 0;
  std::uint64_t digest_ = kFnvBasis;

  // Output of the last operation.
  compiled::CompiledFabricStats before_;
  bool ready_ = false;
  std::uint64_t scalarDigest_ = 0;
  std::uint64_t batchDigest_ = 0;
};

}  // namespace

std::unique_ptr<Workload> makeFabricReplay(std::uint64_t seed,
                                           obs::SpanTracer* trace) {
  return std::make_unique<FabricReplay>(seed, trace);
}

}  // namespace hostbench
