#include "sim/compiled/oracle.hpp"

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "analysis/equiv/extract.hpp"
#include "compile/compiler.hpp"
#include "fabric/device.hpp"
#include "sim/compiled/batch.hpp"
#include "sim/compiled/compiled_fabric.hpp"
#include "util/hash.hpp"

namespace vfpga::compiled {

namespace {

/// Stimulus bit for (lane, cycle, input-slot position). Derived from the
/// seed alone, so the scalar phases, the batch phase and the sampled-lane
/// cross-checks all reconstruct identical drive patterns independently.
bool stimBit(std::uint64_t seed, unsigned lane, std::uint32_t cycle,
             std::size_t pos) {
  const std::uint64_t word =
      splitmix64(seed ^ 0xd1342543de82ef95ull * (cycle + 1) ^
                 0xaf251af3b0f025b5ull * (lane + 1) ^ (pos >> 6));
  return ((word >> (pos & 63)) & 1) != 0;
}

/// One recorded lockstep trace: per cycle, every output-pad value (in
/// elaboration padOuts order, post-evaluate) then every dense FF value
/// (post-tick), one byte each.
struct Trace {
  std::vector<std::uint8_t> data;
  std::size_t stride = 0;  ///< bytes per cycle

  std::uint64_t digest() const { return fnv1aBytes(kFnvOffset, data); }
};

/// Fixed I/O shape of the configured image, captured once so every phase
/// drives and samples the same points.
struct IoShape {
  std::vector<std::uint32_t> inputSlots;
  std::vector<std::uint32_t> outSlots;
  std::size_t ffCount = 0;
};

IoShape captureShape(Device& dev) {
  const Elaboration& e = dev.elaboration();
  IoShape s;
  s.inputSlots = e.inputSlots;
  s.outSlots.reserve(e.padOuts.size());
  for (const Elaboration::PadOut& po : e.padOuts) s.outSlots.push_back(po.slot);
  s.ffCount = e.ffCount;
  return s;
}

/// Interpretive (or fast-path-served — the caller controls attachment)
/// replay from the all-zero register state, recording the trace.
Trace runDevice(Device& dev, const IoShape& shape, std::uint64_t seed,
                unsigned lane, std::uint32_t cycles) {
  Trace t;
  t.stride = shape.outSlots.size() + shape.ffCount;
  t.data.reserve(static_cast<std::size_t>(cycles) * t.stride);
  dev.resetFfs();
  for (std::uint32_t cyc = 0; cyc < cycles; ++cyc) {
    for (std::size_t pos = 0; pos < shape.inputSlots.size(); ++pos) {
      dev.setPadSlotInput(shape.inputSlots[pos], stimBit(seed, lane, cyc, pos));
    }
    dev.evaluate();
    for (std::uint32_t slot : shape.outSlots) {
      t.data.push_back(dev.padSlotOutput(slot) ? 1 : 0);
    }
    dev.tick();
    const std::vector<bool> ff = dev.ffState();
    for (std::size_t i = 0; i < shape.ffCount; ++i) {
      t.data.push_back(i < ff.size() && ff[i] ? 1 : 0);
    }
  }
  return t;
}

/// Compares two traces, counting mismatched bytes; records a first-failure
/// description under `label`.
std::uint64_t compareTraces(const Trace& ref, const Trace& got,
                            const IoShape& shape, const std::string& label,
                            std::vector<std::string>& problems) {
  std::uint64_t bad = 0;
  if (ref.data.size() != got.data.size()) {
    problems.push_back(label + ": trace size mismatch");
    return 1;
  }
  for (std::size_t i = 0; i < ref.data.size(); ++i) {
    if (ref.data[i] == got.data[i]) continue;
    if (bad == 0) {
      const std::size_t cyc = ref.stride == 0 ? 0 : i / ref.stride;
      const std::size_t off = ref.stride == 0 ? 0 : i % ref.stride;
      const bool isOut = off < shape.outSlots.size();
      problems.push_back(
          label + ": first divergence at cycle " + std::to_string(cyc) +
          (isOut ? " output pad slot " + std::to_string(shape.outSlots[off])
                 : " ff " + std::to_string(off - shape.outSlots.size())) +
          " (ref=" + std::to_string(int{ref.data[i]}) +
          " got=" + std::to_string(int{got.data[i]}) + ")");
    }
    ++bad;
  }
  return bad;
}

}  // namespace

OracleReport runDifferentialOracle(Device& dev, const CompiledCircuit& c,
                                   const OracleOptions& opt,
                                   CompiledKernelCache* cache) {
  OracleReport rep;
  rep.circuit = c.name;
  rep.cycles = opt.cycles;

  if (opt.checkExtraction) {
    analysis::equiv::ExtractedDesign ext =
        analysis::equiv::extractConfigured(dev, c);
    rep.extractionOk = ext.ok();
    rep.extractedCells = ext.mapped.cells.size();
    if (!rep.extractionOk) {
      for (const std::string& p : ext.problems) {
        rep.problems.push_back("extract: " + p);
      }
      for (const std::string& p : ext.portProblems) {
        rep.problems.push_back("extract port: " + p);
      }
    }
  }

  const IoShape shape = captureShape(dev);
  const bool entryInhibit = dev.fastPathInhibited();
  FastPathKernel* entryKernel = dev.fastPath();

  // Phase 1: interpretive reference.
  dev.attachFastPath(nullptr);
  dev.setFastPathInhibited(true);
  const Trace ref = runDevice(dev, shape, opt.seed, 0, opt.cycles);
  rep.referenceDigest = ref.digest();
  dev.setFastPathInhibited(false);

  // Phase 2: compiled single-lane engine, same stimulus and start state.
  std::shared_ptr<const FabricProgram> program;
  {
    CompiledFabric engine(dev, cache);
    const Trace got = runDevice(dev, shape, opt.seed, 0, opt.cycles);
    rep.divergences += compareTraces(ref, got, shape, "compiled", rep.problems);
    rep.servedCompiled = engine.stats().compiledEvaluates == opt.cycles &&
                         engine.stats().fallbacks == 0;
    program = engine.program();
    if (program != nullptr) {
      rep.programOps = program->opCount();
      rep.programLevels = program->levels();
    }
  }

  // Phase 3: 64-wide batch, lane 0 == the scalar stimulus. Sampled other
  // lanes are cross-checked against fresh interpretive runs below.
  if (opt.batch && program != nullptr) {
    std::vector<unsigned> probeLanes;
    for (unsigned i = 0; i < opt.batchProbeLanes; ++i) {
      const unsigned lane = 63 - 23 * i;  // 63, 40, 17, ... distinct, > 0
      if (lane == 0 || lane >= BatchEvaluator::kLanes) break;
      probeLanes.push_back(lane);
    }
    std::vector<Trace> laneTrace(1 + probeLanes.size());
    for (Trace& t : laneTrace) {
      t.stride = shape.outSlots.size() + shape.ffCount;
      t.data.reserve(static_cast<std::size_t>(opt.cycles) * t.stride);
    }

    BatchEvaluator batch(program);
    batch.resetFfs();
    for (std::uint32_t cyc = 0; cyc < opt.cycles; ++cyc) {
      for (std::size_t pos = 0; pos < shape.inputSlots.size(); ++pos) {
        std::uint64_t word = 0;
        for (unsigned lane = 0; lane < BatchEvaluator::kLanes; ++lane) {
          if (stimBit(opt.seed, lane, cyc, pos)) word |= 1ull << lane;
        }
        batch.setPadInput(shape.inputSlots[pos], word);
      }
      batch.evaluate();
      auto recordOuts = [&](Trace& t, unsigned lane) {
        for (std::uint32_t slot : shape.outSlots) {
          t.data.push_back((batch.padOutput(slot) >> lane) & 1);
        }
      };
      recordOuts(laneTrace[0], 0);
      for (std::size_t i = 0; i < probeLanes.size(); ++i) {
        recordOuts(laneTrace[1 + i], probeLanes[i]);
      }
      batch.tick();
      auto recordFfs = [&](Trace& t, unsigned lane) {
        for (std::size_t i = 0; i < shape.ffCount; ++i) {
          t.data.push_back(
              (batch.ffWord(static_cast<std::uint32_t>(i)) >> lane) & 1);
        }
      };
      recordFfs(laneTrace[0], 0);
      for (std::size_t i = 0; i < probeLanes.size(); ++i) {
        recordFfs(laneTrace[1 + i], probeLanes[i]);
      }
    }

    rep.divergences +=
        compareTraces(ref, laneTrace[0], shape, "batch lane 0", rep.problems);
    dev.setFastPathInhibited(true);
    for (std::size_t i = 0; i < probeLanes.size(); ++i) {
      const Trace laneRef =
          runDevice(dev, shape, opt.seed, probeLanes[i], opt.cycles);
      rep.divergences += compareTraces(
          laneRef, laneTrace[1 + i], shape,
          "batch lane " + std::to_string(probeLanes[i]), rep.problems);
    }
    dev.setFastPathInhibited(false);
  }

  dev.setFastPathInhibited(entryInhibit);
  dev.attachFastPath(entryKernel);
  return rep;
}

}  // namespace vfpga::compiled
