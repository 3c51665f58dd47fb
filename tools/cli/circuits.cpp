// The circuit flow commands: list-circuits, list-devices, info, compile,
// simulate, lint (the design-rule checker) and equiv (the formal
// equivalence gate).
#include <fstream>
#include <sstream>

#include "analysis/equiv/verify.hpp"
#include "analysis/flow_lint.hpp"
#include "analysis/netlist_lint.hpp"
#include "analysis/timing_lint/timing_lint.hpp"
#include "cli.hpp"
#include "compile/loaded_circuit.hpp"
#include "fabric/sta.hpp"
#include "fabric/vcd.hpp"
#include "netlist/optimize.hpp"
#include "netlist/text_io.hpp"
#include "obs/json.hpp"
#include "sim/rng.hpp"

namespace vfpga::cli {

/// The catalogue of application circuits.
int listCircuitsCmd(const Args&) {
  std::printf("%-14s %-12s %8s %8s %6s %6s\n", "name", "domain", "gates",
              "DFFs", "ins", "outs");
  for (const workloads::AppCircuit& c : workloads::allSuites()) {
    const GateCounts n = c.netlist.counts();
    std::printf("%-14s %-12s %8zu %8zu %6zu %6zu\n", c.name.c_str(),
                c.domain.c_str(), n.combinational, n.dffs, n.inputs,
                n.outputs);
  }
  return 0;
}

/// Device profiles and their numbers.
int listDevicesCmd(const Args&) {
  std::printf("%-16s %6s %6s %5s %7s %12s %10s %9s\n", "name", "cols",
              "rows", "K", "wires", "config_bits", "full_ms", "partial?");
  for (const DeviceProfile& p : allProfiles()) {
    Device dev = p.makeDevice();
    ConfigPort port(dev, p.port);
    std::printf("%-16s %6u %6u %5u %7u %12u %10.2f %9s\n", p.name.c_str(),
                p.geometry.cols, p.geometry.rows, p.geometry.lutInputs,
                p.geometry.wiresPerChannel, dev.configMap().totalBits(),
                toMilliseconds(port.fullDownloadCost()),
                p.port.partialReconfig ? "yes" : "no");
  }
  return 0;
}

/// Geometry / config / timing detail of one device profile.
int infoCmd(const Args& a) {
  DeviceProfile p = profileByName(a.get("device"));
  Device dev = p.makeDevice();
  ConfigPort port(dev, p.port);
  std::printf("device profile: %s\n", p.name.c_str());
  std::printf("  CLB grid        %u x %u (%zu CLBs, %u-input LUTs)\n",
              p.geometry.cols, p.geometry.rows, p.geometry.clbCount(),
              p.geometry.lutInputs);
  std::printf("  routing         %u wires/channel, disjoint switchboxes\n",
              p.geometry.wiresPerChannel);
  std::printf("  I/O             %zu pads x %u slots = %zu pad slots\n",
              p.geometry.padCount(), p.geometry.slotsPerPad,
              p.geometry.padSlotCount());
  std::printf("  config RAM      %u bits in %u frames of %u bits\n",
              dev.configMap().totalBits(), dev.configMap().frameCount(),
              dev.configMap().frameBits());
  std::printf("  full download   %.3f ms (%s)\n",
              toMilliseconds(port.fullDownloadCost()),
              p.port.partialReconfig ? "partial reconfig supported"
                                     : "serial-full only");
  std::printf("  state access    %s\n",
              p.port.stateAccess ? "readback/writeback supported" : "none");
  return 0;
}

/// Compile + stats: optimizer summary, strip, bitstream size and download
/// cost, clock period and the timing report; --out writes the bitstream.
int compileCmd(const Args& a) {
  workloads::AppCircuit circuit = loadCircuit(a);
  DeviceProfile p = profileByName(a.get("device"));
  DeviceRig rig(p);

  Netlist nl = circuit.netlist;
  OptimizeStats ostats;
  if (!a.has("no-optimize")) {
    nl = optimize(nl, &ostats);
    std::printf("optimize: %zu -> %zu gates (%zu folded, %zu CSE, %zu dead)\n",
                ostats.gatesIn, ostats.gatesOut, ostats.constantsFolded,
                ostats.deduplicated, ostats.deadRemoved);
  }
  CompileOptions opt;
  opt.optimize = false;  // already done above
  CompiledCircuit c = compileStrip(a, rig.compiler, nl, opt);
  std::printf("compiled %s for %s:\n", circuit.name.c_str(), p.name.c_str());
  std::printf("  %zu LUT cells (%zu registered), depth %zu\n", c.cellCount(),
              c.ffCount(), c.mapped.depth());
  const Bitstream& bs = c.partialBitstream();
  std::printf("  strip width %u columns, %zu ports, %zu config frames\n",
              c.region.w, c.portCount(), bs.frameCount());
  std::printf("  partial bitstream %zu bits, download %.3f ms "
              "(full device: %.3f ms)\n",
              bs.bitCount(), toMilliseconds(rig.port.downloadCost(bs)),
              toMilliseconds(rig.port.fullDownloadCost()));
  rig.dev.applyBitstream(c.fullBitstream());
  if (!rig.dev.configOk()) {
    std::fprintf(stderr, "configuration fault: %s\n",
                 rig.dev.elaboration().faults.front().c_str());
    return 1;
  }
  std::printf("  min clock period %llu ns (%.1f MHz)\n",
              ull(rig.dev.minClockPeriod()),
              1e3 / static_cast<double>(rig.dev.minClockPeriod()));
  std::fputs(renderTimingReport(rig.dev, 3).c_str(), stdout);
  if (a.has("out")) {
    const auto bytes = serializeBitstream(bs);
    std::ofstream out(a.get("out"), std::ios::binary);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    std::printf("  wrote %zu bytes to %s\n", bytes.size(),
                a.get("out").c_str());
  }
  return 0;
}

/// Runs the circuit on the device with seeded random inputs, printing one
/// row per cycle; --vcd also writes the outputs as a VCD trace.
int simulateCmd(const Args& a) {
  workloads::AppCircuit circuit = loadCircuit(a);
  DeviceProfile p = profileByName(a.get("device"));
  Device dev = p.makeDevice();
  Compiler compiler(dev);
  CompiledCircuit c = compileStrip(a, compiler, circuit.netlist);
  dev.applyBitstream(c.fullBitstream());
  if (!dev.configOk()) {
    std::fprintf(stderr, "configuration fault: %s\n",
                 dev.elaboration().faults.front().c_str());
    return 1;
  }
  LoadedCircuit lc(dev, c);
  lc.applyInitialState();

  const auto cycles = static_cast<int>(a.count("cycles", 16));
  Rng rng(a.count("seed", 1));

  std::ofstream vcdFile;
  std::optional<VcdWriter> vcd;
  if (a.has("vcd")) {
    vcdFile.open(a.get("vcd"));
    vcd.emplace(vcdFile);
    for (const PortBinding& pb : c.ports) {
      if (pb.isInput) continue;
      vcd->addSignal(pb.name, [&lc, name = pb.name] {
        return lc.output(name);
      });
    }
  }

  // Header: input names then output names.
  std::printf("cycle |");
  for (const PortBinding& pb : c.ports) {
    if (pb.isInput) std::printf(" %s", pb.name.c_str());
  }
  std::printf(" ||");
  for (const PortBinding& pb : c.ports) {
    if (!pb.isInput) std::printf(" %s", pb.name.c_str());
  }
  std::printf("\n");
  for (int cycle = 0; cycle < cycles; ++cycle) {
    std::printf("%5d |", cycle);
    for (const PortBinding& pb : c.ports) {
      if (!pb.isInput) continue;
      const bool v = rng.bernoulli(0.5);
      lc.setInput(pb.name, v);
      std::printf(" %*d", static_cast<int>(pb.name.size()), v ? 1 : 0);
    }
    dev.evaluate();
    std::printf(" ||");
    for (const PortBinding& pb : c.ports) {
      if (pb.isInput) continue;
      std::printf(" %*d", static_cast<int>(pb.name.size()),
                  lc.output(pb.name) ? 1 : 0);
    }
    std::printf("\n");
    if (vcd) vcd->sample(static_cast<std::uint64_t>(cycle) * 10);
    dev.tick();
  }
  if (a.has("vcd")) {
    std::printf("wrote VCD trace to %s\n", a.get("vcd").c_str());
  }
  return 0;
}

namespace {

/// Auto-repair pass for the fixable lint rules. Netlist-level findings
/// (NL007 dead gates) are repaired by the equivalence-preserving optimizer
/// rewrite and the repaired .vnl is emitted; allocator-level findings
/// (AL004 unmerged idle strips) are runtime state, repaired in-process via
/// StripAllocator::repairUnmergedIdle() — see docs/ANALYSIS.md. Exit 0 iff
/// everything fixable was repaired and the re-lint came back clean.
int lintFixCmd(const Args& a) {
  if (!a.has("netlist")) {
    throw UsageError("--fix requires --netlist (built-in circuits are"
                     " read-only)");
  }
  const workloads::AppCircuit circuit = loadCircuit(a);
  const auto fixableCount = [](const analysis::Report& rep) {
    std::size_t n = 0;
    for (const analysis::Diagnostic& d : rep.diagnostics()) {
      if (d.rule == "NL007") ++n;
    }
    return n;
  };

  analysis::Report before;
  analysis::lintNetlist(circuit.netlist, before);
  const std::size_t found = fixableCount(before);

  OptimizeStats stats;
  const Netlist fixed = optimize(circuit.netlist, &stats);
  analysis::Report after;
  analysis::lintNetlist(fixed, after);
  const std::size_t left = fixableCount(after);

  std::fprintf(stderr,
               "lint --fix: %s: %zu fixable finding(s), %zu dead gate(s) "
               "removed, %zu fixable remaining, %zu error(s) after re-lint\n",
               circuit.name.c_str(), found, stats.deadRemoved, left,
               after.errorCount());
  return emitPayload(a, writeNetlistText(fixed),
                     left == 0 && after.ok() ? 0 : 1);
}

/// ,"key":["...",...] of escaped strings; nothing for an empty list.
void jsonStrings(std::ostringstream& os, const char* key,
                 const std::vector<std::string>& items) {
  if (items.empty()) return;
  os << ",\"" << key << "\":[";
  for (std::size_t k = 0; k < items.size(); ++k) {
    os << (k == 0 ? "" : ",") << "\"" << obs::jsonEscape(items[k]) << "\"";
  }
  os << "]";
}

/// The circuits a lint or equiv run covers: --all, or the one circuit.
std::vector<workloads::AppCircuit> selectedCircuits(const Args& a) {
  if (a.has("all")) return workloads::allSuites();
  return {loadCircuit(a)};
}

}  // namespace

/// Runs every analysis pass over the flow (netlist, mapping, placement,
/// routing, bitstream, timing, equivalence); nonzero exit on any
/// error-severity diagnostic. --list-rules prints the rule registry.
int lintCmd(const Args& a) {
  if (a.has("fix")) return lintFixCmd(a);
  if (a.has("list-rules")) {
    for (const analysis::RuleInfo& r : analysis::allRules()) {
      std::printf("%-6s %-8s %s\n       %s\n", r.id,
                  analysis::severityName(r.severity), r.title, r.description);
    }
    return 0;
  }

  DeviceProfile p = profileByName(a.get("device", "medium_partial"));
  Device dev = p.makeDevice();
  Compiler compiler(dev);
  const std::vector<workloads::AppCircuit> circuits = selectedCircuits(a);

  const bool json = a.has("json");
  std::size_t errors = 0;
  std::size_t warnings = 0;
  if (json) std::printf("[");
  for (std::size_t i = 0; i < circuits.size(); ++i) {
    const workloads::AppCircuit& circuit = circuits[i];
    analysis::Report rep;
    // A flow failure (CompileError, ...) on one circuit must not corrupt
    // the machine-readable stream: it is captured per circuit, keeping the
    // JSON array well-formed and stdout free of interleaved chatter.
    std::string failure;
    try {
      Netlist nl = circuit.netlist;
      if (!a.has("no-optimize")) nl = optimize(nl);
      analysis::lintNetlist(nl, rep);
      if (rep.ok()) {
        // The netlist is structurally sound: run the whole flow and lint
        // every compiled stage (mapping, placement, routing, bitstream).
        CompileOptions opt;
        opt.optimize = false;  // handled above
        const CompiledCircuit c = compileStrip(a, compiler, nl, opt);
        analysis::lintCompiled(c, dev.rrg(), dev.configMap(), rep);
        // Configure the device and close the loop: timing against the
        // family clock constraint (TA rules) and formal equivalence of the
        // configured fabric against the netlist that was compiled (EQ
        // rules). fullBitstream() blanks everything outside the circuit,
        // so reusing one device across --all iterations is safe.
        dev.applyBitstream(c.fullBitstream());
        analysis::lintTiming(dev, analysis::constraintsFor(p), rep);
        const analysis::equiv::ConfiguredCheck chk =
            analysis::equiv::checkConfiguredAgainst(dev, c, nl);
        analysis::equiv::lintEquivalence(chk, circuit.name, rep);
      }
    } catch (const std::exception& e) {
      failure = e.what();
      ++errors;
    }
    errors += rep.errorCount();
    warnings += rep.warningCount();
    if (json) {
      std::printf("%s{\"name\":\"%s\",", i == 0 ? "" : ",",
                  circuit.name.c_str());
      if (!failure.empty()) {
        std::printf("\"error\":\"%s\",", obs::jsonEscape(failure).c_str());
      }
      std::printf("\"report\":%s}", rep.renderJson().c_str());
    } else {
      if (!failure.empty()) {
        std::fprintf(stderr, "lint: %s: %s\n", circuit.name.c_str(),
                     failure.c_str());
      }
      std::printf("== %s ==\n%s", circuit.name.c_str(),
                  rep.renderText().c_str());
    }
  }
  if (json) {
    std::printf("]\n");
  } else {
    std::printf("lint: %zu error(s), %zu warning(s) across %zu circuit(s)\n",
                errors, warnings, circuits.size());
  }
  return errors != 0 ? 1 : 0;
}

/// Formal equivalence gate: compile each circuit, download it, extract the
/// configuration back out of the device and prove the fabric computes the
/// *source* netlist; with --relocate the circuit is additionally retargeted
/// to the rightmost strip and re-proven there. Output is byte-deterministic
/// for a given seed; exit 0 iff every stage of every circuit is equivalent.
int equivCmd(const Args& a) {
  if (!a.has("circuit") && !a.has("netlist") && !a.has("all")) {
    throw UsageError("needs --circuit, --netlist or --all");
  }
  DeviceProfile p = profileByName(a.get("device", "medium_partial"));
  const std::uint64_t seed = a.count("seed", 1);
  const std::vector<workloads::AppCircuit> circuits = selectedCircuits(a);

  struct Stage {
    std::string name;
    analysis::equiv::ConfiguredCheck chk;
  };
  const bool json = a.has("json");
  std::ostringstream os;
  std::size_t failed = 0;
  if (json) os << "[";
  for (std::size_t i = 0; i < circuits.size(); ++i) {
    const workloads::AppCircuit& circuit = circuits[i];
    std::vector<Stage> stages;
    std::string failure;
    try {
      Device dev = p.makeDevice();
      Compiler compiler(dev);
      CompileOptions co;
      co.seed = seed;
      const CompiledCircuit c = compileStrip(a, compiler, circuit.netlist, co);
      dev.applyBitstream(c.fullBitstream());
      stages.push_back({"post_pnr", analysis::equiv::checkConfiguredAgainst(
                                        dev, c, circuit.netlist)});
      if (a.has("relocate")) {
        const auto newX0 =
            static_cast<std::uint16_t>(dev.geometry().cols - c.region.w);
        const CompiledCircuit r = compiler.relocate(c, newX0);
        Device dev2 = p.makeDevice();
        dev2.applyBitstream(r.fullBitstream());
        stages.push_back({"post_relocate_x" + std::to_string(newX0),
                          analysis::equiv::checkConfiguredAgainst(
                              dev2, r, circuit.netlist)});
      }
    } catch (const std::exception& e) {
      failure = e.what();
    }
    bool circuitOk = failure.empty();
    for (const Stage& s : stages) {
      if (!s.chk.ok()) circuitOk = false;
    }
    if (!circuitOk) ++failed;

    if (json) {
      os << (i == 0 ? "" : ",") << "\n{\"name\":\""
         << obs::jsonEscape(circuit.name) << "\"";
      if (!failure.empty()) {
        os << ",\"error\":\"" << obs::jsonEscape(failure) << "\"";
      }
      os << ",\"equivalent\":" << (circuitOk ? "true" : "false")
         << ",\"stages\":[";
      for (std::size_t s = 0; s < stages.size(); ++s) {
        const Stage& st = stages[s];
        os << (s == 0 ? "" : ",") << "{\"stage\":\"" << st.name
           << "\",\"equivalent\":" << (st.chk.ok() ? "true" : "false")
           << ",\"fully_proven\":"
           << (st.chk.result.fullyProven ? "true" : "false") << ",\"summary\":\""
           << obs::jsonEscape(st.chk.result.summary()) << "\"";
        jsonStrings(os, "extraction_problems", st.chk.extracted.problems);
        std::vector<std::string> cxs;
        for (const auto& cx : st.chk.result.counterexamples) {
          cxs.push_back(cx.render());
        }
        jsonStrings(os, "counterexamples", cxs);
        os << "}";
      }
      os << "]}";
    } else {
      os << "== " << circuit.name << " ==\n";
      if (!failure.empty()) os << "  flow error: " << failure << "\n";
      for (const Stage& st : stages) {
        os << "  " << st.name << ": "
           << (st.chk.ok() ? "EQUIVALENT" : "NOT EQUIVALENT") << " ("
           << st.chk.result.summary() << ")\n";
        for (const std::string& prob : st.chk.extracted.problems) {
          os << "    extraction: " << prob << "\n";
        }
        for (const std::string& prob : st.chk.result.portMismatches) {
          os << "    port: " << prob << "\n";
        }
        for (const std::string& prob : st.chk.result.stateMismatches) {
          os << "    state: " << prob << "\n";
        }
        for (const auto& cx : st.chk.result.counterexamples) {
          os << "    counterexample: " << cx.render() << "\n";
        }
      }
    }
  }
  if (json) {
    os << "\n]\n";
  } else {
    os << "equiv: " << circuits.size() << " circuit(s), " << failed
       << " failure(s)\n";
  }
  return emitPayload(a, os.str(), failed != 0 ? 1 : 0);
}

}  // namespace vfpga::cli
