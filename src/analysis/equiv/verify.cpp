#include "analysis/equiv/verify.hpp"

#include <utility>

namespace vfpga::analysis::equiv {

namespace {

ConfiguredCheck runCheck(Device& dev, const CompiledCircuit& c,
                         const Netlist& golden, EquivOptions opt,
                         bool pinBySite) {
  ConfiguredCheck chk;
  chk.extracted = extractConfigured(dev, c);
  if (!chk.extracted.ok()) {
    chk.result.equivalent = false;
    chk.result.fullyProven = false;
    return chk;
  }
  if (pinBySite) {
    // Golden = mappedToNetlist(c.mapped): its DFF declaration order is the
    // mapped cell order, i.e. exactly the ffSites order. The extracted
    // side's k-th DFF is the k-th registered extracted cell; its site is
    // in extracted.cellSites, so sites identify the pairs precisely.
    std::vector<std::pair<std::uint32_t, std::uint32_t>> pins;
    std::vector<std::pair<std::pair<std::uint16_t, std::uint16_t>,
                          std::uint32_t>> revisedBySite;
    std::uint32_t ffOrd = 0;
    for (std::size_t cc = 0; cc < chk.extracted.mapped.cells.size(); ++cc) {
      if (!chk.extracted.mapped.cells[cc].hasFf) continue;
      revisedBySite.push_back({{chk.extracted.cellSites[cc].x,
                                chk.extracted.cellSites[cc].y},
                               ffOrd++});
    }
    for (std::uint32_t k = 0; k < c.ffSites.size(); ++k) {
      for (const auto& [site, ord] : revisedBySite) {
        if (site.first == c.ffSites[k].x && site.second == c.ffSites[k].y) {
          pins.emplace_back(k, ord);
          break;
        }
      }
    }
    opt.pinnedFfPairs = std::move(pins);
  }
  const Netlist revised =
      mappedToNetlist(chk.extracted.mapped, c.name + "@extracted");
  chk.result = checkEquivalence(golden, revised, opt);
  return chk;
}

}  // namespace

ConfiguredCheck checkConfigured(Device& dev, const CompiledCircuit& c,
                                EquivOptions opt) {
  const Netlist golden = mappedToNetlist(c.mapped, c.name + "@mapped");
  return runCheck(dev, c, golden, std::move(opt), /*pinBySite=*/true);
}

ConfiguredCheck checkConfiguredAgainst(Device& dev, const CompiledCircuit& c,
                                       const Netlist& golden,
                                       EquivOptions opt) {
  return runCheck(dev, c, golden, std::move(opt), /*pinBySite=*/false);
}

void lintEquivalence(const ConfiguredCheck& chk, const std::string& circuit,
                     Report& rep) {
  for (const std::string& p : chk.extracted.problems) {
    rep.add("EQ001", circuit + ": " + p);
  }
  for (const std::string& p : chk.extracted.portProblems) {
    rep.add("EQ005", circuit + ": " + p);
  }
  if (!chk.extracted.ok()) return;  // nothing functional to compare
  const EquivResult& r = chk.result;
  for (const std::string& p : r.portMismatches) {
    rep.add("EQ005", circuit + ": " + p);
  }
  for (const std::string& p : r.stateMismatches) {
    rep.add("EQ003", circuit + ": " + p);
  }
  for (const Counterexample& cx : r.counterexamples) {
    Diagnostic& d =
        rep.add(cx.sequential ? "EQ003" : "EQ002",
                circuit + ": configured fabric diverges from the golden "
                          "netlist at " + cx.endpoint);
    d.notes.push_back(cx.render());
  }
  if (r.equivalent && !r.fullyProven) {
    Diagnostic& d = rep.add(
        "EQ004",
        circuit + ": equivalence established by simulation only for " +
            std::to_string(r.conesRandomSim + r.conesSequentialSim) +
            " endpoint(s) (" + std::to_string(r.residueGoldenFfs) + "+" +
            std::to_string(r.residueRevisedFfs) + " unmatched register(s))");
    d.notes.push_back(r.summary());
  }
}

void verifyConfiguredOrThrow(Device& dev, const CompiledCircuit& c,
                             std::string_view context) {
  const ConfiguredCheck chk = checkConfigured(dev, c);
  Report rep;
  lintEquivalence(chk, c.name, rep);
  throwIfErrors(rep, context);
}

CompiledCircuit relocateProven(Compiler& compiler, const CompiledCircuit& c,
                               std::uint16_t x0) {
  CompiledCircuit r = compiler.relocate(c, x0);
  if (x0 != c.region.x0 && invariantChecksEnabled()) {
    Device scratch(compiler.geometry(), compiler.timing(),
                   r.partialBitstream().frameBits);
    scratch.applyBitstream(r.partialBitstream());
    verifyConfiguredOrThrow(scratch, r, "Compiler::relocate post-condition");
  }
  return r;
}

}  // namespace vfpga::analysis::equiv
