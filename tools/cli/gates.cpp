// bench-trend and compiled: the CI gates that hold a run against a
// reference (the committed bench baselines; the interpretive engine) and
// exit 1 on any drift from it.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <sstream>

#include "analysis/compiled_lint.hpp"
#include "cli.hpp"
#include "obs/json.hpp"
#include "obs/output_dir.hpp"
#include "sim/compiled/compiled_fabric.hpp"
#include "sim/compiled/oracle.hpp"
#include "sim/rng.hpp"
#include "workloads/compile_suite.hpp"

namespace vfpga::cli {

namespace {

/// Reads and parses a JSON file; nullopt, with the reason on stderr, when
/// it cannot be opened or does not parse.
std::optional<obs::JsonValue> readJson(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "error: cannot open %s\n", path.c_str());
    return std::nullopt;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  try {
    return obs::JsonValue::parse(buf.str());
  } catch (const obs::JsonError& e) {
    std::fprintf(stderr, "error: %s: %s\n", path.c_str(), e.what());
    return std::nullopt;
  }
}

}  // namespace

/// Compares BENCH_*.json sidecars in --dir against the committed baseline
/// file. Only metrics named in the baseline participate (new metrics never
/// fail the build); a metric missing from the sidecars, or drifting beyond
/// the tolerance band, does. The sim-derived bench numbers are
/// deterministic and machine-independent, so the band only absorbs
/// intentional model changes. Exit 1 on any such metric.
int benchTrendCmd(const Args& a) {
  const std::string dir = a.get("dir", obs::outputDir());
  const std::string baselinePath = a.get("baseline", "bench/baselines.json");

  const std::optional<obs::JsonValue> baseline = readJson(baselinePath);
  if (!baseline) return 3;
  const double tol = a.real(
      "tolerance",
      baseline->has("tolerance") ? baseline->at("tolerance").asNumber() : 0.2);

  // Current values, flattened to "<sidecar-stem>/<metric>{labels}" keys
  // (gauges and counters; multi-field stats/histograms are skipped).
  std::map<std::string, double> current;
  std::size_t sidecars = 0;
  try {
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      const std::string fname = entry.path().filename().string();
      if (fname.rfind("BENCH_", 0) != 0 ||
          entry.path().extension() != ".json") {
        continue;
      }
      const std::optional<obs::JsonValue> doc =
          readJson(entry.path().string());
      if (!doc) return 3;
      ++sidecars;
      const std::string stem = entry.path().stem().string();
      for (const obs::JsonValue& m : doc->asArray()) {
        if (!m.has("value")) continue;
        std::string key = stem + "/" + m.at("name").asString() + "{";
        bool first = true;
        for (const auto& [lk, lv] : m.at("labels").asObject()) {
          if (!first) key += ",";
          first = false;
          key += lk + "=" + lv.asString();
        }
        key += "}";
        current[key] = m.at("value").asNumber();
      }
    }
  } catch (const std::filesystem::filesystem_error& e) {
    std::fprintf(stderr, "error: cannot scan %s: %s\n", dir.c_str(),
                 e.what());
    return 3;
  }

  const obs::JsonValue::Object& metrics = baseline->at("metrics").asObject();
  std::size_t compared = 0;
  std::size_t missing = 0;
  std::size_t regressions = 0;
  std::ostringstream trend;
  trend << std::setprecision(15);
  trend << "{\n\"tolerance\":" << tol << ",\n\"rows\":[";
  bool first = true;
  for (const auto& [key, bv] : metrics) {
    const double base = bv.asNumber();
    const auto it = current.find(key);
    double cur = 0.0;
    double delta = 0.0;
    const char* status = "missing";
    if (it == current.end()) {
      ++missing;
      std::fprintf(stderr, "bench-trend: MISSING %s (no sidecar value)\n",
                   key.c_str());
    } else {
      cur = it->second;
      ++compared;
      delta = (cur - base) / std::max(std::fabs(base), 1e-12);
      if (std::fabs(delta) <= tol) {
        status = "ok";
      } else {
        status = "regression";
        ++regressions;
        std::fprintf(stderr,
                     "bench-trend: REGRESSION %s: baseline %.6g current"
                     " %.6g (%+.1f%%)\n",
                     key.c_str(), base, cur, 100.0 * delta);
      }
    }
    trend << (first ? "" : ",") << "\n{\"metric\":\"" << obs::jsonEscape(key)
          << "\",\"baseline\":" << base << ",\"current\":" << cur
          << ",\"delta\":" << delta << ",\"status\":\"" << status << "\"}";
    first = false;
  }
  trend << "\n],\n\"sidecars\":" << sidecars << ",\"compared\":" << compared
        << ",\"new\":" << (current.size() - compared)
        << ",\"missing\":" << missing << ",\"regressions\":" << regressions
        << "\n}\n";
  std::fprintf(stderr,
               "bench-trend: %zu sidecars, %zu compared, %zu missing,"
               " %zu regressions (tolerance +/-%.0f%%)\n",
               sidecars, compared, missing, regressions, 100.0 * tol);
  return emitPayload(a, trend.str(), regressions == 0 && missing == 0 ? 0 : 1);
}

/// Deterministic compiled-fast-path campaign: the differential oracle over
/// the full circuit library (interpretive reference vs compiled scalar
/// engine vs 64-wide batch), the mandatory-invalidation stages (download,
/// relocate, scrub repair, blank + resume) with a CP lint check on the
/// long-lived engine, and a seeded LUT-bit corruption corpus where the two
/// paths must agree on whatever the corrupted image computes. Output is
/// byte-identical per (device, seed, cycles) — CI runs it twice and cmp's.
/// Exit 0 iff every stage passes.
int compiledCmd(const Args& a) {
  DeviceProfile p = profileByName(a.get("device", "medium_partial"));
  const std::uint64_t seed = a.count("seed", 1);
  const auto cycles = static_cast<std::uint32_t>(a.count("cycles", 96));

  ReportText r;
  bool fail = false;
  compiled::CompiledKernelCache cache(32);
  auto oracle = [&](Device& dev, const CompiledCircuit& c, bool extraction) {
    compiled::OracleOptions opt;
    opt.cycles = cycles;
    opt.seed = seed;
    opt.checkExtraction = extraction;
    return compiled::runDifferentialOracle(dev, c, opt, &cache);
  };
  auto problems = [&r](const compiled::OracleReport& rep) {
    for (const std::string& prob : rep.problems) {
      r.line("    ! %s\n", prob.c_str());
    }
  };

  r.line("vfpga compiled fast path campaign\n");
  r.line("=================================\n");
  r.line("device: %s\nseed: %llu\ncycles per stage: %u\n\n",
         a.get("device", "medium_partial").c_str(), ull(seed), cycles);

  r.line("differential oracle: interpretive reference vs compiled scalar vs"
         " batch64\n");
  r.line("%-14s %5s %5s %5s %6s %6s %6s %16s  %s\n", "circuit", "cols",
         "cells", "ops", "levels", "served", "diverg", "ref-digest",
         "extract");
  for (const workloads::AppCircuit& app : workloads::allSuites()) {
    Device dev = p.makeDevice();
    Compiler compiler(dev);
    const CompiledCircuit c =
        workloads::compileMinimal(compiler, app.netlist, seed);
    dev.applyBitstream(c.fullBitstream());
    const compiled::OracleReport rep = oracle(dev, c, true);
    fail = fail || !rep.ok() || !rep.servedCompiled;
    r.line("%-14s %5u %5llu %5llu %6llu %6s %6llu %016llx  %s\n",
           app.name.c_str(), static_cast<unsigned>(c.region.w),
           ull(rep.extractedCells), ull(rep.programOps),
           ull(rep.programLevels), rep.servedCompiled ? "yes" : "NO",
           ull(rep.divergences), ull(rep.referenceDigest),
           rep.extractionOk ? "ok" : "FAIL");
    problems(rep);
  }

  r.line("\nreconfiguration invalidation stages (ct_counter, long-lived"
         " engine)\n");
  {
    Device dev = p.makeDevice();
    Compiler compiler(dev);
    ConfigPort port(dev, p.port);
    const workloads::AppCircuit app = workloads::appCircuitByName("ct_counter");
    const CompiledCircuit c =
        workloads::compileMinimal(compiler, app.netlist, seed);
    compiled::CompiledFabric engine(dev, &cache);
    auto reload = [&](const CompiledCircuit& cur) {
      dev.applyBitstream(cur.fullBitstream());
      port.resyncExpected();
    };
    auto stage = [&](const char* name, const CompiledCircuit& cur) {
      const compiled::OracleReport rep = oracle(dev, cur, true);
      fail = fail || !rep.ok() || !rep.servedCompiled;
      dev.evaluate();  // the long-lived engine re-resolves here
      const compiled::CompiledFabricStats& st = engine.stats();
      r.line("  %-14s ok=%-3s builds=%llu hits=%llu invalidations=%llu"
             " fallbacks=%llu\n",
             name, rep.ok() && rep.servedCompiled ? "yes" : "NO",
             ull(st.builds), ull(st.hits), ull(st.invalidations),
             ull(st.fallbacks));
      problems(rep);
    };
    reload(c);
    stage("download", c);

    const std::uint16_t newX0 =
        static_cast<std::uint16_t>(dev.geometry().cols - c.region.w);
    const CompiledCircuit moved = compiler.relocate(c, newX0);
    dev.clearConfig();
    reload(moved);
    stage("relocate", moved);

    // An upset lands on a live LUT; the scrubber repairs it via the port.
    const Elaboration::Cell& cell = dev.elaboration().cells.front();
    const std::uint32_t upsetBit =
        dev.configMap().clbLutBit(cell.x, cell.y, 0);
    dev.setConfigBit(upsetBit, !dev.image().get(upsetBit));
    const ScrubResult sr = port.scrub();
    fail = fail || sr.repairedFrames == 0;
    r.line("  scrub repaired %u frame(s)\n", sr.repairedFrames);
    stage("scrub-repair", moved);

    // Quarantine blanking, then migration-style resume of the same image.
    dev.clearConfig();
    reload(moved);
    stage("resume", moved);

    analysis::CompiledPathProfile prof;
    prof.kernelAttached = dev.fastPath() != nullptr;
    prof.programReady = engine.program() != nullptr;
    prof.programGeneration = engine.programGeneration();
    prof.deviceGeneration = dev.configGeneration();
    prof.probeAttached = dev.activityProbe() != nullptr;
    prof.inhibited = dev.fastPathInhibited();
    prof.programFaulted = engine.lastBuildFaulted();
    prof.lastServedCompiled = engine.lastServedCompiled();
    prof.cacheCapacity = cache.capacity();
    analysis::Report lint;
    analysis::lintCompiledPath(prof, lint);
    fail = fail || !lint.ok();
    r.line("  lint: %s\n",
           lint.clean() ? "clean (CP001-CP004)" : lint.renderText().c_str());
  }

  r.line("\nseeded corruption corpus (LUT-bit flips; paths must agree on the"
         " corrupted function)\n");
  r.line("%-14s %8s %10s %6s %6s\n", "circuit", "bit", "elaborates",
         "served", "diverg");
  for (const char* name : {"ct_counter", "tc_crc8", "ct_gray"}) {
    const workloads::AppCircuit app = workloads::appCircuitByName(name);
    Device dev = p.makeDevice();
    Compiler compiler(dev);
    const CompiledCircuit c =
        workloads::compileMinimal(compiler, app.netlist, seed);
    dev.applyBitstream(c.fullBitstream());
    std::vector<std::uint32_t> bits;
    const std::uint32_t lutBits =
        static_cast<std::uint32_t>(dev.geometry().lutBits());
    for (const Elaboration::Cell& cell : dev.elaboration().cells) {
      for (std::uint32_t j = 0; j < lutBits; ++j) {
        bits.push_back(dev.configMap().clbLutBit(cell.x, cell.y, j));
      }
    }
    Rng rng(seed ^ 0x9e3779b97f4a7c15ull ^ bits.size());
    for (int trial = 0; trial < 4; ++trial) {
      const std::uint32_t bit = bits[rng.next() % bits.size()];
      dev.setConfigBit(bit, !dev.image().get(bit));
      const compiled::OracleReport rep = oracle(dev, c, false);
      fail = fail || rep.divergences != 0 || !rep.problems.empty();
      r.line("%-14s %8u %10s %6s %6llu\n", name, bit,
             dev.configOk() ? "yes" : "no", rep.servedCompiled ? "yes" : "no",
             ull(rep.divergences));
      problems(rep);
      dev.setConfigBit(bit, !dev.image().get(bit));
    }
  }

  const compiled::KernelCacheStats& cs = cache.stats();
  r.line("\nkernel cache: lookups=%llu hits=%llu misses=%llu insertions=%llu"
         " evictions=%llu capacity=%llu\n",
         ull(cs.lookups), ull(cs.hits), ull(cs.misses), ull(cs.insertions),
         ull(cs.evictions), ull(cache.capacity()));
  r.line("\nRESULT: %s\n", fail ? "FAIL" : "PASS");
  return emitPayload(a, r.str(), fail ? 1 : 0);
}

}  // namespace vfpga::cli
