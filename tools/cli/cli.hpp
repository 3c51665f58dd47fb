// vfpga_cli internals: the parsed command line, the command table's entry
// type, the command handlers, and the helpers they share. Campaign
// fixtures live in the file of the command family that runs them; each is
// one driver parameterised by settings, and the commands differ only in
// the settings they pass.
//
// Exit codes: 0 success, 1 findings / runtime errors, 2 usage, 3 export
// or validation failure. The same codes apply to every command (lint --json
// and trace --validate return 3 on export/validation failure, 1 on
// findings).
#pragma once

#include <array>
#include <cstdint>
#include <cstdio>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/os_kernel.hpp"
#include "fabric/device_family.hpp"
#include "obs/stream.hpp"
#include "workloads/app_circuits.hpp"

namespace vfpga::analysis {
class Report;
}

namespace vfpga::cli {

/// A malformed command line; main() prints it with the command's synopsis
/// and exits 2.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// The flags of one invocation, checked against the command's declared
/// flags: every key is declared and every count or real value parses.
struct Args {
  std::map<std::string, std::string> options;

  bool has(const std::string& k) const { return options.count(k) != 0; }
  std::string get(const std::string& k, const std::string& dflt = "") const {
    return has(k) ? options.at(k) : dflt;
  }
  std::uint64_t count(const std::string& k, std::uint64_t dflt) const {
    return has(k) ? std::stoull(options.at(k)) : dflt;
  }
  double real(const std::string& k, double dflt) const {
    return has(k) ? std::stod(options.at(k)) : dflt;
  }
};

/// One row of the command table. usage(), dispatch, flag parsing and the
/// --format check all read it; nothing else lists the commands.
struct Command {
  const char* name;
  const char* synopsis;  ///< after the name; each "\n" starts another form
  /// Declared flags, space-separated, without "--": "name" is a switch,
  /// "name=" takes text, "name=N" an unsigned count, "name=F" a real and
  /// "name=a|b" one of the listed choices, the first being the default.
  std::string flags;
  int (*run)(const Args&);
};

int listCircuitsCmd(const Args& a);  // circuits.cpp
int listDevicesCmd(const Args& a);
int infoCmd(const Args& a);
int compileCmd(const Args& a);
int simulateCmd(const Args& a);
int lintCmd(const Args& a);
int equivCmd(const Args& a);
int traceCmd(const Args& a);  // trace.cpp
int reportCmd(const Args& a);
int faultsCmd(const Args& a);  // faults.cpp
int chaosCmd(const Args& a);
int clusterCmd(const Args& a);  // cluster.cpp
int monitorCmd(const Args& a);
int heatmapCmd(const Args& a);
int profileCmd(const Args& a);
int benchTrendCmd(const Args& a);  // gates.cpp
int compiledCmd(const Args& a);

// ---- input and output (common.cpp) ---------------------------------------

/// A built-in library circuit by --circuit, or a .vnl file by --netlist.
workloads::AppCircuit loadCircuit(const Args& a);

/// Compiles into the leftmost --width columns when given, else into the
/// narrowest strip that routes (with opt.seed).
CompiledCircuit compileStrip(const Args& a, Compiler& compiler,
                             const Netlist& nl,
                             const CompileOptions& opt = {});

/// Machine-readable payloads go to --out (or stdout, alone); human chatter
/// stays on stderr. Returns 3 when the export cannot be written, else
/// `exitCode`: the command's grade of its own run.
int emitPayload(const Args& a, const std::string& payload, int exitCode = 0);

inline unsigned long long ull(std::uint64_t v) {
  return static_cast<unsigned long long>(v);
}

/// printf-style builder for the fixed-layout text reports; a line longer
/// than 511 bytes is cut there.
class ReportText {
 public:
  [[gnu::format(printf, 2, 3)]] void line(const char* fmt, ...);
  const std::string& str() const { return out_; }

 private:
  std::string out_;
};

/// The --stream live NDJSON exporter of one run, with its --stream-*
/// knobs; inert without --stream.
class LiveStream {
 public:
  explicit LiveStream(const Args& a);
  /// False when --stream cannot be opened (reported); the command exits 3.
  bool ok() const { return ok_; }
  void attach(obs::SpanTracer& tracer, const std::string& domain) {
    if (stream_) stream_->attach(tracer, domain);
  }
  /// Wires a kernel's span tracer and Trace ring into the stream.
  void attach(OsKernel& kernel, const std::string& domain);
  /// Flushes and summarizes drop accounting on stderr; with `selfMetrics`
  /// also publishes the exporter's own flush-latency histogram there.
  void finish(const char* cmd, obs::MetricsRegistry* selfMetrics = nullptr);

 private:
  std::optional<obs::StreamExporter> stream_;
  bool ok_ = true;
};

// ---- devices and the count / csum / lfsr trio every campaign runs --------

/// A fresh device of profile `p` with its configuration port and compiler
/// (both keep the device's address, so a rig is never copied).
struct DeviceRig {
  explicit DeviceRig(const DeviceProfile& p)
      : dev(p.makeDevice()), port(dev, p.port), compiler(dev) {}
  DeviceRig(const DeviceRig&) = delete;
  DeviceRig& operator=(const DeviceRig&) = delete;
  Device dev;
  ConfigPort port;
  Compiler compiler;
};

Netlist named(Netlist nl, const char* name);

constexpr std::uint16_t kTrioWidth = 4;  ///< strip width of each circuit
std::array<Netlist, 3> trioNetlists();
/// The trio compiled into columns [0, kTrioWidth).
std::array<CompiledCircuit, 3> compileTrio(Compiler& compiler);

/// The static lint gate a campaign passes before anything runs: prints the
/// report's diagnostics on stderr; true when it has no error.
bool lintClean(const analysis::Report& rep);

}  // namespace vfpga::cli
