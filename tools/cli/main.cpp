// vfpga_cli — command-line front end to the library. The command table
// below is the one list of commands: usage(), dispatch, flag parsing and
// the --format check all read it. `vfpga_cli` with no arguments prints
// every command's synopsis. Exit codes are documented in cli.hpp.
#include <charconv>
#include <cstdlib>
#include <sstream>

#include "cli.hpp"

using namespace vfpga::cli;

namespace {

/// The --stream-* knobs of the commands that stream live NDJSON.
const std::string kStreamFlags =
    " stream= stream-ring=N stream-flush=N stream-flush-ns=N stream-sample=";

const Command kCommands[] = {
    {"list-circuits", "", "", listCircuitsCmd},
    {"list-devices", "", "", listDevicesCmd},
    {"info", "--device <name>", "device=", infoCmd},
    {"compile",
     "(--circuit <name> | --netlist file.vnl) --device <name> [--width N]"
     " [--no-optimize] [--out file.vfpb]",
     "circuit= netlist= device= width=N no-optimize out=", compileCmd},
    {"simulate",
     "(--circuit <name> | --netlist file.vnl) --device <name> [--width N]"
     " [--cycles N] [--seed N] [--vcd file.vcd]",
     "circuit= netlist= device= width=N cycles=N seed=N vcd=", simulateCmd},
    {"lint",
     "(--circuit <name> | --netlist file.vnl | --all) [--device <name>]"
     " [--width N] [--no-optimize] [--json]\n"
     "--list-rules\n"
     "--fix --netlist file.vnl [--out fixed.vnl]",
     "circuit= netlist= all device= width=N no-optimize json list-rules fix"
     " out=",
     lintCmd},
    {"equiv",
     "(--circuit <name> | --netlist file.vnl | --all) [--device <name>]"
     " [--width N] [--relocate] [--seed N] [--json] [--out file]",
     "circuit= netlist= all device= width=N relocate seed=N json out=",
     equivCmd},
    {"trace",
     "(--circuit <name> | --netlist file.vnl) [--device <name>] [--width N]"
     " [--format chrome|csv] [--validate] [--stream file.ndjson] [--out file]\n"
     "--from file.ndjson [--format chrome|csv] [--validate] [--out file]",
     "from= circuit= netlist= device= width=N format=chrome|csv validate out=" +
         kStreamFlags,
     traceCmd},
    {"report",
     "[--device <name>] [--format prometheus|csv|json] [--min-names N]"
     " [--links] [--stream file.ndjson] [--out file]",
     "device= format=prometheus|csv|json min-names=N links out=" +
         kStreamFlags,
     reportCmd},
    {"heatmap",
     "[--device <name>] [--seed N] [--format csv|json|html] [--out file]",
     "device= seed=N format=csv|json|html out=", heatmapCmd},
    {"profile",
     "[--device <name>] [--seed N] [--cycles N] [--top K] [--activity]"
     " [--waterfall] [--ledger] [--format text|json|collapsed|speedscope]"
     " [--out file]",
     "device= seed=N cycles=N top=N activity waterfall ledger"
     " format=text|json|collapsed|speedscope out=",
     profileCmd},
    {"faults",
     "[--seed N] [--campaign ci|stress] [--device <name>] [--out file]"
     " [--flight-dir dir] [--stream file.ndjson]",
     "seed=N campaign=ci|stress device= out= flight-dir=" + kStreamFlags,
     faultsCmd},
    {"chaos",
     "[--seed N] [--campaign ci|stress] [--device <name>] [--dir dir]"
     " [--out file] [--flight-dir dir]",
     "seed=N campaign=ci|stress device= dir= out= flight-dir=", chaosCmd},
    {"cluster",
     "[--devices N] [--seed N] [--campaign ci|heal|stress]"
     " [--policy least_loaded|first_fit|best_fit] [--format text|json]"
     " [--out file]",
     "devices=N seed=N campaign=ci|heal|stress"
     " policy=least_loaded|first_fit|best_fit format=text|json out=",
     clusterCmd},
    {"monitor",
     "[--devices N] [--seed N] [--refresh N] [--format text|json|html]"
     " [--out file]",
     "devices=N seed=N refresh=N format=text|json|html out=", monitorCmd},
    {"bench-trend",
     "--baseline file.json [--dir dir] [--tolerance F] [--out trend.json]",
     "baseline= dir= tolerance=F out=", benchTrendCmd},
    {"compiled", "[--device <name>] [--seed N] [--cycles N] [--out file]",
     "device= seed=N cycles=N out=", compiledCmd},
};

void printForms(const Command& c) {
  if (*c.synopsis == '\0') {
    std::fprintf(stderr, "  %s\n", c.name);
    return;
  }
  std::istringstream forms(c.synopsis);
  for (std::string form; std::getline(forms, form);) {
    std::fprintf(stderr, "  %s %s\n", c.name, form.c_str());
  }
}

int usage() {
  std::fprintf(stderr, "usage: vfpga_cli <command> [options]\n");
  for (const Command& c : kCommands) printForms(c);
  std::fprintf(stderr,
               "stream knobs: [--stream-ring N] [--stream-flush N]"
               " [--stream-flush-ns N] [--stream-sample key=N[,key=N]]\n"
               "exit codes: 0 success, 1 findings / runtime errors,"
               " 2 usage, 3 export or validation failure\n");
  return 2;
}

bool isCount(const std::string& v) {
  std::uint64_t parsed = 0;
  const auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), parsed);
  return ec == std::errc() && end == v.data() + v.size();
}

bool isReal(const std::string& v) {
  char* end = nullptr;
  std::strtod(v.c_str(), &end);
  return !v.empty() && *end == '\0';
}

/// Checks one value against what its declaration after '=' says: "N" an
/// unsigned count, "F" a real, "a|b" one of the choices, "" any text.
void checkValue(const std::string& flag, const std::string& kind,
                const std::string& v) {
  if (kind == "N" && !isCount(v)) {
    throw UsageError(flag + " expects an unsigned integer, got '" + v + "'");
  }
  if (kind == "F" && !isReal(v)) {
    throw UsageError(flag + " expects a number, got '" + v + "'");
  }
  if (kind.find('|') != std::string::npos &&
      ("|" + kind + "|").find("|" + v + "|") == std::string::npos) {
    throw UsageError("unknown " + flag + " '" + v + "' (" + kind + ")");
  }
}

/// Checks argv against the command's declared flags. Every value is
/// validated here, once, and every choice flag left out takes its first
/// choice, so handlers read flags without re-checking them.
Args parseArgs(const Command& cmd, int argc, char** argv) {
  std::map<std::string, std::string> decls;  // name -> kind after '='
  std::istringstream declared(cmd.flags);
  for (std::string decl; declared >> decl;) {
    const std::size_t eq = decl.find('=');
    decls[decl.substr(0, eq)] =
        eq == std::string::npos ? "" : decl.substr(eq);
  }
  Args a;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0) {
      throw UsageError("unexpected argument '" + flag + "'");
    }
    const auto decl = decls.find(flag.substr(2));
    if (decl == decls.end()) throw UsageError("unknown flag " + flag);
    if (decl->second.empty()) {  // a switch
      a.options[decl->first] = "1";
      continue;
    }
    if (i + 1 >= argc) throw UsageError(flag + " needs a value");
    checkValue(flag, decl->second.substr(1), argv[i + 1]);
    a.options[decl->first] = argv[++i];
  }
  for (const auto& [name, kind] : decls) {
    if (kind.find('|') != std::string::npos) {
      a.options.emplace(name, kind.substr(1, kind.find('|') - 1));
    }
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Command* cmd = nullptr;
  for (const Command& c : kCommands) {
    if (argc >= 2 && std::string(argv[1]) == c.name) cmd = &c;
  }
  if (cmd == nullptr) return usage();
  try {
    return cmd->run(parseArgs(*cmd, argc, argv));
  } catch (const UsageError& e) {
    std::fprintf(stderr, "vfpga_cli %s: %s\nusage:\n", cmd->name, e.what());
    printForms(*cmd);
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
