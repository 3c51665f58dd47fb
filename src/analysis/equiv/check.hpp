// Formal equivalence checking between two gate-level netlists (typically:
// the source netlist vs the design extracted back out of the configured
// fabric, analysis/equiv/extract.hpp).
//
// Miter construction: primary inputs are matched by name, registers are
// matched into cut-point pairs (explicitly pinned by the caller when CLB
// sites identify them, by lockstep simulation signature otherwise). Every
// matched output and every matched register's next-state function is then
// an endpoint whose combinational cone over the cut points must be proven
// equal on both sides:
//   1. by memoized structural equivalence (commutative-input normalizing);
//   2. exhaustively (all 2^n cut assignments, 64 per word, keeping the
//      lowest mismatching one) when the union support has at most
//      `coneInputBound` cut points;
//   3. by canonical ROBDD comparison (analysis/equiv/bdd.hpp) for wider
//      cones — still a complete proof, with a satisfying assignment of the
//      XOR as the counterexample on mismatch;
//   4. by seeded random simulation only if the BDD overflows its node
//      budget (recorded as *not* a proof).
// Matched-register induction: equal initial values + proven next-state
// cones ⇒ sequential equivalence. Unmatched residue registers fall back to
// the random-simulation oracle over whole-netlist lockstep runs.
//
// On any mismatch the checker reports a concrete counterexample: a cut
// assignment (primary input values + register values, all reachable on
// this architecture because FF state is writeback-controllable) or, for
// sequential residue, the input sequence from reset. Counterexamples are
// replayable against the reference Evaluator (replayCounterexample).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "netlist/netlist.hpp"

namespace vfpga::analysis::equiv {

struct EquivOptions {
  /// Max union-support size for exhaustive cone proofs (2^k assignments);
  /// clamped to 63, so wider cones always go to the BDD rung.
  std::uint32_t coneInputBound = 16;
  /// ROBDD node budget for wide-cone proofs; overflow falls back to the
  /// random-simulation oracle instead of failing the check.
  std::size_t bddNodeLimit = std::size_t{1} << 20;
  /// Random cut assignments per cone that is too wide to enumerate and
  /// whose BDD overflowed (not structurally equal either).
  std::uint32_t randomVectors = 512;
  /// Lockstep cycles of the sequential random-simulation oracle (residue).
  std::uint32_t sequentialCycles = 256;
  /// Lockstep cycles used to compute register matching signatures (<= 64).
  std::uint32_t signatureCycles = 48;
  std::uint64_t seed = 0xec0de;
  std::size_t maxCounterexamples = 8;
  /// Caller-known register correspondences (golden DFF ordinal, revised
  /// DFF ordinal, both in dff-declaration order); verified like any other
  /// matched pair, so a wrong pin shows up as a mismatch, never as a
  /// false proof.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pinnedFfPairs;
};

enum class ProofMethod : std::uint8_t {
  kExhaustive,     ///< all cut assignments enumerated
  kStructural,     ///< cones are structurally identical
  kBdd,            ///< canonical ROBDD comparison (complete proof)
  kRandomSim,      ///< random cut assignments only (not a proof)
  kSequentialSim,  ///< whole-netlist lockstep simulation (not a proof)
};

struct Counterexample {
  /// Endpoint name: an output port name or "ff#<pair>".
  std::string endpoint;
  bool sequential = false;
  /// false: compare endpoint cone values under `inputs` + `ffs`.
  /// true (with sequential): compare matched register state after
  /// `inputSequence.size()` full cycles from reset.
  bool stateEndpoint = false;

  // ---- combinational form --------------------------------------------------
  std::vector<std::pair<std::string, bool>> inputs;  ///< input name -> value
  struct FfAssign {
    std::uint32_t goldenDff = 0;   ///< dff-declaration ordinal, golden side
    std::uint32_t revisedDff = 0;  ///< dff-declaration ordinal, revised side
    bool value = false;
  };
  std::vector<FfAssign> ffs;

  // ---- sequential form -----------------------------------------------------
  std::vector<std::string> inputOrder;          ///< names, drive order
  std::vector<std::vector<bool>> inputSequence; ///< one vector per cycle
  std::uint32_t cycle = 0;

  // Endpoint identity when it is a register pair (else output name above).
  std::int32_t endpointGoldenDff = -1;
  std::int32_t endpointRevisedDff = -1;

  bool goldenValue = false;
  bool revisedValue = false;

  /// Deterministic one-line rendering for reports.
  std::string render() const;
};

struct EndpointProof {
  std::string endpoint;
  ProofMethod method = ProofMethod::kExhaustive;
  std::uint32_t supportSize = 0;
  bool residue = false;  ///< cone reaches an unmatched register
};

struct EquivResult {
  bool equivalent = true;   ///< no mismatch found
  bool fullyProven = true;  ///< every endpoint proven (no simulation residue)

  std::size_t matchedFfs = 0;
  std::size_t residueGoldenFfs = 0;
  std::size_t residueRevisedFfs = 0;

  std::size_t conesExhaustive = 0;
  std::size_t conesStructural = 0;
  std::size_t conesBdd = 0;
  std::size_t conesRandomSim = 0;
  std::size_t conesSequentialSim = 0;
  std::uint64_t exhaustiveVectors = 0;
  std::uint64_t bddNodes = 0;  ///< total BDD nodes across wide-cone proofs

  std::vector<EndpointProof> proofs;
  std::vector<Counterexample> counterexamples;
  /// Port-set divergences (an output missing on one side, ...).
  std::vector<std::string> portMismatches;
  /// Matched registers whose initial values differ.
  std::vector<std::string> stateMismatches;
  std::vector<std::string> notes;

  /// Deterministic one-line summary for reports.
  std::string summary() const;
};

EquivResult checkEquivalence(const Netlist& golden, const Netlist& revised,
                             const EquivOptions& opt = {});

/// Re-executes a counterexample on reference Evaluators of both netlists;
/// true iff the endpoint values reproduce exactly as recorded (and differ).
bool replayCounterexample(const Netlist& golden, const Netlist& revised,
                          const Counterexample& cx);

}  // namespace vfpga::analysis::equiv
