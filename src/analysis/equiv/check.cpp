#include "analysis/equiv/check.hpp"

#include <algorithm>
#include <bit>
#include <sstream>
#include <unordered_map>

#include "analysis/equiv/bdd.hpp"
#include "netlist/evaluator.hpp"
#include "sim/rng.hpp"

namespace vfpga::analysis::equiv {

namespace {

/// Random bit from the generator's high bit (the low bits of xorshift128+
/// are linear enough to starve simulation stimuli of rare combinations).
inline bool rngBit(Rng& rng) { return (rng.next() >> 63) != 0; }

}  // namespace

std::string Counterexample::render() const {
  std::ostringstream os;
  os << (sequential ? "sequential" : "combinational") << " counterexample at "
     << endpoint << ": golden=" << (goldenValue ? 1 : 0)
     << " revised=" << (revisedValue ? 1 : 0);
  if (sequential) {
    os << " at cycle " << cycle << " from reset; inputs per cycle:";
    for (const auto& vec : inputSequence) {
      os << " ";
      for (bool b : vec) os << (b ? 1 : 0);
    }
    if (!inputOrder.empty()) {
      os << " (order:";
      for (const std::string& n : inputOrder) os << " " << n;
      os << ")";
    }
  } else {
    for (const auto& [name, v] : inputs) os << " " << name << "=" << (v ? 1 : 0);
    for (const FfAssign& f : ffs) {
      os << " ff#g" << f.goldenDff << "/r" << f.revisedDff << "="
         << (f.value ? 1 : 0);
    }
  }
  return os.str();
}

std::string EquivResult::summary() const {
  std::ostringstream os;
  os << "equivalent: " << (equivalent ? "yes" : "NO") << " ("
     << (fullyProven ? "fully proven" : "simulation residue") << "); ffs "
     << matchedFfs << " matched, " << residueGoldenFfs << "+"
     << residueRevisedFfs << " residue; cones: " << conesExhaustive
     << " exhaustive (" << exhaustiveVectors << " vectors), "
     << conesStructural << " structural, " << conesBdd << " bdd, "
     << conesRandomSim << " random-sim, " << conesSequentialSim
     << " sequential-sim";
  return os.str();
}

namespace {

constexpr std::int32_t kNoCut = -1;

/// One side of the miter: per-gate cut ids plus cone extraction/evaluation.
class Side {
 public:
  explicit Side(const Netlist& nl)
      : nl_(&nl), cutOfGate_(nl.size(), kNoCut), value_(nl.size(), 0) {}

  const Netlist& netlist() const { return *nl_; }
  void setCut(GateId g, std::int32_t cut) { cutOfGate_[g] = cut; }
  std::int32_t cutOf(GateId g) const { return cutOfGate_[g]; }

  struct Cone {
    GateId root = kNoGate;
    std::vector<GateId> topo;             ///< non-cut gates, eval order
    std::vector<GateId> leaves;           ///< cut and constant gates read
    std::vector<std::uint32_t> support;   ///< sorted cut ids
    bool residue = false;                 ///< reaches an unmatched register
  };

  /// Collects the combinational cone of `root` up to cut gates. A DFF or
  /// primary input without a cut id marks the cone as residue.
  Cone cone(GateId root) const {
    Cone c;
    c.root = root;
    std::vector<char> seen(nl_->size(), 0);
    std::vector<std::pair<GateId, std::size_t>> stack;  // (gate, next fanin)
    auto isLeaf = [&](GateId g) {
      if (cutOfGate_[g] != kNoCut) return true;
      const GateKind k = nl_->gate(g).kind;
      return k == GateKind::kConst0 || k == GateKind::kConst1;
    };
    auto visit = [&](GateId g) {
      if (seen[g]) return;
      seen[g] = 1;
      if (isLeaf(g)) {
        c.leaves.push_back(g);
        if (cutOfGate_[g] != kNoCut) {
          c.support.push_back(static_cast<std::uint32_t>(cutOfGate_[g]));
        }
        return;
      }
      const GateKind k = nl_->gate(g).kind;
      if (k == GateKind::kDff || k == GateKind::kInput) {
        c.residue = true;  // unmatched sequential/input leaf
        return;
      }
      stack.emplace_back(g, 0);
    };
    visit(root);
    while (!stack.empty()) {
      auto& [g, next] = stack.back();
      const Gate& gate = nl_->gate(g);
      if (next < gate.fanins.size()) {
        visit(gate.fanins[next++]);  // may grow `stack`; g, next now dead
      } else {
        c.topo.push_back(g);
        stack.pop_back();
      }
    }
    std::sort(c.support.begin(), c.support.end());
    c.support.erase(std::unique(c.support.begin(), c.support.end()),
                    c.support.end());
    return c;
  }

  /// Evaluates a cone over 64 cut assignments at once: lane l of
  /// `cutWord(cutId)` is the cut's value in assignment l, and lane l of the
  /// result is the root's value under it. Constant leaves are fixed.
  template <typename CutWordFn>
  std::uint64_t evalWord(const Cone& c, CutWordFn&& cutWord) {
    for (GateId g : c.leaves) {
      const std::int32_t cut = cutOfGate_[g];
      value_[g] = cut != kNoCut ? cutWord(static_cast<std::uint32_t>(cut))
                  : nl_->gate(g).kind == GateKind::kConst1 ? ~std::uint64_t{0}
                                                           : 0;
    }
    for (GateId g : c.topo) {
      const Gate& gate = nl_->gate(g);
      const auto& f = gate.fanins;
      std::uint64_t v = 0;
      switch (gate.kind) {
        case GateKind::kBuf:
        case GateKind::kOutput: v = value_[f[0]]; break;
        case GateKind::kNot: v = ~value_[f[0]]; break;
        case GateKind::kAnd: v = value_[f[0]] & value_[f[1]]; break;
        case GateKind::kOr: v = value_[f[0]] | value_[f[1]]; break;
        case GateKind::kXor: v = value_[f[0]] ^ value_[f[1]]; break;
        case GateKind::kNand: v = ~(value_[f[0]] & value_[f[1]]); break;
        case GateKind::kNor: v = ~(value_[f[0]] | value_[f[1]]); break;
        case GateKind::kXnor: v = ~(value_[f[0]] ^ value_[f[1]]); break;
        case GateKind::kMux:
          v = (value_[f[0]] & value_[f[2]]) | (~value_[f[0]] & value_[f[1]]);
          break;
        default: v = 0; break;  // cuts/consts never land in topo
      }
      value_[g] = v;
    }
    return value_[c.root];
  }

  /// Evaluates a cone under one cut assignment (`cutValue(cutId)`).
  template <typename CutFn>
  bool eval(const Cone& c, CutFn&& cutValue) {
    return (evalWord(c, [&](std::uint32_t cut) {
              return cutValue(cut) ? ~std::uint64_t{0} : std::uint64_t{0};
            }) & 1u) != 0;
  }

 private:
  const Netlist* nl_;
  std::vector<std::int32_t> cutOfGate_;
  std::vector<std::uint64_t> value_;
};

/// Builds the ROBDD of a cone over the shared support variable order
/// (variable b = support[b], i.e. the bit positions recordCx and the
/// exhaustive enumerator already use). Returns BddManager::kOverflow when
/// the node budget is exhausted.
BddManager::Ref buildConeBdd(BddManager& mgr, const Side& side,
                             const Side::Cone& c,
                             const std::vector<std::int32_t>& posOfCut) {
  using Ref = BddManager::Ref;
  const Netlist& nl = side.netlist();
  auto leafRef = [&](GateId g) -> Ref {
    const std::int32_t cut = side.cutOf(g);
    if (cut != kNoCut) {
      return mgr.var(static_cast<std::uint32_t>(posOfCut[cut]));
    }
    const GateKind k = nl.gate(g).kind;
    return k == GateKind::kConst1 ? BddManager::kTrue : BddManager::kFalse;
  };
  if (side.cutOf(c.root) != kNoCut ||
      nl.gate(c.root).kind == GateKind::kConst0 ||
      nl.gate(c.root).kind == GateKind::kConst1) {
    return leafRef(c.root);
  }
  std::vector<Ref> val(nl.size(), BddManager::kFalse);
  auto faninRef = [&](GateId f) -> Ref {
    const std::int32_t cut = side.cutOf(f);
    const GateKind k = nl.gate(f).kind;
    if (cut != kNoCut || k == GateKind::kConst0 || k == GateKind::kConst1) {
      return leafRef(f);
    }
    return val[f];  // topo order guarantees fanins are already built
  };
  for (GateId g : c.topo) {
    const Gate& gate = nl.gate(g);
    const auto& fi = gate.fanins;
    Ref v = BddManager::kFalse;
    switch (gate.kind) {
      case GateKind::kBuf:
      case GateKind::kOutput: v = faninRef(fi[0]); break;
      case GateKind::kNot: v = mgr.bddNot(faninRef(fi[0])); break;
      case GateKind::kAnd: v = mgr.bddAnd(faninRef(fi[0]), faninRef(fi[1])); break;
      case GateKind::kOr: v = mgr.bddOr(faninRef(fi[0]), faninRef(fi[1])); break;
      case GateKind::kXor: v = mgr.bddXor(faninRef(fi[0]), faninRef(fi[1])); break;
      case GateKind::kNand:
        v = mgr.bddNot(mgr.bddAnd(faninRef(fi[0]), faninRef(fi[1])));
        break;
      case GateKind::kNor:
        v = mgr.bddNot(mgr.bddOr(faninRef(fi[0]), faninRef(fi[1])));
        break;
      case GateKind::kXnor:
        v = mgr.bddNot(mgr.bddXor(faninRef(fi[0]), faninRef(fi[1])));
        break;
      case GateKind::kMux:
        v = mgr.ite(faninRef(fi[0]), faninRef(fi[2]), faninRef(fi[1]));
        break;
      default: v = BddManager::kFalse; break;  // cuts/consts never in topo
    }
    if (v == BddManager::kOverflow) return BddManager::kOverflow;
    val[g] = v;
  }
  return val[c.root];
}

/// Structural equivalence with cut leaves, buf/output skipping and
/// commutative-input normalization; memoized over gate pairs.
class StructuralMatcher {
 public:
  StructuralMatcher(const Side& g, const Side& r) : g_(&g), r_(&r) {}

  bool equal(GateId a, GateId b) {
    a = deref(g_->netlist(), a);
    b = deref(r_->netlist(), b);
    const std::int32_t ca = g_->cutOf(a);
    const std::int32_t cb = r_->cutOf(b);
    if (ca != kNoCut || cb != kNoCut) return ca == cb && ca != kNoCut;
    const Gate& ga = g_->netlist().gate(a);
    const Gate& gb = r_->netlist().gate(b);
    if (ga.kind != gb.kind) return false;
    if (ga.kind == GateKind::kConst0 || ga.kind == GateKind::kConst1) {
      return true;
    }
    if (ga.kind == GateKind::kDff || ga.kind == GateKind::kInput) {
      return false;  // unmatched sequential leaves never align
    }
    const std::uint64_t key =
        (static_cast<std::uint64_t>(a) << 32) | static_cast<std::uint64_t>(b);
    auto it = memo_.find(key);
    if (it != memo_.end()) return it->second;
    memo_.emplace(key, false);  // cycle guard (cones are acyclic anyway)
    bool eq = false;
    if (isCommutative(ga.kind)) {
      eq = (equal(ga.fanins[0], gb.fanins[0]) &&
            equal(ga.fanins[1], gb.fanins[1])) ||
           (equal(ga.fanins[0], gb.fanins[1]) &&
            equal(ga.fanins[1], gb.fanins[0]));
    } else {
      eq = ga.fanins.size() == gb.fanins.size();
      for (std::size_t i = 0; eq && i < ga.fanins.size(); ++i) {
        eq = equal(ga.fanins[i], gb.fanins[i]);
      }
    }
    memo_[key] = eq;
    return eq;
  }

 private:
  static bool isCommutative(GateKind k) {
    return k == GateKind::kAnd || k == GateKind::kOr || k == GateKind::kXor ||
           k == GateKind::kNand || k == GateKind::kNor || k == GateKind::kXnor;
  }
  static GateId deref(const Netlist& nl, GateId g) {
    while (true) {
      const Gate& gate = nl.gate(g);
      if ((gate.kind == GateKind::kBuf || gate.kind == GateKind::kOutput)) {
        // Never skip through a cut gate's identity.
        g = gate.fanins[0];
        continue;
      }
      return g;
    }
  }

  const Side* g_;
  const Side* r_;
  std::unordered_map<std::uint64_t, bool> memo_;
};

struct FfPair {
  std::uint32_t golden;   ///< dff-declaration ordinal
  std::uint32_t revised;  ///< dff-declaration ordinal
};

}  // namespace

EquivResult checkEquivalence(const Netlist& golden, const Netlist& revised,
                             const EquivOptions& opt) {
  EquivResult res;
  Side g(golden), r(revised);

  // ---- primary inputs: union of names, matched by name ---------------------
  std::vector<std::string> inputNames;  // cut order
  std::unordered_map<std::string, std::uint32_t> cutOfInputName;
  auto addInputCut = [&](const std::string& name) -> std::uint32_t {
    auto it = cutOfInputName.find(name);
    if (it != cutOfInputName.end()) return it->second;
    const std::uint32_t id = static_cast<std::uint32_t>(inputNames.size());
    inputNames.push_back(name);
    cutOfInputName.emplace(name, id);
    return id;
  };
  for (GateId in : golden.inputs()) {
    g.setCut(in, static_cast<std::int32_t>(addInputCut(golden.gate(in).name)));
  }
  for (GateId in : revised.inputs()) {
    const std::string& name = revised.gate(in).name;
    if (!cutOfInputName.count(name)) {
      res.notes.push_back("input '" + name + "' exists only in the revised "
                          "design");
    }
    r.setCut(in, static_cast<std::int32_t>(addInputCut(name)));
  }
  for (GateId in : golden.inputs()) {
    if (revised.findInput(golden.gate(in).name) == kNoGate) {
      res.notes.push_back("input '" + golden.gate(in).name +
                          "' exists only in the golden design");
    }
  }
  // Input gates in cut order (kNoGate where the name exists on one side
  // only), resolved once so the lockstep simulations drive inputs by id.
  std::vector<GateId> gInputGate, rInputGate;
  for (const std::string& name : inputNames) {
    gInputGate.push_back(golden.findInput(name));
    rInputGate.push_back(revised.findInput(name));
  }
  auto driveInput = [&](Evaluator& ge, Evaluator& re, std::size_t k,
                        bool v) {
    if (gInputGate[k] != kNoGate) ge.setInput(gInputGate[k], v);
    if (rInputGate[k] != kNoGate) re.setInput(rInputGate[k], v);
  };

  // ---- register matching ---------------------------------------------------
  const auto gDffs = golden.dffs();
  const auto rDffs = revised.dffs();
  std::vector<char> gPinned(gDffs.size(), 0), rPinned(rDffs.size(), 0);
  std::vector<FfPair> pairs;
  for (const auto& [go, ro] : opt.pinnedFfPairs) {
    if (go >= gDffs.size() || ro >= rDffs.size()) {
      res.notes.push_back("pinned FF pair (" + std::to_string(go) + ", " +
                          std::to_string(ro) + ") is out of range; ignored");
      continue;
    }
    if (gPinned[go] || rPinned[ro]) continue;
    gPinned[go] = rPinned[ro] = 1;
    pairs.push_back(FfPair{go, ro});
  }

  // Candidate-class matching for the rest. A reset-run trace alone cannot
  // separate registers that never toggle under the sampled stimulus (a
  // counter's high bits, say), and an arbitrary pairing inside such a
  // collision group would make the induction step fail spuriously. So the
  // residue is refined the way fraiging tools do it: registers with equal
  // behaviour so far form a class, every round writes one shared random
  // bit per class into *all* its members on both sides (writeback is
  // symmetric by construction, no correspondence needed), simulates one
  // step, and splits classes whose members' next states diverge. Truly
  // corresponding registers behave identically under every class-symmetric
  // stimulus, so they are never separated; non-corresponding ones split as
  // soon as a stimulus reaches the logic that distinguishes them. A wrong
  // residual match is still harmless for soundness — the induction step
  // has to prove it.
  const std::size_t gFree =
      gDffs.size() - static_cast<std::size_t>(
                         std::count(gPinned.begin(), gPinned.end(), 1));
  const std::size_t rFree =
      rDffs.size() - static_cast<std::size_t>(
                         std::count(rPinned.begin(), rPinned.end(), 1));
  if (gFree > 0 && rFree > 0) {
    const std::uint32_t cycles = std::min<std::uint32_t>(
        std::max<std::uint32_t>(opt.signatureCycles, 1), 63);
    Evaluator ge(golden), re(revised);
    ge.reset();
    re.reset();
    Rng rng(opt.seed ^ 0x5167u);
    // Per-register state traces, one bit per recorded step of the current
    // run: filled by the signature run, then refilled by every round.
    std::vector<std::uint64_t> gTrace(gDffs.size(), 0);
    std::vector<std::uint64_t> rTrace(rDffs.size(), 0);
    auto recordState = [&](std::uint32_t t) {
      for (std::size_t i = 0; i < gTrace.size(); ++i) {
        gTrace[i] |= static_cast<std::uint64_t>(ge.stateBit(i)) << t;
      }
      for (std::size_t i = 0; i < rTrace.size(); ++i) {
        rTrace[i] |= static_cast<std::uint64_t>(re.stateBit(i)) << t;
      }
    };
    for (std::uint32_t t = 0; t < cycles; ++t) {
      recordState(t);
      for (std::size_t k = 0; k < inputNames.size(); ++k) {
        driveInput(ge, re, k, rngBit(rng));
      }
      ge.eval();
      re.eval();
      ge.tick();
      re.tick();
    }

    // Classes are runs of `members`: class c is [bounds[c], bounds[c+1]).
    struct Member {
      int side;           ///< 0 = golden, 1 = revised
      std::uint32_t idx;  ///< DFF ordinal on that side
    };
    std::vector<Member> members;
    for (std::uint32_t i = 0; i < gDffs.size(); ++i) {
      if (!gPinned[i]) members.push_back(Member{0, i});
    }
    for (std::uint32_t i = 0; i < rDffs.size(); ++i) {
      if (!rPinned[i]) members.push_back(Member{1, i});
    }
    std::vector<std::uint32_t> bounds{
        0, static_cast<std::uint32_t>(members.size())};
    std::vector<std::uint32_t> nextBounds;
    // Splits every class by the members' current traces: ascending trace,
    // members in their previous order within a part (a stable sort), so the
    // class order, and with it the whole match, is deterministic.
    auto splitClasses = [&] {
      auto trace = [&](const Member& m) {
        return m.side == 0 ? gTrace[m.idx] : rTrace[m.idx];
      };
      auto byTrace = [&](const Member& a, const Member& b) {
        return trace(a) < trace(b);
      };
      nextBounds.assign(1, 0);
      for (std::size_t c = 0; c + 1 < bounds.size(); ++c) {
        const auto first = members.begin() + bounds[c];
        const auto last = members.begin() + bounds[c + 1];
        if (!std::is_sorted(first, last, byTrace)) {
          std::stable_sort(first, last, byTrace);
        }
        for (auto it = first + 1; it < last; ++it) {
          if (trace(*it) != trace(*(it - 1))) {
            nextBounds.push_back(
                static_cast<std::uint32_t>(it - members.begin()));
          }
        }
        nextBounds.push_back(bounds[c + 1]);
      }
      bounds.swap(nextBounds);
    };
    // Initial classes: equal reset-run traces (bit 0 is the initial value,
    // so members of one class always agree on dffInit).
    splitClasses();

    // Each round writes a class-symmetric random state, picks a per-input
    // stimulus mode and simulates a short burst, splitting classes whose
    // members' state traces diverge. The *hold* modes matter: a counter
    // with a random clear never carries into its high bits, so every other
    // round derives hold-0/hold-1 patterns from the round index (covering
    // "clear held off, enable held on" style corners deterministically)
    // while odd rounds sample modes at random. A fixed round count (not a
    // no-progress cutoff) gives the rare splitting corner time to appear.
    const std::uint32_t kRounds = 96;
    const std::uint32_t kBurst = 16;
    // Stimulus mode per input: 0 = hold low, 1 = hold high, else random
    // per step.
    std::vector<std::uint32_t> mode(inputNames.size());
    for (std::uint32_t round = 0; round < kRounds; ++round) {
      ge.reset();
      re.reset();
      // Pinned pairs join the stimulus too (shared bit per pair): their
      // values feed the logic that separates the unmatched residue.
      for (const FfPair& p : pairs) {
        const bool v = rngBit(rng);
        ge.setStateBit(p.golden, v);
        re.setStateBit(p.revised, v);
      }
      for (std::size_t c = 0; c + 1 < bounds.size(); ++c) {
        const bool v = rngBit(rng);
        for (std::uint32_t k = bounds[c]; k < bounds[c + 1]; ++k) {
          (members[k].side == 0 ? ge : re).setStateBit(members[k].idx, v);
        }
      }
      for (std::size_t k = 0; k < mode.size(); ++k) {
        mode[k] = (round % 2 == 0)
                      ? ((round / 2 >> (k % 5)) & 1u)
                      : static_cast<std::uint32_t>(rng.below(4));
      }
      std::fill(gTrace.begin(), gTrace.end(), 0);
      std::fill(rTrace.begin(), rTrace.end(), 0);
      for (std::uint32_t t = 0; t < kBurst; ++t) {
        for (std::size_t k = 0; k < inputNames.size(); ++k) {
          driveInput(ge, re, k,
                     mode[k] == 0 ? false : mode[k] == 1 ? true : rngBit(rng));
        }
        ge.eval();
        re.eval();
        ge.tick();
        re.tick();
        recordState(t);
      }
      splitClasses();
    }

    // Pair golden and revised members inside each stable class, in ordinal
    // order; surplus members on either side stay residue.
    for (std::size_t c = 0; c + 1 < bounds.size(); ++c) {
      std::vector<std::uint32_t> gm, rm;
      for (std::uint32_t k = bounds[c]; k < bounds[c + 1]; ++k) {
        (members[k].side == 0 ? gm : rm).push_back(members[k].idx);
      }
      for (std::size_t k = 0; k < std::min(gm.size(), rm.size()); ++k) {
        gPinned[gm[k]] = rPinned[rm[k]] = 1;
        pairs.push_back(FfPair{gm[k], rm[k]});
      }
    }
  }
  std::sort(pairs.begin(), pairs.end(),
            [](const FfPair& a, const FfPair& b) { return a.golden < b.golden; });
  res.matchedFfs = pairs.size();
  res.residueGoldenFfs =
      gDffs.size() - static_cast<std::size_t>(
                         std::count(gPinned.begin(), gPinned.end(), 1));
  res.residueRevisedFfs =
      rDffs.size() - static_cast<std::size_t>(
                         std::count(rPinned.begin(), rPinned.end(), 1));

  const std::uint32_t ffCutBase = static_cast<std::uint32_t>(inputNames.size());
  for (std::size_t k = 0; k < pairs.size(); ++k) {
    g.setCut(gDffs[pairs[k].golden],
             static_cast<std::int32_t>(ffCutBase + k));
    r.setCut(rDffs[pairs[k].revised],
             static_cast<std::int32_t>(ffCutBase + k));
    const bool gi = golden.gate(gDffs[pairs[k].golden]).dffInit;
    const bool ri = revised.gate(rDffs[pairs[k].revised]).dffInit;
    if (gi != ri) {
      res.equivalent = false;
      res.stateMismatches.push_back(
          "matched register pair ff#" + std::to_string(k) +
          " has diverging initial values (golden=" + std::to_string(gi) +
          ", revised=" + std::to_string(ri) + ")");
    }
  }
  // ---- endpoints -----------------------------------------------------------
  struct Endpoint {
    std::string name;
    GateId g = kNoGate, r = kNoGate;
    std::int32_t pairIdx = -1;  ///< >= 0 for register next-state endpoints
  };
  std::vector<Endpoint> endpoints;
  for (GateId out : golden.outputs()) {
    const std::string& name = golden.gate(out).name;
    const GateId rOut = revised.findOutput(name);
    if (rOut == kNoGate) {
      res.equivalent = false;
      res.portMismatches.push_back("output '" + name +
                                   "' is missing in the revised design");
      continue;
    }
    endpoints.push_back(Endpoint{name, out, rOut, -1});
  }
  for (GateId out : revised.outputs()) {
    if (golden.findOutput(revised.gate(out).name) == kNoGate) {
      res.equivalent = false;
      res.portMismatches.push_back("output '" + revised.gate(out).name +
                                   "' exists only in the revised design");
    }
  }
  for (std::size_t k = 0; k < pairs.size(); ++k) {
    endpoints.push_back(Endpoint{"ff#" + std::to_string(k),
                                 golden.gate(gDffs[pairs[k].golden]).fanins[0],
                                 revised.gate(rDffs[pairs[k].revised]).fanins[0],
                                 static_cast<std::int32_t>(k)});
  }

  // ---- per-endpoint proofs -------------------------------------------------
  StructuralMatcher structural(g, r);
  bool anyResidue =
      res.residueGoldenFfs > 0 || res.residueRevisedFfs > 0;
  std::vector<const Endpoint*> residueOutputs;
  Rng coneRng(opt.seed ^ 0xc09e5u);
  // Cut id -> bit position in the current endpoint's support. Entries of
  // cuts outside that support are stale and never read.
  std::vector<std::int32_t> posOfCut(ffCutBase + pairs.size(), -1);
  // Supports past 63 cuts cannot be enumerated in a 64-bit assignment
  // counter; they go to the BDD rung whatever the option says.
  const std::uint32_t exhaustiveBound =
      std::min<std::uint32_t>(opt.coneInputBound, 63);

  auto recordCx = [&](const Endpoint& ep, const Side::Cone& gc,
                      const Side::Cone& rc,
                      const std::vector<std::uint32_t>& support,
                      std::uint64_t assignment, bool gv, bool rv) {
    if (res.counterexamples.size() >= opt.maxCounterexamples) return;
    Counterexample cx;
    cx.endpoint = ep.name;
    cx.goldenValue = gv;
    cx.revisedValue = rv;
    if (ep.pairIdx >= 0) {
      cx.endpointGoldenDff =
          static_cast<std::int32_t>(pairs[static_cast<std::size_t>(ep.pairIdx)].golden);
      cx.endpointRevisedDff = static_cast<std::int32_t>(
          pairs[static_cast<std::size_t>(ep.pairIdx)].revised);
    }
    for (std::size_t b = 0; b < support.size(); ++b) {
      const std::uint32_t cut = support[b];
      const bool v = ((assignment >> b) & 1u) != 0;
      if (cut < ffCutBase) {
        cx.inputs.emplace_back(inputNames[cut], v);
      } else {
        const FfPair& p = pairs[cut - ffCutBase];
        cx.ffs.push_back(Counterexample::FfAssign{p.golden, p.revised, v});
      }
    }
    (void)gc;
    (void)rc;
    res.counterexamples.push_back(std::move(cx));
  };

  for (const Endpoint& ep : endpoints) {
    const Side::Cone gc = g.cone(ep.g);
    const Side::Cone rc = r.cone(ep.r);
    EndpointProof proof;
    proof.endpoint = ep.name;

    if (gc.residue || rc.residue) {
      proof.method = ProofMethod::kSequentialSim;
      proof.residue = true;
      res.fullyProven = false;
      ++res.conesSequentialSim;
      anyResidue = true;
      if (ep.pairIdx < 0) residueOutputs.push_back(&ep);
      // Matched-register residue endpoints are covered by the lockstep
      // state comparison below.
      res.proofs.push_back(std::move(proof));
      continue;
    }

    std::vector<std::uint32_t> support;
    std::merge(gc.support.begin(), gc.support.end(), rc.support.begin(),
               rc.support.end(), std::back_inserter(support));
    support.erase(std::unique(support.begin(), support.end()), support.end());
    proof.supportSize = static_cast<std::uint32_t>(support.size());
    for (std::size_t b = 0; b < support.size(); ++b) {
      posOfCut[support[b]] = static_cast<std::int32_t>(b);
    }

    // 1. Cheap structural pass (identical-by-construction cones).
    if (structural.equal(ep.g, ep.r)) {
      proof.method = ProofMethod::kStructural;
      ++res.conesStructural;
      res.proofs.push_back(std::move(proof));
      continue;
    }
    // 2. Exhaustive truth-table proof over the union support, 64
    //    consecutive assignments j per word: support position b < 6 is bit
    //    b of the lane index, b >= 6 bit (b - 6) of the word index.
    if (support.size() <= exhaustiveBound) {
      proof.method = ProofMethod::kExhaustive;
      static constexpr std::uint64_t kLanePattern[6] = {
          0xAAAAAAAAAAAAAAAAull, 0xCCCCCCCCCCCCCCCCull, 0xF0F0F0F0F0F0F0F0ull,
          0xFF00FF00FF00FF00ull, 0xFFFF0000FFFF0000ull, 0xFFFFFFFF00000000ull};
      const std::uint64_t total = std::uint64_t{1} << support.size();
      const std::uint64_t words = std::max<std::uint64_t>(total >> 6, 1);
      const std::uint64_t laneMask =
          total >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << total) - 1;
      for (std::uint64_t w = 0; w < words; ++w) {
        auto cutWord = [&](std::uint32_t cut) -> std::uint64_t {
          const std::int32_t b = posOfCut[cut];
          if (b < 6) return kLanePattern[b];
          return ((w >> (b - 6)) & 1u) != 0 ? ~std::uint64_t{0} : 0;
        };
        const std::uint64_t gw = g.evalWord(gc, cutWord);
        const std::uint64_t rw = r.evalWord(rc, cutWord);
        const std::uint64_t diff = (gw ^ rw) & laneMask;
        if (diff != 0) {
          // The lowest differing lane is the lowest mismatching j.
          const int lane = std::countr_zero(diff);
          res.equivalent = false;
          recordCx(ep, gc, rc, support,
                   (w << 6) | static_cast<std::uint64_t>(lane),
                   ((gw >> lane) & 1u) != 0, ((rw >> lane) & 1u) != 0);
          break;
        }
      }
      res.exhaustiveVectors += total;
      ++res.conesExhaustive;
      res.proofs.push_back(std::move(proof));
      continue;
    }
    // 3. Canonical ROBDD comparison for wide cones — a complete proof as
    //    long as the node budget holds (supports past 64 cuts skip this:
    //    counterexample assignments pack into a 64-bit word).
    if (support.size() <= 64) {
      BddManager mgr(static_cast<std::uint32_t>(support.size()),
                     opt.bddNodeLimit);
      const BddManager::Ref gb = buildConeBdd(mgr, g, gc, posOfCut);
      const BddManager::Ref rb = buildConeBdd(mgr, r, rc, posOfCut);
      if (gb != BddManager::kOverflow && rb != BddManager::kOverflow) {
        proof.method = ProofMethod::kBdd;
        ++res.conesBdd;
        res.bddNodes += mgr.nodeCount();
        if (gb != rb) {
          // Shared manager + shared variable order: distinct refs are a
          // proof of inequality. Pull a concrete witness off the XOR.
          res.equivalent = false;
          const BddManager::Ref diff = mgr.bddXor(gb, rb);
          if (diff != BddManager::kOverflow && diff != BddManager::kFalse) {
            std::uint64_t j = 0;
            for (const auto& [v, bit] : mgr.anySat(diff)) {
              if (bit) j |= std::uint64_t{1} << v;
            }
            auto cutVal = [&](std::uint32_t cut) {
              return ((j >> posOfCut[cut]) & 1u) != 0;
            };
            recordCx(ep, gc, rc, support, j, g.eval(gc, cutVal),
                     r.eval(rc, cutVal));
          } else {
            res.notes.push_back("cone '" + ep.name + "' proven inequivalent "
                                "but the XOR witness overflowed the BDD "
                                "node budget");
          }
        }
        res.proofs.push_back(std::move(proof));
        continue;
      }
      res.notes.push_back("cone '" + ep.name + "' overflowed the BDD node "
                          "budget; falling back to random simulation");
    }
    // 4. Random-simulation fallback (not a proof).
    proof.method = ProofMethod::kRandomSim;
    res.fullyProven = false;
    ++res.conesRandomSim;
    for (std::uint32_t v = 0; v < opt.randomVectors; ++v) {
      std::uint64_t j = coneRng.next();
      if (support.size() > 64) j ^= coneRng.next();  // cones cap at 64 cuts
      auto cutVal = [&](std::uint32_t cut) {
        return ((j >> (posOfCut[cut] & 63)) & 1u) != 0;
      };
      const bool gv = g.eval(gc, cutVal);
      const bool rv = r.eval(rc, cutVal);
      if (gv != rv) {
        res.equivalent = false;
        recordCx(ep, gc, rc, support, j, gv, rv);
        break;
      }
    }
    res.proofs.push_back(std::move(proof));
  }

  // Residue registers that feed no endpoint cone are dead state: they can
  // never influence an output or a matched register, so they do not demote
  // the verdict below "fully proven". Reachable residue does.
  if ((res.residueGoldenFfs > 0 || res.residueRevisedFfs > 0) &&
      res.conesSequentialSim == 0) {
    res.notes.push_back(
        std::to_string(res.residueGoldenFfs + res.residueRevisedFfs) +
        " unmatched register(s) feed no endpoint (dead state); equivalence "
        "is over observable behavior");
  }

  // ---- sequential residue: whole-netlist lockstep oracle -------------------
  if (anyResidue && res.equivalent) {
    if (res.conesSequentialSim > 0) res.fullyProven = false;
    Evaluator ge(golden), re(revised);
    ge.reset();
    re.reset();
    Rng rng(opt.seed ^ 0x5e9u);
    std::vector<std::pair<GateId, GateId>> residueOutputGates;
    for (const Endpoint* ep : residueOutputs) {
      residueOutputGates.emplace_back(golden.findOutput(ep->name),
                                      revised.findOutput(ep->name));
    }
    std::vector<std::vector<bool>> history;
    for (std::uint32_t t = 0;
         t < opt.sequentialCycles && res.equivalent; ++t) {
      // Matched registers must track exactly from reset.
      for (std::size_t k = 0; k < pairs.size(); ++k) {
        const bool gv = ge.stateBit(pairs[k].golden);
        const bool rv = re.stateBit(pairs[k].revised);
        if (gv == rv) continue;
        res.equivalent = false;
        if (res.counterexamples.size() < opt.maxCounterexamples) {
          Counterexample cx;
          cx.sequential = true;
          cx.stateEndpoint = true;
          cx.endpoint = "ff#" + std::to_string(k);
          cx.endpointGoldenDff = static_cast<std::int32_t>(pairs[k].golden);
          cx.endpointRevisedDff = static_cast<std::int32_t>(pairs[k].revised);
          cx.inputOrder = inputNames;
          cx.inputSequence = history;
          cx.cycle = t;
          cx.goldenValue = gv;
          cx.revisedValue = rv;
          res.counterexamples.push_back(std::move(cx));
        }
        break;
      }
      if (!res.equivalent) break;

      std::vector<bool> vec(inputNames.size(), false);
      for (std::size_t i = 0; i < inputNames.size(); ++i) {
        vec[i] = rngBit(rng);
        driveInput(ge, re, i, vec[i]);
      }
      history.push_back(std::move(vec));
      ge.eval();
      re.eval();
      for (std::size_t o = 0; o < residueOutputs.size(); ++o) {
        const bool gv = ge.value(residueOutputGates[o].first);
        const bool rv = re.value(residueOutputGates[o].second);
        if (gv == rv) continue;
        res.equivalent = false;
        if (res.counterexamples.size() < opt.maxCounterexamples) {
          Counterexample cx;
          cx.sequential = true;
          cx.endpoint = residueOutputs[o]->name;
          cx.inputOrder = inputNames;
          cx.inputSequence = history;
          cx.cycle = t;
          cx.goldenValue = gv;
          cx.revisedValue = rv;
          res.counterexamples.push_back(std::move(cx));
        }
        break;
      }
      ge.tick();
      re.tick();
    }
  }

  return res;
}

bool replayCounterexample(const Netlist& golden, const Netlist& revised,
                          const Counterexample& cx) {
  Evaluator ge(golden), re(revised);
  ge.reset();
  re.reset();

  auto readEndpoint = [&](Evaluator& ev, const Netlist& nl, bool isGolden,
                          bool stateForm) -> bool {
    if (cx.endpointGoldenDff >= 0) {
      const GateId dff =
          nl.dffs()[static_cast<std::size_t>(isGolden ? cx.endpointGoldenDff
                                                      : cx.endpointRevisedDff)];
      if (stateForm) return ev.value(dff);
      return ev.value(nl.gate(dff).fanins[0]);  // next-state (D) value
    }
    return ev.output(cx.endpoint);
  };

  if (!cx.sequential) {
    auto applyState = [&](Evaluator& ev, const Netlist& nl, bool isGolden) {
      std::vector<bool> st(nl.dffs().size(), false);
      {
        // Start from reset values so unassigned registers stay defined.
        const std::vector<bool> cur = ev.state();
        st.assign(cur.begin(), cur.end());
      }
      for (const Counterexample::FfAssign& f : cx.ffs) {
        const std::uint32_t ord = isGolden ? f.goldenDff : f.revisedDff;
        if (ord < st.size()) st[ord] = f.value;
      }
      ev.setState(st);
    };
    applyState(ge, golden, true);
    applyState(re, revised, false);
    for (const auto& [name, v] : cx.inputs) {
      if (golden.findInput(name) != kNoGate) ge.setInput(name, v);
      if (revised.findInput(name) != kNoGate) re.setInput(name, v);
    }
    ge.eval();
    re.eval();
    const bool gv = readEndpoint(ge, golden, true, false);
    const bool rv = readEndpoint(re, revised, false, false);
    return gv == cx.goldenValue && rv == cx.revisedValue && gv != rv;
  }

  // Sequential: drive the recorded input sequence from reset.
  auto drive = [&](Evaluator& ev, const Netlist& nl,
                   const std::vector<bool>& vec) {
    for (std::size_t i = 0; i < cx.inputOrder.size() && i < vec.size(); ++i) {
      if (nl.findInput(cx.inputOrder[i]) != kNoGate) {
        ev.setInput(cx.inputOrder[i], vec[i]);
      }
    }
  };
  if (cx.stateEndpoint) {
    for (const auto& vec : cx.inputSequence) {
      drive(ge, golden, vec);
      drive(re, revised, vec);
      ge.eval();
      re.eval();
      ge.tick();
      re.tick();
    }
    const bool gv = readEndpoint(ge, golden, true, true);
    const bool rv = readEndpoint(re, revised, false, true);
    return gv == cx.goldenValue && rv == cx.revisedValue && gv != rv;
  }
  for (std::size_t t = 0; t < cx.inputSequence.size(); ++t) {
    drive(ge, golden, cx.inputSequence[t]);
    drive(re, revised, cx.inputSequence[t]);
    ge.eval();
    re.eval();
    if (t + 1 == cx.inputSequence.size()) {
      const bool gv = readEndpoint(ge, golden, true, false);
      const bool rv = readEndpoint(re, revised, false, false);
      return gv == cx.goldenValue && rv == cx.revisedValue && gv != rv;
    }
    ge.tick();
    re.tick();
  }
  return false;
}

}  // namespace vfpga::analysis::equiv
