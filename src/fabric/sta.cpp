#include "fabric/sta.hpp"

#include <algorithm>
#include <sstream>

namespace vfpga {

namespace {

std::string cellName(const Elaboration::Cell& c) {
  return "lut(" + std::to_string(c.x) + "," + std::to_string(c.y) + ")";
}

// Core path tracer over a known-clean elaboration.
std::vector<TimingPath> tracePaths(Device& device, const Elaboration& e,
                                   std::size_t topN) {
  const DeviceTiming& t = device.timing();

  // Arrival at each cell's LUT output plus the predecessor that set it.
  constexpr std::int32_t kFromPad = -2;
  constexpr std::int32_t kFromFf = -3;
  constexpr std::int32_t kNone = -1;
  std::vector<SimDuration> arrival(e.cells.size(), 0);
  std::vector<std::int32_t> pred(e.cells.size(), kNone);
  std::vector<std::uint32_t> predSource(e.cells.size(), 0);

  auto sourceArrival = [&](const SignalSource& s, SimDuration& out,
                           std::int32_t& kind, std::uint32_t& index) {
    switch (s.kind) {
      case SignalSource::Kind::kUndriven:
        out = 0;
        kind = kNone;
        index = 0;
        break;
      case SignalSource::Kind::kPadSlot:
        out = t.padDelay + s.hops * t.switchDelay;
        kind = kFromPad;
        index = s.index;
        break;
      case SignalSource::Kind::kCell:
        if (e.cells[s.index].useFf) {
          out = s.hops * t.switchDelay;
          kind = kFromFf;
          index = s.index;
        } else {
          out = arrival[s.index] + s.hops * t.switchDelay;
          kind = static_cast<std::int32_t>(s.index);
          index = s.index;
        }
        break;
    }
  };

  for (std::uint32_t ci : e.evalOrder) {
    SimDuration best = 0;
    std::int32_t bestKind = kNone;
    std::uint32_t bestIdx = 0;
    for (const SignalSource& in : e.cells[ci].inputs) {
      SimDuration a = 0;
      std::int32_t kind = kNone;
      std::uint32_t idx = 0;
      sourceArrival(in, a, kind, idx);
      if (kind != kNone && a >= best) {
        best = a;
        bestKind = kind;
        bestIdx = idx;
      }
    }
    arrival[ci] = best + t.lutDelay;
    pred[ci] = bestKind;
    predSource[ci] = bestIdx;
  }

  // Endpoints: FF D pins and output pads.
  struct Endpoint {
    SimDuration arrival;
    std::string name;
    std::int32_t predKind;
    std::uint32_t predIdx;
  };
  std::vector<Endpoint> ends;
  auto considerSink = [&](const std::vector<SignalSource>& ins,
                          SimDuration extra, std::string name) {
    SimDuration best = 0;
    std::int32_t bestKind = kNone;
    std::uint32_t bestIdx = 0;
    for (const SignalSource& in : ins) {
      SimDuration a = 0;
      std::int32_t kind = kNone;
      std::uint32_t idx = 0;
      sourceArrival(in, a, kind, idx);
      if (kind != kNone && a >= best) {
        best = a;
        bestKind = kind;
        bestIdx = idx;
      }
    }
    if (bestKind == kNone) return;
    ends.push_back(Endpoint{best + extra, std::move(name), bestKind, bestIdx});
  };
  for (std::uint32_t ci = 0; ci < e.cells.size(); ++ci) {
    if (!e.cells[ci].useFf) continue;
    considerSink(e.cells[ci].inputs, t.lutDelay,
                 "ff(" + std::to_string(e.cells[ci].x) + "," +
                     std::to_string(e.cells[ci].y) + ")");
  }
  for (const auto& po : e.padOuts) {
    considerSink({po.source}, t.padDelay,
                 "pad_slot " + std::to_string(po.slot));
  }

  std::sort(ends.begin(), ends.end(), [](const Endpoint& a, const Endpoint& b) {
    return a.arrival > b.arrival;
  });
  if (ends.size() > topN) ends.resize(topN);

  std::vector<TimingPath> paths;
  for (const Endpoint& end : ends) {
    TimingPath p;
    p.arrival = end.arrival;
    p.endpoint = end.name;
    // Walk backwards through combinational predecessors.
    std::int32_t kind = end.predKind;
    std::uint32_t idx = end.predIdx;
    while (kind >= 0) {
      p.cells.push_back(cellName(e.cells[static_cast<std::uint32_t>(kind)]));
      const std::uint32_t ci = static_cast<std::uint32_t>(kind);
      kind = pred[ci];
      idx = predSource[ci];
    }
    if (kind == kFromPad) {
      p.startpoint = "pad_slot " + std::to_string(idx);
    } else if (kind == kFromFf) {
      p.startpoint = "ff(" + std::to_string(e.cells[idx].x) + "," +
                     std::to_string(e.cells[idx].y) + ")";
    } else {
      p.startpoint = "constant";
    }
    std::reverse(p.cells.begin(), p.cells.end());
    paths.push_back(std::move(p));
  }
  return paths;
}

}  // namespace

TimingAnalysis analyzeTiming(Device& device, std::size_t topN) {
  TimingAnalysis r;
  const Elaboration& e = device.elaboration();
  if (!e.ok()) {
    r.status = TimingStatus::kConfigFaulted;
    r.configFaults = e.faults;
    return r;
  }
  if (e.cells.empty()) {
    r.status = TimingStatus::kNoLogic;
    r.minClockPeriod = device.minClockPeriod();
    return r;
  }
  r.status = TimingStatus::kOk;
  r.paths = tracePaths(device, e, topN);
  r.minClockPeriod = device.minClockPeriod();
  return r;
}

std::vector<TimingPath> criticalPaths(Device& device, std::size_t topN) {
  return analyzeTiming(device, topN).paths;
}

std::string renderTimingReport(Device& device, std::size_t topN) {
  std::ostringstream os;
  const TimingAnalysis ta = analyzeTiming(device, topN);
  if (ta.status == TimingStatus::kConfigFaulted) {
    os << "critical paths unavailable: configuration has "
       << ta.configFaults.size() << " fault(s):\n";
    for (const std::string& f : ta.configFaults) os << "  " << f << "\n";
    return os.str();
  }
  const std::vector<TimingPath>& paths = ta.paths;
  os << "critical paths (slowest first), min clock period "
     << ta.minClockPeriod << " ns:\n";
  for (std::size_t i = 0; i < paths.size(); ++i) {
    const TimingPath& p = paths[i];
    os << "  #" << (i + 1) << "  " << p.arrival << " ns  " << p.startpoint
       << " -> " << p.endpoint << "  (" << p.cells.size() << " LUTs";
    if (!p.cells.empty()) {
      os << ": ";
      for (std::size_t c = 0; c < p.cells.size(); ++c) {
        if (c) os << " -> ";
        os << p.cells[c];
      }
    }
    os << ")\n";
  }
  return os.str();
}

}  // namespace vfpga
