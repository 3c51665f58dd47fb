#include "analysis/kernel_check.hpp"

#include <map>
#include <set>
#include <utility>

namespace vfpga::analysis {

namespace {

Location stripLoc(const Strip& s) {
  Location loc;
  loc.kind = Location::Kind::kStrip;
  loc.index = s.id == kNoPartition ? -1 : static_cast<std::int64_t>(s.id);
  loc.x = s.x0;
  return loc;
}

// Local task-state names: analysis sits below vfpga_core in the link
// order, so it cannot call taskStateName().
const char* stateName(TaskState s) {
  switch (s) {
    case TaskState::kNew: return "new";
    case TaskState::kReady: return "ready";
    case TaskState::kRunningCpu: return "running-cpu";
    case TaskState::kWaitingFpga: return "waiting-fpga";
    case TaskState::kRunningFpga: return "running-fpga";
    case TaskState::kDone: return "done";
    case TaskState::kParked: return "parked";
    case TaskState::kMigrated: return "migrated";
  }
  return "unknown";
}

Location taskLoc(std::span<const TaskRuntime> tasks, std::size_t t) {
  Location loc;
  loc.kind = Location::Kind::kTask;
  loc.index = static_cast<std::int64_t>(t);
  if (t < tasks.size()) loc.detail = tasks[t].spec.name;
  return loc;
}

}  // namespace

void verifyStrips(std::span<const Strip> strips, std::uint16_t columns,
                  bool fixedMode, Report& rep) {
  std::uint32_t expectX0 = 0;
  std::set<PartitionId> ids;
  for (std::size_t i = 0; i < strips.size(); ++i) {
    const Strip& s = strips[i];
    if (s.width == 0) {
      rep.add("AL002", "strip at column " + std::to_string(s.x0) +
                           " has width 0",
              stripLoc(s));
    }
    if (s.x0 != expectX0) {
      rep.add("AL001",
              "strip " + std::to_string(i) + " starts at column " +
                  std::to_string(s.x0) + ", expected " +
                  std::to_string(expectX0) +
                  (s.x0 > expectX0 ? " (gap)" : " (overlap)"),
              stripLoc(s));
    }
    expectX0 = s.x0 + s.width;
    if (!ids.insert(s.id).second) {
      rep.add("AL003", "partition id used by two strips", stripLoc(s));
    }
    if (!fixedMode && i > 0 && !s.busy && !strips[i - 1].busy &&
        !s.faulty && !strips[i - 1].faulty) {
      rep.add("AL004",
              "idle strips at columns " + std::to_string(strips[i - 1].x0) +
                  " and " + std::to_string(s.x0) + " were not merged",
              stripLoc(s));
    }
    if (s.faulty && s.busy) {
      rep.add("AL005",
              "quarantined strip at column " + std::to_string(s.x0) +
                  " is marked busy",
              stripLoc(s));
    }
  }
  if (expectX0 != columns) {
    Location loc;
    loc.kind = Location::Kind::kStrip;
    rep.add("AL001",
            "strips cover [0, " + std::to_string(expectX0) +
                "), device has " + std::to_string(columns) + " column(s)",
            loc);
  }
}

void verifyPageTable(std::span<const PageTableEntry> entries,
                     std::span<const std::uint32_t> functionPages,
                     std::uint32_t residentCapacity, std::uint64_t clock,
                     Report& rep) {
  auto pageLoc = [](const PageTableEntry& e) {
    Location loc;
    loc.kind = Location::Kind::kPage;
    loc.index = e.function;
    loc.detail = "function " + std::to_string(e.function) + " page " +
                 std::to_string(e.page);
    return loc;
  };
  if (entries.size() > residentCapacity) {
    Location loc;
    loc.kind = Location::Kind::kPage;
    rep.add("PG001",
            std::to_string(entries.size()) +
                " resident page(s), capacity is " +
                std::to_string(residentCapacity),
            loc);
  }
  std::set<std::pair<std::uint32_t, std::uint32_t>> seen;
  for (const PageTableEntry& e : entries) {
    if (e.function >= functionPages.size()) {
      rep.add("PG002",
              "resident page of undeclared function " +
                  std::to_string(e.function) + " (have " +
                  std::to_string(functionPages.size()) + ")",
              pageLoc(e));
      continue;
    }
    if (e.page >= functionPages[e.function]) {
      rep.add("PG003",
              "page " + std::to_string(e.page) + " of function " +
                  std::to_string(e.function) + ", which has " +
                  std::to_string(functionPages[e.function]) + " page(s)",
              pageLoc(e));
    }
    if (!seen.insert({e.function, e.page}).second) {
      rep.add("PG004", "page resident twice", pageLoc(e));
    }
    if (e.loadedAt > e.lastUse || e.lastUse > clock) {
      rep.add("PG005",
              "loadedAt " + std::to_string(e.loadedAt) + ", lastUse " +
                  std::to_string(e.lastUse) + ", clock " +
                  std::to_string(clock),
              pageLoc(e));
    }
  }
}

void verifyOverlayLayout(const CompiledCircuit* resident,
                         std::span<const CompiledCircuit> overlays,
                         std::optional<std::uint32_t> active,
                         std::uint16_t residentWidth, std::uint16_t cols,
                         Report& rep) {
  auto ovLoc = [](std::int64_t index, const std::string& name) {
    Location loc;
    loc.kind = Location::Kind::kOverlay;
    loc.index = index;
    loc.detail = name;
    return loc;
  };
  if (resident != nullptr &&
      (resident->region.x0 != 0 ||
       resident->region.x0 + resident->region.w > residentWidth)) {
    rep.add("OV001",
            "resident circuit occupies columns [" +
                std::to_string(resident->region.x0) + ".." +
                std::to_string(resident->region.x1()) +
                "], resident strip is [0.." +
                std::to_string(residentWidth - 1) + "]",
            ovLoc(-1, resident->name));
  }
  for (std::size_t i = 0; i < overlays.size(); ++i) {
    const Region& r = overlays[i].region;
    if (r.x0 < residentWidth || r.x0 + r.w > cols) {
      rep.add("OV002",
              "overlay occupies columns [" + std::to_string(r.x0) + ".." +
                  std::to_string(r.x1()) + "], overlay strip is [" +
                  std::to_string(residentWidth) + ".." +
                  std::to_string(cols - 1) + "]",
              ovLoc(static_cast<std::int64_t>(i), overlays[i].name));
    }
  }
  if (active && *active >= overlays.size()) {
    rep.add("OV003",
            "active overlay " + std::to_string(*active) + " of " +
                std::to_string(overlays.size()),
            ovLoc(*active, ""));
  }
}

void verifyOccupancy(std::span<const Strip> strips,
                     std::span<const OccupantInfo> occupants, Report& rep) {
  std::map<PartitionId, const Strip*> byId;
  for (const Strip& s : strips) byId[s.id] = &s;
  std::set<PartitionId> occupied;
  for (const OccupantInfo& o : occupants) {
    occupied.insert(o.partition);
    Location loc;
    loc.kind = Location::Kind::kStrip;
    loc.index = static_cast<std::int64_t>(o.partition);
    loc.detail = o.name;
    const auto it = byId.find(o.partition);
    if (it == byId.end()) {
      rep.add("PM002",
              "occupant '" + o.name + "' registered for unknown partition " +
                  std::to_string(o.partition),
              loc);
      continue;
    }
    const Strip& s = *it->second;
    if (o.x0 < s.x0 || o.x0 + o.w > s.x0 + s.width) {
      rep.add("PM002",
              "occupant '" + o.name + "' at columns [" +
                  std::to_string(o.x0) + ".." +
                  std::to_string(o.x0 + o.w - 1) + "] outside strip [" +
                  std::to_string(s.x0) + ".." +
                  std::to_string(s.x0 + s.width - 1) + "]",
              loc);
    }
  }
  for (const Strip& s : strips) {
    if (s.busy && occupied.count(s.id) == 0) {
      rep.add("PM001",
              "busy strip at column " + std::to_string(s.x0) +
                  " has no registered occupant",
              stripLoc(s));
    }
  }
}

void verifySegmentResidency(std::span<const Strip> strips,
                            std::span<const SegmentResidencyInfo> resident,
                            Report& rep) {
  std::map<PartitionId, const Strip*> byId;
  for (const Strip& s : strips) byId[s.id] = &s;
  std::map<PartitionId, std::uint32_t> claimed;
  for (const SegmentResidencyInfo& r : resident) {
    Location loc;
    loc.kind = Location::Kind::kSegment;
    loc.index = r.segment;
    const auto it = byId.find(r.strip);
    if (it == byId.end() || !it->second->busy) {
      rep.add("SG001",
              "resident segment " + std::to_string(r.segment) +
                  " points at " +
                  (it == byId.end() ? "unknown" : "idle") + " strip " +
                  std::to_string(r.strip),
              loc);
      continue;
    }
    const auto [cit, inserted] = claimed.emplace(r.strip, r.segment);
    if (!inserted) {
      rep.add("SG002",
              "segments " + std::to_string(cit->second) + " and " +
                  std::to_string(r.segment) + " both claim strip " +
                  std::to_string(r.strip),
              loc);
    }
  }
}

void verifyTasks(std::span<const TaskRuntime> tasks, Report& rep) {
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    const TaskRuntime& tr = tasks[t];
    if (tr.opIndex > tr.spec.ops.size()) {
      rep.add("TS001",
              "op index " + std::to_string(tr.opIndex) + " of " +
                  std::to_string(tr.spec.ops.size()),
              taskLoc(tasks, t));
      continue;
    }
    if (tr.done() && tr.opIndex != tr.spec.ops.size()) {
      rep.add("TS002",
              "task is done at op " + std::to_string(tr.opIndex) + " of " +
                  std::to_string(tr.spec.ops.size()),
              taskLoc(tasks, t));
    }
    if (tr.partition != kNoPartition && tr.state != TaskState::kRunningFpga) {
      rep.add("TS003",
              "task holds partition " + std::to_string(tr.partition) +
                  " in state " + stateName(tr.state),
              taskLoc(tasks, t));
    }
    if (tr.done() && (tr.cpuRemaining > 0 || tr.cyclesRemaining > 0)) {
      rep.add("TS004",
              "finished task has " + std::to_string(tr.cpuRemaining) +
                  " CPU time and " + std::to_string(tr.cyclesRemaining) +
                  " cycle(s) outstanding",
              taskLoc(tasks, t));
    }
  }
}

void verifyTaskQueues(std::span<const TaskRuntime> tasks,
                      std::span<const std::size_t> cpuReady,
                      std::span<const std::size_t> fpgaWaiting, Report& rep) {
  auto checkQueue = [&](std::span<const std::size_t> queue, TaskState want,
                        const char* queueName) {
    for (std::size_t t : queue) {
      if (t >= tasks.size()) {
        Location loc;
        loc.kind = Location::Kind::kTask;
        loc.index = static_cast<std::int64_t>(t);
        rep.add("TS005",
                std::string(queueName) + " queue holds invalid task index " +
                    std::to_string(t),
                loc);
        continue;
      }
      if (tasks[t].state != want) {
        rep.add("TS005",
                "task in the " + std::string(queueName) +
                    " queue is in state " + stateName(tasks[t].state) +
                    ", expected " + stateName(want),
                taskLoc(tasks, t));
      }
    }
  };
  checkQueue(cpuReady, TaskState::kReady, "CPU-ready");
  checkQueue(fpgaWaiting, TaskState::kWaitingFpga, "FPGA-waiting");
}

void verifySnapshots(std::span<const TaskRuntime> tasks,
                     std::span<const SnapshotInfo> snapshots, Report& rep) {
  for (const SnapshotInfo& snap : snapshots) {
    const TaskRuntime* tr =
        snap.owner < tasks.size() ? &tasks[snap.owner] : nullptr;
    const FpgaExec* fx = tr != nullptr && tr->opIndex < tr->spec.ops.size()
                             ? std::get_if<FpgaExec>(&tr->spec.ops[tr->opIndex])
                             : nullptr;
    if (fx != nullptr && !tr->terminal() && fx->config == snap.config &&
        tr->cyclesRemaining > 0 && tr->cyclesRemaining < fx->cycles) {
      continue;
    }
    rep.add("TS006",
            "snapshot of config " + std::to_string(snap.config) +
                (tr == nullptr ? " owned by no task"
                               : " held for a task in state " +
                                     std::string(stateName(tr->state)) +
                                     " at op " + std::to_string(tr->opIndex)),
            taskLoc(tasks, snap.owner));
  }
}

}  // namespace vfpga::analysis
