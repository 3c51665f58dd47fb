#include "core/task.hpp"

namespace vfpga {

const char* taskStateName(TaskState s) {
  switch (s) {
    case TaskState::kNew: return "new";
    case TaskState::kReady: return "ready";
    case TaskState::kRunningCpu: return "running_cpu";
    case TaskState::kWaitingFpga: return "waiting_fpga";
    case TaskState::kRunningFpga: return "running_fpga";
    case TaskState::kDone: return "done";
    case TaskState::kParked: return "parked";
    case TaskState::kMigrated: return "migrated";
  }
  return "unknown";
}

std::uint64_t totalFpgaCycles(const TaskSpec& spec) {
  std::uint64_t n = 0;
  for (const TaskOp& op : spec.ops) {
    if (const auto* fx = std::get_if<FpgaExec>(&op)) n += fx->cycles;
  }
  return n;
}

}  // namespace vfpga
