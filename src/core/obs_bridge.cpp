#include "core/obs_bridge.hpp"

#include "core/os_kernel.hpp"

namespace vfpga {

void dumpFlight(obs::FlightRecorder& recorder,
                const analysis::InvariantViolation& violation) {
  try {
    recorder.dump(violation.rule(), violation.context(),
                  violation.reportJson());
  } catch (...) {
    // A broken dumper must not mask the violation being reported.
  }
}

void publishMetrics(const DynamicLoader& loader, obs::MetricsRegistry& reg,
                    obs::Labels labels) {
  reg.counter("vfpga_loader_switches_total", labels,
              "Whole-device configuration context switches")
      .inc(loader.switches());
  reg.counter("vfpga_loader_download_retries_total", labels,
              "Downloads retried after failed verification")
      .inc(loader.stats().downloadRetries);
  reg.counter("vfpga_loader_download_aborts_total", labels,
              "Downloads truncated on the wire")
      .inc(loader.stats().downloadAborts);
}

void publishMetrics(const compiled::CompiledFabric& engine,
                    obs::MetricsRegistry& reg, obs::Labels labels) {
  const compiled::CompiledFabricStats& st = engine.stats();
  reg.counter("vfpga_sim_compiled_builds_total", labels,
              "Fabric programs levelized by the compiled engine")
      .inc(st.builds);
  reg.counter("vfpga_sim_compiled_hits_total", labels,
              "Fabric programs served from the compiled-kernel cache")
      .inc(st.hits);
  reg.counter("vfpga_sim_compiled_invalidations_total", labels,
              "Compiled kernels dropped on reconfiguration")
      .inc(st.invalidations);
  reg.counter("vfpga_sim_compiled_fallbacks_total", labels,
              "Evaluations served interpretively while a kernel was attached")
      .inc(st.fallbacks);
  reg.counter("vfpga_sim_compiled_evaluates_total", labels,
              "Combinational settles served by the compiled engine")
      .inc(st.compiledEvaluates);
}

void publishMetrics(const PartitionManager& pm, obs::MetricsRegistry& reg,
                    obs::Labels labels) {
  reg.counter("vfpga_partition_gc_total", labels,
              "Garbage-collection (compaction) runs")
      .inc(pm.garbageCollections());
  reg.counter("vfpga_partition_relocations_total", labels,
              "Resident circuits moved by compaction")
      .inc(pm.relocations());
  reg.gauge("vfpga_partition_strips", labels,
            "Strips currently tracked by the allocator")
      .set(static_cast<double>(pm.allocator().strips().size()));
}

void publishMetrics(const OverlayManager& ov, obs::MetricsRegistry& reg,
                    obs::Labels labels) {
  reg.counter("vfpga_overlay_invocations_total", labels,
              "Overlay function invocations")
      .inc(ov.invocations());
  reg.counter("vfpga_overlay_loads_total", labels,
              "Overlay downloads (invocation misses)")
      .inc(ov.overlayLoads());
  reg.gauge("vfpga_overlay_hit_rate", labels,
            "Fraction of invocations served without a download")
      .set(ov.hitRate());
  if (ov.faultPlanInstalled()) {
    // Fault families appear only when injection is live, keeping the
    // fault-free exporter output byte-identical.
    reg.counter("vfpga_overlay_stale_reuse_detected_total", labels,
                "Stale overlay reuses caught by residency verification")
        .inc(ov.staleReusesDetected());
    reg.counter("vfpga_overlay_stale_reuse_silent_total", labels,
                "Stale overlay reuses executed without verification")
        .inc(ov.silentStaleReuses());
  }
}

void publishMetrics(const SegmentManager& sg, obs::MetricsRegistry& reg,
                    obs::Labels labels) {
  reg.counter("vfpga_segment_accesses_total", labels, "Segment accesses")
      .inc(sg.accesses());
  reg.counter("vfpga_segment_faults_total", labels,
              "Segment faults (downloads)")
      .inc(sg.faults());
  reg.counter("vfpga_segment_evictions_total", labels, "Segments evicted")
      .inc(sg.evictions());
  reg.gauge("vfpga_segment_fault_rate", labels, "Faults per access")
      .set(sg.faultRate());
  reg.gauge("vfpga_segment_resident", labels, "Segments currently resident")
      .set(static_cast<double>(sg.residentCount()));
  if (sg.faultPlanInstalled()) {
    reg.counter("vfpga_segment_table_corruptions_detected_total", labels,
                "Segment-table corruptions caught by residency verification")
        .inc(sg.tableCorruptionsDetected());
    reg.counter("vfpga_segment_table_corruptions_silent_total", labels,
                "Corrupt segment mappings followed without verification")
        .inc(sg.silentTableCorruptions());
  }
}

void publishMetrics(const PageManager& pg, obs::MetricsRegistry& reg,
                    obs::Labels labels) {
  reg.counter("vfpga_page_accesses_total", labels,
              "Paged-function invocations")
      .inc(pg.accesses());
  reg.counter("vfpga_page_faults_total", labels, "Page faults").inc(pg.faults());
  reg.counter("vfpga_page_bits_moved_total", labels,
              "Configuration bits moved by demand paging")
      .inc(pg.bitsMoved());
  reg.gauge("vfpga_page_fault_rate", labels, "Faults per page touch")
      .set(pg.faultRate());
  reg.gauge("vfpga_page_resident", labels, "Pages currently resident")
      .set(static_cast<double>(pg.residentPages()));
  if (pg.faultPlanInstalled()) {
    reg.counter("vfpga_page_residency_losses_detected_total", labels,
                "Lost page residency bits caught by verification")
        .inc(pg.residencyLossesDetected());
    reg.counter("vfpga_page_residency_losses_silent_total", labels,
                "Missing pages assumed present without verification")
        .inc(pg.silentResidencyLosses());
  }
}

void publishMetrics(const PrefetchLoader& pf, obs::MetricsRegistry& reg,
                    obs::Labels labels) {
  reg.counter("vfpga_prefetch_hits_total", labels,
              "Activations served by the speculative shadow half")
      .inc(pf.hits());
  reg.counter("vfpga_prefetch_misses_total", labels,
              "Activations that fell back to a demand load")
      .inc(pf.misses());
  reg.counter("vfpga_prefetch_stall_ns_total", labels,
              "Simulated time tasks stalled on activation")
      .inc(pf.stallTotal());
  reg.gauge("vfpga_prefetch_hit_rate", labels, "Predictor hit rate")
      .set(pf.hitRate());
}

void publishMetrics(const IoMux& mux, obs::MetricsRegistry& reg,
                    obs::Labels labels) {
  reg.counter("vfpga_io_mux_transfers_total", labels,
              "Virtual I/O vector transfers")
      .inc(mux.transfers());
  reg.counter("vfpga_io_mux_frames_total", labels, "Bus frames moved")
      .inc(mux.framesMoved());
  reg.counter("vfpga_io_mux_signals_total", labels, "Virtual signals moved")
      .inc(mux.signalsMoved());
  reg.counter("vfpga_io_mux_busy_ns_total", labels,
              "Simulated time the multiplexer was busy")
      .inc(mux.busyTime());
}

void collectActivity(ActivityProbe& probe,
                     obs::profile::ActivityAggregator& agg) {
  for (const ActivitySite& s : probe.sites()) {
    agg.add(obs::profile::SiteSample{s.x, s.y, s.evals, s.toggles, s.hops});
  }
  agg.setCycles(agg.cycles() + probe.cyclesObserved());
}

obs::profile::ResourceLedger buildLedger(const OsKernel& kernel,
                                         const std::string& device) {
  obs::profile::ResourceLedger ledger;
  for (const TaskRuntime& tr : kernel.tasks()) {
    obs::profile::LedgerRow row;
    row.task = tr.spec.name;
    row.device = device;
    row.priority = tr.spec.priority;
    row.completed = tr.done();
    row.fpgaCycles = tr.cyclesExecuted;
    row.configBits = tr.configBitsWritten;
    row.downloads = tr.downloads;
    row.configHits = tr.configHits;
    row.relocations = tr.relocations;
    row.preemptions = tr.preemptions;
    row.migrations = tr.state == TaskState::kMigrated ? 1 : 0;
    row.checkpoints = tr.checkpoints;
    row.restores = tr.restores;
    row.checkpointedBytes = tr.checkpointedBytes;
    row.waitNs = tr.fpgaWaitTotal;
    row.execNs = tr.fpgaExecTotal;
    ledger.add(std::move(row));
  }
  return ledger;
}

std::vector<std::string> taskTrackNames(const OsKernel& kernel) {
  std::vector<std::string> names;
  names.reserve(kernel.tasks().size());
  for (const TaskRuntime& tr : kernel.tasks()) {
    names.push_back(tr.spec.name);
  }
  return names;
}

std::vector<obs::CellState> occupancyCells(const StripAllocator& alloc) {
  std::vector<obs::CellState> cells(alloc.columns(), obs::CellState::kIdle);
  for (const Strip& s : alloc.strips()) {
    obs::CellState state = obs::CellState::kIdle;
    if (s.faulty) {
      state = obs::CellState::kFaulty;
    } else if (s.busy) {
      state = obs::CellState::kBusy;
    }
    for (std::uint16_t c = s.x0; c < s.x0 + s.width && c < cells.size();
         ++c) {
      cells[c] = state;
    }
  }
  return cells;
}

obs::monitor::HealthCounters toHealthCounters(const fault::HealthInputs& hi,
                                              std::uint16_t usableColumns,
                                              std::uint16_t totalColumns) {
  obs::monitor::HealthCounters c;
  c.quarantinedStrips = hi.quarantinedStrips;
  c.quarantineRelocations = hi.quarantineRelocations;
  c.healedStrips = hi.healedStrips;
  c.scrubRepairs = hi.scrubRepairs;
  c.watchdogPreempts = hi.watchdogPreempts;
  c.parkedTasks = hi.parkedTasks;
  c.downloadRetries = hi.downloadRetries;
  c.stateCrcFailures = hi.stateCrcFailures + hi.verifyFailures;
  c.usableColumns = usableColumns;
  c.totalColumns = totalColumns;
  return c;
}

void bindKernelSeries(obs::monitor::TimeSeriesStore& store,
                      const OsKernel& kernel, const std::string& prefix) {
  const OsKernel* k = &kernel;
  store.addSeries(prefix + "usable_columns", [k] {
    const PartitionManager* pm = k->partitionManager();
    return pm != nullptr
               ? static_cast<double>(pm->allocator().largestUsableSpan())
               : 0.0;
  });
  store.addSeries(prefix + "queued", [k] {
    return static_cast<double>(k->fpgaWaitingCount());
  });
  store.addSeries(prefix + "running", [k] {
    return static_cast<double>(k->runningExecCount());
  });
  store.addSeries(prefix + "quarantined_strips", [k] {
    return static_cast<double>(k->healthInputs().quarantinedStrips);
  });
  store.addSeries(prefix + "scrub_repairs", [k] {
    return static_cast<double>(k->healthInputs().scrubRepairs);
  });
  store.addSeries(prefix + "watchdog_preempts", [k] {
    return static_cast<double>(k->healthInputs().watchdogPreempts);
  });
  store.addSeries(prefix + "parked", [k] {
    return static_cast<double>(k->healthInputs().parkedTasks);
  });
}

}  // namespace vfpga
