// Bridges the core OS managers to the observability substrate:
//
//  * publishMetrics(...) overloads snapshot each virtualization technique's
//    counters into a MetricsRegistry under stable prometheus-style names
//    (the `vfpga_cli report` exposition is built from these);
//  * dumpFlight() writes an analysis::InvariantViolation into a kernel's
//    own obs::FlightRecorder; OsKernel::run and ClusterScheduler::run call
//    it on the way out, so an invariant violation under
//    VFPGA_CHECK_INVARIANTS leaves a post-mortem bundle of the kernel(s)
//    it happened in.
//
// This lives in core (not obs) because obs depends only on vfpga_sim; the
// analysis- and manager-aware glue has to sit above both.
#pragma once

#include <string>
#include <vector>

#include "analysis/diagnostics.hpp"
#include "core/dynamic_loader.hpp"
#include "core/io_mux.hpp"
#include "core/overlay_manager.hpp"
#include "core/page_manager.hpp"
#include "core/partition_manager.hpp"
#include "core/prefetch_loader.hpp"
#include "core/segment_manager.hpp"
#include "core/strip_allocator.hpp"
#include "fabric/activity_probe.hpp"
#include "fault/health_inputs.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/heatmap.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/monitor/health.hpp"
#include "obs/monitor/timeseries.hpp"
#include "obs/profile/activity.hpp"
#include "obs/profile/ledger.hpp"
#include "sim/compiled/compiled_fabric.hpp"

namespace vfpga {

class OsKernel;

/// Dumps `violation` (its first error rule ID, context string and JSON
/// report) into `recorder`. A failing dump is swallowed so it cannot mask
/// the violation the caller is about to rethrow.
void dumpFlight(obs::FlightRecorder& recorder,
                const analysis::InvariantViolation& violation);

void publishMetrics(const DynamicLoader& loader, obs::MetricsRegistry& reg,
                    obs::Labels labels = {});
void publishMetrics(const PartitionManager& pm, obs::MetricsRegistry& reg,
                    obs::Labels labels = {});
void publishMetrics(const OverlayManager& ov, obs::MetricsRegistry& reg,
                    obs::Labels labels = {});
void publishMetrics(const SegmentManager& sg, obs::MetricsRegistry& reg,
                    obs::Labels labels = {});
void publishMetrics(const PageManager& pg, obs::MetricsRegistry& reg,
                    obs::Labels labels = {});
void publishMetrics(const PrefetchLoader& pf, obs::MetricsRegistry& reg,
                    obs::Labels labels = {});
void publishMetrics(const IoMux& mux, obs::MetricsRegistry& reg,
                    obs::Labels labels = {});

/// Compiled fast-path engine counters
/// (vfpga_sim_compiled_{builds,hits,invalidations,fallbacks}_total).
void publishMetrics(const compiled::CompiledFabric& engine,
                    obs::MetricsRegistry& reg, obs::Labels labels = {});

/// Per-column occupancy snapshot of the strip table, for the heatmap
/// collector (obs/heatmap.hpp): faulty > busy > idle per column.
std::vector<obs::CellState> occupancyCells(const StripAllocator& alloc);

// ---- hierarchical profiler glue (obs/profile) -----------------------------
// The profile components consume plain structs so obs stays fabric- and
// kernel-free; these adapters do the type crossing.

/// Folds the fabric probe's accumulated per-site counters (and its cycle
/// count) into the hot-cone aggregator.
void collectActivity(ActivityProbe& probe,
                     obs::profile::ActivityAggregator& agg);

/// Per-task resource-ledger rows for one kernel, in task order. `device`
/// labels every row ("" for a single-kernel run).
obs::profile::ResourceLedger buildLedger(const OsKernel& kernel,
                                         const std::string& device = "");

/// Task names in track order (taskNames[i] labels span track i + 1), for
/// the waterfall builder and the flamegraph renderers.
std::vector<std::string> taskTrackNames(const OsKernel& kernel);

// ---- continuous monitor glue (obs/monitor) --------------------------------
// The monitor's HealthModel consumes a plain HealthCounters struct (obs
// cannot link fault); these adapters do the type crossing at the layering
// boundary.

/// Converts a live kernel fault snapshot into monitor health counters.
/// verifyFailures folds into stateCrcFailures (both are integrity-check
/// trips, weighed by HealthOptions::wCrc); usable/total describe the
/// device's current column capacity.
obs::monitor::HealthCounters toHealthCounters(const fault::HealthInputs& hi,
                                              std::uint16_t usableColumns,
                                              std::uint16_t totalColumns);

/// Registers the standard per-kernel monitor series on a store, each named
/// `<prefix><what>` (prefix e.g. "dev1."): usable_columns, queued, running,
/// quarantined_strips, scrub_repairs, watchdog_preempts, parked. The kernel
/// must outlive the store.
void bindKernelSeries(obs::monitor::TimeSeriesStore& store,
                      const OsKernel& kernel, const std::string& prefix);

}  // namespace vfpga
