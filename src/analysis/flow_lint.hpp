// Flow-stage lint: checks over the mapped netlist (MP*), the placement
// (PL*), the routed nets (RT* — including the cross-partition isolation
// rule RT002 against the owning strip's column range), the configuration
// image and frame list (BS*), and the port bindings (PT*).
//
// lintCompiled() runs all of them over a CompiledCircuit; the stage passes
// are also exposed individually so tests can target one stage with an
// injected defect.
#pragma once

#include "analysis/diagnostics.hpp"
#include "compile/compiler.hpp"
#include "fabric/config_map.hpp"
#include "fabric/routing_graph.hpp"
#include "place/placer.hpp"
#include "route/router.hpp"
#include "techmap/mapped_netlist.hpp"

namespace vfpga::analysis {

/// MP001-MP004: LUT capacity, net ranges, mapped combinational cycles
/// (with the cycle path as notes), port-net validity.
void lintMapped(const MappedNetlist& m, Report& rep);

/// PL001-PL003: one site per cell, no two cells on one CLB, every site
/// inside the placement's region.
void lintPlacement(const MappedNetlist& m, const Placement& p, Report& rep);

/// RT001-RT003: node conflicts (capacity 1), the routing-isolation check
/// (every occupied node's ownerColumn must lie inside [region.x0,
/// region.x1()] — a violation means the circuit leaks wiring into a
/// neighbour partition's strip), and route-tree consistency (every enabled
/// switch edge must connect two of the net's own nodes).
void lintRoutes(const RouteResult& routes, const RoutingGraph& rrg,
                const Region& region, Report& rep);

/// BS001-BS003 and PT001-PT002: the partial bitstream's frames inside the
/// device and inside the circuit's own column range, each sized as the
/// configuration map's frames; pad slots in range and (for relocatable
/// circuits) on pads of the circuit's own columns.
void lintBitstream(const CompiledCircuit& c, const FabricGeometry& g,
                   const ConfigMap& cmap, Report& rep);

/// All of the above over one compiled circuit.
void lintCompiled(const CompiledCircuit& c, const RoutingGraph& rrg,
                  const ConfigMap& cmap, Report& rep);

}  // namespace vfpga::analysis
