// Event-driven fluid simulation: the paper's "ideal Oracle" for dynamic
// workloads (§6.1).
//
// Flows arrive with a size; at every arrival or completion the oracle
// recomputes the optimal NUM allocation for the currently active set
// (instantaneous convergence) and advances remaining sizes fluidly until the
// next event.  The resulting completion times define idealRate = size / FCT,
// the denominator of Fig. 5's normalized rate deviation, and the ideal FCTs
// for Fig. 7.
//
// The oracle *is* flowsim::FlowSimEngine's exact mode run to completion:
// fluid_fct_oracle is defined beside the engine (flowsim/flow_sim_engine.cc),
// and FluidFlow is the engine's flow type (flowsim::FlowSimFlow).
#pragma once

#include <cstdint>
#include <vector>

#include "num/num_solver.h"
#include "num/utility.h"

namespace numfabric::num {

struct FluidFlow {
  double arrival_seconds = 0.0;
  double size_bytes = 0.0;
  std::vector<int> links;                       // path (link indices)
  const UtilityFunction* utility = nullptr;     // non-owning
};

struct FluidFctResult {
  /// Completion time (seconds since arrival) per flow, same order as input.
  std::vector<double> fct_seconds;
  /// size / fct, in rate units (Mbps).
  std::vector<double> ideal_rate;
  /// Number of allocation recomputations performed (perf reporting).
  int solves = 0;
  /// Total Gauss-Seidel sweeps across all solves.  Successive events share
  /// their link prices (the active set changes by a flow or two while the
  /// dual barely moves), so every re-solve warm-starts from the previous
  /// solution; this counter is what that saves.
  std::int64_t sweeps = 0;
  /// Solves that stopped at max_sweeps without converging; all zero for a
  /// healthy run.
  SolverHealth solver_health;
};

/// Simulates the fluid system.  `capacities` are in rate units (Mbps).
/// Throws std::invalid_argument on a flow with size <= 0, an empty path or a
/// null utility.  Complexity: O(events * solver): one warm re-solve per
/// arrival and departure.  Leaves the flowsim_* substrate counters alone: a
/// packet run that consults the oracle still reports no flow-engine work.
FluidFctResult fluid_fct_oracle(const std::vector<FluidFlow>& flows,
                                const std::vector<double>& capacities,
                                const NumSolverOptions& solver_options = {});

}  // namespace numfabric::num
