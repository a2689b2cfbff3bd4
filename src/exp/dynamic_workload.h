// Dynamic (Poisson) workload experiment — Fig. 5.
//
// Flows arrive as a Poisson process with sizes from a measured-workload CDF
// and are scored against the fluid Oracle that assigns every flow its
// optimal NUM rate instantaneously: normalized deviation
// (rate_X - idealRate) / idealRate per BDP-relative size bin.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "exp/common.h"
#include "net/topology.h"
#include "num/fluid_fct_oracle.h"
#include "num/num_solver.h"
#include "transport/fabric.h"
#include "workload/scenarios.h"
#include "workload/size_distribution.h"

namespace numfabric::exp {

struct DynamicWorkloadOptions {
  transport::Scheme scheme = transport::Scheme::kNumFabric;
  net::LeafSpineOptions topology;
  /// When set the workload runs on a jellyfish fabric (k-shortest routes)
  /// instead of the leaf-spine in `topology`.
  std::optional<net::JellyfishOptions> jellyfish;
  int k_paths = 8;
  transport::FabricOptions fabric;

  const workload::SizeDistribution* sizes = &workload::websearch_distribution();
  /// Offered load as a fraction of aggregate host NIC capacity.  The paper
  /// does not state Fig. 5's load; we use 0.6 (see EXPERIMENTS.md).
  double load = 0.6;
  int flow_count = 2000;
  double alpha = 1.0;  // proportional fairness
  /// Threads for the fluid oracle's NUM re-solves (bit-identical for any
  /// value; >1 uses the wave-parallel execution policy).
  int solver_threads = 1;
  std::uint64_t seed = 1;
  /// Hard stop; flows not finished by then are reported as incomplete.
  sim::TimeNs horizon = sim::seconds(20);
};

struct DynamicWorkloadResult {
  struct PerFlow {
    std::uint64_t size_bytes = 0;
    double fct_seconds = 0;
    double rate_bps = 0;        // size / measured FCT
    double ideal_rate_bps = 0;  // size / oracle FCT
  };
  std::vector<PerFlow> flows;  // completed flows only
  int incomplete = 0;
  double bdp_bytes = 0;  // for size binning
  std::uint64_t sim_events = 0;
  /// NUM solves that did not converge: the fluid oracle's, plus the flow
  /// engine's at flow fidelity (zero for a healthy run).
  num::SolverHealth solver_health;
};

DynamicWorkloadResult run_dynamic_workload(const DynamicWorkloadOptions& options);

/// The workload both fidelities run: options' seeded Poisson draw on the
/// planned, materialized fabric.  Flow i is the same flow on the same links
/// (exp::flow_path) at either fidelity.
struct DynamicWorkloadPlan {
  std::vector<workload::ArrivedFlow> arrivals;  // draw order
  /// arrivals[i] as the fluid system sees it, sharing `utility`.
  std::vector<num::FluidFlow> flows;
};
DynamicWorkloadPlan plan_dynamic_workload(const DynamicWorkloadOptions& options,
                                          BuiltFabric& built,
                                          const num::UtilityFunction* utility);

/// Fig. 5's bins, in BDP multiples: (0-5], (5-10], (10-100], (100-1K],
/// (1K-10K].  Returns the bin index for a flow size, or -1 if beyond.
int bdp_bin(double size_bytes, double bdp_bytes);
extern const char* const kBdpBinLabels[5];

}  // namespace numfabric::exp
