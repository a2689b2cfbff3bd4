#include "exp/dynamic_workload.h"

#include <memory>
#include <stdexcept>

#include "num/utility.h"

namespace numfabric::exp {

const char* const kBdpBinLabels[5] = {"(0-5)", "(5-10)", "(10-100)", "(100-1K)",
                                      "(1K-10K)"};

int bdp_bin(double size_bytes, double bdp_bytes) {
  const double bdps = size_bytes / bdp_bytes;
  if (bdps <= 5) return 0;
  if (bdps <= 10) return 1;
  if (bdps <= 100) return 2;
  if (bdps <= 1000) return 3;
  if (bdps <= 10000) return 4;
  return -1;
}

DynamicWorkloadPlan plan_dynamic_workload(const DynamicWorkloadOptions& options,
                                          BuiltFabric& built,
                                          const num::UtilityFunction* utility) {
  sim::Rng rng(options.seed);
  DynamicWorkloadPlan plan;
  plan.arrivals =
      workload::poisson_flows(built.mat.hosts, built.host_rate_bps,
                              options.load, *options.sizes, options.flow_count,
                              rng);
  plan.flows.reserve(plan.arrivals.size());
  for (std::size_t i = 0; i < plan.arrivals.size(); ++i) {
    const workload::ArrivedFlow& arrival = plan.arrivals[i];
    plan.flows.push_back(
        {sim::to_seconds(arrival.arrival),
         static_cast<double>(arrival.size_bytes),
         flow_path(built, arrival.pair.src, arrival.pair.dst, i), utility});
  }
  return plan;
}

DynamicWorkloadResult run_dynamic_workload(const DynamicWorkloadOptions& options) {
  sim::Simulator sim;
  transport::FabricOptions fabric_options = options.fabric;
  fabric_options.scheme = options.scheme;
  transport::Fabric fabric(sim, fabric_options);
  net::Topology topo(sim);
  BuiltFabric built =
      plan_fabric(options.topology, options.jellyfish, options.k_paths);
  materialize_fabric(built, topo, fabric.queue_factory());
  fabric.attach_agents(topo);
  const LinkIndexer indexer(topo);

  const num::AlphaFairUtility utility(options.alpha);
  const DynamicWorkloadPlan plan =
      plan_dynamic_workload(options, built, &utility);

  // Launch the packet-level flows; plan.flows is the fluid oracle's input.
  std::vector<const transport::Flow*> flows;
  flows.reserve(plan.arrivals.size());
  int completed = 0;
  fabric.set_on_complete([&completed](transport::Flow&) { ++completed; });

  for (std::size_t i = 0; i < plan.arrivals.size(); ++i) {
    const workload::ArrivedFlow& arrival = plan.arrivals[i];
    transport::FlowSpec spec;
    spec.src = arrival.pair.src;
    spec.dst = arrival.pair.dst;
    spec.size_bytes = arrival.size_bytes;
    spec.start_time = arrival.arrival;
    spec.utility = &utility;
    spec.path = to_packet_path(built, plan.flows[i].links);
    flows.push_back(fabric.add_flow(std::move(spec)));
  }

  // Run until everything finishes (or the horizon hits).
  while (completed < static_cast<int>(flows.size()) &&
         sim.now() < options.horizon && sim.pending()) {
    sim.run_until(std::min(sim.now() + sim::millis(5), options.horizon));
  }

  // Fluid oracle: ideal FCT per flow (graph link ids == LinkIndexer indices).
  const num::FluidFctResult oracle =
      num::fluid_fct_oracle(plan.flows, indexer.capacities(),
                            oracle_solver_options(options.solver_threads));

  DynamicWorkloadResult result;
  result.bdp_bytes =
      built.host_rate_bps * sim::to_seconds(built.base_rtt) / 8.0;
  result.sim_events = sim.events_executed();
  result.solver_health = oracle.solver_health;
  // The fluid oracle has no propagation delay; every real flow pays at
  // least one fabric traversal.  Charging the oracle the base RTT keeps the
  // "ideal rate" meaningful for flows of a few packets (otherwise the
  // smallest bin shows every scheme at deviation ~ -1 regardless of merit).
  const double oracle_latency = sim::to_seconds(built.base_rtt);
  for (std::size_t i = 0; i < flows.size(); ++i) {
    if (!flows[i]->completed()) {
      ++result.incomplete;
      continue;
    }
    DynamicWorkloadResult::PerFlow row;
    row.size_bytes = flows[i]->spec().size_bytes;
    row.fct_seconds = sim::to_seconds(flows[i]->fct());
    row.rate_bps = static_cast<double>(row.size_bytes) * 8.0 / row.fct_seconds;
    row.ideal_rate_bps = static_cast<double>(row.size_bytes) * 8.0 /
                         (oracle.fct_seconds[i] + oracle_latency);
    result.flows.push_back(row);
  }
  return result;
}

}  // namespace numfabric::exp
