#include "exp/flow_fidelity.h"

#include <optional>
#include <stdexcept>
#include <utility>

#include "exp/common.h"
#include "num/fluid_fct_oracle.h"
#include "num/utility.h"
#include "sim/random.h"
#include "workload/scenarios.h"

namespace numfabric::exp {
namespace {

flowsim::FlowSimOptions engine_options(double resolve_interval_seconds,
                                       double horizon_seconds,
                                       int solver_threads, bool incremental) {
  flowsim::FlowSimOptions fs;
  fs.resolve_interval_seconds = resolve_interval_seconds;
  fs.horizon_seconds = horizon_seconds;
  fs.solver = oracle_solver_options(solver_threads);
  fs.solver.incremental = incremental;
  return fs;
}

/// Exact-system FCTs for the ideal-rate denominator, or nothing when the
/// engine runs exact: its own FCTs are then the exact system.  A grid run
/// pays one oracle pass over the same flows (cheap at the scales that
/// cross-validate against packets).
std::optional<num::FluidFctResult> exact_fcts(
    double resolve_interval_seconds, const std::vector<num::FluidFlow>& flows,
    const std::vector<double>& capacities, int solver_threads) {
  if (resolve_interval_seconds <= 0) return std::nullopt;
  return num::fluid_fct_oracle(flows, capacities,
                               oracle_solver_options(solver_threads));
}

}  // namespace

DynamicWorkloadResult run_dynamic_workload_flow(
    const DynamicWorkloadOptions& options, double resolve_interval_seconds,
    bool incremental) {
  sim::Simulator sim;
  net::Topology topo(sim);
  BuiltFabric built =
      plan_fabric(options.topology, options.jellyfish, options.k_paths);
  materialize_fabric(built, topo, net::drop_tail_factory());
  const std::vector<double> capacities = graph_capacities(built.graph);

  const num::AlphaFairUtility utility(options.alpha);
  DynamicWorkloadPlan plan = plan_dynamic_workload(options, built, &utility);

  const std::optional<num::FluidFctResult> exact =
      exact_fcts(resolve_interval_seconds, plan.flows, capacities,
                 options.solver_threads);
  const flowsim::FlowSimResult run = flowsim::run_flow_sim(
      std::move(plan.flows), capacities,
      engine_options(resolve_interval_seconds, sim::to_seconds(options.horizon),
                     options.solver_threads, incremental));
  DynamicWorkloadResult result;
  result.solver_health = run.solver_health;
  if (exact) result.solver_health.merge(exact->solver_health);
  const std::vector<double>& ideal =
      exact ? exact->fct_seconds : run.fct_seconds;
  result.bdp_bytes =
      built.host_rate_bps * sim::to_seconds(built.base_rtt) / 8.0;
  result.sim_events = 0;
  // Same base-RTT charge as the packet runner applies to its oracle rates —
  // here both the measured and the ideal side are fluid, so both get it.
  const double latency = sim::to_seconds(built.base_rtt);
  for (std::size_t i = 0; i < plan.arrivals.size(); ++i) {
    if (run.fct_seconds[i] < 0) {
      ++result.incomplete;
      continue;
    }
    DynamicWorkloadResult::PerFlow row;
    row.size_bytes = plan.arrivals[i].size_bytes;
    row.fct_seconds = run.fct_seconds[i] + latency;
    row.rate_bps = static_cast<double>(row.size_bytes) * 8.0 / row.fct_seconds;
    row.ideal_rate_bps =
        static_cast<double>(row.size_bytes) * 8.0 / (ideal[i] + latency);
    result.flows.push_back(row);
  }
  return result;
}

TrafficResult run_traffic_experiment_flow(const TrafficOptions& options,
                                          double resolve_interval_seconds,
                                          int solver_threads,
                                          bool incremental) {
  sim::Simulator sim;
  net::Topology topo(sim);
  BuiltFabric built =
      plan_fabric(options.topology, options.jellyfish, options.k_paths);
  materialize_fabric(built, topo, net::drop_tail_factory());
  const std::vector<double> capacities = graph_capacities(built.graph);
  const TrafficPlan plan = plan_traffic(options, built);
  const std::vector<workload::HostPair>& pairs = plan.pairs;

  const bool rate_mode = options.flow_size_bytes == 0;
  const num::AlphaFairUtility utility(options.alpha);
  std::vector<std::vector<int>> flow_links;
  flow_links.reserve(pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    flow_links.push_back(flow_path(built, pairs[i].src, pairs[i].dst, i));
  }

  TrafficResult result;
  result.flow_count = static_cast<int>(pairs.size());

  if (rate_mode) {
    // Long-running flows never depart: the steady state is one NUM solve.
    num::NumProblem problem;
    problem.capacities = capacities;
    problem.utilities.assign(pairs.size(), &utility);
    problem.flow_links = std::move(flow_links);
    num::CsrProblem csr = num::CsrProblem::compile(std::move(problem));
    num::NumWorkspace workspace;
    result.solver_health.add(
        num::solve(csr, workspace, oracle_solver_options(solver_threads)));
    for (const double rate : workspace.rates()) {
      const double rate_bps = rate * num::kRateUnitBps;
      result.flow_rates_bps.push_back(rate_bps);
      result.total_goodput_bps += rate_bps;
    }
    result.jain_index = jain_index(result.flow_rates_bps);
  } else {
    std::vector<flowsim::FlowSimFlow> engine_flows;
    engine_flows.reserve(pairs.size());
    for (std::vector<int>& links : flow_links) {
      engine_flows.push_back({0.0, static_cast<double>(options.flow_size_bytes),
                              std::move(links), &utility});
    }
    const flowsim::FlowSimResult run = flowsim::run_flow_sim(
        std::move(engine_flows), capacities,
        engine_options(resolve_interval_seconds,
                       sim::to_seconds(options.horizon), solver_threads,
                       incremental));
    result.solver_health = run.solver_health;
    const double latency_us = sim::to_seconds(built.base_rtt) * 1e6;
    for (const double fct : run.fct_seconds) {
      if (fct < 0) {
        ++result.incomplete;
        continue;
      }
      ++result.completed;
      result.fct_us.push_back(fct * 1e6 + latency_us);
    }
  }

  result.optimal_bps = plan.optimal_bps;
  return result;
}

TraceReplayResult run_trace_replay_flow(const TraceReplayOptions& options,
                                        double resolve_interval_seconds,
                                        int solver_threads,
                                        bool incremental) {
  sim::Simulator sim;
  net::Topology topo(sim);
  BuiltFabric built = plan_fabric(options.topology, std::nullopt, 8);
  materialize_fabric(built, topo, net::drop_tail_factory());
  const std::vector<double> capacities = graph_capacities(built.graph);

  const num::AlphaFairUtility utility(options.alpha);
  std::vector<flowsim::FlowSimFlow> engine_flows =
      plan_trace_replay(options, built, &utility);

  flowsim::FlowSimResult run = flowsim::run_flow_sim(
      std::move(engine_flows), capacities,
      engine_options(resolve_interval_seconds, sim::to_seconds(options.horizon),
                     solver_threads, incremental));

  // Fluid FCTs carry the one-RTT latency charge.
  const double latency = sim::to_seconds(built.base_rtt);
  for (double& fct : run.fct_seconds) {
    if (fct >= 0) fct += latency;
  }
  TraceReplayResult result =
      trace_replay_result(options.trace, run.fct_seconds);
  result.solver_health = run.solver_health;
  return result;
}

MegaFctResult run_mega_fct(const MegaFctOptions& options) {
  if (options.resolve_interval_seconds <= 0) {
    throw std::invalid_argument(
        "mega-fct: resolve interval must be > 0 (exact mode is one solve per "
        "departure — unusable at this scale)");
  }
  sim::Rng rng(options.seed);

  // Route + capacity providers.  The leaf-spine fast path stays pure index
  // arithmetic; a jellyfish fabric materializes its k-shortest-path table
  // once and then serves the same interface.
  std::optional<flowsim::VirtualFabric> graph_fabric;
  if (options.jellyfish) {
    graph_fabric = flowsim::VirtualFabric::from_graph(
        net::make_jellyfish(*options.jellyfish), options.k_paths);
  }
  const int hosts =
      graph_fabric ? graph_fabric->hosts() : options.fabric.hosts();
  const std::vector<workload::IndexFlow> batch = workload::batch_index_flows(
      hosts, options.concurrent, *options.sizes, rng);

  const num::AlphaFairUtility utility(options.alpha);
  std::vector<flowsim::FlowSimFlow> engine_flows;
  engine_flows.reserve(batch.size());
  MegaFctResult result;
  result.hosts = hosts;
  result.links =
      graph_fabric ? graph_fabric->links() : options.fabric.links();
  result.size_bytes.reserve(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    flowsim::FlowSimFlow flow;
    flow.arrival_seconds = 0.0;
    flow.size_bytes = static_cast<double>(batch[i].size_bytes);
    flow.links = graph_fabric
                     ? graph_fabric->path(batch[i].src, batch[i].dst,
                                          static_cast<std::uint64_t>(i + 1))
                     : options.fabric.path(batch[i].src, batch[i].dst,
                                           static_cast<std::uint64_t>(i + 1));
    flow.utility = &utility;
    engine_flows.push_back(std::move(flow));
    result.size_bytes.push_back(batch[i].size_bytes);
  }

  // Looser than the exact system's tolerance: see MegaFctOptions.
  flowsim::FlowSimOptions mega_options = engine_options(
      options.resolve_interval_seconds, options.horizon_seconds,
      options.solver_threads, options.incremental);
  mega_options.solver.tolerance = options.solver_tolerance;
  result.sim = flowsim::run_flow_sim(
      std::move(engine_flows),
      graph_fabric ? graph_fabric->capacities() : options.fabric.capacities(),
      mega_options);
  return result;
}

}  // namespace numfabric::exp
