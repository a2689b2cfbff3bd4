#include "exp/flow_fidelity.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "exp/common.h"
#include "net/routing.h"
#include "num/fluid_fct_oracle.h"
#include "num/utility.h"
#include "sim/random.h"
#include "workload/scenarios.h"

namespace numfabric::exp {
namespace {

flowsim::FlowSimOptions engine_options(double resolve_interval_seconds,
                                       double horizon_seconds,
                                       int solver_threads, bool incremental,
                                       double tolerance = 1e-8) {
  flowsim::FlowSimOptions fs;
  fs.resolve_interval_seconds = resolve_interval_seconds;
  fs.horizon_seconds = horizon_seconds;
  // Default matches the packet experiments' fluid oracle; mega-fct loosens it.
  fs.solver.tolerance = tolerance;
  fs.solver.policy = num::ExecutionPolicy::parallel(solver_threads);
  fs.solver.incremental = incremental;
  return fs;
}

/// Exact-system FCTs for the ideal-rate denominator.  When the engine ran
/// exact its own FCTs *are* the exact system; a grid run pays one extra
/// oracle pass (cheap at the scales that cross-validate against packets),
/// whose solves are folded into `health`.
std::vector<double> exact_fcts(const flowsim::FlowSimResult& run,
                               double resolve_interval_seconds,
                               const std::vector<num::FluidFlow>& fluid_flows,
                               const std::vector<double>& capacities,
                               int solver_threads, num::SolverHealth& health) {
  if (resolve_interval_seconds <= 0) return run.fct_seconds;
  num::NumSolverOptions solver_options;
  solver_options.tolerance = 1e-8;
  solver_options.policy = num::ExecutionPolicy::parallel(solver_threads);
  num::FluidFctResult oracle =
      num::fluid_fct_oracle(fluid_flows, capacities, solver_options);
  health.merge(oracle.solver_health);
  return std::move(oracle.fct_seconds);
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

  // Identical draw sequence to run_dynamic_workload: same seed, same
  // poisson_flows call, same per-flow ECMP pick — flow i is the same flow on
  // the same path at either fidelity.
  sim::Rng rng(options.seed);
  const auto arrivals =
      workload::poisson_flows(built.mat.hosts, built.host_rate_bps,
                              options.load, *options.sizes, options.flow_count,
                              rng);

  const num::AlphaFairUtility utility(options.alpha);
  std::vector<flowsim::FlowSimFlow> engine_flows;
  engine_flows.reserve(arrivals.size());
  std::vector<num::FluidFlow> fluid_flows;
  fluid_flows.reserve(arrivals.size());
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const auto& arrival = arrivals[i];
    const auto& paths =
        pair_paths(built, built.host_node.at(arrival.pair.src),
                   built.host_node.at(arrival.pair.dst));

    flowsim::FlowSimFlow flow;
    flow.arrival_seconds = sim::to_seconds(arrival.arrival);
    flow.size_bytes = static_cast<double>(arrival.size_bytes);
    flow.links = paths[net::ecmp_index(paths.size(),
                                       static_cast<net::FlowId>(i + 1))];
    flow.utility = &utility;

    num::FluidFlow fluid;
    fluid.arrival_seconds = flow.arrival_seconds;
    fluid.size_bytes = flow.size_bytes;
    fluid.links = flow.links;
    fluid.utility = &utility;
    fluid_flows.push_back(std::move(fluid));
    engine_flows.push_back(std::move(flow));
  }

  const flowsim::FlowSimResult run = flowsim::run_flow_sim(
      std::move(engine_flows), capacities,
      engine_options(resolve_interval_seconds, sim::to_seconds(options.horizon),
                     options.solver_threads, incremental));
  DynamicWorkloadResult result;
  result.solver_health = run.solver_health;
  const std::vector<double> ideal =
      exact_fcts(run, resolve_interval_seconds, fluid_flows, capacities,
                 options.solver_threads, result.solver_health);
  result.bdp_bytes =
      built.host_rate_bps * sim::to_seconds(built.base_rtt) / 8.0;
  result.sim_events = 0;
  // Same base-RTT charge as the packet runner applies to its oracle rates —
  // here both the measured and the ideal side are fluid, so both get it.
  const double latency = sim::to_seconds(built.base_rtt);
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    if (run.fct_seconds[i] < 0) {
      ++result.incomplete;
      continue;
    }
    DynamicWorkloadResult::PerFlow row;
    row.size_bytes = arrivals[i].size_bytes;
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
  const std::vector<net::Host*>& hosts = built.mat.hosts;

  sim::Rng rng(options.seed);
  std::vector<workload::HostPair> pairs;
  switch (options.pattern) {
    case TrafficPattern::kIncast:
      pairs = workload::incast_pairs(hosts, options.incast_fanin, rng);
      break;
    case TrafficPattern::kPermutation:
      pairs = workload::permutation_pairs(hosts, rng);
      break;
    case TrafficPattern::kAllToAll:
      pairs = workload::all_to_all_pairs(hosts);
      break;
  }

  const bool rate_mode = options.flow_size_bytes == 0;
  const num::AlphaFairUtility utility(options.alpha);
  std::vector<std::vector<int>> flow_links;
  flow_links.reserve(pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const auto& paths = pair_paths(built, built.host_node.at(pairs[i].src),
                                   built.host_node.at(pairs[i].dst));
    flow_links.push_back(
        paths[net::ecmp_index(paths.size(), static_cast<net::FlowId>(i + 1))]);
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
    num::NumSolverOptions solver_options;
    solver_options.tolerance = 1e-8;
    solver_options.policy = num::ExecutionPolicy::parallel(solver_threads);
    result.solver_health.add(num::solve(csr, workspace, solver_options));
    for (const double rate : workspace.rates()) {
      const double rate_bps = rate * num::kRateUnitBps;
      result.flow_rates_bps.push_back(rate_bps);
      result.total_goodput_bps += rate_bps;
    }
    result.jain_index = jain_index(result.flow_rates_bps);
  } else {
    std::vector<flowsim::FlowSimFlow> engine_flows;
    engine_flows.reserve(pairs.size());
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      flowsim::FlowSimFlow flow;
      flow.arrival_seconds = 0.0;
      flow.size_bytes = static_cast<double>(options.flow_size_bytes);
      flow.links = std::move(flow_links[i]);
      flow.utility = &utility;
      engine_flows.push_back(std::move(flow));
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

  const double nic = built.host_rate_bps;
  switch (options.pattern) {
    case TrafficPattern::kIncast:
      result.optimal_bps = nic;
      break;
    case TrafficPattern::kPermutation:
      result.optimal_bps = nic * static_cast<double>(pairs.size());
      break;
    case TrafficPattern::kAllToAll:
      result.optimal_bps = nic * static_cast<double>(hosts.size());
      break;
  }
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

  const int host_count = static_cast<int>(built.mat.hosts.size());
  for (std::size_t i = 0; i < options.trace.size(); ++i) {
    const workload::TraceFlow& flow = options.trace[i];
    if (flow.src >= host_count || flow.dst >= host_count) {
      throw std::invalid_argument(
          "trace flow " + std::to_string(i) + ": host " +
          std::to_string(std::max(flow.src, flow.dst)) +
          " is outside the topology (" + std::to_string(host_count) +
          " hosts)");
    }
  }

  const num::AlphaFairUtility utility(options.alpha);
  std::vector<flowsim::FlowSimFlow> engine_flows;
  engine_flows.reserve(options.trace.size());
  for (std::size_t i = 0; i < options.trace.size(); ++i) {
    const workload::TraceFlow& entry = options.trace[i];
    net::Host* src = built.mat.hosts[static_cast<std::size_t>(entry.src)];
    net::Host* dst = built.mat.hosts[static_cast<std::size_t>(entry.dst)];
    const auto& paths =
        pair_paths(built, built.host_node.at(src), built.host_node.at(dst));

    flowsim::FlowSimFlow flow;
    // Round through TimeNs exactly like the packet runner's start_time so
    // both fidelities place the flow at the same instant.
    flow.arrival_seconds = sim::to_seconds(static_cast<sim::TimeNs>(
        entry.arrival_seconds * sim::kSecond + 0.5));
    flow.size_bytes = static_cast<double>(entry.size_bytes);
    flow.links =
        paths[net::ecmp_index(paths.size(), static_cast<net::FlowId>(i + 1))];
    flow.utility = &utility;
    engine_flows.push_back(std::move(flow));
  }

  const flowsim::FlowSimResult run = flowsim::run_flow_sim(
      std::move(engine_flows), capacities,
      engine_options(resolve_interval_seconds, sim::to_seconds(options.horizon),
                     solver_threads, incremental));

  TraceReplayResult result;
  result.sim_events = 0;
  result.solver_health = run.solver_health;
  const double latency = sim::to_seconds(built.base_rtt);
  for (std::size_t i = 0; i < options.trace.size(); ++i) {
    TraceReplayResult::PerFlow row;
    row.src = options.trace[i].src;
    row.dst = options.trace[i].dst;
    row.size_bytes = options.trace[i].size_bytes;
    row.arrival_seconds = options.trace[i].arrival_seconds;
    row.completed = run.fct_seconds[i] >= 0;
    if (row.completed) {
      row.fct_seconds = run.fct_seconds[i] + latency;
      ++result.completed;
    } else {
      ++result.incomplete;
    }
    result.flows.push_back(row);
  }
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

  result.sim = flowsim::run_flow_sim(
      std::move(engine_flows),
      graph_fabric ? graph_fabric->capacities() : options.fabric.capacities(),
      engine_options(options.resolve_interval_seconds, options.horizon_seconds,
                     options.solver_threads, options.incremental,
                     options.solver_tolerance));
  return result;
}

}  // namespace numfabric::exp
