#include "exp/trace_replay.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "num/utility.h"
#include "sim/simulator.h"

namespace numfabric::exp {

sim::TimeNs trace_start_time(const workload::TraceFlow& flow) {
  return static_cast<sim::TimeNs>(flow.arrival_seconds * sim::kSecond + 0.5);
}

std::vector<num::FluidFlow> plan_trace_replay(
    const TraceReplayOptions& options, BuiltFabric& built,
    const num::UtilityFunction* utility) {
  const std::vector<net::Host*>& hosts = built.mat.hosts;
  const int host_count = static_cast<int>(hosts.size());
  std::vector<num::FluidFlow> flows;
  flows.reserve(options.trace.size());
  for (std::size_t i = 0; i < options.trace.size(); ++i) {
    const workload::TraceFlow& entry = options.trace[i];
    if (entry.src >= host_count || entry.dst >= host_count) {
      throw std::invalid_argument(
          "trace flow " + std::to_string(i) + ": host " +
          std::to_string(std::max(entry.src, entry.dst)) +
          " is outside the topology (" + std::to_string(host_count) +
          " hosts)");
    }
    const net::Host* src = hosts[static_cast<std::size_t>(entry.src)];
    const net::Host* dst = hosts[static_cast<std::size_t>(entry.dst)];
    flows.push_back({sim::to_seconds(trace_start_time(entry)),
                     static_cast<double>(entry.size_bytes),
                     flow_path(built, src, dst, i), utility});
  }
  return flows;
}

TraceReplayResult trace_replay_result(
    const std::vector<workload::TraceFlow>& trace,
    const std::vector<double>& fct_seconds) {
  TraceReplayResult result;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    TraceReplayResult::PerFlow row;
    row.src = trace[i].src;
    row.dst = trace[i].dst;
    row.size_bytes = trace[i].size_bytes;
    row.arrival_seconds = trace[i].arrival_seconds;
    row.completed = fct_seconds[i] >= 0;
    if (row.completed) {
      row.fct_seconds = fct_seconds[i];
      ++result.completed;
    } else {
      ++result.incomplete;
    }
    result.flows.push_back(row);
  }
  return result;
}

TraceReplayResult run_trace_replay(const TraceReplayOptions& options) {
  sim::Simulator sim;
  transport::FabricOptions fabric_options = options.fabric;
  fabric_options.scheme = options.scheme;
  transport::Fabric fabric(sim, fabric_options);
  net::Topology topo(sim);
  BuiltFabric built = plan_fabric(options.topology, std::nullopt, 8);
  materialize_fabric(built, topo, fabric.queue_factory());
  fabric.attach_agents(topo);

  const num::AlphaFairUtility utility(options.alpha);
  const std::vector<num::FluidFlow> plan =
      plan_trace_replay(options, built, &utility);

  std::vector<const transport::Flow*> flows;
  flows.reserve(plan.size());
  int completed = 0;
  fabric.set_on_complete([&completed](transport::Flow&) { ++completed; });

  for (std::size_t i = 0; i < plan.size(); ++i) {
    const workload::TraceFlow& entry = options.trace[i];
    transport::FlowSpec spec;
    spec.src = built.mat.hosts[static_cast<std::size_t>(entry.src)];
    spec.dst = built.mat.hosts[static_cast<std::size_t>(entry.dst)];
    spec.size_bytes = entry.size_bytes;
    spec.start_time = trace_start_time(entry);
    spec.utility = &utility;
    spec.path = to_packet_path(built, plan[i].links);
    flows.push_back(fabric.add_flow(std::move(spec)));
  }

  while (completed < static_cast<int>(flows.size()) &&
         sim.now() < options.horizon && sim.pending()) {
    sim.run_until(std::min(sim.now() + sim::millis(5), options.horizon));
  }

  std::vector<double> fct_seconds;
  fct_seconds.reserve(flows.size());
  for (const transport::Flow* flow : flows) {
    fct_seconds.push_back(flow->completed() ? sim::to_seconds(flow->fct())
                                            : -1.0);
  }
  TraceReplayResult result = trace_replay_result(options.trace, fct_seconds);
  result.sim_events = sim.events_executed();
  return result;
}

}  // namespace numfabric::exp
