#include "exp/traffic_experiment.h"

#include <algorithm>
#include <stdexcept>

#include "num/utility.h"
#include "sim/random.h"
#include "transport/receiver.h"

namespace numfabric::exp {

const char* traffic_pattern_name(TrafficPattern pattern) {
  switch (pattern) {
    case TrafficPattern::kIncast: return "incast";
    case TrafficPattern::kPermutation: return "permutation";
    case TrafficPattern::kAllToAll: return "all-to-all";
  }
  return "?";
}

TrafficPattern parse_traffic_pattern(const std::string& name) {
  if (name == "incast") return TrafficPattern::kIncast;
  if (name == "permutation") return TrafficPattern::kPermutation;
  if (name == "all-to-all" || name == "shuffle") return TrafficPattern::kAllToAll;
  throw std::invalid_argument("unknown traffic pattern '" + name +
                              "' (expected incast, permutation or all-to-all)");
}

TrafficPlan plan_traffic(const TrafficOptions& options,
                         const BuiltFabric& built) {
  const std::vector<net::Host*>& hosts = built.mat.hosts;
  sim::Rng rng(options.seed);
  TrafficPlan plan;
  const double nic = built.host_rate_bps;
  switch (options.pattern) {
    case TrafficPattern::kIncast:
      plan.pairs = workload::incast_pairs(hosts, options.incast_fanin, rng);
      plan.optimal_bps = nic;
      break;
    case TrafficPattern::kPermutation:
      plan.pairs = workload::permutation_pairs(hosts, rng);
      plan.optimal_bps = nic * static_cast<double>(plan.pairs.size());
      break;
    case TrafficPattern::kAllToAll:
      plan.pairs = workload::all_to_all_pairs(hosts);
      plan.optimal_bps = nic * static_cast<double>(hosts.size());
      break;
  }
  return plan;
}

TrafficResult run_traffic_experiment(const TrafficOptions& options) {
  BuiltFabric built = plan_fabric(options.topology, options.jellyfish,
                                  options.k_paths);
  sim::Simulator sim;
  transport::FabricOptions fabric_options = options.fabric;
  fabric_options.scheme = options.scheme;
  transport::Fabric fabric(sim, fabric_options);
  net::Topology topo(sim);
  // queue_factory(0) falls back to the scheme's edge capacity, so an unset
  // core buffer just mirrors the edge tier.
  materialize_fabric(built, topo, fabric.queue_factory(),
                     fabric.queue_factory(options.core_buffer_bytes));
  fabric.attach_agents(topo);

  const TrafficPlan plan = plan_traffic(options, built);
  const std::vector<workload::HostPair>& pairs = plan.pairs;

  const bool rate_mode = options.flow_size_bytes == 0;
  const num::AlphaFairUtility utility(options.alpha);
  int completed = 0;
  fabric.set_on_complete([&completed](transport::Flow&) { ++completed; });

  std::vector<const transport::Flow*> flows;
  flows.reserve(pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    transport::FlowSpec spec;
    spec.src = pairs[i].src;
    spec.dst = pairs[i].dst;
    spec.size_bytes = options.flow_size_bytes;
    spec.start_time = 0;
    spec.utility = &utility;
    spec.path =
        to_packet_path(built, flow_path(built, pairs[i].src, pairs[i].dst, i));
    flows.push_back(fabric.add_flow(std::move(spec)));
  }

  TrafficResult result;
  result.flow_count = static_cast<int>(flows.size());

  if (rate_mode) {
    std::vector<std::uint64_t> start_bytes(flows.size(), 0);
    sim.schedule_at(options.warmup, [&] {
      for (std::size_t i = 0; i < flows.size(); ++i) {
        start_bytes[i] = flows[i]->receiver().total_bytes();
      }
    });
    sim.run_until(options.warmup + options.measure);

    for (std::size_t i = 0; i < flows.size(); ++i) {
      const double rate = window_rate_bps(
          start_bytes[i], flows[i]->receiver().total_bytes(), options.measure);
      result.flow_rates_bps.push_back(rate);
      result.total_goodput_bps += rate;
    }
    result.jain_index = jain_index(result.flow_rates_bps);
  } else {
    while (completed < static_cast<int>(flows.size()) &&
           sim.now() < options.horizon && sim.pending()) {
      sim.run_until(std::min(sim.now() + sim::millis(5), options.horizon));
    }
    for (const transport::Flow* flow : flows) {
      if (!flow->completed()) {
        ++result.incomplete;
        continue;
      }
      ++result.completed;
      result.fct_us.push_back(sim::to_micros(flow->fct()));
    }
  }

  result.optimal_bps = plan.optimal_bps;
  result.sim_events = sim.events_executed();
  for (const auto& link : topo.links()) {
    result.queue_drops += link->queue().drops();
  }
  return result;
}

}  // namespace numfabric::exp
