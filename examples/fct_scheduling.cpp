// Example: policy flexibility — the same fabric, two bandwidth allocation
// policies.  A mix of short and long flows runs once under plain
// proportional fairness and once under the FCT-minimizing utility
// (Table 1 row 3); the FCT policy finishes short flows dramatically faster
// by starving the elephants while mice are present.
#include <cstdio>
#include <memory>
#include <vector>

#include "net/routing.h"
#include "net/topology.h"
#include "num/utility.h"
#include "transport/fabric.h"

using namespace numfabric;

namespace {

struct Outcome {
  double short_mean_fct_us = 0;
  double long_mean_fct_ms = 0;
};

Outcome run(bool fct_policy) {
  sim::Simulator sim;
  transport::Fabric fabric(sim, {});  // NUMFabric is the default scheme
  net::Topology topo(sim);
  const net::Dumbbell dumbbell = net::build_dumbbell(
      topo, 8, 40e9, 10e9, sim::micros(2), fabric.queue_factory());
  fabric.attach_agents(topo);

  // 4 elephants (20 MB) start at t=0; 4 mice (50 KB) arrive at t = 2 ms.
  std::vector<std::unique_ptr<num::AlphaFairUtility>> utilities;
  std::vector<transport::Flow*> shorts, longs;
  for (int i = 0; i < 8; ++i) {
    const bool is_short = i >= 4;
    transport::FlowSpec spec;
    spec.src = dumbbell.senders[static_cast<std::size_t>(i)];
    spec.dst = dumbbell.receivers[static_cast<std::size_t>(i)];
    spec.size_bytes = is_short ? 50'000 : 20'000'000;
    spec.start_time = is_short ? sim::millis(2) : 0;
    if (fct_policy) {
      utilities.push_back(
          num::make_fct_utility(static_cast<double>(spec.size_bytes)));
    } else {
      utilities.push_back(std::make_unique<num::AlphaFairUtility>(1.0));
    }
    spec.utility = utilities.back().get();
    spec.path = net::all_shortest_paths(topo, spec.src, spec.dst).front();
    (is_short ? shorts : longs).push_back(fabric.add_flow(std::move(spec)));
  }

  sim.run_until(sim::millis(200));

  Outcome outcome;
  for (const transport::Flow* flow : shorts) {
    outcome.short_mean_fct_us += flow->completed() ? sim::to_micros(flow->fct()) : 1e9;
  }
  outcome.short_mean_fct_us /= static_cast<double>(shorts.size());
  for (const transport::Flow* flow : longs) {
    outcome.long_mean_fct_ms += flow->completed() ? sim::to_millis(flow->fct()) : 1e9;
  }
  outcome.long_mean_fct_ms /= static_cast<double>(longs.size());
  return outcome;
}

}  // namespace

int main() {
  std::printf("Policy flexibility demo: 4x 20 MB elephants + 4x 50 KB mice\n");
  std::printf("sharing one 10 Gbps bottleneck.\n\n");
  const Outcome fair = run(/*fct_policy=*/false);
  const Outcome fct = run(/*fct_policy=*/true);
  std::printf("%-26s %18s %18s\n", "policy", "mice mean FCT", "elephants mean FCT");
  std::printf("%-26s %15.0f us %15.1f ms\n", "proportional fairness",
              fair.short_mean_fct_us, fair.long_mean_fct_ms);
  std::printf("%-26s %15.0f us %15.1f ms\n", "FCT-min (1/size weights)",
              fct.short_mean_fct_us, fct.long_mean_fct_ms);
  std::printf("\nSwapping one utility function changed the policy — no change\n"
              "to switches or transport code (the paper's §2 argument).\n");
  return 0;
}
