// Example: expressing a BwE-style sharing policy with bandwidth functions.
//
// An operator gives a production flow strict priority for its first 6 Gbps,
// lets a batch flow in afterwards, then caps the batch flow at 4 Gbps.  The
// policy is one piecewise-linear function per flow; NUMFabric realizes it at
// every capacity.
#include <cstdio>

#include "net/routing.h"
#include "net/topology.h"
#include "num/bandwidth_function.h"
#include "num/bwe_waterfill.h"
#include "transport/fabric.h"
#include "transport/receiver.h"

using namespace numfabric;

int main() {
  // Bandwidth functions in Mbps (the num/ module's rate unit):
  //  production: 0->6G over f in [0,1], then slope 2G/unit (keeps growing).
  //  batch:      nothing until f=1, then 0->4G over f in [1,2], capped.
  const num::BandwidthFunction production({{0, 0}, {1, 6000}, {3, 10'000}});
  const num::BandwidthFunction batch =
      num::BandwidthFunction({{0, 0}, {1, 0}, {2, 4000}}).strictified(1.0).capped(
          1.0);
  const num::BandwidthFunctionUtility production_utility(production, 5.0);
  const num::BandwidthFunctionUtility batch_utility(batch, 5.0);

  std::printf("capacity  production(meas/expect)  batch(meas/expect)  [Gbps]\n");
  for (double capacity_gbps : {4.0, 8.0, 12.0}) {
    sim::Simulator sim;
    transport::Fabric fabric(sim, {});  // NUMFabric is the default scheme
    net::Topology topo(sim);
    const net::Dumbbell dumbbell =
        net::build_dumbbell(topo, 2, 100e9, capacity_gbps * 1e9, sim::micros(2),
                            fabric.queue_factory());
    fabric.attach_agents(topo);

    std::vector<transport::Flow*> flows;
    for (int i = 0; i < 2; ++i) {
      transport::FlowSpec spec;
      spec.src = dumbbell.senders[static_cast<std::size_t>(i)];
      spec.dst = dumbbell.receivers[static_cast<std::size_t>(i)];
      spec.size_bytes = 0;
      spec.utility = i == 0 ? static_cast<const num::UtilityFunction*>(
                                  &production_utility)
                            : &batch_utility;
      spec.path = net::all_shortest_paths(topo, spec.src, spec.dst).front();
      flows.push_back(fabric.add_flow(std::move(spec)));
    }

    std::uint64_t start0 = 0, start1 = 0;
    sim.schedule_at(sim::millis(8), [&] {
      start0 = flows[0]->receiver().total_bytes();
      start1 = flows[1]->receiver().total_bytes();
    });
    sim.run_until(sim::millis(16));
    const double window_seconds = sim::to_seconds(sim::millis(8));
    const double rate0 =
        static_cast<double>(flows[0]->receiver().total_bytes() - start0) * 8 /
        window_seconds / 1e9;
    const double rate1 =
        static_cast<double>(flows[1]->receiver().total_bytes() - start1) * 8 /
        window_seconds / 1e9;

    num::BweProblem reference;
    reference.functions = {&production, &batch};
    reference.flow_links = {{0}, {0}};
    reference.capacities = {capacity_gbps * 1000.0};
    const num::BweResult expected = num::bwe_waterfill(reference);

    std::printf("%5.0f G %12.2f / %-8.2f %12.2f / %-8.2f\n", capacity_gbps, rate0,
                expected.rates[0] / 1000, rate1, expected.rates[1] / 1000);
  }
  std::printf("\n(The production flow always gets its guaranteed slice first;\n"
              " the batch flow fills in and never exceeds its 4 Gbps cap.)\n");
  return 0;
}
