// Fig. 5: normalized deviation from ideal (fluid-oracle) rates under
// dynamic Poisson workloads, per BDP-relative flow-size bin.
//
// Paper result: NUMFabric's median deviation is ~0 for all bins above a few
// BDPs; DGD and RCP* are negatively biased (slow convergence leaves
// bandwidth unclaimed), worst for small flows.
//
// Thin wrapper over the scenario registry; equivalent to
//   numfabric_run --scenario=dynamic-deviation workload=websearch
//                 transports=numfabric,dgd,rcp
// followed by the same with workload=enterprise.
#include "app/driver.h"
#include "bench_util.h"

int main() {
  numfabric::bench::announce(
      "Figure 5", "deviation from ideal rates, dynamic workloads");
  for (const char* workload :
       {"workload=websearch", "workload=enterprise"}) {
    const int status = numfabric::app::run_cli(
        {"--scenario=dynamic-deviation", workload,
         "transports=numfabric,dgd,rcp", "seed=11"});
    if (status != 0) return status;
  }
  return 0;
}
