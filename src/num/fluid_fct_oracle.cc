#include "num/fluid_fct_oracle.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <utility>

namespace numfabric::num {

FluidFctResult fluid_fct_oracle(const std::vector<FluidFlow>& flows,
                                const std::vector<double>& capacities,
                                const NumSolverOptions& solver_options) {
  for (const FluidFlow& f : flows) {
    if (f.size_bytes <= 0) throw std::invalid_argument("fluid_fct_oracle: size <= 0");
    if (f.utility == nullptr) throw std::invalid_argument("fluid_fct_oracle: null utility");
    if (f.links.empty()) throw std::invalid_argument("fluid_fct_oracle: empty path");
  }

  // Process arrivals in time order but report results in input order.
  std::vector<std::size_t> order(flows.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return flows[a].arrival_seconds < flows[b].arrival_seconds;
  });

  FluidFctResult result;
  result.fct_seconds.assign(flows.size(), 0.0);
  result.ideal_rate.assign(flows.size(), 0.0);

  // Compile the full flow set once; every arrival / departure is a
  // CsrProblem::set_active row patch against the same compiled incidence, and
  // every re-solve reuses one workspace (warm-started, allocation-free).
  NumProblem problem;
  problem.capacities = capacities;
  problem.utilities.reserve(flows.size());
  problem.flow_links.reserve(flows.size());
  for (const FluidFlow& f : flows) {
    problem.utilities.push_back(f.utility);
    problem.flow_links.push_back(f.links);
  }
  CsrProblem csr = CsrProblem::compile(std::move(problem));
  for (std::size_t i = 0; i < flows.size(); ++i) csr.set_active(i, false);
  NumWorkspace workspace;

  std::vector<std::size_t> active;          // indices into `flows`
  std::vector<double> remaining_bits(flows.size(), 0.0);
  std::size_t next_arrival = 0;
  double now = 0.0;
  NumSolverOptions warm = solver_options;

  while (next_arrival < order.size() || !active.empty()) {
    // Admit all flows arriving now.
    if (active.empty() && next_arrival < order.size()) {
      now = std::max(now, flows[order[next_arrival]].arrival_seconds);
    }
    while (next_arrival < order.size() &&
           flows[order[next_arrival]].arrival_seconds <= now + 1e-15) {
      const std::size_t id = order[next_arrival++];
      active.push_back(id);
      remaining_bits[id] = flows[id].size_bytes * 8.0;
      csr.set_active(id, true);
    }

    // Optimal allocation for the active set.  The first solve honours the
    // caller's initial_prices (cold at 1.0 when empty); after it the
    // workspace's own converged prices warm-start every re-solve — the next
    // event's active set differs by a flow or two while the dual stays close.
    const SolveStats stats = solve(csr, workspace, warm);
    warm.initial_prices.clear();
    ++result.solves;
    result.sweeps += stats.sweeps;
    result.solver_health.add(stats);
    const std::span<const double> rates = workspace.rates();

    // Advance to the next event: first completion or next arrival.
    double dt = std::numeric_limits<double>::infinity();
    if (next_arrival < order.size()) {
      dt = flows[order[next_arrival]].arrival_seconds - now;
    }
    for (const std::size_t id : active) {
      const double rate_bps = rates[id] * kRateUnitBps;
      if (rate_bps <= 0) continue;
      dt = std::min(dt, remaining_bits[id] / rate_bps);
    }
    if (!std::isfinite(dt)) {
      throw std::logic_error("fluid_fct_oracle: stalled (all rates zero)");
    }
    dt = std::max(dt, 0.0);
    now += dt;
    for (const std::size_t id : active) {
      remaining_bits[id] -= rates[id] * kRateUnitBps * dt;
    }

    // Retire completed flows.
    for (std::size_t k = 0; k < active.size();) {
      const std::size_t id = active[k];
      if (remaining_bits[id] <= 1e-6) {
        const double fct = now - flows[id].arrival_seconds;
        result.fct_seconds[id] = fct;
        result.ideal_rate[id] =
            flows[id].size_bytes * 8.0 / std::max(fct, 1e-12) / kRateUnitBps;
        csr.set_active(id, false);
        active[k] = active.back();
        active.pop_back();
      } else {
        ++k;
      }
    }
  }
  return result;
}

}  // namespace numfabric::num
