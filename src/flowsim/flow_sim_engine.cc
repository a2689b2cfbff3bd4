#include "flowsim/flow_sim_engine.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "sim/substrate_stats.h"

namespace numfabric::flowsim {
namespace {

constexpr double kDoneBits = 1e-6;  // remaining <= this counts as finished

// Compile the full flow set once; arrivals and departures are set_active
// row patches, re-solves share one warm workspace.  Keeps only each flow's
// arrival time and size: the paths move into the problem, and the flow
// vector is released before the CSR arrays are built, so a 10^5-flow input
// is never held alongside its compiled form.
num::CsrProblem compile_flows(std::vector<FlowSimFlow>& flows,
                              std::vector<double> capacities,
                              std::vector<double>& arrival_seconds,
                              std::vector<double>& size_bytes) {
  for (const FlowSimFlow& f : flows) {
    if (f.size_bytes <= 0) {
      throw std::invalid_argument("FlowSimEngine: size <= 0");
    }
    if (f.utility == nullptr) {
      throw std::invalid_argument("FlowSimEngine: null utility");
    }
    if (f.links.empty()) {
      throw std::invalid_argument("FlowSimEngine: empty path");
    }
  }
  num::NumProblem problem;
  problem.capacities = std::move(capacities);
  problem.utilities.reserve(flows.size());
  problem.flow_links.reserve(flows.size());
  arrival_seconds.reserve(flows.size());
  size_bytes.reserve(flows.size());
  for (FlowSimFlow& f : flows) {
    arrival_seconds.push_back(f.arrival_seconds);
    size_bytes.push_back(f.size_bytes);
    problem.utilities.push_back(f.utility);
    problem.flow_links.push_back(std::move(f.links));
  }
  std::vector<FlowSimFlow>().swap(flows);
  return num::CsrProblem::compile(std::move(problem));
}

}  // namespace

FlowSimEngine::FlowSimEngine(std::vector<FlowSimFlow> flows,
                             std::vector<double> capacities,
                             FlowSimOptions options)
    : options_(std::move(options)),
      csr_(compile_flows(flows, std::move(capacities), arrival_seconds_,
                         size_bytes_)) {
  if (options_.resolve_interval_seconds < 0) {
    throw std::invalid_argument("FlowSimEngine: resolve interval < 0");
  }

  order_.resize(arrival_seconds_.size());
  std::iota(order_.begin(), order_.end(), std::size_t{0});
  // Stable: simultaneous arrivals admit in increasing flow id, so their
  // set_active calls append to the compacted active rows instead of
  // shifting them.  (Admission order within an epoch cannot affect results:
  // the row patch commutes and every per-flow pass writes disjoint slots.)
  std::stable_sort(
      order_.begin(), order_.end(), [this](std::size_t a, std::size_t b) {
        return arrival_seconds_[a] < arrival_seconds_[b];
      });
  remaining_bits_.assign(arrival_seconds_.size(), 0.0);
  reset();
}

void FlowSimEngine::reset() {
  csr_.deactivate_all();
  workspace_.reset();
  solver_options_ = options_.solver;
  std::fill(remaining_bits_.begin(), remaining_bits_.end(), 0.0);
  next_arrival_ = 0;
  now_ = 0.0;
  finished_ = arrival_seconds_.empty();
  result_ = FlowSimResult{};
  result_.fct_seconds.assign(arrival_seconds_.size(), -1.0);
  result_.ideal_rate.assign(arrival_seconds_.size(), 0.0);
  if (finished_) result_.end_seconds = 0.0;
}

void FlowSimEngine::admit_due_arrivals() {
  if (csr_.active_count() == 0 && next_arrival_ < order_.size()) {
    now_ = std::max(now_, arrival_seconds_[order_[next_arrival_]]);
  }
  while (next_arrival_ < order_.size() &&
         arrival_seconds_[order_[next_arrival_]] <= now_ + 1e-15) {
    const std::size_t id = order_[next_arrival_++];
    remaining_bits_[id] = size_bytes_[id] * 8.0;
    csr_.set_active(id, true);
  }
  result_.peak_active = std::max(result_.peak_active, csr_.active_count());
}

void FlowSimEngine::resolve() {
  // The first solve honours the caller's initial_prices (cold at 1.0 when
  // empty); afterwards the workspace's converged prices warm-start every
  // re-solve — the active set moves while the dual barely does.
  const num::SolveStats stats = num::solve(csr_, workspace_, solver_options_);
  solver_options_.initial_prices.clear();
  ++result_.resolves;
  result_.solver_sweeps += stats.sweeps;
  result_.solver_relaxations += stats.relaxations;
  result_.solver_health.add(stats);
}

void FlowSimEngine::retire(std::size_t id, double at_seconds) {
  const double fct = at_seconds - arrival_seconds_[id];
  result_.fct_seconds[id] = fct;
  result_.ideal_rate[id] = size_bytes_[id] * 8.0 /
                           std::max(fct, 1e-12) / num::kRateUnitBps;
  ++result_.completed;
  csr_.set_active(id, false);
}

void FlowSimEngine::finish() {
  finished_ = true;
  result_.incomplete += static_cast<int>(csr_.active_count());
  result_.incomplete += static_cast<int>(order_.size() - next_arrival_);
  csr_.deactivate_all();
  result_.end_seconds = now_;
}

// Exact mode: the event-driven fluid system, re-solved at every arrival and
// departure.
bool FlowSimEngine::step_exact() {
  admit_due_arrivals();
  resolve();
  const std::span<const double> rates = workspace_.rates();

  // Advance to the next event: first completion, next arrival or horizon.
  double dt = std::numeric_limits<double>::infinity();
  if (next_arrival_ < order_.size()) {
    dt = arrival_seconds_[order_[next_arrival_]] - now_;
  }
  for (const std::int32_t f : csr_.active_flows()) {
    const auto id = static_cast<std::size_t>(f);
    const double rate_bps = rates[id] * num::kRateUnitBps;
    if (rate_bps <= 0) continue;
    dt = std::min(dt, remaining_bits_[id] / rate_bps);
  }
  if (!std::isfinite(dt) && !std::isfinite(options_.horizon_seconds)) {
    throw std::logic_error("FlowSimEngine: stalled (all rates zero)");
  }
  dt = std::min(dt, options_.horizon_seconds - now_);
  dt = std::max(dt, 0.0);
  now_ += dt;
  for (const std::int32_t f : csr_.active_flows()) {
    const auto id = static_cast<std::size_t>(f);
    remaining_bits_[id] -= rates[id] * num::kRateUnitBps * dt;
  }

  for (std::size_t k = 0; k < csr_.active_count();) {
    const auto id = static_cast<std::size_t>(csr_.active_flows()[k]);
    if (remaining_bits_[id] <= kDoneBits) {
      retire(id, now_);  // moves the last active flow into slot k
    } else {
      ++k;
    }
  }

  if (now_ >= options_.horizon_seconds ||
      (csr_.active_count() == 0 && next_arrival_ >= order_.size())) {
    finish();
  }
  return !finished_;
}

// Grid mode: rates are frozen for one resolve interval.  Departures inside
// the window follow analytically from remaining / rate (each counts as an
// epoch but costs no solve); arrivals wait for the next grid point.
bool FlowSimEngine::step_grid() {
  admit_due_arrivals();
  resolve();
  const std::span<const double> rates = workspace_.rates();

  const double window_end = std::min(now_ + options_.resolve_interval_seconds,
                                     options_.horizon_seconds);
  double max_rate = 0.0;
  for (std::size_t k = 0; k < csr_.active_count();) {
    const auto id = static_cast<std::size_t>(csr_.active_flows()[k]);
    const double rate_bps = rates[id] * num::kRateUnitBps;
    max_rate = std::max(max_rate, rate_bps);
    const double drain = rate_bps * (window_end - now_);
    if (remaining_bits_[id] <= drain + kDoneBits) {
      const double done_at =
          rate_bps > 0
              ? std::min(now_ + remaining_bits_[id] / rate_bps, window_end)
              : window_end;
      retire(id, done_at);  // moves the last active flow into slot k
      ++result_.epochs;     // the departure epoch, handled without a solve
    } else {
      remaining_bits_[id] -= drain;
      ++k;
    }
  }
  if (csr_.active_count() != 0 && max_rate <= 0 &&
      next_arrival_ >= order_.size() &&
      !std::isfinite(options_.horizon_seconds)) {
    throw std::logic_error("FlowSimEngine: stalled (all rates zero)");
  }
  now_ = window_end;

  if (now_ >= options_.horizon_seconds ||
      (csr_.active_count() == 0 && next_arrival_ >= order_.size())) {
    finish();
  }
  return !finished_;
}

bool FlowSimEngine::step() {
  if (finished_) return false;
  if (now_ >= options_.horizon_seconds) {
    finish();
    return false;
  }
  ++result_.epochs;
  return options_.resolve_interval_seconds > 0 ? step_grid() : step_exact();
}

FlowSimResult FlowSimEngine::run() {
  while (step()) {
  }
  sim::SubstrateStats& stats = sim::substrate_stats();
  stats.flowsim_epochs += static_cast<std::uint64_t>(result_.epochs);
  stats.flowsim_resolves += static_cast<std::uint64_t>(result_.resolves);
  return result_;
}

FlowSimResult run_flow_sim(std::vector<FlowSimFlow> flows,
                           std::vector<double> capacities,
                           const FlowSimOptions& options) {
  FlowSimEngine engine(std::move(flows), std::move(capacities), options);
  return engine.run();
}

}  // namespace numfabric::flowsim

namespace numfabric::num {

// The oracle is exact mode with an infinite horizon.  It steps the engine
// rather than calling run(), so the golden-hashed flowsim_* perf counters
// count a run's own flow engine, never the oracle that packet and grid-mode
// runs consult for ideal rates.
FluidFctResult fluid_fct_oracle(const std::vector<FluidFlow>& flows,
                                const std::vector<double>& capacities,
                                const NumSolverOptions& solver_options) {
  flowsim::FlowSimOptions options;
  options.solver = solver_options;
  flowsim::FlowSimEngine engine(flows, capacities, std::move(options));
  while (engine.step()) {
  }
  const flowsim::FlowSimResult& run = engine.result();
  FluidFctResult result;
  result.fct_seconds = run.fct_seconds;
  result.ideal_rate = run.ideal_rate;
  result.solves = static_cast<int>(run.resolves);
  result.sweeps = run.solver_sweeps;
  result.solver_health = run.solver_health;
  return result;
}

}  // namespace numfabric::num
