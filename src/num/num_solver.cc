#include "num/num_solver.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "sim/substrate_stats.h"

namespace numfabric::num {

// Private accessor so the solver can use the workspace's buffers without the
// header exposing mutable internals to every includer.
struct SolverAccess {
  static std::vector<double>& prices(NumWorkspace& ws) { return ws.prices_; }
  static std::vector<double>& path_price(NumWorkspace& ws) {
    return ws.path_price_;
  }
  static std::vector<double>& change(NumWorkspace& ws) { return ws.change_; }
  static std::vector<double>& rates(NumWorkspace& ws) { return ws.rates_; }
  static bool& warm(NumWorkspace& ws) { return ws.warm_; }
  static const CsrProblem*& bound_problem(NumWorkspace& ws) {
    return ws.bound_problem_;
  }
  static std::uint64_t& bound_epoch(NumWorkspace& ws) {
    return ws.bound_epoch_;
  }
  static std::vector<std::int32_t>& worklist(NumWorkspace& ws) {
    return ws.worklist_;
  }
  static std::vector<std::uint8_t>& in_queue(NumWorkspace& ws) {
    return ws.in_queue_;
  }
  static std::unique_ptr<util::WorkerPool>& pool(NumWorkspace& ws) {
    return ws.pool_;
  }
};

bool link_overloaded(const CsrProblem& problem, std::size_t link,
                     std::span<const double> path_price, double price,
                     double candidate) {
  const double capacity = problem.capacities()[link];
  double load = 0.0;
  for (const std::int32_t i : problem.link_active_flows(link)) {
    const auto fi = static_cast<std::size_t>(i);
    load += problem.marginal_inverse(fi, (path_price[fi] - price) + candidate);
    if (load > capacity) return true;
  }
  return false;
}

namespace {

/// resize() that counts actual heap growth into the substrate stats — the
/// zero-allocation-per-re-solve guarantee is measured, not assumed.
void sized(std::vector<double>& v, std::size_t n) {
  if (v.capacity() < n) ++sim::substrate_stats().allocs_solver_workspace;
  v.resize(n);
}

/// Newton seeding stops once a step is within the window width; this many
/// passes bound it when it does not, and kMaxProbes bounds the certifying
/// evaluations after it.
constexpr int kMaxNewtonPasses = 6;
constexpr int kMaxProbes = 3;

/// Half-width of the window certified around a price estimate x.  A warm
/// bisection stops at brackets of price_resolution, so a window well inside
/// that is rarely entered by its midpoints.  A cold one runs to adjacent
/// doubles and evaluates every midpoint inside the window, so the window
/// is kept to 16 ulps: about the rounding noise with which a load sum of a
/// few hundred terms locates its own threshold (a probe that falls short
/// is retried further out).
double window_width(double x, double price_resolution) {
  return std::max(x * 0x1p-48, price_resolution * (1.0 / 32));
}

/// Seeds the memo [yes, no] of update_link's predicate on an all-reciprocal
/// row with a safeguarded Newton solve of load(x) = capacity from `start`,
/// where load(x) = sum w/(b+x) over the row's flows, b is a flow's path
/// price without this link (whose current price is `price`), and
/// load'(x) = -sum r^2/w = -sum r/(b+x).
/// Every pass sums the load with exactly the predicate's terms in its
/// order, so `load > capacity` is an exact evaluation of the predicate and
/// goes into the memo.  One more exact evaluation just beyond the estimate
/// certifies the open side, closing the window around the threshold.  A bad
/// estimate costs passes only: the memo records nothing but exact verdicts.
void seed_window(const CsrProblem& problem, std::size_t l,
                 std::span<const double> path_price, double price,
                 double start, double price_resolution, double& yes,
                 double& no, std::int64_t& row_passes) {
  const double capacity = problem.capacities()[l];
  double x = start;
  double estimate = 0.0;
  bool over = false;
  bool converged = false;
  for (int pass = 0; pass < kMaxNewtonPasses; ++pass) {
    double load = 0.0;
    double slope = 0.0;
    for (const std::int32_t i : problem.link_active_flows(l)) {
      const auto fi = static_cast<std::size_t>(i);
      const double flow_price = (path_price[fi] - price) + x;
      const double rate = problem.marginal_inverse(fi, flow_price);
      load += rate;
      slope += rate / std::max(flow_price, kMinPrice);
    }
    ++row_passes;
    over = load > capacity;
    (over ? yes : no) = x;
    if (no <= 0.0) return;  // free at zero: the price is 0

    const double lower = std::max(yes, 0.0);
    estimate = x + (load - capacity) / slope;
    if (!over && estimate <= 0.0 && yes < 0.0) {
      estimate = 0.0;  // the tangent says free: ask the bisection's first question
    } else if (!(estimate > lower && estimate < no)) {
      // Off the window: x * load / capacity stays on x's side of the root
      // (x * load(x) is increasing), so it is a safe fallback step.
      estimate = x * load / capacity;
      if (!(estimate > lower && estimate < no)) return;
    }
    const double step = estimate - x;
    x = estimate;
    // Within the window, or (warm) within the bracket the bisection stops
    // at: a window that narrow is rarely entered by its midpoints.
    if (std::abs(step) <=
        std::max(window_width(x, price_resolution), price_resolution)) {
      converged = true;
      break;
    }
  }
  if (!converged || x <= 0.0) return;

  // The last pass sat within one window width of the estimate, on the side
  // `over` says; probe the far side.  A probe that lands short of the
  // threshold still tightens the memo, and the next one reaches further.
  double width = window_width(x, price_resolution);
  for (int probes = 0; probes < kMaxProbes; ++probes, width *= 16.0) {
    const double probe = over ? x + width : x - width;
    if (!(probe > std::max(yes, 0.0) && probe < no)) return;
    ++row_passes;
    const bool probe_over =
        link_overloaded(problem, l, path_price, price, probe);
    (probe_over ? yes : no) = probe;
    if (probe_over != over) return;
  }
}

/// The per-link Gauss-Seidel update.  Reads/writes prices[l] and the
/// path_price of the link's active flows only — state disjoint from every
/// other link in the same wave — and returns |new_price - old_price|.
/// Counts each pass over the row (exact predicate evaluations and Newton
/// passes alike) into `row_passes`.
///
/// Iteration runs over the compacted active row (link_active_flows): the
/// same flow ids, in the same increasing order, as scanning the full
/// compiled row and skipping inactives — so every partial sum rounds
/// bit-identically while the cost is O(active-on-link), not O(history).
///
/// The bracket, the doubling loop, price_resolution and the frozen-bracket
/// exit define the written price as the plain bisection's (the
/// CsrSolverFrozenBits constants lock it).  The accelerations are bit-exact:
///  * link_overloaded's load sum exits early once over capacity: terms are
///    non-negative and correctly rounded addition is monotone, so the
///    verdict is the full sum's (which is also why a Newton pass's full sum
///    is an exact evaluation);
///  * marginal_inverse is devirtualized through CsrProblem (same arithmetic
///    sequence, see csr_problem.h);
///  * the bisection reads only the predicate link_overloaded(x), and on a
///    row of kReciprocal flows that predicate is monotone in x (see
///    link_overloaded).  A memo holds `yes`, at or below which it is known
///    true, and `no`, at or above which it is known false, and evaluates the
///    row only strictly between them — every midpoint decision is the one
///    the plain bisection would make;
///  * seed_window fills the memo with a certified window around the
///    threshold, so the bisection's descent costs no passes until its
///    midpoints enter that window;
///  * rows holding any kPow or generic flow keep the plain bisection: libm
///    pow is not guaranteed monotone, so a memo verdict could differ from
///    the evaluation it replaces;
///  * the fixed-depth bisection breaks once an iteration leaves the bracket
///    bitwise unchanged — every remaining iteration would recompute the same
///    midpoint and take the same branch, so the final 0.5 * (lo + hi) is
///    untouched.
double update_link(const CsrProblem& problem, std::size_t l,
                   std::vector<double>& prices,
                   std::vector<double>& path_price, double price_resolution,
                   std::int64_t& row_passes) {
  const auto flows = problem.link_active_flows(l);
  if (flows.empty()) {
    prices[l] = 0.0;  // same as the legacy empty-link skip: no change recorded
    return 0.0;
  }
  const double price = prices[l];
  const bool monotone =
      std::all_of(flows.begin(), flows.end(), [&](std::int32_t i) {
        return problem.reciprocal(static_cast<std::size_t>(i));
      });

  double yes = -std::numeric_limits<double>::infinity();
  double no = std::numeric_limits<double>::infinity();
  const auto overloaded = [&](double candidate) {
    if (candidate <= yes) return true;
    if (candidate >= no) return false;
    ++row_passes;
    const bool over =
        link_overloaded(problem, l, path_price, price, candidate);
    if (monotone) (over ? yes : no) = candidate;
    return over;
  };
  // A link at price 0 usually stays there: ask the bisection's first
  // question before paying for a seed.  Seeding starts where the doubling
  // loop does.
  if (monotone && (price > 0.0 || overloaded(0.0))) {
    seed_window(problem, l, path_price, price, std::max(price, 1e-6),
                price_resolution, yes, no, row_passes);
  }

  double new_price;
  if (!overloaded(0.0)) {
    new_price = 0.0;  // under-loaded even for free: complementary slackness
  } else {
    // Bracket: load decreases in price; double until under capacity.
    double lo = 0.0;
    double hi = std::max(price, 1e-6);
    while (overloaded(hi)) {
      lo = hi;
      hi *= 2.0;
      if (hi > 1e30) throw std::logic_error("num::solve: price diverged");
    }
    for (int iter = 0; iter < 100; ++iter) {
      if (price_resolution > 0.0 && hi - lo <= price_resolution) break;
      const double mid = 0.5 * (lo + hi);
      const double prev_lo = lo;
      const double prev_hi = hi;
      if (overloaded(mid)) {
        lo = mid;
      } else {
        hi = mid;
      }
      if (lo == prev_lo && hi == prev_hi) break;  // bracket bitwise frozen
    }
    new_price = 0.5 * (lo + hi);
  }

  const double change = std::abs(new_price - price);
  for (const std::int32_t i : flows) {
    const auto fi = static_cast<std::size_t>(i);
    path_price[fi] = (path_price[fi] - price) + new_price;
  }
  prices[l] = new_price;
  return change;
}

}  // namespace

SolveStats solve(const CsrProblem& problem, NumWorkspace& workspace,
                 const NumSolverOptions& options) {
  const auto wall_start = std::chrono::steady_clock::now();
  const std::size_t num_flows = problem.num_flows();
  const std::size_t num_links = problem.num_links();

  std::vector<double>& prices = SolverAccess::prices(workspace);
  std::vector<double>& path_price = SolverAccess::path_price(workspace);
  std::vector<double>& change = SolverAccess::change(workspace);
  std::vector<double>& rates = SolverAccess::rates(workspace);

  bool warm;
  if (!options.initial_prices.empty()) {
    if (options.initial_prices.size() != num_links) {
      throw std::invalid_argument("num::solve: initial_prices size mismatch");
    }
    sized(prices, num_links);
    std::copy(options.initial_prices.begin(), options.initial_prices.end(),
              prices.begin());
    warm = true;
  } else if (SolverAccess::warm(workspace) && prices.size() == num_links) {
    warm = true;  // previous solve's prices carry over
  } else {
    sized(prices, num_links);
    std::fill(prices.begin(), prices.end(), 1.0);
    warm = false;
  }
  // Warm-started solves (re-solves across semi-dynamic epochs / fluid-oracle
  // events) stop each per-link bisection once the bracket is two orders of
  // magnitude below the sweep tolerance — the sweep loop cannot distinguish
  // prices closer than that, so the remaining fixed-depth halvings are pure
  // waste.  Cold solves keep the full-depth bisection so their results stay
  // bit-identical to the legacy solver.
  const double price_resolution = warm ? options.tolerance * 1e-2 : 0.0;

  // Incremental re-solve is sound only when the workspace's stored
  // path_price/rates describe this exact problem as of the last mark_solved
  // epoch — i.e. the dirty sets are precisely what changed since the state
  // we are patching.  Anything else (cold start, explicit prices, another
  // workspace interleaved, fresh compile, deactivate_all) falls back to the
  // full solve, which re-derives everything.
  const bool incremental =
      options.incremental && options.initial_prices.empty() && warm &&
      !problem.all_dirty() &&
      SolverAccess::bound_problem(workspace) == &problem &&
      SolverAccess::bound_epoch(workspace) == problem.epoch() &&
      path_price.size() == num_flows && rates.size() == num_flows;

  sized(path_price, num_flows);
  if (incremental) {
    // Patch only the toggled flows: a newly (re)activated flow needs a fresh
    // path-price sum (its stored slot is stale); a deactivated flow just
    // stops reporting rate.  Untouched actives keep their stored path_price,
    // which the relaxations below correct exactly as a sweep would.
    for (const std::int32_t f : problem.touched_flows()) {
      const auto fi = static_cast<std::size_t>(f);
      if (problem.active(fi)) {
        double sum = 0.0;
        for (const std::int32_t l : problem.flow_links(fi)) {
          sum += prices[static_cast<std::size_t>(l)];
        }
        path_price[fi] = sum;
      } else {
        rates[fi] = 0.0;
      }
    }
  } else {
    // Per-flow init over the active list; each slot is written once, so the
    // unsorted order cannot affect any bit.
    for (const std::int32_t f : problem.active_flows()) {
      const auto fi = static_cast<std::size_t>(f);
      double sum = 0.0;
      for (const std::int32_t l : problem.flow_links(fi)) {
        sum += prices[static_cast<std::size_t>(l)];
      }
      path_price[fi] = sum;
    }
  }

  const int threads = std::max(options.policy.threads, 1);
  util::WorkerPool* pool = nullptr;
  if (threads > 1) {
    auto& owned = SolverAccess::pool(workspace);
    if (owned == nullptr || owned->jobs() != threads) {
      owned = std::make_unique<util::WorkerPool>(threads);
    }
    pool = owned.get();
    sized(change, num_links);
  }

  SolveStats stats;
  // One full sweep over every link; returns the max price change.  Serial
  // natural order and wave-parallel execution compute the same bits (see
  // csr_problem.h).
  const auto full_sweep = [&]() {
    double max_price_change = 0.0;
    if (pool == nullptr) {
      // Reference spec: natural link order.
      for (std::size_t l = 0; l < num_links; ++l) {
        max_price_change = std::max(
            max_price_change,
            update_link(problem, l, prices, path_price, price_resolution,
                        stats.row_passes));
      }
    } else {
      std::atomic<std::int64_t> row_passes{0};
      // Wave execution: per the schedule's construction every link's inputs
      // are exactly what the natural-order sweep would have shown it, so
      // this computes the same bits for any thread/chunk count.
      for (std::size_t w = 0; w < problem.num_waves(); ++w) {
        const auto wave = problem.wave_links(w);
        const int chunks = static_cast<int>(
            std::min<std::size_t>(static_cast<std::size_t>(threads),
                                  wave.size()));
        pool->parallel_for(chunks, [&](int chunk) {
          const std::size_t begin = wave.size() * static_cast<std::size_t>(chunk) /
                                    static_cast<std::size_t>(chunks);
          const std::size_t end =
              wave.size() * (static_cast<std::size_t>(chunk) + 1) /
              static_cast<std::size_t>(chunks);
          std::int64_t passes = 0;
          for (std::size_t k = begin; k < end; ++k) {
            const auto l = static_cast<std::size_t>(wave[k]);
            change[l] = update_link(problem, l, prices, path_price,
                                    price_resolution, passes);
          }
          row_passes += passes;
        });
      }
      stats.row_passes += row_passes.load();
      // max is exact and order-independent, so reducing after the sweep
      // matches the serial running max bit-for-bit.
      for (std::size_t l = 0; l < num_links; ++l) {
        max_price_change = std::max(max_price_change, change[l]);
      }
    }
    return max_price_change;
  };

  if (incremental) {
    // Worklist relaxation, seeded from the dirty links in increasing id.
    // Serial by construction — the order links come off the queue is a
    // function of the dirty set alone, so results are identical for every
    // --solver-threads value.
    std::vector<std::int32_t>& ring = SolverAccess::worklist(workspace);
    std::vector<std::uint8_t>& in_queue = SolverAccess::in_queue(workspace);
    if (ring.size() < num_links) ring.resize(num_links);
    if (in_queue.size() < num_links) in_queue.assign(num_links, 0);
    // The membership bitmap caps the queue at num_links entries, so a ring
    // of that capacity never overflows.
    std::size_t head = 0, queued = 0;
    const auto push = [&](std::int32_t l) {
      if (in_queue[static_cast<std::size_t>(l)] != 0) return;
      in_queue[static_cast<std::size_t>(l)] = 1;
      ring[(head + queued) % num_links] = l;
      ++queued;
    };
    {
      // dirty_links() is in first-dirtied order; seed ascending so the
      // relaxation order is independent of the set_active call order.
      std::vector<std::int32_t> seed(problem.dirty_links().begin(),
                                     problem.dirty_links().end());
      std::sort(seed.begin(), seed.end());
      for (const std::int32_t l : seed) push(l);
    }
    const std::int64_t relaxation_cap =
        static_cast<std::int64_t>(options.max_sweeps) *
        static_cast<std::int64_t>(num_links == 0 ? 1 : num_links);
    while (queued > 0 && stats.relaxations < relaxation_cap) {
      const std::int32_t l = ring[head % num_links];
      head = (head + 1) % num_links;
      --queued;
      in_queue[static_cast<std::size_t>(l)] = 0;
      const double delta =
          update_link(problem, static_cast<std::size_t>(l), prices,
                      path_price, price_resolution, stats.row_passes);
      ++stats.relaxations;
      if (delta >= options.tolerance) {
        // The move perturbed the path price of every active flow through l;
        // their other links may now violate complementary slackness.
        for (const std::int32_t f :
             problem.link_active_flows(static_cast<std::size_t>(l))) {
          for (const std::int32_t k :
               problem.flow_links(static_cast<std::size_t>(f))) {
            if (k != l) push(k);
          }
        }
      }
    }
    // Verification: full sweeps until quiescent.  Normally the first sweep
    // confirms convergence; if the worklist missed coupling (or hit the
    // cap), these sweeps are the correctness backstop.
    for (int sweep = 0; sweep < options.max_sweeps; ++sweep) {
      const double max_price_change = full_sweep();
      stats.sweeps = sweep + 1;
      if (max_price_change < options.tolerance) {
        stats.converged = true;
        break;
      }
    }
  } else {
    for (int sweep = 0; sweep < options.max_sweeps; ++sweep) {
      const double max_price_change = full_sweep();
      stats.sweeps = sweep + 1;
      if (max_price_change < options.tolerance) {
        stats.converged = true;
        break;
      }
    }
  }

  sized(rates, num_flows);
  if (incremental) {
    // Touched-inactive flows were zeroed above; untouched inactives are 0
    // from the solve this state was patched from.  Only actives move.
    for (const std::int32_t f : problem.active_flows()) {
      const auto fi = static_cast<std::size_t>(f);
      rates[fi] = problem.marginal_inverse(fi, path_price[fi]);
    }
  } else {
    std::fill(rates.begin(), rates.end(), 0.0);
    for (const std::int32_t f : problem.active_flows()) {
      const auto fi = static_cast<std::size_t>(f);
      rates[fi] = problem.marginal_inverse(fi, path_price[fi]);
    }
  }
  for (std::size_t l = 0; l < num_links; ++l) {
    double load = 0.0;
    for (const std::int32_t i : problem.link_active_flows(l)) {
      load += rates[static_cast<std::size_t>(i)];
    }
    const double violation =
        (load - problem.capacities()[l]) / problem.capacities()[l];
    stats.max_violation = std::max(stats.max_violation, violation);
  }

  SolverAccess::warm(workspace) = true;
  problem.mark_solved();
  SolverAccess::bound_problem(workspace) = &problem;
  SolverAccess::bound_epoch(workspace) = problem.epoch();

  auto& counters = sim::substrate_stats();
  ++counters.solver_solves;
  counters.solver_sweeps += static_cast<std::uint64_t>(stats.sweeps);
  counters.solver_relaxations += static_cast<std::uint64_t>(stats.relaxations);
  counters.solver_wall_ns += static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - wall_start)
          .count());
  return stats;
}

double kkt_residual(const NumProblem& problem, const std::vector<double>& rates,
                    const std::vector<double>& prices) {
  double residual = 0.0;
  for (std::size_t i = 0; i < problem.utilities.size(); ++i) {
    double path_price = 0.0;
    for (int l : problem.flow_links[i]) path_price += prices[static_cast<std::size_t>(l)];
    const double marginal = problem.utilities[i]->marginal(rates[i]);
    residual = std::max(residual, std::abs(marginal - path_price) /
                                      std::max(marginal, kMinPrice));
  }
  // Link loads, flow-major in one O(nnz) pass.  Each link's row is listed in
  // increasing flow id, and this walk adds flow i's rate to its links in
  // exactly that order, so every per-link sum rounds bit-identically to the
  // former per-link rescan of all flows.
  std::vector<double> load(problem.capacities.size(), 0.0);
  for (std::size_t i = 0; i < problem.flow_links.size(); ++i) {
    for (int k : problem.flow_links[i]) {
      load[static_cast<std::size_t>(k)] += rates[i];
    }
  }
  for (std::size_t l = 0; l < problem.capacities.size(); ++l) {
    const double slack = problem.capacities[l] - load[l];
    // Complementary slackness: p_l * slack ~ 0 (normalized).
    residual = std::max(residual, prices[l] * std::max(slack, 0.0) /
                                      problem.capacities[l]);
    // Feasibility.
    residual = std::max(residual, -slack / problem.capacities[l]);
  }
  return residual;
}

double kkt_residual(const CsrProblem& problem, std::span<const double> rates,
                    std::span<const double> prices) {
  double residual = 0.0;
  for (const std::int32_t f : problem.active_flows()) {
    const auto i = static_cast<std::size_t>(f);
    double path_price = 0.0;
    for (const std::int32_t l : problem.flow_links(i)) {
      path_price += prices[static_cast<std::size_t>(l)];
    }
    const double marginal = problem.marginal(i, rates[i]);
    residual = std::max(residual, std::abs(marginal - path_price) /
                                      std::max(marginal, kMinPrice));
  }
  for (std::size_t l = 0; l < problem.num_links(); ++l) {
    double load = 0.0;
    for (const std::int32_t i : problem.link_active_flows(l)) {
      load += rates[static_cast<std::size_t>(i)];
    }
    const double slack = problem.capacities()[l] - load;
    residual = std::max(residual, prices[l] * std::max(slack, 0.0) /
                                      problem.capacities()[l]);
    residual = std::max(residual, -slack / problem.capacities()[l]);
  }
  return residual;
}

}  // namespace numfabric::num
