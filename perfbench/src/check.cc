#include "check.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "stats/summary.h"

namespace perfbench {
namespace {

// Flow workloads: incremental and full re-solves converge to the same solver
// tolerance but are not bit-identical, so a completion may slip by one grid
// interval and the FCT distribution by a solver-tolerance share (the band
// the flow-fidelity tests and the CI incremental on-vs-off leg use).
constexpr double kFlowRelativeBand = 1e-3;

std::string describe(const char* what, double got, double want) {
  std::ostringstream out;
  out.precision(17);
  out << what << ": got " << got << ", reference " << want;
  return out.str();
}

bool within_band(double got, double want, double abs_band) {
  return std::abs(got - want) <= abs_band + kFlowRelativeBand * std::abs(want);
}

}  // namespace

Summary summarize(WorkloadKind kind, const Outcome& outcome) {
  std::vector<double> values;
  values.reserve(outcome.completed.size());
  for (const FlowRow& row : outcome.completed) {
    if (kind == WorkloadKind::kPacketWebsearch) {
      // The scenario's normalized FCT: ideal rate over measured rate.
      const double rate = static_cast<double>(row.size_bytes) * 8.0 /
                          row.fct_seconds;
      values.push_back(row.ideal_rate_bps / rate);
    } else {
      values.push_back(row.fct_seconds);
    }
  }
  Summary summary;
  summary.completed = static_cast<int>(values.size());
  if (values.empty()) return summary;
  summary.mean = numfabric::stats::mean(values);
  summary.p50 = numfabric::stats::percentile(values, 50);
  summary.p95 = numfabric::stats::percentile(values, 95);
  summary.p99 = numfabric::stats::percentile(values, 99);
  summary.max = *std::max_element(values.begin(), values.end());
  return summary;
}

Reference make_reference(WorkloadKind kind, const Outcome& runner_outcome) {
  Reference reference;
  reference.kind = kind;
  reference.attempted = runner_outcome.attempted;
  reference.summary = summarize(kind, runner_outcome);
  reference.events_fired = runner_outcome.counts.events_fired;
  reference.packets_forwarded = runner_outcome.counts.packets_forwarded;
  reference.packets_dropped = runner_outcome.counts.packets_dropped;
  return reference;
}

Verdict check_output(const Reference& reference, const Outcome& outcome) {
  const int incomplete = outcome.attempted -
                         static_cast<int>(outcome.completed.size());
  const Summary got = summarize(reference.kind, outcome);
  const Summary& want = reference.summary;
  std::string reason;
  if (outcome.attempted != reference.attempted) {
    reason = describe("attempted flows", outcome.attempted, reference.attempted);
  } else if (reference.kind == WorkloadKind::kPacketWebsearch) {
    if (outcome.counts.events_fired != reference.events_fired) {
      reason = describe("events fired",
                        static_cast<double>(outcome.counts.events_fired),
                        static_cast<double>(reference.events_fired));
    } else if (outcome.counts.packets_forwarded != reference.packets_forwarded) {
      reason = describe("packets forwarded",
                        static_cast<double>(outcome.counts.packets_forwarded),
                        static_cast<double>(reference.packets_forwarded));
    } else if (outcome.counts.packets_dropped != reference.packets_dropped) {
      reason = describe("packets dropped",
                        static_cast<double>(outcome.counts.packets_dropped),
                        static_cast<double>(reference.packets_dropped));
    } else if (got.completed != want.completed) {
      reason = describe("flows completed", got.completed, want.completed);
    } else if (!(got == want)) {
      reason = describe("mean normalized FCT", got.mean, want.mean) +
               " (or its p50/p95/p99/max)";
    }
  } else {
    const double grid = info(reference.kind).resolve_interval_seconds;
    const std::pair<const char*, std::pair<double, double>> stats[] = {
        {"mean FCT", {got.mean, want.mean}}, {"p50 FCT", {got.p50, want.p50}},
        {"p95 FCT", {got.p95, want.p95}},    {"p99 FCT", {got.p99, want.p99}},
        {"max FCT", {got.max, want.max}}};
    // Every flow must complete: incomplete ones fail on their own, and the
    // band applies to complete runs only.
    for (const auto& [name, values] : stats) {
      if (got.completed < outcome.attempted) break;
      if (!within_band(values.first, values.second, grid)) {
        reason = describe(name, values.first, values.second) +
                 " outside the full-solve band";
        break;
      }
    }
  }
  if (!reason.empty()) return Verdict{outcome.attempted, reason};
  return Verdict{incomplete, incomplete > 0
                                 ? std::to_string(incomplete) +
                                       " flows incomplete at the horizon"
                                 : std::string()};
}

std::string determinism_mismatch(const Outcome& first, const Outcome& again) {
  if (first.counts == again.counts && first.completed == again.completed) {
    return "";
  }
  const Counts& a = first.counts;
  const Counts& b = again.counts;
  const std::pair<const char*, std::pair<double, double>> counts[] = {
      {"sim.events_fired", {double(a.events_fired), double(b.events_fired)}},
      {"sim.events_scheduled",
       {double(a.events_scheduled), double(b.events_scheduled)}},
      {"sim.events_cancelled",
       {double(a.events_cancelled), double(b.events_cancelled)}},
      {"net.packets_forwarded",
       {double(a.packets_forwarded), double(b.packets_forwarded)}},
      {"net.bytes_forwarded",
       {double(a.bytes_forwarded), double(b.bytes_forwarded)}},
      {"net.packets_dropped",
       {double(a.packets_dropped), double(b.packets_dropped)}},
      {"transport.control_ticks",
       {double(a.control_ticks), double(b.control_ticks)}},
      {"transport.links_swept", {double(a.links_swept), double(b.links_swept)}},
      {"num.solves", {double(a.solver_solves), double(b.solver_solves)}},
      {"num.sweeps", {double(a.solver_sweeps), double(b.solver_sweeps)}},
      {"num.relaxations",
       {double(a.solver_relaxations), double(b.solver_relaxations)}},
      {"num.oracle_solves", {double(a.oracle_solves), double(b.oracle_solves)}},
      {"flowsim.epochs", {double(a.epochs), double(b.epochs)}},
      {"flowsim.resolves", {double(a.resolves), double(b.resolves)}},
      {"flowsim.steps", {double(a.steps), double(b.steps)}},
      {"flowsim.peak_active", {double(a.peak_active), double(b.peak_active)}},
      {"sim.slices", {double(a.slices), double(b.slices)}},
      {"net.path_calls", {double(a.path_calls), double(b.path_calls)}},
  };
  for (const auto& [name, values] : counts) {
    if (values.first != values.second) {
      return describe(name, values.second, values.first);
    }
  }
  if (first.completed != again.completed) return "per-flow FCTs differ";
  return "";
}

Verdict RunChecker::add(const Outcome& outcome) {
  Verdict verdict = check_output(reference_, outcome);
  if (!first_) {
    first_ = outcome;
  } else if (const std::string mismatch = determinism_mismatch(*first_, outcome);
             !mismatch.empty()) {
    verdict = Verdict{outcome.attempted, "not deterministic: " + mismatch};
  }
  attempted_ += outcome.attempted;
  failed_ += verdict.failed;
  return verdict;
}

}  // namespace perfbench
