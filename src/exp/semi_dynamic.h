// The semi-dynamic convergence scenario (§6.1, Fig. 4 and Fig. 6).
//
// A fixed population of random host-pair "paths"; each network event starts
// or stops a batch of long-running flows.  After every event the NUM oracle
// recomputes target rates and a ConvergenceDetector watches the
// destination-measured rates until 95% of flows sit within 10% of target for
// 5 ms.  The measured convergence time (minus the rate filter's rise time)
// is one sample of Fig. 4(a)'s CDF.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "net/topology.h"
#include "num/num_solver.h"
#include "stats/convergence.h"
#include "transport/fabric.h"

namespace numfabric::exp {

struct SemiDynamicOptions {
  transport::Scheme scheme = transport::Scheme::kNumFabric;
  net::LeafSpineOptions topology;
  transport::FabricOptions fabric;  // .scheme is overwritten from `scheme`

  int num_paths = 1000;
  int initial_active = 400;
  int flows_per_event = 100;
  int num_events = 100;
  int min_active = 300;
  int max_active = 500;

  /// Utility: alpha-fair (1.0 = the paper's proportional fairness).
  double alpha = 1.0;

  /// Oracle execution: >1 runs the NUM solver's wave-parallel path on this
  /// many threads (bit-identical results for any value).
  int solver_threads = 1;

  stats::ConvergenceOptions convergence;  // filter_rise_time is auto-filled
  /// Pause between an event's verdict and the next event.
  sim::TimeNs event_gap = sim::micros(100);

  std::uint64_t seed = 1;

  // --- Fig. 4(b,c) trace mode ---------------------------------------------
  /// Record the measured rate of one long-lived flow.
  bool record_trace = false;
  sim::TimeNs trace_sample_interval = sim::micros(10);
  /// >0: fire events on a fixed schedule instead of gating on convergence
  /// (needed for DCTCP, which never converges at these time scales).
  sim::TimeNs fixed_event_interval = 0;
  /// Use the plain max-min allocation as the "expected rate" (DCTCP does not
  /// optimize the NUM objective; the paper notes its expected rates differ).
  bool use_maxmin_targets = false;
};

struct SemiDynamicResult {
  /// One entry per measured event that converged (microseconds).
  std::vector<double> convergence_times_us;
  int events_measured = 0;
  int events_converged = 0;

  /// Trace of the tracked flow: (time ms, rate bps).
  std::vector<std::pair<double, double>> trace;
  /// Oracle rate of the tracked flow after each event: (time ms, rate bps).
  std::vector<std::pair<double, double>> expected_steps;

  std::uint64_t sim_events = 0;
  std::uint64_t total_queue_drops = 0;
  /// Oracle target solves that did not converge (zero for a healthy run).
  num::SolverHealth solver_health;
};

SemiDynamicResult run_semi_dynamic(const SemiDynamicOptions& options);

}  // namespace numfabric::exp
