// Metric derivation: end-to-end metrics from untraced runs, per-layer
// metrics from the traced runs' spans and counters, and the machine
// descriptor recorded with every result.
#pragma once

#include <string>
#include <vector>

#include "tracer.h"
#include "workloads.h"

namespace perfbench {

struct Machine {
  long nproc = 0;
  std::string cpu_model;
  std::string compiler;
  std::string build_type;
  bool assertions = false;  // NDEBUG unset
  bool sanitized = false;

  std::string json() const;
  /// Why numbers from this build must not be reported (empty if they may):
  /// only an optimized Release build without sanitizers is measured.
  std::string refusal() const;
};

Machine describe_machine();

/// One measured full run (set-up + run) of one batch instance.
struct RunRecord {
  int batch = 0;
  int instance = 0;
  int rep = 0;  // span run id
  bool traced = false;
  Outcome outcome;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

/// setup_s, run_s, flows_per_s, peak_rss_mb, completed_frac for one batch:
/// per instance the median over its untraced runs (set-up over every set-up
/// sample), summed over the batch's instances.
Metrics end_to_end_metrics(const std::vector<RunRecord>& records,
                           const std::vector<std::vector<double>>& setup_samples,
                           double peak_rss_mb, double failed_frac);

/// The per-layer metrics of one batch: layer self times from the traced
/// batches' spans, counts from the substrate / flowsim / solver counters
/// (summed over instances — flowsim.peak_active takes their maximum — and
/// the median over traced batches), per-call
/// distributions pooled over traced batches, plus span coverage and tracing
/// overhead against the untraced batches of the same process, and the
/// process's failed_frac.
Metrics layer_metrics(const std::vector<RunRecord>& records,
                      const std::vector<Span>& spans, double failed_frac);

/// Highest percentile (from a fixed ladder) with at least ten samples beyond
/// it; 50 when there are fewer than 20 samples.
double tail_percentile(std::size_t samples);

}  // namespace perfbench
