// Output check and determinism check — the source of failed_frac.
//
//  * packet-websearch: a run's simulated statistics (events fired, packets
//    forwarded and dropped, flows completed, normalized-FCT summary) must be
//    identical to the reference for the seed.  A speed-only change leaves
//    them unchanged.
//  * flow workloads: every flow must complete and the FCT summary must stay
//    within the band of a full-solve (incremental=off) reference.
//
// A run that fails the check fails all its flows; a run that passes fails
// only its incomplete flows.
#pragma once

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "workloads.h"

namespace perfbench {

/// Distribution summary of the checked per-flow quantity: normalized FCT
/// (ideal rate / measured rate) at packet fidelity, FCT seconds at flow
/// fidelity.
struct Summary {
  int completed = 0;
  double mean = 0;
  double p50 = 0;
  double p95 = 0;
  double p99 = 0;
  double max = 0;

  bool operator==(const Summary&) const = default;
};

Summary summarize(WorkloadKind kind, const Outcome& outcome);

struct Reference {
  WorkloadKind kind = WorkloadKind::kPacketWebsearch;
  int attempted = 0;
  Summary summary;
  /// Packet fidelity: the simulated statistics that must match exactly.
  std::uint64_t events_fired = 0;
  std::uint64_t packets_forwarded = 0;
  std::uint64_t packets_dropped = 0;
};

/// The reference for one seed: the runner's own output (packet) or a
/// full-solve runner output (flow workloads).
Reference make_reference(WorkloadKind kind, const Outcome& runner_outcome);

struct Verdict {
  int failed = 0;          // failed flows of this run
  std::string reason;      // empty when the run passed
};

/// Checks one run against the reference.
Verdict check_output(const Reference& reference, const Outcome& outcome);

/// Determinism: a repeated run at the same seed must reproduce every
/// deterministic count and every completed flow exactly.  Returns the
/// first mismatch, or an empty string.
std::string determinism_mismatch(const Outcome& first, const Outcome& again);

/// Tallies failed flows over the runs of one process: each run is checked
/// against the reference and against the first run (determinism).  A
/// determinism mismatch fails the run's flows like a failed output check.
class RunChecker {
 public:
  explicit RunChecker(Reference reference) : reference_(std::move(reference)) {}

  Verdict add(const Outcome& outcome);

  long attempted() const { return attempted_; }
  long failed() const { return failed_; }
  double failed_frac() const {
    return attempted_ > 0 ? static_cast<double>(failed_) /
                                static_cast<double>(attempted_)
                          : 1.0;
  }

 private:
  Reference reference_;
  std::optional<Outcome> first_;
  long attempted_ = 0;
  long failed_ = 0;
};

}  // namespace perfbench
