// The benchmark's three workloads, each assembled from the layers' public
// calls (sim, net, transport, workload, num, flowsim) so every call can be
// timed from outside the program.
//
//  * packet-websearch: `websearch-fct load=0.6 flows=600` at packet fidelity,
//    transport=numfabric, 8x4x2 leaf-spine — what exp::run_dynamic_workload
//    does.
//  * flow-churn-jellyfish: `websearch-fct fidelity=flow resolve_us=0
//    topology=jellyfish:32,8,256 load=0.6 flows=2500` — what
//    exp::run_dynamic_workload_flow does.
//  * mega-fct-100k: `mega-fct concurrent=100000` on the 32x32x8 virtual
//    leaf-spine — what exp::run_mega_fct does.
//
// Each measured batch runs `instances` independent seeds of a workload (see
// WorkloadInfo::instances).  A Workload object is one run: setup() builds everything up to the first
// simulated event or epoch, run() simulates to a result.  run_runner() calls
// the runner numfabric_run uses for the same workload, for the output-check
// reference and the equivalence self-test.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "tracer.h"

namespace perfbench {

enum class WorkloadKind { kPacketWebsearch, kFlowChurnJellyfish, kMegaFct100k };

struct WorkloadInfo {
  const char* name;
  WorkloadKind kind;
  /// Flows per run.
  int flows;
  /// Re-solve grid period in seconds (0 = exact event-driven fluid system;
  /// packet runs have no grid).
  double resolve_interval_seconds;
  /// Independent instances per measured batch.  Web-search flow sizes are
  /// heavy-tailed, so one seed's cost is far from typical: a 600-flow
  /// packet run fires 7.7-10.8 M events across seeds 1-8, and a Jellyfish
  /// fluid run's worklist relaxations vary with a 20% coefficient of
  /// variation across seeds (its active set is still growing at 5000
  /// flows).  Those batches sum several seeds' runs; mega-fct's cost moves
  /// only a few percent with the seed.
  int instances;
};

/// Workload seed of instance `instance` of the batch drawn for `seed`;
/// instance 0 runs the seed itself.
std::uint64_t instance_seed(std::uint64_t seed, int instance);

const std::vector<WorkloadInfo>& all_workloads();
std::optional<WorkloadInfo> find_workload(std::string_view name);
const WorkloadInfo& info(WorkloadKind kind);

/// Deterministic counts of one run: substrate counter deltas plus the
/// flowsim / solver tallies.  Equal across repeated runs at one seed.
struct Counts {
  std::uint64_t events_fired = 0;
  std::uint64_t events_scheduled = 0;
  std::uint64_t events_cancelled = 0;
  std::uint64_t packets_forwarded = 0;
  std::uint64_t bytes_forwarded = 0;
  std::uint64_t packets_dropped = 0;
  std::uint64_t control_ticks = 0;
  std::uint64_t links_swept = 0;
  std::uint64_t solver_solves = 0;
  std::uint64_t solver_sweeps = 0;
  std::uint64_t solver_relaxations = 0;
  std::int64_t oracle_solves = 0;
  std::int64_t epochs = 0;
  std::int64_t resolves = 0;
  std::int64_t steps = 0;
  std::int64_t slices = 0;
  std::int64_t path_calls = 0;
  std::uint64_t peak_active = 0;

  bool operator==(const Counts&) const = default;
};

/// Heap-growth counters of one run.  Reported, not determinism-checked.
struct Allocs {
  std::uint64_t substrate = 0;  // SubstrateStats::allocs_total()
  std::uint64_t workspace = 0;  // allocs_solver_workspace
};

/// One completed flow, in the runner's terms.
struct FlowRow {
  std::uint64_t size_bytes = 0;
  double fct_seconds = 0;
  double ideal_rate_bps = 0;

  bool operator==(const FlowRow&) const = default;
};

struct Outcome {
  int attempted = 0;
  std::vector<FlowRow> completed;  // completed flows, draw order
  Counts counts;
  Allocs allocs;
  /// Host time: set-up (fabric, paths, draw, registration, engine build) and
  /// run (first event to result).
  double setup_s = 0;
  double run_s = 0;
  /// num::solve wall time during run() (solver_wall_ns delta) and the part
  /// of it spent inside FlowSimEngine::step().
  double solver_s = 0;
  double solver_in_steps_s = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds fabric, paths, workload draw, flow registration and (flow
  /// fidelity) the FlowSimEngine.  Records Outcome::setup_s.
  virtual void setup(Tracer& tracer) = 0;
  /// Runs from the first event to a result.  Call once, after setup().
  virtual Outcome run(Tracer& tracer) = 0;
};

std::unique_ptr<Workload> make_workload(WorkloadKind kind, std::uint64_t seed);

/// The runner numfabric_run calls for this workload, at the same parameters.
/// `incremental` selects the flow workloads' re-solve mode (ignored at
/// packet fidelity).  Counts carries the substrate deltas the runner's
/// result struct does not expose.
Outcome run_runner(WorkloadKind kind, std::uint64_t seed, bool incremental);

}  // namespace perfbench
