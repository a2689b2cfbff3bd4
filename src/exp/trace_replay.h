// Trace replay: feed an external workload trace (arrival time / size / src /
// dst per flow, see workload/trace.h) through the packet simulator on a
// leaf-spine fabric and report per-flow completion times.  The bridge that
// makes arbitrary measured workloads runnable — and, via the sweep engine,
// sweepable — against every transport.
#pragma once

#include <cstdint>
#include <vector>

#include "exp/common.h"
#include "net/topology.h"
#include "num/fluid_fct_oracle.h"
#include "num/num_solver.h"
#include "transport/fabric.h"
#include "workload/trace.h"

namespace numfabric::exp {

struct TraceReplayOptions {
  transport::Scheme scheme = transport::Scheme::kNumFabric;
  net::LeafSpineOptions topology;
  transport::FabricOptions fabric;

  /// Host indices in the trace must be < hosts_per_leaf * num_leaves;
  /// run_trace_replay throws std::invalid_argument otherwise.
  std::vector<workload::TraceFlow> trace;

  double alpha = 1.0;
  /// Hard stop; flows not finished by then count as incomplete.
  sim::TimeNs horizon = sim::seconds(20);
};

struct TraceReplayResult {
  struct PerFlow {
    int src = 0;
    int dst = 0;
    std::uint64_t size_bytes = 0;
    double arrival_seconds = 0;
    bool completed = false;
    double fct_seconds = 0;  // valid when completed
  };
  std::vector<PerFlow> flows;  // trace order
  int completed = 0;
  int incomplete = 0;
  std::uint64_t sim_events = 0;
  /// Flow fidelity: re-solves that did not converge (zero at packet
  /// fidelity and for a healthy run).
  num::SolverHealth solver_health;
};

TraceReplayResult run_trace_replay(const TraceReplayOptions& options);

// The flow plan both fidelities share (run_trace_replay_flow is the
// flow-fidelity twin in exp/flow_fidelity.h).

/// The trace as the fluid system sees it, on the planned, materialized
/// fabric: flow i starts at trace_start_time, takes its exp::flow_path and
/// shares `utility`.  Throws std::invalid_argument naming the first flow
/// whose src or dst is not a host of the fabric.
std::vector<num::FluidFlow> plan_trace_replay(
    const TraceReplayOptions& options, BuiltFabric& built,
    const num::UtilityFunction* utility);

/// A trace flow's start on the simulator clock, rounded to the nearest ns.
sim::TimeNs trace_start_time(const workload::TraceFlow& flow);

/// Rows in trace order from per-flow FCTs in seconds (negative =
/// incomplete), with the completed/incomplete counts.
TraceReplayResult trace_replay_result(
    const std::vector<workload::TraceFlow>& trace,
    const std::vector<double>& fct_seconds);

}  // namespace numfabric::exp
