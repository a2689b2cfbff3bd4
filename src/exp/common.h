// Shared experiment plumbing: link indexing for oracle problems, throughput
// measurement windows, and the quick/full scale switch.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/routing.h"
#include "net/topology.h"
#include "num/num_solver.h"
#include "sim/simulator.h"
#include "transport/flow.h"

namespace numfabric::exp {

/// One evaluation fabric — leaf-spine or jellyfish — as every experiment
/// runner consumes it: the FabricGraph plus, after materialize_fabric(), the
/// object view.  Paths are computed on the graph (link ids double as dense
/// LinkIndexer indices), so the packet and flow engines select identical
/// routes.
struct BuiltFabric {
  net::FabricGraph graph;
  net::MaterializedFabric mat;
  /// Leaf-spine: the classic cross-leaf RTT formula; jellyfish:
  /// net::base_rtt(graph) (longest shortest host-pair route).
  sim::TimeNs base_rtt = 0;
  double host_rate_bps = 0;
  bool jellyfish = false;
  int k_paths = 8;
  /// Host object -> graph node id (filled by materialize_fabric).
  std::unordered_map<const net::Host*, int> host_node;
  /// pair_paths' result per ordered host pair.  On jellyfish it is stitched
  /// from `switch_paths`; no host pair runs Yen of its own.
  std::map<std::pair<int, int>, std::vector<std::vector<int>>> path_cache;
  /// Jellyfish only: the k-shortest table per switch pair, created and
  /// filled on first use by pair_paths.
  std::optional<net::HostPathTable> switch_paths;
};

/// Builds the graph + metadata for either fabric kind.  No Topology needed
/// yet.
BuiltFabric plan_fabric(const net::LeafSpineOptions& leaf_spine,
                        const std::optional<net::JellyfishOptions>& jellyfish,
                        int k_paths);

/// Materializes the planned graph into `topo` and fills the object-side
/// fields (mat, host_node).
void materialize_fabric(BuiltFabric& fabric, net::Topology& topo,
                        const net::QueueFactory& edge_queue,
                        const net::QueueFactory& core_queue = nullptr);

/// Path set (graph link ids) for one host pair: the COMPLETE shortest-path
/// set on leaf-spine (classic ECMP, no-silent-caps contract) or, on
/// jellyfish, the k shortest paths — the hosts' switch-pair entry of
/// `switch_paths` with the uplink and downlink attached, equal to host-level
/// net::k_shortest_paths.  Deterministic order; pick with net::ecmp_index.
/// Throws std::runtime_error when the pair has no route.
const std::vector<std::vector<int>>& pair_paths(BuiltFabric& fabric,
                                                int src_node, int dst_node);

/// The path flow `flow_index` (0-based, workload order) takes from `src` to
/// `dst`: pair_paths' ECMP pick by the flow id transport::Fabric assigns it
/// (flow_index + 1).  Every dual-fidelity runner routes through here, so
/// flow i takes the same links at either fidelity.
const std::vector<int>& flow_path(BuiltFabric& fabric, const net::Host* src,
                                  const net::Host* dst,
                                  std::size_t flow_index);

/// A link-id path as the packet engine's object path.
net::Path to_packet_path(const BuiltFabric& fabric,
                         const std::vector<int>& links);

/// Per-link capacities of a graph in NUM rate units, in graph link order —
/// equal to LinkIndexer::capacities() for the materialized topology.
std::vector<double> graph_capacities(const net::FabricGraph& graph);

/// Maps every link of a topology to a dense index and exposes capacities in
/// NUM rate units — the glue between the packet world and the fluid oracles.
class LinkIndexer {
 public:
  explicit LinkIndexer(const net::Topology& topo);

  int index(const net::Link* link) const;
  std::vector<int> path_indices(const net::Path& path) const;

  /// Per-link capacity in rate units (Mbps), same order as the indices.
  const std::vector<double>& capacities() const { return capacities_; }

 private:
  std::unordered_map<const net::Link*, int> index_;
  std::vector<double> capacities_;
};

/// Solver settings of the exact fluid system that ideal rates and flow
/// fidelity are measured against: tolerance 1e-8, wave-parallel on
/// `solver_threads` (bit-identical for any count).
num::NumSolverOptions oracle_solver_options(int solver_threads);

/// Builds the NUM problem for a set of active flows (shared utility objects
/// live in the caller).
num::NumProblem make_num_problem(const LinkIndexer& indexer,
                                 const std::vector<const transport::Flow*>& flows);

/// Average goodput of a flow (receiver bytes delta / window), in bps.
/// Snapshot `start` with flow.receiver().total_bytes() at window start.
double window_rate_bps(std::uint64_t start_bytes, std::uint64_t end_bytes,
                       sim::TimeNs window);

/// Jain's fairness index over per-flow rates: (sum x)^2 / (n * sum x^2).
/// 0 for an empty or all-zero input.
double jain_index(const std::vector<double>& rates);

/// Experiment scale.  Benches default to a laptop-quick configuration and
/// switch to the paper's full scale when NUMFABRIC_FULL=1 is set.
struct Scale {
  bool full = false;
  const char* label = "quick";

  // Leaf-spine size (paper: 16 x 8 leaves, 4 spines).
  int hosts_per_leaf = 8;
  int leaves = 4;
  int spines = 2;

  // Semi-dynamic scenario (paper: 1000 paths, 100x flows per event,
  // 100 events, 300-500 active).
  int num_paths = 240;
  int initial_active = 100;
  int flows_per_event = 25;
  int num_events = 8;
  int min_active = 75;
  int max_active = 125;
  /// Per-event convergence verdict timeout (paper-scale runs use 50 ms;
  /// quick runs cut losses earlier).
  sim::TimeNs convergence_timeout = sim::millis(20);

  // Dynamic workloads.
  int dynamic_flow_count = 1200;

  // Resource pooling (paper: 8 leaves, 16 spines, 64 pairs).
  int pooling_leaves = 4;
  int pooling_spines = 8;
  int pooling_hosts_per_leaf = 8;

  // Steady-state measurement window for throughput experiments.
  sim::TimeNs warmup = sim::millis(8);
  sim::TimeNs measure = sim::millis(12);
};

/// Reads NUMFABRIC_FULL from the environment.
Scale scale_from_env();

Scale quick_scale();
Scale full_scale();

}  // namespace numfabric::exp
