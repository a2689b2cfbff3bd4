// Arithmetic leaf-spine fabric for the flow-fluid engine.
//
// The packet substrate builds a real net::Topology — switch objects, queues,
// per-port state — which is exactly the memory the 10^5-10^6 flow regime
// cannot afford.  A VirtualLeafSpine is the same leaf-spine expressed as pure
// index arithmetic: a link is an integer, a path is at most four integers and
// the whole fabric is one capacity vector for CsrProblem::compile.  Layout:
//
//   [0, H)              host h -> leaf(h) uplink        (host_rate)
//   [H, 2H)             leaf(h) -> host h downlink      (host_rate)
//   [2H, 2H + L*S)      leaf l -> spine s  (l*S + s)    (leaf_spine_rate)
//   [2H + L*S, 2H+2LS)  spine s -> leaf l  (l*S + s)    (leaf_spine_rate)
//
// with H = hosts, L = leaves, S = spines and leaf(h) = h / hosts_per_leaf.
// Cross-leaf paths pick their spine by hashing a caller-supplied tiebreak
// (the flow id), the virtual analogue of per-flow ECMP — deterministic and
// seed-free.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "net/fabric_graph.h"
#include "net/routing.h"

namespace numfabric::flowsim {

struct VirtualLeafSpine {
  int hosts_per_leaf = 1;
  int leaves = 1;
  int spines = 1;
  double host_rate = 0.0;        // rate units (Mbps)
  double leaf_spine_rate = 0.0;  // rate units (Mbps)

  int hosts() const { return hosts_per_leaf * leaves; }
  int links() const { return 2 * hosts() + 2 * leaves * spines; }
  int leaf_of(int host) const { return host / hosts_per_leaf; }

  /// Per-link capacities in layout order (CsrProblem input).
  std::vector<double> capacities() const;

  /// Link indices from `src` to `dst` (distinct hosts).  Same-leaf pairs use
  /// {uplink, downlink}; cross-leaf pairs add the leaf->spine->leaf hop with
  /// the spine chosen by hashing `tiebreak`.
  std::vector<int> path(int src, int dst, std::uint64_t tiebreak) const;
};

/// The general form: any FabricGraph reduced to a capacity vector plus its
/// net::HostPathTable, so mega-fct-scale runs work on arbitrary fabrics
/// (jellyfish) with the same integer-only interface as VirtualLeafSpine.
/// The table is the one exp::pair_paths serves the packet and flow runners
/// from, filled eagerly here; the per-flow pick uses net::ecmp_index, so a
/// flow id takes the same links as exp::flow_path gives it.
class VirtualFabric {
 public:
  /// Builds the capacity vector (num::to_rate_units of each graph link) and
  /// fills the k-path table for every ordered pair of host-bearing switches.
  /// Throws std::invalid_argument when the graph has < 2 hosts and
  /// std::runtime_error when some host pair has no route.
  static VirtualFabric from_graph(const net::FabricGraph& graph, int k_paths);

  int hosts() const { return static_cast<int>(paths_.hosts().size()); }
  int links() const { return static_cast<int>(capacities_.size()); }

  /// Per-link capacities in graph link order (CsrProblem input) — identical
  /// to the packet engine's LinkIndexer order for the same graph.
  const std::vector<double>& capacities() const { return capacities_; }

  /// Link indices from host `src` to host `dst` (distinct; hosts are
  /// numbered in graph node order), choosing among the pair's k paths by
  /// hashing `tiebreak`.
  std::vector<int> path(int src, int dst, std::uint64_t tiebreak) const;

 private:
  VirtualFabric(std::vector<double> capacities, net::HostPathTable paths)
      : capacities_(std::move(capacities)), paths_(std::move(paths)) {}

  std::vector<double> capacities_;
  net::HostPathTable paths_;
};

}  // namespace numfabric::flowsim
