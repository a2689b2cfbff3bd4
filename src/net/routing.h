// Path enumeration and ECMP selection.
//
// Flows are source-routed: at flow start a path is picked among all
// equal-cost shortest paths (by hop count), either by hash (per-flow ECMP) or
// uniformly at random (how the MPTCP experiment of Fig. 8 maps sub-flows to
// paths).  See DESIGN.md §5 for why this is equivalent to per-hop ECMP in the
// paper's setting.
#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "net/packet.h"
#include "net/topology.h"

namespace numfabric::net {

/// Largest shortest-path set all_shortest_paths() will enumerate.  Beyond
/// this a fabric is pathological for source routing and the caller must opt
/// into sampling explicitly (sample_shortest_paths) instead of silently
/// losing path diversity.
inline constexpr std::size_t kMaxEnumeratedPaths = 4096;

/// All shortest paths (fewest links) from src to dst, in deterministic order
/// (by link creation order) so path selection is reproducible.  The COMPLETE
/// set is returned — there is no silent cap.  Throws std::length_error when
/// the set exceeds kMaxEnumeratedPaths; callers that can live with a subset
/// opt in via sample_shortest_paths().
std::vector<Path> all_shortest_paths(const Topology& topo, const Node* src,
                                     const Node* dst);

/// Number of distinct shortest paths from src to dst (counted by dynamic
/// programming, not enumeration — cheap even when the set is huge).
/// Saturates at std::uint64_t max.
std::uint64_t count_shortest_paths(const Topology& topo, const Node* src,
                                   const Node* dst);

/// Result of the capped enumeration: the chosen subset plus the size of the
/// full set, so callers always see when (and how much) was dropped.
struct ShortestPathSample {
  std::vector<Path> paths;
  /// Size of the complete shortest-path set (counted, not enumerated).
  std::uint64_t total_paths = 0;

  bool capped() const { return total_paths > paths.size(); }
};

/// At most `max_paths` shortest paths.  When the full set fits this is
/// exactly all_shortest_paths(); when it does not, the subset is picked at
/// an even deterministic stride over the full creation-ordered set (path
/// ranks floor(i * total / max_paths)) rather than a creation-order prefix,
/// so wide fabrics keep their spine diversity instead of biasing toward
/// early-created links.  Selected paths are unranked directly — the full set
/// is never materialized.
ShortestPathSample sample_shortest_paths(const Topology& topo, const Node* src,
                                         const Node* dst,
                                         std::size_t max_paths);

/// Builds the reverse of `path` out of twin links (dst back to src).
Path reverse_path(const Path& path);

/// Deterministic ECMP pick: hash the flow id over the path set.  SplitMix64
/// mixing plus fixed-point (multiply-shift) range reduction, so sequential
/// flow ids spread evenly and no path set size suffers modulo bias.
const Path& ecmp_pick(const std::vector<Path>& paths, FlowId flow);

/// The index ecmp_pick() would choose among `count` alternatives — exposed so
/// link-id path sets (graph routing, flow fidelity) select the same path for
/// a flow as the object-path overload.  Throws on count == 0.
std::size_t ecmp_index(std::size_t count, FlowId flow);

// ---------------------------------------------------------------------------
// Graph routing: path sets as directed-link-id sequences over a FabricGraph.
// A graph link id is also the dense Topology::links() index after
// materialize(), so these paths serve both fidelities without translation.
// ---------------------------------------------------------------------------

/// All shortest paths from graph node `src` to `dst`, in the same
/// deterministic (cable-insertion) order as the Topology overload; the same
/// no-silent-caps contract applies (std::length_error past
/// kMaxEnumeratedPaths).
std::vector<std::vector<int>> all_shortest_paths(const FabricGraph& graph,
                                                 int src, int dst);

/// Yen-style k shortest loop-free paths by hop count, for fabrics without
/// equal-cost path classes (jellyfish).  Deterministic: the first path is the
/// lexicographically smallest (by link id) shortest path and candidates are
/// ordered by (length, link sequence).  Returns fewer than k when the graph
/// has no more loop-free paths.  The no-silent-caps contract applies to the
/// *request*: asking for k > kMaxEnumeratedPaths throws std::length_error
/// instead of quietly clamping.  Throws std::invalid_argument on src == dst
/// or k == 0.
std::vector<std::vector<int>> k_shortest_paths(const FabricGraph& graph,
                                               int src, int dst, std::size_t k);

/// k_shortest_paths between hosts, served from one k-shortest table per
/// ordered switch pair.  A host has exactly one cable
/// (FabricGraph::host_uplink), so every loop-free route between two hosts
/// leaves by the source's uplink and arrives by the destination's downlink:
/// the pair's k shortest paths are the k shortest between the two hosts'
/// switches with those two links attached — host-level k_shortest_paths
/// element for element, order included.  A same-switch pair has the single
/// path {up, down}.  Yen runs at most once per ordered pair of host-bearing
/// switches instead of once per host pair.
///
/// The table keeps no reference to the graph: the calls that may run Yen
/// take it as an argument, and it must be the graph the table was built
/// from.
class HostPathTable {
 public:
  /// The paths between two hosts, viewing one switch-pair entry: path i is
  /// `up`, then `(*core)[i]`, then `down`.  Valid while the table lives.
  struct HostPaths {
    int up = -1;
    int down = -1;
    const std::vector<std::vector<int>>* core = nullptr;

    /// Number of paths; 0 when the two switches are not connected.
    std::size_t size() const { return core->size(); }
    /// Path i as graph link ids.
    std::vector<int> operator[](std::size_t i) const;
  };

  /// Indexes the graph's hosts and their switches; runs no Yen.  The
  /// k_shortest_paths contract applies to k: 0 throws
  /// std::invalid_argument, k > kMaxEnumeratedPaths std::length_error.
  HostPathTable(const FabricGraph& graph, std::size_t k);

  /// Graph node ids of the hosts, in node order.
  const std::vector<int>& hosts() const { return hosts_; }

  /// Paths between hosts `src` and `dst` (distinct graph node ids), running
  /// Yen for their switch pair on first use.  Throws std::invalid_argument
  /// when either node is not a host or src == dst.
  HostPaths lookup(const FabricGraph& graph, int src, int dst);

  /// Looks up every host pair now.  Throws std::runtime_error naming the
  /// two hosts when a pair has no route.
  void fill(const FabricGraph& graph);

  /// lookup() for a pair whose switch pair is already filled; never runs
  /// Yen.  Throws std::logic_error when it is not.
  HostPaths filled(int src, int dst) const;

 private:
  /// The pair's uplink and downlink, after validating the hosts.
  HostPaths host_links(int src, int dst) const;
  std::pair<int, int> switch_pair(int src, int dst) const;

  std::size_t k_ = 0;
  std::vector<int> hosts_;
  std::vector<int> uplink_;  // per graph node; -1 for switches
  std::vector<int> switch_;  // per graph node: the host's switch
  /// Switch-level paths per ordered switch pair; (a, a) holds one empty
  /// path (same-switch hosts need no core hop).
  std::map<std::pair<int, int>, std::vector<std::vector<int>>> switch_paths_;
};

}  // namespace numfabric::net
