#include "flowsim/virtual_fabric.h"

#include <stdexcept>

#include "net/routing.h"
#include "num/utility.h"

namespace numfabric::flowsim {
namespace {

// SplitMix64 finalizer: a cheap, well-mixed hash for the per-flow spine
// pick.  Any fixed mixer works — it only has to spread consecutive flow ids
// across spines deterministically.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

std::vector<double> VirtualLeafSpine::capacities() const {
  if (hosts_per_leaf < 1 || leaves < 1 || spines < 1) {
    throw std::invalid_argument("VirtualLeafSpine: non-positive dimension");
  }
  if (host_rate <= 0 || leaf_spine_rate <= 0) {
    throw std::invalid_argument("VirtualLeafSpine: non-positive rate");
  }
  std::vector<double> caps(static_cast<std::size_t>(links()));
  const int h = hosts();
  for (int i = 0; i < 2 * h; ++i) caps[static_cast<std::size_t>(i)] = host_rate;
  for (int i = 2 * h; i < links(); ++i) {
    caps[static_cast<std::size_t>(i)] = leaf_spine_rate;
  }
  return caps;
}

std::vector<int> VirtualLeafSpine::path(int src, int dst,
                                        std::uint64_t tiebreak) const {
  if (src == dst || src < 0 || dst < 0 || src >= hosts() || dst >= hosts()) {
    throw std::invalid_argument("VirtualLeafSpine: bad host pair");
  }
  const int h = hosts();
  const int up = src;
  const int down = h + dst;
  const int src_leaf = leaf_of(src);
  const int dst_leaf = leaf_of(dst);
  if (src_leaf == dst_leaf) return {up, down};
  const int spine = static_cast<int>(
      mix64(tiebreak) % static_cast<std::uint64_t>(spines));
  const int leaf_up = 2 * h + src_leaf * spines + spine;
  const int spine_down = 2 * h + leaves * spines + dst_leaf * spines + spine;
  return {up, leaf_up, spine_down, down};
}

VirtualFabric VirtualFabric::from_graph(const net::FabricGraph& graph,
                                        int k_paths) {
  if (k_paths < 1) {
    throw std::invalid_argument("VirtualFabric: k_paths must be >= 1");
  }
  if (graph.num_hosts() < 2) {
    throw std::invalid_argument("VirtualFabric: need at least 2 hosts");
  }
  std::vector<double> capacities;
  capacities.reserve(static_cast<std::size_t>(graph.num_links()));
  for (int link = 0; link < graph.num_links(); ++link) {
    capacities.push_back(num::to_rate_units(graph.link_rate_bps(link)));
  }
  net::HostPathTable paths(graph, static_cast<std::size_t>(k_paths));
  paths.fill(graph);
  return VirtualFabric(std::move(capacities), std::move(paths));
}

std::vector<int> VirtualFabric::path(int src, int dst,
                                     std::uint64_t tiebreak) const {
  if (src == dst || src < 0 || dst < 0 || src >= hosts() || dst >= hosts()) {
    throw std::invalid_argument("VirtualFabric: bad host pair");
  }
  const auto choices =
      paths_.filled(paths_.hosts()[static_cast<std::size_t>(src)],
                    paths_.hosts()[static_cast<std::size_t>(dst)]);
  return choices[net::ecmp_index(choices.size(), tiebreak)];
}

}  // namespace numfabric::flowsim
