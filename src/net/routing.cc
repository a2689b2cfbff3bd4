#include "net/routing.h"

#include <algorithm>
#include <limits>
#include <queue>
#include <set>
#include <stdexcept>
#include <string>
#include <unordered_map>

namespace numfabric::net {
namespace {

/// BFS distances (in hops) from every node TO `dst`, following links forward.
std::unordered_map<const Node*, std::uint32_t> distances_to(const Topology& topo,
                                                            const Node* dst) {
  // BFS on the reverse graph: dist(n) = 1 + min over outgoing(n) of
  // dist(link->dst).
  std::unordered_map<const Node*, std::uint32_t> dist;
  std::queue<const Node*> frontier;
  dist[dst] = 0;
  frontier.push(dst);
  // Precompute reverse adjacency from every node's outgoing links.
  std::unordered_map<const Node*, std::vector<const Node*>> preds;
  auto collect = [&](const Node* node) {
    for (const Link* link : topo.outgoing(node)) {
      preds[link->dst()].push_back(node);
    }
  };
  for (const Host* h : topo.hosts()) collect(h);
  for (const Switch* s : topo.switches()) collect(s);

  while (!frontier.empty()) {
    const Node* node = frontier.front();
    frontier.pop();
    auto it = preds.find(node);
    if (it == preds.end()) continue;
    for (const Node* pred : it->second) {
      if (dist.contains(pred)) continue;
      dist[pred] = dist[node] + 1;
      frontier.push(pred);
    }
  }
  return dist;
}

using Dist = std::unordered_map<const Node*, std::uint32_t>;

/// True when `link` lies on some shortest path from its source node `at`.
bool on_shortest_path(const Dist& dist, const Node* at, const Link* link) {
  const auto here = dist.find(at);
  const auto next = dist.find(link->dst());
  return here != dist.end() && next != dist.end() &&
         next->second + 1 == here->second;
}

std::uint64_t saturating_add(std::uint64_t a, std::uint64_t b) {
  const std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
  return a > max - b ? max : a + b;
}

/// Shortest-path counts from every reachable node to dst, memoized.
std::uint64_t count_from(const Topology& topo, const Dist& dist, const Node* at,
                         const Node* dst,
                         std::unordered_map<const Node*, std::uint64_t>& memo) {
  if (at == dst) return 1;
  const auto cached = memo.find(at);
  if (cached != memo.end()) return cached->second;
  std::uint64_t count = 0;
  for (const Link* link : topo.outgoing(at)) {
    if (!on_shortest_path(dist, at, link)) continue;
    count = saturating_add(count, count_from(topo, dist, link->dst(), dst, memo));
  }
  memo[at] = count;
  return count;
}

void enumerate(const Topology& topo, const Dist& dist, const Node* at,
               const Node* dst, std::vector<Link*>& stack,
               std::vector<Path>& out) {
  if (at == dst) {
    out.push_back(Path{stack});
    return;
  }
  for (Link* link : topo.outgoing(at)) {
    if (!on_shortest_path(dist, at, link)) continue;
    stack.push_back(link);
    enumerate(topo, dist, link->dst(), dst, stack, out);
    stack.pop_back();
  }
}

/// Unranks path `rank` (0-based, creation order) without enumerating the
/// rest: at each node, eligible links are visited in creation order and the
/// rank indexes into the concatenation of their subtrees' path sets.
Path kth_path(const Topology& topo, const Dist& dist, const Node* src,
              const Node* dst, std::uint64_t rank,
              std::unordered_map<const Node*, std::uint64_t>& memo) {
  Path path;
  const Node* at = src;
  while (at != dst) {
    bool advanced = false;
    for (Link* link : topo.outgoing(at)) {
      if (!on_shortest_path(dist, at, link)) continue;
      const std::uint64_t below = count_from(topo, dist, link->dst(), dst, memo);
      if (rank < below) {
        path.links.push_back(link);
        at = link->dst();
        advanced = true;
        break;
      }
      rank -= below;
    }
    if (!advanced) throw std::logic_error("kth_path: rank out of range");
  }
  return path;
}

void check_endpoints(const Node* src, const Node* dst) {
  if (src == dst) throw std::invalid_argument("all_shortest_paths: src == dst");
}

}  // namespace

std::uint64_t count_shortest_paths(const Topology& topo, const Node* src,
                                   const Node* dst) {
  check_endpoints(src, dst);
  const Dist dist = distances_to(topo, dst);
  if (!dist.contains(src)) return 0;  // unreachable
  std::unordered_map<const Node*, std::uint64_t> memo;
  return count_from(topo, dist, src, dst, memo);
}

std::vector<Path> all_shortest_paths(const Topology& topo, const Node* src,
                                     const Node* dst) {
  check_endpoints(src, dst);
  const Dist dist = distances_to(topo, dst);
  std::vector<Path> paths;
  if (!dist.contains(src)) return paths;  // unreachable
  std::unordered_map<const Node*, std::uint64_t> memo;
  const std::uint64_t total = count_from(topo, dist, src, dst, memo);
  if (total > kMaxEnumeratedPaths) {
    throw std::length_error(
        "all_shortest_paths: " + std::to_string(total) +
        " shortest paths exceed the enumeration limit of " +
        std::to_string(kMaxEnumeratedPaths) +
        "; use sample_shortest_paths() to opt into a capped subset");
  }
  paths.reserve(static_cast<std::size_t>(total));
  std::vector<Link*> stack;
  enumerate(topo, dist, src, dst, stack, paths);
  return paths;
}

ShortestPathSample sample_shortest_paths(const Topology& topo, const Node* src,
                                         const Node* dst,
                                         std::size_t max_paths) {
  if (max_paths == 0) {
    throw std::invalid_argument("sample_shortest_paths: max_paths must be > 0");
  }
  check_endpoints(src, dst);
  ShortestPathSample sample;
  const Dist dist = distances_to(topo, dst);
  if (!dist.contains(src)) return sample;  // unreachable
  std::unordered_map<const Node*, std::uint64_t> memo;
  sample.total_paths = count_from(topo, dist, src, dst, memo);
  if (sample.total_paths <= max_paths) {
    std::vector<Link*> stack;
    sample.paths.reserve(static_cast<std::size_t>(sample.total_paths));
    enumerate(topo, dist, src, dst, stack, sample.paths);
    return sample;
  }
  sample.paths.reserve(max_paths);
  for (std::size_t i = 0; i < max_paths; ++i) {
    // floor(i * total / max_paths) in 128-bit so a saturated total cannot
    // overflow the stride arithmetic.
    const std::uint64_t rank = static_cast<std::uint64_t>(
        static_cast<unsigned __int128>(sample.total_paths) * i / max_paths);
    sample.paths.push_back(kth_path(topo, dist, src, dst, rank, memo));
  }
  return sample;
}

Path reverse_path(const Path& path) {
  Path rev;
  rev.links.reserve(path.links.size());
  for (auto it = path.links.rbegin(); it != path.links.rend(); ++it) {
    Link* twin = (*it)->twin();
    if (twin == nullptr) {
      throw std::logic_error("reverse_path: link without a twin: " + (*it)->name());
    }
    rev.links.push_back(twin);
  }
  return rev;
}

const Path& ecmp_pick(const std::vector<Path>& paths, FlowId flow) {
  if (paths.empty()) throw std::invalid_argument("ecmp_pick: no paths");
  return paths[ecmp_index(paths.size(), flow)];
}

std::size_t ecmp_index(std::size_t count, FlowId flow) {
  if (count == 0) throw std::invalid_argument("ecmp_index: no paths");
  // SplitMix64: avalanche the flow id so consecutive ids spread well.
  std::uint64_t h = flow + 0x9e3779b97f4a7c15ULL;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  h ^= h >> 31;
  // Fixed-point range reduction (Lemire): uses the high bits of the hash and
  // is free of the modulo bias that skews small non-power-of-two path sets.
  return static_cast<std::size_t>(
      (static_cast<unsigned __int128>(h) * count) >> 64);
}

// ---------------------------------------------------------------------------
// Graph routing
// ---------------------------------------------------------------------------

namespace {

/// BFS hop distances from every node TO `dst` over graph links, optionally
/// skipping banned nodes/links (Yen's filtered graph).  -1 = unreachable.
std::vector<int> graph_distances_to(const FabricGraph& graph, int dst,
                                    const std::vector<char>* banned_node,
                                    const std::vector<char>* banned_link) {
  std::vector<int> dist(static_cast<std::size_t>(graph.num_nodes()), -1);
  std::queue<int> frontier;
  dist[static_cast<std::size_t>(dst)] = 0;
  frontier.push(dst);
  while (!frontier.empty()) {
    const int at = frontier.front();
    frontier.pop();
    // Predecessors of `at` are the sources of its incoming links; incoming
    // link of a cable is the reverse of the outgoing one.
    for (int out : graph.outgoing(at)) {
      const int in = FabricGraph::reverse(out);
      if (banned_link != nullptr && (*banned_link)[static_cast<std::size_t>(in)]) {
        continue;
      }
      const int pred = graph.link_src(in);
      if (banned_node != nullptr && (*banned_node)[static_cast<std::size_t>(pred)]) {
        continue;
      }
      if (dist[static_cast<std::size_t>(pred)] >= 0) continue;
      dist[static_cast<std::size_t>(pred)] = dist[static_cast<std::size_t>(at)] + 1;
      frontier.push(pred);
    }
  }
  return dist;
}

std::uint64_t graph_count_from(const FabricGraph& graph,
                               const std::vector<int>& dist, int at, int dst,
                               std::vector<std::uint64_t>& memo) {
  if (at == dst) return 1;
  if (memo[static_cast<std::size_t>(at)] != std::numeric_limits<std::uint64_t>::max()) {
    return memo[static_cast<std::size_t>(at)];
  }
  std::uint64_t count = 0;
  for (int link : graph.outgoing(at)) {
    const int next = graph.link_dst(link);
    if (dist[static_cast<std::size_t>(next)] < 0 ||
        dist[static_cast<std::size_t>(next)] + 1 != dist[static_cast<std::size_t>(at)]) {
      continue;
    }
    count = saturating_add(count, graph_count_from(graph, dist, next, dst, memo));
  }
  memo[static_cast<std::size_t>(at)] = count;
  return count;
}

void graph_enumerate(const FabricGraph& graph, const std::vector<int>& dist,
                     int at, int dst, std::vector<int>& stack,
                     std::vector<std::vector<int>>& out) {
  if (at == dst) {
    out.push_back(stack);
    return;
  }
  for (int link : graph.outgoing(at)) {
    const int next = graph.link_dst(link);
    if (dist[static_cast<std::size_t>(next)] < 0 ||
        dist[static_cast<std::size_t>(next)] + 1 != dist[static_cast<std::size_t>(at)]) {
      continue;
    }
    stack.push_back(link);
    graph_enumerate(graph, dist, next, dst, stack, out);
    stack.pop_back();
  }
}

/// Reverse-BFS buffers shared by the spur searches of one k_shortest_paths
/// call.  `queue` holds every node the last search reached, so resetting
/// `dist` touches only those.
struct SpurSearch {
  std::vector<int> dist;   // hops to the search's dst; -1 = not reached
  std::vector<int> queue;  // BFS order

  explicit SpurSearch(int nodes) : dist(static_cast<std::size_t>(nodes), -1) {}
};

/// Lexicographically-smallest (by link id) shortest path src -> dst avoiding
/// banned nodes/links; empty when dst is unreachable.  Yen's spur search.
/// The reverse BFS from dst stops once it reaches src: by then every node
/// nearer to dst than src has its distance, and the greedy walk from src
/// reads no other node.
std::vector<int> lex_shortest_path(const FabricGraph& graph, int src, int dst,
                                   const std::vector<char>& banned_node,
                                   const std::vector<char>& banned_link,
                                   SpurSearch& search) {
  std::vector<int>& dist = search.dist;
  std::vector<int>& queue = search.queue;
  for (const int node : queue) dist[static_cast<std::size_t>(node)] = -1;
  queue.clear();
  dist[static_cast<std::size_t>(dst)] = 0;
  queue.push_back(dst);
  for (std::size_t head = 0;
       head < queue.size() && dist[static_cast<std::size_t>(src)] < 0; ++head) {
    const int at = queue[head];
    for (int out : graph.outgoing(at)) {
      const int in = FabricGraph::reverse(out);
      if (banned_link[static_cast<std::size_t>(in)]) continue;
      const int pred = graph.link_src(in);
      if (banned_node[static_cast<std::size_t>(pred)] ||
          dist[static_cast<std::size_t>(pred)] >= 0) {
        continue;
      }
      dist[static_cast<std::size_t>(pred)] =
          dist[static_cast<std::size_t>(at)] + 1;
      queue.push_back(pred);
    }
  }
  if (dist[static_cast<std::size_t>(src)] < 0) return {};
  std::vector<int> path;
  int at = src;
  while (at != dst) {
    int chosen = -1;
    for (int link : graph.outgoing(at)) {
      if (banned_link[static_cast<std::size_t>(link)]) continue;
      const int next = graph.link_dst(link);
      if (banned_node[static_cast<std::size_t>(next)]) continue;
      if (dist[static_cast<std::size_t>(next)] < 0 ||
          dist[static_cast<std::size_t>(next)] + 1 != dist[static_cast<std::size_t>(at)]) {
        continue;
      }
      if (chosen < 0 || link < chosen) chosen = link;
    }
    if (chosen < 0) return {};  // src reachable but greedy walk fenced off
    path.push_back(chosen);
    at = graph.link_dst(chosen);
  }
  return path;
}

void check_graph_endpoints(const FabricGraph& graph, int src, int dst,
                           const char* what) {
  if (src < 0 || src >= graph.num_nodes() || dst < 0 || dst >= graph.num_nodes()) {
    throw std::invalid_argument(std::string(what) + ": unknown node");
  }
  if (src == dst) {
    throw std::invalid_argument(std::string(what) + ": src == dst");
  }
}

}  // namespace

std::vector<std::vector<int>> all_shortest_paths(const FabricGraph& graph,
                                                 int src, int dst) {
  check_graph_endpoints(graph, src, dst, "all_shortest_paths");
  const std::vector<int> dist = graph_distances_to(graph, dst, nullptr, nullptr);
  std::vector<std::vector<int>> paths;
  if (dist[static_cast<std::size_t>(src)] < 0) return paths;  // unreachable
  std::vector<std::uint64_t> memo(static_cast<std::size_t>(graph.num_nodes()),
                                  std::numeric_limits<std::uint64_t>::max());
  const std::uint64_t total = graph_count_from(graph, dist, src, dst, memo);
  if (total > kMaxEnumeratedPaths) {
    throw std::length_error(
        "all_shortest_paths: " + std::to_string(total) +
        " shortest paths exceed the enumeration limit of " +
        std::to_string(kMaxEnumeratedPaths) +
        "; use sample_shortest_paths() to opt into a capped subset");
  }
  paths.reserve(static_cast<std::size_t>(total));
  std::vector<int> stack;
  graph_enumerate(graph, dist, src, dst, stack, paths);
  return paths;
}

std::vector<std::vector<int>> k_shortest_paths(const FabricGraph& graph,
                                               int src, int dst, std::size_t k) {
  check_graph_endpoints(graph, src, dst, "k_shortest_paths");
  if (k == 0) throw std::invalid_argument("k_shortest_paths: k must be > 0");
  if (k > kMaxEnumeratedPaths) {
    throw std::length_error(
        "k_shortest_paths: k = " + std::to_string(k) +
        " exceeds the enumeration limit of " +
        std::to_string(kMaxEnumeratedPaths) +
        "; request a smaller path budget explicitly");
  }
  const std::vector<char> no_node(static_cast<std::size_t>(graph.num_nodes()), 0);
  const std::vector<char> no_link(static_cast<std::size_t>(graph.num_links()), 0);
  SpurSearch search(graph.num_nodes());
  std::vector<int> first =
      lex_shortest_path(graph, src, dst, no_node, no_link, search);
  if (first.empty()) return {};
  std::vector<std::vector<int>> result;
  result.push_back(std::move(first));
  const auto shorter = [](const std::vector<int>& a, const std::vector<int>& b) {
    return a.size() != b.size() ? a.size() < b.size() : a < b;
  };
  std::set<std::vector<int>, decltype(shorter)> candidates(shorter);
  while (result.size() < k) {
    // Yen: spur off every prefix of the most recently accepted path.
    const std::vector<int> prev = result.back();
    std::vector<char> banned_node(static_cast<std::size_t>(graph.num_nodes()), 0);
    int spur = src;
    for (std::size_t j = 0; j < prev.size(); ++j) {
      std::vector<char> banned_link(static_cast<std::size_t>(graph.num_links()), 0);
      // Paths sharing the root prefix must leave the spur node differently.
      for (const std::vector<int>& p : result) {
        if (p.size() > j && std::equal(p.begin(), p.begin() + static_cast<std::ptrdiff_t>(j),
                                       prev.begin())) {
          banned_link[static_cast<std::size_t>(p[j])] = 1;
        }
      }
      const std::vector<int> detour =
          lex_shortest_path(graph, spur, dst, banned_node, banned_link, search);
      if (!detour.empty()) {
        std::vector<int> candidate(prev.begin(),
                                   prev.begin() + static_cast<std::ptrdiff_t>(j));
        candidate.insert(candidate.end(), detour.begin(), detour.end());
        candidates.insert(std::move(candidate));
      }
      banned_node[static_cast<std::size_t>(spur)] = 1;  // root node, for later spurs
      spur = graph.link_dst(prev[j]);
    }
    if (candidates.empty()) break;  // graph exhausted: fewer than k paths exist
    result.push_back(*candidates.begin());
    candidates.erase(candidates.begin());
  }
  return result;
}

HostPathTable::HostPathTable(const FabricGraph& graph, std::size_t k) : k_(k) {
  if (k == 0) throw std::invalid_argument("HostPathTable: k must be > 0");
  if (k > kMaxEnumeratedPaths) {
    throw std::length_error("HostPathTable: k exceeds kMaxEnumeratedPaths");
  }
  uplink_.assign(static_cast<std::size_t>(graph.num_nodes()), -1);
  switch_.assign(static_cast<std::size_t>(graph.num_nodes()), -1);
  for (int n = 0; n < graph.num_nodes(); ++n) {
    const auto kind = graph.nodes()[static_cast<std::size_t>(n)].kind;
    if (kind != GraphNodeKind::kHost) continue;
    const int up = graph.host_uplink(n);
    hosts_.push_back(n);
    uplink_[static_cast<std::size_t>(n)] = up;
    switch_[static_cast<std::size_t>(n)] = graph.link_dst(up);
  }
}

std::vector<int> HostPathTable::HostPaths::operator[](std::size_t i) const {
  const std::vector<int>& middle = (*core)[i];
  std::vector<int> path;
  path.reserve(middle.size() + 2);
  path.push_back(up);
  path.insert(path.end(), middle.begin(), middle.end());
  path.push_back(down);
  return path;
}

HostPathTable::HostPaths HostPathTable::lookup(const FabricGraph& graph,
                                               int src, int dst) {
  HostPaths paths = host_links(src, dst);
  const auto key = switch_pair(src, dst);
  auto [it, fresh] = switch_paths_.try_emplace(key);
  if (fresh) {
    if (key.first == key.second) {
      it->second.emplace_back();  // same switch: no core hop
    } else {
      it->second = k_shortest_paths(graph, key.first, key.second, k_);
    }
  }
  paths.core = &it->second;
  return paths;
}

void HostPathTable::fill(const FabricGraph& graph) {
  for (const int src : hosts_) {
    for (const int dst : hosts_) {
      if (src == dst || lookup(graph, src, dst).size() > 0) continue;
      throw std::runtime_error(
          "HostPathTable: no route between hosts '" +
          graph.nodes()[static_cast<std::size_t>(src)].name + "' and '" +
          graph.nodes()[static_cast<std::size_t>(dst)].name + "'");
    }
  }
}

HostPathTable::HostPaths HostPathTable::filled(int src, int dst) const {
  HostPaths paths = host_links(src, dst);
  const auto it = switch_paths_.find(switch_pair(src, dst));
  if (it == switch_paths_.end()) {
    throw std::logic_error("HostPathTable::filled: pair not looked up yet");
  }
  paths.core = &it->second;
  return paths;
}

HostPathTable::HostPaths HostPathTable::host_links(int src, int dst) const {
  const auto uplink = [this](int node) {
    const auto n = static_cast<std::size_t>(node);
    if (node < 0 || n >= uplink_.size() || uplink_[n] < 0) {
      throw std::invalid_argument("HostPathTable: node is not a host");
    }
    return uplink_[n];
  };
  if (src == dst) throw std::invalid_argument("HostPathTable: src == dst");
  return {uplink(src), FabricGraph::reverse(uplink(dst)), nullptr};
}

std::pair<int, int> HostPathTable::switch_pair(int src, int dst) const {
  return {switch_[static_cast<std::size_t>(src)],
          switch_[static_cast<std::size_t>(dst)]};
}

}  // namespace numfabric::net
