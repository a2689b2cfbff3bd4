// Jellyfish host paths from the switch-pair k-shortest table:
//
//  * exp::pair_paths equals host-level net::k_shortest_paths, order
//    included, on every ordered host pair of two small wirings and on
//    seeded pairs of the 32-switch perfbench wiring at k = 1, 8 and 16;
//  * flowsim::VirtualFabric and exp::flow_path pick the same links for the
//    same pair and flow id;
//  * net::HostPathTable's same-switch case, lazy fill and contract errors.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/common.h"
#include "flowsim/virtual_fabric.h"
#include "net/routing.h"
#include "net/topology.h"
#include "sim/simulator.h"

namespace numfabric {
namespace {

net::JellyfishOptions wiring(int switches, int ports, int hosts,
                             std::uint64_t seed) {
  return {.switches = switches, .ports = ports, .hosts = hosts, .seed = seed};
}

exp::BuiltFabric jellyfish_fabric(const net::JellyfishOptions& options,
                                  int k_paths) {
  return exp::plan_fabric(net::LeafSpineOptions{}, options, k_paths);
}

std::vector<int> host_nodes(const net::FabricGraph& graph) {
  std::vector<int> hosts;
  for (int n = 0; n < graph.num_nodes(); ++n) {
    if (graph.nodes()[static_cast<std::size_t>(n)].kind ==
        net::GraphNodeKind::kHost) {
      hosts.push_back(n);
    }
  }
  return hosts;
}

TEST(HostPathsTest, PairPathsEqualHostLevelYenOnEveryPair) {
  for (const auto& options : {wiring(12, 4, 24, 7), wiring(16, 4, 32, 7)}) {
    exp::BuiltFabric fabric = jellyfish_fabric(options, 4);
    const std::vector<int> hosts = host_nodes(fabric.graph);
    int pairs = 0;
    for (const int src : hosts) {
      for (const int dst : hosts) {
        if (src == dst) continue;
        ++pairs;
        ASSERT_EQ(exp::pair_paths(fabric, src, dst),
                  net::k_shortest_paths(fabric.graph, src, dst, 4))
            << options.switches << " switches: " << src << " -> " << dst;
      }
    }
    EXPECT_EQ(pairs, options.hosts * (options.hosts - 1));
  }
}

TEST(HostPathsTest, PairPathsEqualHostLevelYenOnSeededLargePairs) {
  const net::JellyfishOptions options = wiring(32, 8, 256, 1);
  for (const int k : {1, 8, 16}) {
    exp::BuiltFabric fabric = jellyfish_fabric(options, k);
    const std::vector<int> hosts = host_nodes(fabric.graph);
    std::mt19937_64 rng(20160822 + static_cast<std::uint64_t>(k));
    for (int i = 0; i < 2000; ++i) {
      const int src = hosts[rng() % hosts.size()];
      int dst = hosts[rng() % (hosts.size() - 1)];
      if (dst >= src) ++dst;  // distinct; host ids are contiguous
      ASSERT_EQ(exp::pair_paths(fabric, src, dst),
                net::k_shortest_paths(fabric.graph, src, dst,
                                      static_cast<std::size_t>(k)))
          << "k=" << k << ": " << src << " -> " << dst;
    }
  }
}

TEST(HostPathsTest, VirtualFabricAndFlowPathPickTheSameLinks) {
  const net::JellyfishOptions options = wiring(12, 4, 24, 7);
  const int k = 4;
  exp::BuiltFabric fabric = jellyfish_fabric(options, k);
  sim::Simulator sim;
  net::Topology topo(sim);
  exp::materialize_fabric(fabric, topo, net::drop_tail_factory());
  const flowsim::VirtualFabric virtual_fabric =
      flowsim::VirtualFabric::from_graph(fabric.graph, k);
  ASSERT_EQ(virtual_fabric.hosts(), options.hosts);
  ASSERT_EQ(virtual_fabric.links(), fabric.graph.num_links());
  std::size_t flow_index = 0;
  for (int src = 0; src < options.hosts; ++src) {
    for (int dst = 0; dst < options.hosts; ++dst) {
      if (src == dst) continue;
      for (int repeat = 0; repeat < 4; ++repeat, ++flow_index) {
        ASSERT_EQ(virtual_fabric.path(src, dst, flow_index + 1),
                  exp::flow_path(fabric,
                                 fabric.mat.hosts[static_cast<std::size_t>(src)],
                                 fabric.mat.hosts[static_cast<std::size_t>(dst)],
                                 flow_index))
            << src << " -> " << dst << " flow " << flow_index;
      }
    }
  }
}

TEST(HostPathsTest, SameSwitchHostsTakeUplinkThenDownlink) {
  // 4 switches, 8 hosts: host h hangs off switch h % 4, so hosts 4 and 8
  // (graph nodes; switches come first) share switch 0.
  const net::FabricGraph graph = net::make_jellyfish(wiring(4, 3, 8, 1));
  net::HostPathTable table(graph, 8);
  const int a = 4;
  const int b = 8;
  ASSERT_EQ(graph.link_dst(graph.host_uplink(a)),
            graph.link_dst(graph.host_uplink(b)));
  const auto paths = table.lookup(graph, a, b);
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0], (std::vector<int>{
                          graph.host_uplink(a),
                          net::FabricGraph::reverse(graph.host_uplink(b))}));
  EXPECT_EQ(paths[0], net::k_shortest_paths(graph, a, b, 8).front());
}

TEST(HostPathsTest, TableFillsLazilyAndChecksItsContract) {
  const net::FabricGraph graph = net::make_jellyfish(wiring(6, 3, 8, 7));
  net::HostPathTable table(graph, 4);
  EXPECT_EQ(table.hosts(), host_nodes(graph));
  const int a = table.hosts()[0];
  const int b = table.hosts()[1];
  EXPECT_THROW(table.filled(a, b), std::logic_error);  // not looked up yet
  const auto looked_up = table.lookup(graph, a, b);
  EXPECT_EQ(table.filled(a, b).core, looked_up.core);
  EXPECT_THROW(table.filled(b, a), std::logic_error);  // ordered pairs
  table.fill(graph);
  EXPECT_EQ(table.filled(b, a)[0], net::k_shortest_paths(graph, b, a, 4)[0]);

  EXPECT_THROW(table.lookup(graph, a, a), std::invalid_argument);
  EXPECT_THROW(table.lookup(graph, 0, b), std::invalid_argument);  // a switch
  EXPECT_THROW(table.lookup(graph, a, graph.num_nodes()), std::invalid_argument);
  EXPECT_THROW(net::HostPathTable(graph, 0), std::invalid_argument);
  EXPECT_THROW(net::HostPathTable(graph, net::kMaxEnumeratedPaths + 1),
               std::length_error);
}

TEST(HostPathsTest, UnreachablePairsFailLoudlyEveryTime) {
  // Two islands: host a on switch s, host b on switch t, no s-t cable.
  net::FabricGraph graph;
  const int s = graph.add_switch("s");
  const int t = graph.add_switch("t");
  const int a = graph.add_host("a");
  const int b = graph.add_host("b");
  graph.add_cable(a, s, 10e9, sim::micros(1));
  graph.add_cable(b, t, 10e9, sim::micros(1));

  net::HostPathTable table(graph, 4);
  EXPECT_EQ(table.lookup(graph, a, b).size(), 0u);
  EXPECT_THROW(table.fill(graph), std::runtime_error);
  EXPECT_THROW(flowsim::VirtualFabric::from_graph(graph, 4),
               std::runtime_error);

  exp::BuiltFabric fabric;
  fabric.graph = graph;
  fabric.jellyfish = true;
  fabric.k_paths = 4;
  for (int attempt = 0; attempt < 2; ++attempt) {  // nothing empty is cached
    try {
      exp::pair_paths(fabric, a, b);
      ADD_FAILURE() << "pair_paths found a route between islands";
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what()).find("pair_paths: no route"),
                std::string::npos)
          << error.what();
    }
  }
}

}  // namespace
}  // namespace numfabric
