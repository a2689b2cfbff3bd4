// Parity between the batched transport::ControlPlane and the legacy
// object-per-link agents it replaced.
//
// Two layers:
//  * link-for-link unit parity — identical packet sequences driven through a
//    Link wired to a ControlPlane slot and a Link carrying the legacy agent,
//    asserting bit-identical prices/stamps across updates.  Covers the
//    backlog => utilization = 1 rule, residual reset between intervals, beta
//    smoothing, and RCP*'s per-tick (vs per-packet) R^-alpha stamp.
//  * whole-simulation parity — the same fixed-seed traffic experiment run
//    under FabricOptions::legacy_link_agents and under the batched control
//    plane, asserting identical packet-level results (FCTs, goodput, drops)
//    for all three price-carrying schemes.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "exp/traffic_experiment.h"
#include "net/drop_tail_queue.h"
#include "net/link.h"
#include "net/node.h"
#include "net/topology.h"
#include "sim/simulator.h"
#include "transport/control_plane.h"
#include "transport/dgd/dgd_link_agent.h"
#include "transport/fabric.h"
#include "transport/numfabric/xwi_link_agent.h"
#include "transport/rcp/rcp_link_agent.h"

namespace numfabric::transport {
namespace {

net::Packet data_packet(double residual, std::uint32_t size = 1500) {
  net::Packet p;
  p.flow = 1;
  p.type = net::PacketType::kData;
  p.size = size;
  p.normalized_residual = residual;
  return p;
}

/// Two identical one-link worlds: one wired through a batched ControlPlane,
/// one carrying the legacy agent.  `drive` injects the same traffic into
/// both; afterwards the per-update state must match bit-for-bit.
struct ParityRig {
  sim::Simulator batched_sim;
  net::Topology batched_topo{batched_sim};
  std::unique_ptr<ControlPlane> plane;
  net::Link* batched_link = nullptr;
  net::Host* batched_dst = nullptr;

  sim::Simulator legacy_sim;
  net::Topology legacy_topo{legacy_sim};
  net::Link* legacy_link = nullptr;
  net::Host* legacy_dst = nullptr;

  explicit ParityRig(const ControlPlane::Params& params,
                     double rate_bps = 10e9) {
    const auto build = [rate_bps](net::Topology& topo, net::Host** dst) {
      net::Host* a = topo.add_host("a");
      net::Host* b = topo.add_host("b");
      topo.connect(a, b, rate_bps, sim::micros(1), [] {
        return std::make_unique<net::DropTailQueue>(1'000'000);
      });
      *dst = b;
      return topo.links()[0].get();
    };
    batched_link = build(batched_topo, &batched_dst);
    legacy_link = build(legacy_topo, &legacy_dst);
    plane = ControlPlane::attach(batched_sim, params, batched_topo);

    switch (params.scheme) {
      case Scheme::kNumFabric: {
        const auto& c = params.numfabric;
        legacy_link->set_agent(std::make_unique<XwiLinkAgent>(
            legacy_sim, *legacy_link,
            XwiLinkAgent::Params{c.price_update_interval, c.eta, c.beta,
                                 c.initial_price}));
        break;
      }
      case Scheme::kDgd:
        legacy_link->set_agent(
            std::make_unique<DgdLinkAgent>(legacy_sim, *legacy_link, params.dgd));
        break;
      case Scheme::kRcpStar:
        legacy_link->set_agent(
            std::make_unique<RcpLinkAgent>(legacy_sim, *legacy_link, params.rcp));
        break;
      default:
        break;
    }
  }

  /// Runs `inject(link)` at `at` in both worlds.
  template <typename F>
  void drive(sim::TimeNs at, F inject) {
    batched_sim.schedule_at(at, [this, inject] { inject(*batched_link); });
    legacy_sim.schedule_at(at, [this, inject] { inject(*legacy_link); });
  }

  void run_until(sim::TimeNs until) {
    batched_sim.run_until(until);
    legacy_sim.run_until(until);
  }
};

TEST(ControlPlaneParityTest, XwiPriceMatchesLegacyAcrossUpdates) {
  ControlPlane::Params params;
  params.scheme = Scheme::kNumFabric;
  ParityRig rig(params);
  const auto* legacy =
      dynamic_cast<const XwiLinkAgent*>(rig.legacy_link->agent());
  ASSERT_NE(legacy, nullptr);

  // A mix of residual observations and serviced bytes across several
  // intervals, including an interval with no traffic at all (only the
  // under-utilization decay acts) and one with a negative min residual.
  const double residuals[] = {0.5, -0.3, 0.1, 0.02};
  for (int i = 0; i < 4; ++i) {
    rig.drive(sim::micros(3 + 7 * i), [r = residuals[i]](net::Link& link) {
      link.send(data_packet(r));
    });
  }
  // Interval [60, 90) stays idle; traffic resumes afterwards.
  rig.drive(sim::micros(95), [](net::Link& link) {
    link.send(data_packet(0.25, 60'000));
  });

  for (int update = 1; update <= 5; ++update) {
    rig.run_until(sim::micros(30 * update));
    EXPECT_EQ(rig.plane->price(0), legacy->price())
        << "xWI price diverged at update " << update;
  }
  EXPECT_EQ(rig.plane->ticks(), 5u);
  EXPECT_EQ(legacy->updates(), 5u);
}

// One sweep over several links: each slot's price must follow only its own
// link's traffic, exactly as an independent legacy agent per link would.
// Three chained cables (six links: forward + reverse) get different packet
// sequences on their forward links, so any state shared or misindexed
// across slots shows up as a price mismatch.
TEST(ControlPlaneParityTest, MultiLinkSweepMatchesLegacyAgentPerLink) {
  ControlPlane::Params params;
  params.scheme = Scheme::kNumFabric;
  const auto& cfg = params.numfabric;

  struct World {
    sim::Simulator sim;
    net::Topology topo{sim};
    std::vector<net::Link*> links;

    World() {
      net::Host* a = topo.add_host("a");
      net::Host* b = topo.add_host("b");
      net::Host* c = topo.add_host("c");
      net::Host* d = topo.add_host("d");
      for (auto [src, dst] : {std::pair{a, b}, {b, c}, {c, d}}) {
        topo.connect(src, dst, 10e9, sim::micros(1), [] {
          return std::make_unique<net::DropTailQueue>(1'000'000);
        });
      }
      for (const auto& link : topo.links()) links.push_back(link.get());
    }
  };
  World batched, legacy;
  const std::unique_ptr<ControlPlane> plane =
      ControlPlane::attach(batched.sim, params, batched.topo);
  std::vector<const XwiLinkAgent*> agents;
  for (net::Link* link : legacy.links) {
    auto agent = std::make_unique<XwiLinkAgent>(
        legacy.sim, *link,
        XwiLinkAgent::Params{cfg.price_update_interval, cfg.eta, cfg.beta,
                             cfg.initial_price});
    agents.push_back(agent.get());
    link->set_agent(std::move(agent));
  }

  // Cable 0 carries traffic every interval, cable 1 only early, cable 2
  // late.  Topology::connect appends forward then reverse, so cable k's
  // forward link is links[2k].
  const struct {
    std::int64_t at_us;
    std::size_t cable;
    double residual;
    std::uint32_t size;
  } sends[] = {{3, 0, 0.5, 1500},    {5, 1, -0.3, 1500}, {12, 0, 0.1, 9000},
               {33, 0, 0.02, 1500},  {40, 1, 0.4, 1500}, {64, 0, 0.3, 1500},
               {70, 2, 0.05, 60'000}, {95, 0, -0.1, 1500}, {101, 2, 0.2, 1500}};
  for (const auto& send : sends) {
    const sim::TimeNs at = sim::micros(send.at_us);
    for (World* world : {&batched, &legacy}) {
      world->sim.schedule_at(at, [world, send] {
        world->links[2 * send.cable]->send(
            data_packet(send.residual, send.size));
      });
    }
  }

  for (int update = 1; update <= 5; ++update) {
    batched.sim.run_until(sim::micros(30 * update));
    legacy.sim.run_until(sim::micros(30 * update));
    for (std::size_t l = 0; l < batched.links.size(); ++l) {
      EXPECT_EQ(plane->price(batched.links[l]->control_slot()),
                agents[l]->price())
          << "link " << l << " price diverged at update " << update;
    }
  }
  EXPECT_EQ(plane->ticks(), 5u);
  ASSERT_EQ(batched.links.size(), 6u);
  EXPECT_EQ(plane->links_swept(), 5u * 6u);
  // The three forward links saw different traffic, so the check above
  // compared distinct prices rather than one value several times.
  EXPECT_NE(agents[0]->price(), agents[2]->price());
  EXPECT_NE(agents[2]->price(), agents[4]->price());
  EXPECT_NE(agents[0]->price(), agents[4]->price());
}

TEST(ControlPlaneParityTest, XwiBacklogCountsAsFullUtilization) {
  ControlPlane::Params params;
  params.scheme = Scheme::kNumFabric;
  // A slow link (10 Mbps): a 60 KB burst takes 48 ms to drain, so the queue
  // is backlogged at every 30 us update — the backlog => utilization = 1
  // rule must kick in identically on both sides (byte counting alone would
  // report u < 1 in every interval).
  ParityRig rig(params, /*rate_bps=*/10e6);
  const auto* legacy =
      dynamic_cast<const XwiLinkAgent*>(rig.legacy_link->agent());
  rig.drive(sim::micros(1), [](net::Link& link) {
    for (int i = 0; i < 40; ++i) link.send(data_packet(0.05));
  });
  rig.run_until(sim::micros(300));
  ASSERT_FALSE(rig.batched_link->queue().empty());
  EXPECT_EQ(rig.plane->price(0), legacy->price());
  // With u == 1 throughout and min residual +0.05 once, the price must have
  // risen above its start.
  EXPECT_GT(rig.plane->price(0), params.numfabric.initial_price);
}

TEST(ControlPlaneParityTest, XwiStampsPriceAndPathLenOnDataOnly) {
  ControlPlane::Params params;
  params.scheme = Scheme::kNumFabric;
  ParityRig rig(params);

  // Capture what arrives at the destination: DATA packets must carry the
  // link price in path_price and one hop in path_len, ACKs must stay clean —
  // identically in both worlds.
  struct Seen {
    std::vector<double> prices;
    std::vector<std::uint32_t> lens;
  };
  Seen batched, legacy;
  const auto capture = [](Seen& seen) {
    return [&seen](net::Packet&& p) {
      seen.prices.push_back(p.path_price);
      seen.lens.push_back(p.path_len);
    };
  };
  rig.batched_dst->register_flow(1, capture(batched));
  rig.legacy_dst->register_flow(1, capture(legacy));

  // One DATA packet before the first update (stamped with the initial
  // price), one after (stamped with the updated price), and one ACK.
  rig.drive(sim::micros(5), [](net::Link& link) {
    link.send(data_packet(0.1));
  });
  rig.drive(sim::micros(40), [](net::Link& link) {
    link.send(data_packet(0.1));
    net::Packet ack;
    ack.flow = 1;
    ack.type = net::PacketType::kAck;
    ack.size = 40;
    link.send(std::move(ack));
  });
  rig.run_until(sim::micros(60));

  ASSERT_EQ(batched.prices.size(), 3u);
  ASSERT_EQ(legacy.prices.size(), 3u);
  EXPECT_EQ(batched.prices, legacy.prices);
  EXPECT_EQ(batched.lens, legacy.lens);
  EXPECT_EQ(batched.prices[0], params.numfabric.initial_price);
  EXPECT_EQ(batched.lens[0], 1u);
  EXPECT_EQ(batched.prices[2], 0.0);  // the ACK is not stamped
  EXPECT_EQ(batched.lens[2], 0u);
}

TEST(ControlPlaneParityTest, DgdPriceMatchesLegacyAcrossUpdates) {
  ControlPlane::Params params;
  params.scheme = Scheme::kDgd;
  ParityRig rig(params);
  const auto* legacy =
      dynamic_cast<const DgdLinkAgent*>(rig.legacy_link->agent());
  ASSERT_NE(legacy, nullptr);

  for (int i = 0; i < 6; ++i) {
    rig.drive(sim::micros(2 + 5 * i), [](net::Link& link) {
      link.send(data_packet(0.0, 4000));
    });
  }
  for (int update = 1; update <= 4; ++update) {
    rig.run_until(sim::micros(16 * update));
    EXPECT_EQ(rig.plane->price(0), legacy->price())
        << "DGD price diverged at update " << update;
  }
}

TEST(ControlPlaneParityTest, RcpFairShareAndStampMatchLegacy) {
  ControlPlane::Params params;
  params.scheme = Scheme::kRcpStar;
  ParityRig rig(params);
  const auto* legacy =
      dynamic_cast<const RcpLinkAgent*>(rig.legacy_link->agent());
  ASSERT_NE(legacy, nullptr);

  // Start equal: both advertise the link capacity.
  EXPECT_EQ(rig.plane->fair_share_bps(0), legacy->fair_share_bps());

  // The per-packet stamp: legacy computes R^-alpha per dequeue; the control
  // plane precomputes it per tick.  Same R => bit-identical path_feedback on
  // every delivered packet.
  std::vector<double> batched_feedback, legacy_feedback;
  rig.batched_dst->register_flow(1, [&](net::Packet&& p) {
    batched_feedback.push_back(p.path_feedback);
  });
  rig.legacy_dst->register_flow(1, [&](net::Packet&& p) {
    legacy_feedback.push_back(p.path_feedback);
  });

  rig.drive(sim::micros(3), [](net::Link& link) {
    for (int i = 0; i < 8; ++i) link.send(data_packet(0.0));
  });
  // Packets sent across several updates so stamps cover changing R values.
  rig.drive(sim::micros(50), [](net::Link& link) {
    link.send(data_packet(0.0));
  });
  for (int update = 1; update <= 6; ++update) {
    rig.run_until(sim::micros(16 * update));
    EXPECT_EQ(rig.plane->fair_share_bps(0), legacy->fair_share_bps())
        << "RCP* fair share diverged at update " << update;
  }
  ASSERT_EQ(batched_feedback.size(), 9u);
  EXPECT_EQ(batched_feedback, legacy_feedback);
}

// ---------------------------------------------------------------------------
// Whole-simulation parity: fixed-seed incast under legacy agents vs the
// batched control plane must produce identical packet-level results.
// ---------------------------------------------------------------------------

exp::TrafficResult run_incast(Scheme scheme, bool legacy) {
  exp::TrafficOptions options;
  options.scheme = scheme;
  options.fabric.scheme = scheme;
  options.fabric.legacy_link_agents = legacy;
  options.topology.hosts_per_leaf = 2;
  options.topology.num_leaves = 2;
  options.topology.num_spines = 1;
  options.pattern = exp::TrafficPattern::kIncast;
  options.incast_fanin = 3;
  options.flow_size_bytes = 32'000;
  options.seed = 1;
  return run_traffic_experiment(options);
}

TEST(ControlPlaneParityTest, FixedSeedIncastMatchesLegacyForAllSchemes) {
  for (Scheme scheme : {Scheme::kNumFabric, Scheme::kDgd, Scheme::kRcpStar}) {
    const exp::TrafficResult legacy = run_incast(scheme, /*legacy=*/true);
    const exp::TrafficResult batched = run_incast(scheme, /*legacy=*/false);
    EXPECT_EQ(legacy.flow_count, batched.flow_count);
    EXPECT_EQ(legacy.completed, batched.completed);
    EXPECT_EQ(legacy.incomplete, batched.incomplete);
    EXPECT_EQ(legacy.queue_drops, batched.queue_drops);
    ASSERT_EQ(legacy.fct_us.size(), batched.fct_us.size());
    for (std::size_t i = 0; i < legacy.fct_us.size(); ++i) {
      EXPECT_EQ(legacy.fct_us[i], batched.fct_us[i])
          << scheme_name(scheme) << " flow " << i
          << ": FCT diverged between legacy agents and the control plane";
    }
    // The whole point of the batch: strictly fewer simulator events for the
    // same physics (N timer events per interval collapse into one).
    EXPECT_LT(batched.sim_events, legacy.sim_events) << scheme_name(scheme);
  }
}

}  // namespace
}  // namespace numfabric::transport
