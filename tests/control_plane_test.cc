// The batched transport::ControlPlane against frozen reference vectors.
//
// The constants below are exact doubles (hex-float literals) recorded from
// per-link agent objects that implemented the same updates one link at a
// time, each with its own timer event and virtual enqueue/dequeue hooks:
//   * per-update prices / fair shares and per-packet stamps on small rigs —
//     the backlog => utilization = 1 rule, residual reset between
//     intervals, beta smoothing, the DGD / RCP* queue terms, and RCP*'s
//     per-tick R^-alpha stamp;
//   * whole-run summaries of a fixed-seed incast under NUMFabric, DGD and
//     RCP*: counts, simulator events and an FNV-1a 64 hash of the FCT bytes.
// Any change that moves one bit of one price, stamp or completion time
// changes a constant here.  The failure messages print the new values as
// hex floats.
//
// The remaining tests check the update rules themselves (xWI Fig. 3,
// DGD Eq. 14, RCP* Eq. 15) with closed-form expectations.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "exp/traffic_experiment.h"
#include "net/drop_tail_queue.h"
#include "net/link.h"
#include "net/node.h"
#include "net/topology.h"
#include "sim/simulator.h"
#include "transport/control_plane.h"
#include "transport/fabric.h"

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

std::string hex(const std::vector<double>& values) {
  std::ostringstream out;
  out << std::hexfloat << "{";
  for (std::size_t i = 0; i < values.size(); ++i) {
    out << (i > 0 ? ", " : "") << values[i];
  }
  out << "}";
  return out.str();
}

/// Bitwise equality, element by element; prints the recorded vector as hex
/// floats on any mismatch.
void expect_bits(const std::vector<double>& actual,
                 const std::vector<double>& frozen, const char* what) {
  ASSERT_EQ(actual.size(), frozen.size()) << what << ": " << hex(actual);
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(actual[i]),
              std::bit_cast<std::uint64_t>(frozen[i]))
        << what << "[" << i << "] diverged; recorded " << hex(actual);
  }
}

/// One link a -> b with a 1 MB drop-tail queue, wired through a
/// ControlPlane.  The plane attaches at `attach_at` (0: at construction);
/// `at` schedules traffic on the link.
struct Rig {
  sim::Simulator sim;
  net::Topology topo{sim};
  net::Link* link = nullptr;
  net::Host* dst = nullptr;
  std::unique_ptr<ControlPlane> plane;

  explicit Rig(const ControlPlane::Params& params, double rate_bps = 10e9,
               sim::TimeNs attach_at = 0) {
    net::Host* src = topo.add_host("a");
    dst = topo.add_host("b");
    topo.connect(src, dst, rate_bps, sim::micros(1), [] {
      return std::make_unique<net::DropTailQueue>(1'000'000);
    });
    link = topo.links()[0].get();
    if (attach_at == 0) {
      plane = ControlPlane::attach(sim, params, topo);
    } else {
      sim.schedule_at(attach_at, [this, params] {
        plane = ControlPlane::attach(sim, params, topo);
      });
    }
  }

  template <typename F>
  void at(sim::TimeNs time, F inject) {
    sim.schedule_at(time, [this, inject] { inject(*link); });
  }

  void run_until(sim::TimeNs until) { sim.run_until(until); }
};

ControlPlane::Params params_for(Scheme scheme) {
  ControlPlane::Params params;
  params.scheme = scheme;
  return params;
}

// ---------------------------------------------------------------------------
// Frozen per-update state.
// ---------------------------------------------------------------------------

TEST(ControlPlaneTest, XwiPricesMatchFrozenAcrossUpdates) {
  Rig rig(params_for(Scheme::kNumFabric));

  // A mix of residual observations and serviced bytes across several
  // intervals, including an interval with no traffic at all (only the
  // under-utilization decay acts) and one with a negative min residual.
  const double residuals[] = {0.5, -0.3, 0.1, 0.02};
  for (int i = 0; i < 4; ++i) {
    rig.at(sim::micros(3 + 7 * i), [r = residuals[i]](net::Link& link) {
      link.send(data_packet(r));
    });
  }
  // Interval [60, 90) stays idle; traffic resumes afterwards.
  rig.at(sim::micros(95), [](net::Link& link) {
    link.send(data_packet(0.25, 60'000));
  });

  std::vector<double> prices;
  for (int update = 1; update <= 5; ++update) {
    rig.run_until(sim::micros(30 * update));
    prices.push_back(rig.plane->price(0));
  }
  expect_bits(prices,
              {0x1.47ae147ae147bp-8, 0x1.47ae147ae147bp-9,
               0x1.47ae147ae147bp-10, 0x1.028f5c28f5c28p-3,
               0x1.028f5c28f5c28p-4},
              "xWI price");
  EXPECT_EQ(rig.plane->ticks(), 5u);
}

// One sweep over several links: each slot's price must follow only its own
// link's traffic.  Three chained cables (six links: forward + reverse) get
// different packet sequences on their forward links, so any state shared or
// misindexed across slots shows up as a price mismatch.
TEST(ControlPlaneTest, MultiLinkSweepMatchesFrozenPerLinkPrices) {
  const ControlPlane::Params params = params_for(Scheme::kNumFabric);

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
  World world;
  const std::unique_ptr<ControlPlane> plane =
      ControlPlane::attach(world.sim, params, world.topo);

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
    world.sim.schedule_at(sim::micros(send.at_us), [&world, send] {
      world.links[2 * send.cable]->send(data_packet(send.residual, send.size));
    });
  }

  // Update-major: the six link prices after update 1, then after update 2...
  std::vector<double> prices;
  for (int update = 1; update <= 5; ++update) {
    world.sim.run_until(sim::micros(30 * update));
    for (std::size_t l = 0; l < world.links.size(); ++l) {
      prices.push_back(plane->price(world.links[l]->control_slot()));
    }
  }
  const std::vector<double> frozen = {
      // update 1
      0x1.5810624dd2f1bp-5, 0x1.47ae147ae147bp-8, 0x1.47ae147ae147bp-8,
      0x1.47ae147ae147bp-8, 0x1.47ae147ae147bp-8, 0x1.47ae147ae147bp-8,
      // update 2
      0x1.5810624dd2f1bp-6, 0x1.47ae147ae147bp-9, 0x1.8b4395810624ep-3,
      0x1.47ae147ae147bp-9, 0x1.47ae147ae147bp-9, 0x1.47ae147ae147bp-9,
      // update 3
      0x1.edfa43fe5c91dp-4, 0x1.47ae147ae147bp-10, 0x1.8b4395810624ep-4,
      0x1.47ae147ae147bp-10, 0x1.c28f5c28f5c2ap-6, 0x1.47ae147ae147bp-10,
      // update 4
      0x1.edfa43fe5c91dp-5, 0x1.47ae147ae147bp-11, 0x1.8b4395810624ep-5,
      0x1.47ae147ae147bp-11, 0x1.f7ced916872bp-5, 0x1.47ae147ae147bp-11,
      // update 5
      0x1.edfa43fe5c91dp-6, 0x1.47ae147ae147bp-12, 0x1.8b4395810624ep-6,
      0x1.47ae147ae147bp-12, 0x1.f7ced916872bp-6, 0x1.47ae147ae147bp-12};
  expect_bits(prices, frozen, "per-link xWI price");
  EXPECT_EQ(plane->ticks(), 5u);
  ASSERT_EQ(world.links.size(), 6u);
  EXPECT_EQ(plane->links_swept(), 5u * 6u);
  // The three forward links saw different traffic, so the check above
  // compared distinct prices rather than one value several times.
  const std::span<const double> last = plane->snapshot_prices();
  EXPECT_NE(last[0], last[2]);
  EXPECT_NE(last[2], last[4]);
  EXPECT_NE(last[0], last[4]);
}

TEST(ControlPlaneTest, XwiBacklogCountsAsFullUtilization) {
  const ControlPlane::Params params = params_for(Scheme::kNumFabric);
  // A slow link (10 Mbps): a 60 KB burst takes 48 ms to drain, so the queue
  // is backlogged at every 30 us update — the backlog => utilization = 1
  // rule must kick in (byte counting alone would report u < 1 in every
  // interval).
  Rig rig(params, /*rate_bps=*/10e6);
  rig.at(sim::micros(1), [](net::Link& link) {
    for (int i = 0; i < 40; ++i) link.send(data_packet(0.05));
  });
  std::vector<double> prices;
  for (int update = 1; update <= 10; ++update) {
    rig.run_until(sim::micros(30 * update));
    prices.push_back(rig.plane->price(0));
  }
  expect_bits(prices,
              {0x1.1eb851eb851ecp-5, 0x1.1eb851eb851ecp-5, 0x1.1eb851eb851ecp-5,
               0x1.1eb851eb851ecp-5, 0x1.1eb851eb851ecp-5, 0x1.1eb851eb851ecp-5,
               0x1.1eb851eb851ecp-5, 0x1.1eb851eb851ecp-5, 0x1.1eb851eb851ecp-5,
               0x1.1eb851eb851ecp-5},
              "backlogged xWI price");
  ASSERT_FALSE(rig.link->queue().empty());
  // With u == 1 throughout and min residual +0.05 once, the price must have
  // risen above its start.
  EXPECT_GT(rig.plane->price(0), params.numfabric.initial_price);
}

TEST(ControlPlaneTest, XwiStampsPriceAndPathLenOnDataOnly) {
  const ControlPlane::Params params = params_for(Scheme::kNumFabric);
  Rig rig(params);

  // Capture what arrives at the destination: DATA packets carry the link
  // price in path_price and one hop in path_len, ACKs stay clean.
  std::vector<double> prices;
  std::vector<std::uint32_t> lens;
  rig.dst->register_flow(1, [&](net::Packet&& p) {
    prices.push_back(p.path_price);
    lens.push_back(p.path_len);
  });

  // One DATA packet before the first update (stamped with the initial
  // price), one after (stamped with the updated price), and one ACK.
  rig.at(sim::micros(5), [](net::Link& link) { link.send(data_packet(0.1)); });
  rig.at(sim::micros(40), [](net::Link& link) {
    link.send(data_packet(0.1));
    net::Packet ack;
    ack.flow = 1;
    ack.type = net::PacketType::kAck;
    ack.size = 40;
    link.send(std::move(ack));
  });
  rig.run_until(sim::micros(60));

  expect_bits(prices,
              {0x1.47ae147ae147bp-7, 0x1.26e978d4fdf3bp-5, 0x0p+0},
              "path_price stamp");
  EXPECT_EQ(lens, (std::vector<std::uint32_t>{1, 1, 0}));
  EXPECT_EQ(prices[0], params.numfabric.initial_price);
  EXPECT_EQ(prices[2], 0.0);  // the ACK is not stamped
}

TEST(ControlPlaneTest, DgdPricesMatchFrozenAcrossUpdates) {
  Rig rig(params_for(Scheme::kDgd));
  for (int i = 0; i < 6; ++i) {
    rig.at(sim::micros(2 + 5 * i), [](net::Link& link) {
      link.send(data_packet(0.0, 4000));
    });
  }
  std::vector<double> prices;
  for (int update = 1; update <= 4; ++update) {
    rig.run_until(sim::micros(16 * update));
    prices.push_back(rig.plane->price(0));
  }
  expect_bits(prices,
              {0x1.6052502eec7cap-14, 0x1.1d3671ac14c66p-14,
               0x1.d5c31593e5fb6p-16, 0x0p+0},
              "DGD price");
}

TEST(ControlPlaneTest, RcpFairShareAndStampMatchFrozen) {
  Rig rig(params_for(Scheme::kRcpStar));

  // The per-packet stamp R^-alpha is computed once per tick; packets sent
  // across several updates cover changing R values.
  std::vector<double> feedback;
  rig.dst->register_flow(
      1, [&](net::Packet&& p) { feedback.push_back(p.path_feedback); });
  rig.at(sim::micros(3), [](net::Link& link) {
    for (int i = 0; i < 8; ++i) link.send(data_packet(0.0));
  });
  rig.at(sim::micros(50), [](net::Link& link) { link.send(data_packet(0.0)); });

  // The initial advertisement, then one per update.
  std::vector<double> shares{rig.plane->fair_share_bps(0)};
  for (int update = 1; update <= 6; ++update) {
    rig.run_until(sim::micros(16 * update));
    shares.push_back(rig.plane->fair_share_bps(0));
  }
  expect_bits(shares,
              {0x1.2a05f2p+33, 0x1.59b4fap+33, 0x1.c16b45p+33, 0x1.241f534p+34,
               0x1.7bc252ap+34, 0x1.edafd1dp+34, 0x1.40e57b94p+35},
              "RCP* fair share");
  expect_bits(feedback,
              {0x1.a36e2eb1c432dp-14, 0x1.a36e2eb1c432dp-14,
               0x1.a36e2eb1c432dp-14, 0x1.a36e2eb1c432dp-14,
               0x1.a36e2eb1c432dp-14, 0x1.a36e2eb1c432dp-14,
               0x1.a36e2eb1c432dp-14, 0x1.a36e2eb1c432dp-14,
               0x1.abe722f1d8329p-15},
              "RCP* path_feedback stamp");
}

// A standing queue at every update exercises the queue terms: b*q in DGD's
// Eq. 14, and the q/d drain term and queueing-delay RTT in RCP*'s Eq. 15.
TEST(ControlPlaneTest, QueueTermsMatchFrozen) {
  // 96 KB take 76.8 us to drain at 10 Gbps: backlogged at the first four
  // 16 us updates, idle afterwards.
  const auto burst = [](net::Link& link) {
    for (int i = 0; i < 6; ++i) link.send(data_packet(0.0, 16'000));
  };

  Rig dgd(params_for(Scheme::kDgd));
  dgd.at(sim::micros(1), burst);
  std::vector<double> prices;
  for (int update = 1; update <= 8; ++update) {
    dgd.run_until(sim::micros(16 * update));
    prices.push_back(dgd.plane->price(0));
  }
  expect_bits(prices,
              {0x1.14272964a84b4p-13, 0x1.0f7492232dac9p-13,
               0x1.06bb301749f39p-13, 0x1.f3f60681fa409p-14,
               0x1.d26817408e657p-14, 0x1.2aa26af9731dep-14,
               0x1.05b97d64afacbp-15, 0x0p+0},
              "backlogged DGD price");

  Rig rcp(params_for(Scheme::kRcpStar));
  rcp.at(sim::micros(1), burst);
  std::vector<double> shares;
  for (int update = 1; update <= 8; ++update) {
    rcp.run_until(sim::micros(16 * update));
    shares.push_back(rcp.plane->fair_share_bps(0));
  }
  expect_bits(shares,
              {0x1.0cc6699c27795p+33, 0x1.067cf62534435p+33,
               0x1.00861e8aa33b1p+33, 0x1.fb387912203dap+32,
               0x1.11e62ce5f2b0bp+33, 0x1.6411a0c4884c2p+33,
               0x1.cee3b765e463p+33, 0x1.2ce0d0cf07a6cp+34},
              "backlogged RCP* fair share");
}

// ---------------------------------------------------------------------------
// Frozen whole-run summaries: a fixed-seed incast per price-carrying scheme.
// ---------------------------------------------------------------------------

exp::TrafficResult run_incast(Scheme scheme) {
  exp::TrafficOptions options;
  options.scheme = scheme;
  options.fabric.scheme = scheme;
  options.topology.hosts_per_leaf = 2;
  options.topology.num_leaves = 2;
  options.topology.num_spines = 1;
  options.pattern = exp::TrafficPattern::kIncast;
  options.incast_fanin = 3;
  options.flow_size_bytes = 32'000;
  options.seed = 1;
  return run_traffic_experiment(options);
}

std::uint64_t fnv1a(const std::vector<double>& values) {
  std::uint64_t hash = 14695981039346656037ull;
  for (const double v : values) {
    unsigned char bytes[sizeof(double)];
    std::memcpy(bytes, &v, sizeof(double));
    for (const unsigned char b : bytes) {
      hash ^= b;
      hash *= 1099511628211ull;
    }
  }
  return hash;
}

struct FrozenIncast {
  Scheme scheme;
  int flow_count;
  int completed;
  int incomplete;
  std::uint64_t queue_drops;
  std::uint64_t sim_events;
  std::uint64_t fct_hash;
  /// Simulator events the same run took with one timer event per link per
  /// interval; the single batched tick must stay strictly below it.
  std::uint64_t per_link_timer_events;
};

TEST(ControlPlaneTest, FixedSeedIncastMatchesFrozenForAllSchemes) {
  const FrozenIncast frozen[] = {
      {Scheme::kNumFabric, 3, 3, 0, 0, 1046, 0xe81e7ef3689e35c1ull, 2872},
      {Scheme::kDgd, 3, 3, 0, 0, 1258, 0x451ecc0f1ab7718dull, 4690},
      {Scheme::kRcpStar, 3, 3, 0, 0, 1258, 0x3d615d9c47580ba8ull, 4690},
  };
  for (const FrozenIncast& f : frozen) {
    const char* name = scheme_name(f.scheme);
    const exp::TrafficResult result = run_incast(f.scheme);
    EXPECT_EQ(result.flow_count, f.flow_count) << name;
    EXPECT_EQ(result.completed, f.completed) << name;
    EXPECT_EQ(result.incomplete, f.incomplete) << name;
    EXPECT_EQ(result.queue_drops, f.queue_drops) << name;
    EXPECT_EQ(result.sim_events, f.sim_events) << name;
    EXPECT_EQ(fnv1a(result.fct_us), f.fct_hash) << name;
    EXPECT_LT(result.sim_events, f.per_link_timer_events) << name;
  }
}

// ---------------------------------------------------------------------------
// The update rules in closed form: xWI (Fig. 3), DGD (Eq. 14), RCP* (Eq. 15).
// ---------------------------------------------------------------------------

TEST(ControlPlaneTest, XwiIdleLinkPriceDecaysToZero) {
  ControlPlane::Params params = params_for(Scheme::kNumFabric);
  params.numfabric.initial_price = 1.0;
  Rig rig(params);
  // No traffic at all: u = 0 and no residual observation, so the target
  // price max(p - eta*p, 0) is 0 and beta = 0.5 halves the price per update.
  rig.run_until(sim::micros(30 * 10));
  EXPECT_EQ(rig.plane->ticks(), 10u);
  EXPECT_NEAR(rig.plane->price(0), 1.0 / 1024.0, 1e-9);
}

TEST(ControlPlaneTest, XwiPositiveResidualRaisesPrice) {
  ControlPlane::Params params = params_for(Scheme::kNumFabric);
  params.numfabric.initial_price = 0.1;
  Rig rig(params);
  // 1500 B every microsecond (12 Gbps) keeps the 10 Gbps link backlogged, so
  // u == 1, and every DATA packet reports residual +0.1.
  for (int i = 0; i < 200; ++i) {
    rig.at(sim::micros(i), [](net::Link& link) {
      link.send(data_packet(+0.1));
    });
  }
  rig.run_until(sim::micros(90));
  // Three updates, each: p <- 0.5 p + 0.5 (p + 0.1).
  EXPECT_NEAR(rig.plane->price(0), 0.1 + 3 * 0.05, 1e-9);
}

TEST(ControlPlaneTest, XwiTakesMinimumResidual) {
  ControlPlane::Params params = params_for(Scheme::kNumFabric);
  params.numfabric.initial_price = 0.2;
  Rig rig(params);
  rig.at(sim::micros(1), [](net::Link& link) {
    for (double residual : {0.5, -0.3, 0.1}) link.send(data_packet(residual));
    // 60 KB take 48 us to serialize: backlogged at the update, so u == 1
    // (no eta term).
    link.send(data_packet(0.9, 60'000));
  });
  rig.run_until(sim::micros(30));
  // p <- 0.5*0.2 + 0.5*max(0.2 + (-0.3), 0) = 0.1.
  EXPECT_NEAR(rig.plane->price(0), 0.1, 1e-9);
}

TEST(ControlPlaneTest, XwiIgnoresNonFiniteResiduals) {
  ControlPlane::Params params = params_for(Scheme::kNumFabric);
  params.numfabric.initial_price = 0.2;
  Rig rig(params);
  rig.at(sim::micros(1), [](net::Link& link) {
    link.send(data_packet(std::numeric_limits<double>::infinity()));
    link.send(data_packet(std::numeric_limits<double>::quiet_NaN(), 60'000));
  });
  rig.run_until(sim::micros(30));
  // No usable residual observation: min_res counts as 0; u == 1, so the
  // price is unchanged.
  EXPECT_EQ(rig.plane->price(0), 0.2);
}

TEST(ControlPlaneTest, UpdatesAreOnTheSynchronizedGrid) {
  // Attached at a non-grid time, the first update still lands on a multiple
  // of the interval (the paper's PTP-synchronized updates).
  Rig rig(params_for(Scheme::kNumFabric), 10e9, /*attach_at=*/sim::micros(7));
  rig.run_until(sim::micros(29));
  ASSERT_NE(rig.plane, nullptr);
  EXPECT_EQ(rig.plane->ticks(), 0u);
  rig.run_until(sim::micros(31));
  EXPECT_EQ(rig.plane->ticks(), 1u);
  rig.run_until(sim::micros(61));
  EXPECT_EQ(rig.plane->ticks(), 2u);
}

TEST(ControlPlaneTest, DgdPriceFollowsGradient) {
  ControlPlane::Params params = params_for(Scheme::kDgd);
  params.dgd.initial_price = 1e-4;
  Rig rig(params);
  std::vector<double> feedback;
  rig.dst->register_flow(
      1, [&](net::Packet&& p) { feedback.push_back(p.path_feedback); });
  // Serve 4000 bytes in a 16 us interval: y = 2 Gbps = 2000 Mbps over a
  // 10 Gbps (10000 Mbps) link; the queue is empty at the update.
  rig.at(sim::micros(1), [](net::Link& link) {
    link.send(data_packet(0.0, 4000));
  });
  rig.run_until(sim::micros(16));
  ASSERT_EQ(feedback.size(), 1u);
  EXPECT_EQ(feedback[0], 1e-4);  // the price before the update
  // p <- [1e-4 + a*(2000 - 10000) + b*0]_+ = 1e-4 - 4e-9*8000.
  EXPECT_NEAR(rig.plane->price(0), 1e-4 - 4e-9 * 8000, 1e-12);
}

TEST(ControlPlaneTest, DgdPriceNeverNegative) {
  ControlPlane::Params params = params_for(Scheme::kDgd);
  params.dgd.initial_price = 1e-9;
  Rig rig(params);
  rig.run_until(sim::micros(16 * 5));  // idle: gradient strongly negative
  EXPECT_EQ(rig.plane->ticks(), 5u);
  EXPECT_GE(rig.plane->price(0), 0.0);
  EXPECT_NEAR(rig.plane->price(0), 0.0, 1e-12);
}

TEST(ControlPlaneTest, RcpUnderutilizedLinkRaisesAdvertisement) {
  Rig rig(params_for(Scheme::kRcpStar));
  const double initial = rig.plane->fair_share_bps(0);
  rig.run_until(sim::micros(16 * 10));  // no traffic at all
  EXPECT_GT(rig.plane->fair_share_bps(0), initial);
}

TEST(ControlPlaneTest, RcpAdvertisementCanExceedCapacity) {
  Rig rig(params_for(Scheme::kRcpStar), 10e9);
  rig.run_until(sim::millis(5));  // idle long enough to climb past C
  // Eq. 16's harmonic composition requires R > C at equilibrium for
  // multi-hop paths; the advertisement must not clamp at link capacity.
  EXPECT_GT(rig.plane->fair_share_bps(0), 10e9);
}

TEST(ControlPlaneTest, RcpAccumulatesRToTheMinusAlpha) {
  ControlPlane::Params params = params_for(Scheme::kRcpStar);
  params.rcp.alpha = 1.0;
  Rig rig(params);
  std::vector<double> feedback;
  rig.dst->register_flow(
      1, [&](net::Packet&& p) { feedback.push_back(p.path_feedback); });
  const double r_units = rig.plane->fair_share_bps(0) / 1e6;
  // The packet arrives carrying an upstream hop's contribution; this link
  // adds its own R^-alpha to it.
  rig.at(0, [](net::Link& link) {
    net::Packet p = data_packet(0.0);
    p.path_feedback = 0.5;
    link.send(std::move(p));
  });
  rig.run_until(sim::micros(10));
  ASSERT_EQ(feedback.size(), 1u);
  EXPECT_NEAR(feedback[0], 0.5 + 1.0 / r_units, 1e-12);
}

}  // namespace
}  // namespace numfabric::transport
