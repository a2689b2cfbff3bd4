// Link serialization/propagation timing and control-plane hook tests.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "net/drop_tail_queue.h"
#include "net/link.h"
#include "net/node.h"
#include "sim/simulator.h"

namespace numfabric::net {
namespace {

/// Records arrival times of packets delivered to it.
class SinkHost : public Host {
 public:
  SinkHost(sim::Simulator& sim, NodeId id) : Host(id, "sink"), sim_(sim) {}
  void receive(Packet&& packet) override {
    arrivals.push_back({sim_.now(), packet.size, packet});
  }
  struct Arrival {
    sim::TimeNs at;
    std::uint32_t size;
    Packet packet;
  };
  std::vector<Arrival> arrivals;

 private:
  sim::Simulator& sim_;
};

Packet data_packet(std::uint32_t size) {
  Packet p;
  p.type = PacketType::kData;
  p.size = size;
  return p;
}

TEST(LinkTest, SerializationPlusPropagation) {
  sim::Simulator sim;
  SinkHost sink(sim, 0);
  Link link(sim, "l", 10e9, sim::micros(2),
            std::make_unique<DropTailQueue>(1'000'000), &sink);
  link.send(data_packet(1500));
  sim.run();
  ASSERT_EQ(sink.arrivals.size(), 1u);
  // 1.2 us serialization + 2 us propagation.
  EXPECT_EQ(sink.arrivals[0].at, 3200);
}

TEST(LinkTest, BackToBackPacketsSpacedBySerialization) {
  sim::Simulator sim;
  SinkHost sink(sim, 0);
  Link link(sim, "l", 10e9, sim::micros(2),
            std::make_unique<DropTailQueue>(1'000'000), &sink);
  for (int i = 0; i < 3; ++i) link.send(data_packet(1500));
  sim.run();
  ASSERT_EQ(sink.arrivals.size(), 3u);
  EXPECT_EQ(sink.arrivals[1].at - sink.arrivals[0].at, 1200);
  EXPECT_EQ(sink.arrivals[2].at - sink.arrivals[1].at, 1200);
}

TEST(LinkTest, CountsBytesSent) {
  sim::Simulator sim;
  SinkHost sink(sim, 0);
  Link link(sim, "l", 10e9, 0, std::make_unique<DropTailQueue>(1'000'000), &sink);
  link.send(data_packet(1500));
  link.send(data_packet(500));
  sim.run();
  EXPECT_EQ(link.bytes_sent(), 2000u);
}

TEST(LinkTest, RateChangeAppliesToNextPacket) {
  sim::Simulator sim;
  SinkHost sink(sim, 0);
  Link link(sim, "l", 10e9, 0, std::make_unique<DropTailQueue>(1'000'000), &sink);
  link.send(data_packet(1500));
  link.set_rate_bps(20e9);
  link.send(data_packet(1500));
  sim.run();
  ASSERT_EQ(sink.arrivals.size(), 2u);
  EXPECT_EQ(sink.arrivals[0].at, 1200);       // first at the old rate
  EXPECT_EQ(sink.arrivals[1].at, 1200 + 600);  // second at 20 Gbps
}

TEST(LinkTest, RejectsBadConstruction) {
  sim::Simulator sim;
  SinkHost sink(sim, 0);
  EXPECT_THROW(Link(sim, "l", 0.0, 0, std::make_unique<DropTailQueue>(100), &sink),
               std::invalid_argument);
  EXPECT_THROW(Link(sim, "l", 1e9, 0, nullptr, &sink), std::invalid_argument);
  EXPECT_THROW(Link(sim, "l", 1e9, 0, std::make_unique<DropTailQueue>(100), nullptr),
               std::invalid_argument);
}

/// Two-slot control-plane arrays, laid out as a ControlPlane lays them out;
/// the tests wire a link to slot 1 so a store into the wrong slot shows.
struct ControlSlots {
  double stamp[2] = {0.0, 0.0};
  double min_residual[2] = {std::numeric_limits<double>::infinity(),
                            std::numeric_limits<double>::infinity()};
  std::uint8_t saw_residual[2] = {0, 0};
  std::uint64_t bytes_serviced[2] = {0, 0};
  LinkControlArrays arrays{stamp, min_residual, saw_residual, bytes_serviced};
};

Packet data_packet(std::uint32_t size, double residual) {
  Packet p = data_packet(size);
  p.normalized_residual = residual;
  return p;
}

TEST(LinkTest, XwiControlTracksMinResidualAndStampsDataOnly) {
  sim::Simulator sim;
  SinkHost sink(sim, 0);
  Link link(sim, "l", 10e9, 0, std::make_unique<DropTailQueue>(1'000'000), &sink);
  ControlSlots slots;
  slots.stamp[1] = 0.25;
  link.attach_control(ControlStamp::kXwiPrice, &slots.arrays, 1);
  EXPECT_TRUE(link.has_control_slot());
  EXPECT_EQ(link.control_slot(), 1u);

  link.send(data_packet(1500, 0.4));
  link.send(data_packet(1000, -0.2));
  // A non-finite residual is not an observation.
  link.send(data_packet(500, -std::numeric_limits<double>::infinity()));
  Packet ack = data_packet(40, -0.9);
  ack.type = PacketType::kAck;  // ACK residuals are not observations either
  link.send(std::move(ack));
  sim.run();

  EXPECT_EQ(slots.min_residual[1], -0.2);
  EXPECT_EQ(slots.saw_residual[1], 1);
  // Every serviced byte counts toward utilization, ACKs included.
  EXPECT_EQ(slots.bytes_serviced[1], 1500u + 1000u + 500u + 40u);
  ASSERT_EQ(sink.arrivals.size(), 4u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(sink.arrivals[i].packet.path_price, 0.25) << i;
    EXPECT_EQ(sink.arrivals[i].packet.path_len, 1u) << i;
    EXPECT_EQ(sink.arrivals[i].packet.path_feedback, 0.0) << i;
  }
  EXPECT_EQ(sink.arrivals[3].packet.path_price, 0.0);
  EXPECT_EQ(sink.arrivals[3].packet.path_len, 0u);
  // Slot 0 belongs to another link and stays untouched.
  EXPECT_EQ(slots.min_residual[0], std::numeric_limits<double>::infinity());
  EXPECT_EQ(slots.saw_residual[0], 0);
  EXPECT_EQ(slots.bytes_serviced[0], 0u);
}

TEST(LinkTest, FeedbackControlAccumulatesUntilDetached) {
  sim::Simulator sim;
  SinkHost sink(sim, 0);
  Link link(sim, "l", 10e9, 0, std::make_unique<DropTailQueue>(1'000'000), &sink);
  ControlSlots slots;
  slots.stamp[1] = 0.5;
  link.attach_control(ControlStamp::kFeedback, &slots.arrays, 1);

  Packet upstream = data_packet(1500, 0.3);
  upstream.path_feedback = 0.125;  // stamped by an earlier hop
  link.send(std::move(upstream));
  sim.run();
  // Feedback mode adds to path_feedback only and records no residual.
  EXPECT_EQ(slots.saw_residual[1], 0);
  EXPECT_EQ(slots.bytes_serviced[1], 1500u);

  link.attach_control(ControlStamp::kNone, nullptr, 0);
  EXPECT_FALSE(link.has_control_slot());
  link.send(data_packet(1500, 0.3));
  sim.run();
  EXPECT_EQ(slots.bytes_serviced[1], 1500u);

  ASSERT_EQ(sink.arrivals.size(), 2u);
  EXPECT_EQ(sink.arrivals[0].packet.path_feedback, 0.125 + 0.5);
  EXPECT_EQ(sink.arrivals[0].packet.path_price, 0.0);
  EXPECT_EQ(sink.arrivals[0].packet.path_len, 0u);
  // A detached link forwards headers untouched.
  EXPECT_EQ(sink.arrivals[1].packet.path_feedback, 0.0);
  EXPECT_EQ(sink.arrivals[1].packet.path_price, 0.0);
  EXPECT_EQ(sink.arrivals[1].packet.path_len, 0u);
}

TEST(HostTest, DispatchesByFlowIdAndCountsStrays) {
  sim::Simulator sim;
  Host host(0, "h");
  int handled = 0;
  host.register_flow(7, [&](Packet&&) { ++handled; });
  Packet p = data_packet(100);
  p.flow = 7;
  host.receive(std::move(p));
  Packet stray = data_packet(100);
  stray.flow = 8;
  host.receive(std::move(stray));
  EXPECT_EQ(handled, 1);
  EXPECT_EQ(host.stray_packets(), 1u);
  EXPECT_THROW(host.register_flow(7, [](Packet&&) {}), std::logic_error);
  host.unregister_flow(7);
  host.register_flow(7, [](Packet&&) {});  // re-registering after removal is fine
}

}  // namespace
}  // namespace numfabric::net
