#include "transport/control_plane.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "num/utility.h"

namespace numfabric::transport {
namespace {

// RCP* keeps R within [1e-4 C, 1e3 C]: Eq. 16's composition needs links to
// advertise MORE than C at equilibrium (a lone flow over two equal links
// reaches C only when each advertises ~2C).  The per-update gain is bounded
// because with Table 2's a = 3.6 a large mismatch would make 1 + gain
// negative and flip R's sign; the clamp does not move equilibria.
constexpr double kRcpMinShareFraction = 1e-4;
constexpr double kRcpMaxShareFactor = 1e3;
constexpr double kRcpMaxGain = 0.3;

sim::TimeNs interval_for(const ControlPlane::Params& params) {
  switch (params.scheme) {
    case Scheme::kNumFabric:
      return params.numfabric.price_update_interval;
    case Scheme::kDgd:
      return params.dgd.price_update_interval;
    case Scheme::kRcpStar:
      return params.rcp.rate_update_interval;
    case Scheme::kDctcp:
    case Scheme::kPFabric:
      return 0;
  }
  throw std::logic_error("ControlPlane: unknown scheme");
}

}  // namespace

std::unique_ptr<ControlPlane> ControlPlane::attach(sim::Simulator& sim,
                                                   const Params& params,
                                                   net::Topology& topo) {
  if (params.scheme == Scheme::kDctcp || params.scheme == Scheme::kPFabric) {
    return nullptr;  // all state lives in the queues / hosts
  }
  // Not make_unique: the constructor is private.
  std::unique_ptr<ControlPlane> plane(new ControlPlane(sim, params));
  plane->attach_links(topo);
  return plane;
}

ControlPlane::ControlPlane(sim::Simulator& sim, const Params& params)
    : sim_(sim), params_(params) {
  const sim::TimeNs interval = interval_for(params_);
  if (interval <= 0) {
    throw std::invalid_argument("ControlPlane: update interval must be > 0");
  }
  interval_seconds_ = sim::to_seconds(interval);
}

void ControlPlane::attach_links(net::Topology& topo) {
  const std::size_t n = topo.links().size();
  links_.reserve(n);
  for (const auto& link : topo.links()) links_.push_back(link.get());

  stamp_.assign(n, 0.0);
  min_residual_.assign(n, std::numeric_limits<double>::infinity());
  saw_residual_.assign(n, 0);
  bytes_serviced_.assign(n, 0);

  net::ControlStamp mode = net::ControlStamp::kNone;
  switch (params_.scheme) {
    case Scheme::kNumFabric:
      mode = net::ControlStamp::kXwiPrice;
      price_.assign(n, params_.numfabric.initial_price);
      stamp_ = price_;
      break;
    case Scheme::kDgd:
      mode = net::ControlStamp::kFeedback;
      price_.assign(n, params_.dgd.initial_price);
      stamp_ = price_;
      break;
    case Scheme::kRcpStar: {
      mode = net::ControlStamp::kFeedback;
      fair_share_bps_.resize(n);
      for (std::size_t i = 0; i < n; ++i) {
        // Start by advertising the link's own capacity.
        fair_share_bps_[i] = links_[i]->rate_bps();
        stamp_[i] = std::pow(num::to_rate_units(fair_share_bps_[i]),
                             -params_.rcp.alpha);
      }
      break;
    }
    case Scheme::kDctcp:
    case Scheme::kPFabric:
      throw std::logic_error("ControlPlane: scheme has no link state");
  }

  // The arrays are at their final addresses now; hand them to the links.
  arrays_.stamp = stamp_.data();
  arrays_.min_residual = min_residual_.data();
  arrays_.saw_residual = saw_residual_.data();
  arrays_.bytes_serviced = bytes_serviced_.data();
  for (std::size_t i = 0; i < n; ++i) {
    links_[i]->attach_control(mode, &arrays_, static_cast<std::uint32_t>(i));
  }

  tick_.arm(sim_, interval_for(params_), [this] { sweep(); });
}

void ControlPlane::sweep() {
  switch (params_.scheme) {
    case Scheme::kNumFabric:
      sweep_xwi();
      break;
    case Scheme::kDgd:
      sweep_dgd();
      break;
    case Scheme::kRcpStar:
      sweep_rcp();
      break;
    case Scheme::kDctcp:
    case Scheme::kPFabric:
      break;
  }
  links_swept_ += links_.size();
  auto& stats = sim::substrate_stats();
  ++stats.control_ticks;
  stats.links_swept += links_.size();
}

// Fig. 3's per-interval xWI price update (Eqs. 10-11): a backlogged link
// counts as fully utilized (byte counting alone undercounts by up to a
// packet per interval), a quiet interval contributes min_res = 0 so only
// the under-utilization term acts, and the new price is beta-averaged with
// the old.
void ControlPlane::sweep_xwi() {
  const double eta = params_.numfabric.eta;
  const double beta = params_.numfabric.beta;
  for (std::size_t i = 0; i < links_.size(); ++i) {
    const net::Link* link = links_[i];
    const double utilization =
        link->queue().empty()
            ? std::min(static_cast<double>(bytes_serviced_[i]) * 8.0 /
                           (interval_seconds_ * link->rate_bps()),
                       1.0)
            : 1.0;
    const double min_res = saw_residual_[i] ? min_residual_[i] : 0.0;
    const double price = price_[i];
    const double new_price = std::max(
        price + min_res - eta * (1.0 - utilization) * price, 0.0);
    price_[i] = beta * price + (1.0 - beta) * new_price;
    stamp_[i] = price_[i];
    bytes_serviced_[i] = 0;
    min_residual_[i] = std::numeric_limits<double>::infinity();
    saw_residual_[i] = 0;
  }
}

// Eq. 14: p <- [p + a (y - C) + b q]_+, rates in Mbps, queue in bytes.
void ControlPlane::sweep_dgd() {
  const double a = params_.dgd.a;
  const double b = params_.dgd.b;
  for (std::size_t i = 0; i < links_.size(); ++i) {
    const net::Link* link = links_[i];
    const double y_mbps = num::to_rate_units(
        static_cast<double>(bytes_serviced_[i]) * 8.0 / interval_seconds_);
    const double c_mbps = num::to_rate_units(link->rate_bps());
    const double q_bytes = static_cast<double>(link->queue().bytes());
    price_[i] =
        std::max(price_[i] + a * (y_mbps - c_mbps) + b * q_bytes, 0.0);
    stamp_[i] = price_[i];
    bytes_serviced_[i] = 0;
  }
}

// Eq. 15, with the flows' average RTT d approximated as base RTT + local
// queueing delay.  The per-packet stamp R^-alpha is one std::pow per link
// per tick, not one per data dequeue.
void ControlPlane::sweep_rcp() {
  const double t = interval_seconds_;
  const double alpha = params_.rcp.alpha;
  for (std::size_t i = 0; i < links_.size(); ++i) {
    const net::Link* link = links_[i];
    const double capacity = link->rate_bps();
    const double y = static_cast<double>(bytes_serviced_[i]) * 8.0 / t;
    const double q_bits = static_cast<double>(link->queue().bytes()) * 8.0;
    const double d = sim::to_seconds(params_.rcp.avg_rtt) + q_bits / capacity;
    const double gain = std::clamp(
        (t / d) * (params_.rcp.a * (capacity - y) -
                   params_.rcp.b * q_bits / d) / capacity,
        -kRcpMaxGain, kRcpMaxGain);
    fair_share_bps_[i] = std::clamp(fair_share_bps_[i] * (1.0 + gain),
                                    kRcpMinShareFraction * capacity,
                                    kRcpMaxShareFactor * capacity);
    stamp_[i] = std::pow(num::to_rate_units(fair_share_bps_[i]), -alpha);
    bytes_serviced_[i] = 0;
  }
}

}  // namespace numfabric::transport
