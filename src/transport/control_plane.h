// Control plane: one synchronized price tick over dense SoA state.
//
// NUMFabric's xWI layer (Fig. 3) — and the DGD / RCP* comparison schemes —
// are defined as *synchronized* per-interval updates of per-link state: the
// paper assumes PTP-grade clock sync and has every switch recompute at the
// same instants (§5, Table 2: every 30 us).
//
// ControlPlane owns ALL per-link state for the active scheme in
// structure-of-arrays form — prices, residual observations, serviced bytes,
// RCP* fair shares, the per-packet stamps — and drives the fabric from ONE
// sim::PeriodicTick: every interval a single event sweeps links in slot
// order.  The forwarding hot path reads/writes the arrays through an index
// baked into each Link (net::LinkControlArrays; no virtual dispatch), and
// the per-packet RCP* stamp R^-alpha is computed once per tick instead of
// one std::pow per packet.
//
// Determinism contract: slots are assigned in topology link order, the
// sweep visits slots 0..N-1 in that order, and the tick keeps the
// same-timestamp FIFO position its reschedule earned (sim::PeriodicTick).
// tests/control_plane_test.cc freezes the resulting per-update prices,
// per-packet stamps and whole-run incast FCTs as exact constants.
//
// Lifetime: the Fabric owns the ControlPlane; the Topology owns the Links.
// Links write into the arrays only while forwarding, so the usual
// declaration order (Simulator, Fabric, Topology) keeps every access valid.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "net/link.h"
#include "net/topology.h"
#include "sim/periodic_tick.h"
#include "sim/simulator.h"
#include "transport/dgd/dgd_sender.h"
#include "transport/flow.h"
#include "transport/numfabric/config.h"
#include "transport/rcp/rcp_sender.h"

namespace numfabric::transport {

class ControlPlane {
 public:
  struct Params {
    Scheme scheme = Scheme::kNumFabric;
    NumFabricConfig numfabric;
    DgdConfig dgd;
    RcpConfig rcp;
  };

  /// Builds the control plane for the scheme and takes over every link of
  /// `topo`: assigns slot ids in link order, wires the inline hot-path hooks
  /// into the SoA arrays, and arms the single periodic tick.  Returns
  /// nullptr for schemes with no per-link control state (DCTCP, pFabric).
  /// Call once, after the topology is fully built.
  static std::unique_ptr<ControlPlane> attach(sim::Simulator& sim,
                                              const Params& params,
                                              net::Topology& topo);

  ControlPlane(const ControlPlane&) = delete;
  ControlPlane& operator=(const ControlPlane&) = delete;

  Scheme scheme() const { return params_.scheme; }
  std::size_t link_count() const { return links_.size(); }

  /// Update interval of the active scheme.
  sim::TimeNs interval() const { return tick_.interval(); }

  /// Synchronized sweeps performed so far.
  std::uint64_t ticks() const { return tick_.ticks(); }

  /// Per-link updates performed across all sweeps (== ticks * link_count).
  std::uint64_t links_swept() const { return links_swept_; }

  /// Current per-link prices in slot order — xWI prices (kNumFabric) or DGD
  /// prices (kDgd).  Index with net::Link::control_slot().  The span stays
  /// valid (and its values live) for the ControlPlane's lifetime; reading it
  /// is one contiguous scan.
  std::span<const double> snapshot_prices() const { return price_; }

  /// Current RCP* advertised fair shares in slot order, bps (kRcpStar).
  std::span<const double> snapshot_fair_shares_bps() const {
    return fair_share_bps_;
  }

  double price(std::size_t slot) const { return price_[slot]; }
  double fair_share_bps(std::size_t slot) const {
    return fair_share_bps_[slot];
  }

 private:
  ControlPlane(sim::Simulator& sim, const Params& params);

  void attach_links(net::Topology& topo);
  void sweep();
  void sweep_xwi();
  void sweep_dgd();
  void sweep_rcp();

  sim::Simulator& sim_;
  Params params_;
  double interval_seconds_ = 0;

  // Per-link state in SoA form, indexed by slot == topology link
  // order.  Sized once at attach; never moves afterwards (links hold raw
  // pointers into the arrays via arrays_).
  std::vector<net::Link*> links_;
  std::vector<double> stamp_;                // what the data path stamps
  std::vector<double> min_residual_;         // xWI: min residual observation
  std::vector<std::uint8_t> saw_residual_;   // xWI: observation present
  std::vector<std::uint64_t> bytes_serviced_;
  std::vector<double> price_;                // xWI / DGD price
  std::vector<double> fair_share_bps_;       // RCP* advertised rate

  net::LinkControlArrays arrays_;
  sim::PeriodicTick tick_;
  std::uint64_t links_swept_ = 0;
};

}  // namespace numfabric::transport
