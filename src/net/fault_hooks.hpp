// Fault-injection hook interface of the network model.
//
// The lossless-fabric assumption of the SC10 machine makes a single lost or
// corrupted packet fatal: counted remote writes deliver a pre-known packet
// count, so a consumer polling a sync counter for a packet that never
// arrives spins forever. The reliability subsystem (src/fault) models the
// faults the real hardware guards against — link bit errors caught by
// per-link CRC and repaired by link-level retransmission, link outage
// windows, and stalled on-chip routers.
//
// This header defines only the hook interface so that anton_net does not
// depend on the fault library: the machine consults an installed FaultModel
// at three points (link departure, routing-dimension choice, node-ring
// entry) and charges whatever delay the model dictates. With no model
// installed — or with a model that reports no faults — the data path is
// bit-identical to the fault-free machine.
#pragma once

#include <cstddef>

#include "sim/time.hpp"

namespace anton::net {

/// Outcome of one link-traversal attempt under an installed fault model.
struct LinkFaultOutcome {
  /// CRC-detected corrupt copies replayed before the successful one. Each
  /// replay charges the packet's wire serialization plus the calibrated
  /// retransmit turnaround (LatencyConfig::crcRetransmitNs) and keeps the
  /// link occupied for that window.
  int retransmits = 0;
  /// Time the adapter holds the packet before transmission (link outage).
  sim::Time stall = 0;
  /// The link layer exhausted its retransmit budget: every copy (original
  /// plus `retransmits` replays) was corrupt, so the hardware declares the
  /// link failed and DROPS the packet. The machine records the loss
  /// (MachineStats::linkFailures, "linkfail" trace kind, drop handler) and
  /// schedules no delivery — loss becomes an observable condition for the
  /// software erasure-recovery layer (core/recovery.hpp) instead of a
  /// silently-delivered corrupt packet.
  bool linkFailed = false;
};

class FaultModel {
 public:
  virtual ~FaultModel() = default;

  /// Called once per link-traversal attempt at its departure time. The
  /// returned stall is applied first, then the retransmit replays; both
  /// extend the link busy window and the packet's in-flight time.
  virtual LinkFaultOutcome onLinkTraversal(int nodeIdx, int dim, int sign,
                                           std::size_t wireBytes,
                                           sim::Time depart) = 0;

  /// Whether the outgoing link of `nodeIdx` in (dim, sign) is inside an
  /// outage window at `t`. Consulted by degraded-mode routing
  /// (MachineConfig::faultReroute, Packet::degradedRoute) to pick a
  /// non-preferred dimension order.
  virtual bool linkDown(int nodeIdx, int dim, int sign, sim::Time t) const = 0;

  /// Earliest time >= t at which the on-chip ring of `nodeIdx` is usable
  /// (stalled-router intervals). Return `t` when the router is healthy.
  virtual sim::Time routerStallUntil(int nodeIdx, sim::Time t) const = 0;
};

}  // namespace anton::net
