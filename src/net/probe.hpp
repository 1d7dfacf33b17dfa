// Latency probes on the machine model: the SC10 §III-D measurement
// methodology (source posts a counted remote write at t0, receiver polls
// its sync counter; the successful poll is the software-to-software
// latency) as reusable helpers. One implementation backs the Fig. 5 bench,
// the fault sweep, and the fig5-ping job family of the simulation service
// (src/serve), so every consumer measures the same thing.
#pragma once

#include <algorithm>
#include <cstddef>

#include "net/machine.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace anton::net {

/// One-way counted-remote-write latency between two clients, in ns.
inline double oneWayLatencyNs(Machine& m, ClientAddr src, ClientAddr dst,
                              std::size_t payloadBytes, bool inOrder = false) {
  double done = -1.0;
  auto receiver = [](Machine& mm, ClientAddr d, double& out) -> sim::Task {
    NetworkClient& c = mm.client(d);
    co_await c.waitCounter(0, c.counterValue(0) + 1);
    out = sim::toNs(mm.sim().now());
  };
  m.sim().spawn(receiver(m, dst, done));
  double start = sim::toNs(m.sim().now());
  NetworkClient::SendArgs args;
  args.dst = dst;
  args.counterId = 0;
  args.inOrder = inOrder;
  if (payloadBytes != 0) args.payload = makeZeroPayload(payloadBytes);
  m.client(src).post(args);
  m.sim().run();
  return done - start;
}

/// Bidirectional variant: both endpoints send simultaneously; the reported
/// latency is the later of the two arrivals (ping-pong under full duplex).
inline double bidirLatencyNs(Machine& m, ClientAddr a, ClientAddr b,
                             std::size_t payloadBytes) {
  double doneA = -1.0, doneB = -1.0;
  auto receiver = [](Machine& mm, ClientAddr d, double& out) -> sim::Task {
    NetworkClient& c = mm.client(d);
    co_await c.waitCounter(0, c.counterValue(0) + 1);
    out = sim::toNs(mm.sim().now());
  };
  m.sim().spawn(receiver(m, a, doneA));
  m.sim().spawn(receiver(m, b, doneB));
  double start = sim::toNs(m.sim().now());
  NetworkClient::SendArgs args;
  args.counterId = 0;
  if (payloadBytes != 0) args.payload = makeZeroPayload(payloadBytes);
  args.dst = b;
  m.client(a).post(args);
  args.dst = a;
  args.address = 512;
  m.client(b).post(args);
  m.sim().run();
  return std::max(doneA, doneB) - start;
}

}  // namespace anton::net
