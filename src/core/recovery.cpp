#include "core/recovery.hpp"

#include <map>
#include <sstream>

#include "net/machine.hpp"
#include "sim/simulator.hpp"

namespace anton::core {

// --- the deadline race ------------------------------------------------------

std::string WatchdogReport::describe() const {
  std::ostringstream os;
  os << "counted write on node " << dst.node << "/client " << dst.client
     << " counter " << counterId << (timedOut ? " TIMED OUT" : " resolved")
     << " at " << sim::toNs(resolvedAt) << " ns: " << arrived << "/"
     << expected << " arrived";
  if (!missing.empty()) {
    os << "; missing:";
    for (const MissingSource& m : missing)
      os << " node " << m.node << " (" << m.arrived << "/" << m.expected
         << ")";
  }
  return os.str();
}

namespace {

WatchdogReport diagnose(const WatchedWait& w, bool timedOut) {
  WatchdogReport r;
  r.timedOut = timedOut;
  r.expected = w.target;
  r.arrived = w.client.counterValue(w.counterId);
  r.resolvedAt = w.client.machine().sim().now();
  r.dst = w.client.addr();
  r.counterId = w.counterId;
  if (!timedOut) return r;  // a counter win needs no shortfall
  const std::map<int, std::uint64_t> sources =
      w.client.counterSources(w.counterId);
  for (const verify::SourceCount& s : w.owed) {
    auto it = sources.find(s.src);
    const std::uint64_t got = it == sources.end() ? 0 : it->second;
    if (got < s.packets) r.missing.push_back({s.src, s.packets, got});
  }
  return r;
}

}  // namespace

void WatchedWait::await_suspend(std::coroutine_handle<> h) {
  // Whichever racer runs first retracts the other: the counter wake cancels
  // the deadline; the deadline cancels the counter waiter, which stays
  // retractable until its wake runs (counters never reset, so an unmet
  // threshold would pin the callback forever). A threshold already met
  // resumes after the poll latency with no deadline armed.
  waiter = client.onCounter(counterId, target, [this, h] {
    client.machine().sim().cancelDeadline(deadline);
    report = diagnose(*this, /*timedOut=*/false);
    h.resume();
  });
  if (waiter == 0) return;
  sim::Simulator& sim = client.machine().sim();
  deadline = sim.armDeadline(sim.now() + timeout, [this, h] {
    client.cancelCounterWaiter(counterId, waiter);
    report = diagnose(*this, /*timedOut=*/true);
    h.resume();
  });
}

// --- DropRegistry -----------------------------------------------------------

DropRegistry::DropRegistry(net::Machine& machine) : machine_(machine) {
  machine_.setDropHandler([this](const net::PacketPtr& p,
                                 const std::vector<net::ClientAddr>& denied) {
    ++drops_;
    for (const net::ClientAddr& d : denied)
      entries_.push_back({p, d, machine_.sim().now()});
  });
}

DropRegistry::~DropRegistry() { machine_.setDropHandler(nullptr); }

std::vector<net::PacketPtr> DropRegistry::take(int counterId, int srcNode,
                                               net::ClientAddr dst) {
  std::vector<net::PacketPtr> out;
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->packet->counterId == counterId &&
        it->packet->src.node == srcNode && it->denied == dst) {
      out.push_back(it->packet);
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
  return out;
}

void DropRegistry::prune(sim::Time before) {
  std::erase_if(entries_,
                [before](const Entry& e) { return e.droppedAt < before; });
}

// --- replay -----------------------------------------------------------------

std::size_t resendFromRegistry(net::Machine& machine, DropRegistry& registry,
                               const WatchdogReport& report) {
  std::size_t resent = 0;
  for (const WatchdogReport::MissingSource& m : report.missing) {
    for (const net::PacketPtr& p :
         registry.take(report.counterId, m.node, report.dst)) {
      // Clone on replay: post() builds a fresh Packet sharing only the
      // payload slot. Re-injecting the registry-held object would mutate
      // bookkeeping (injectedAt, routeSalt, tailLag) on a Packet whose
      // other multicast replicas may still be in flight — and would replay
      // a multicast header as a multicast, re-fanning the whole tree.
      net::NetworkClient::SendArgs args;
      args.type = p->type;
      args.dst = report.dst;  // unicast replay, even for a multicast drop
      args.counterId = p->counterId;
      args.address = p->address;
      args.inOrder = p->inOrder;
      args.degradedRoute = true;  // avoid the link that ate the original
      args.payload = p->payload;
      machine.client(p->src).post(args);
      ++resent;
    }
  }
  return resent;
}

// --- the retry loop ---------------------------------------------------------

sim::Task recoverCounted(net::NetworkClient& client, int counterId,
                         std::uint64_t target,
                         std::span<const verify::SourceCount> owed,
                         const RecoveryHooks& hooks) {
  const RecoveryConfig& cfg = hooks.config;
  RecoveryStats stats;
  auto flushStats = [&] {
    if (hooks.stats != nullptr) hooks.stats->accumulate(stats);
  };
  std::uint64_t lastSeen = client.counterValue(counterId);
  try {
    for (int spent = 0;;) {
      // A spent round waits timeout + spent*backoff: the wait stays armed
      // continuously (no blind window between rounds) and cascaded
      // recoveries — a waiter whose upstream sender is itself recovering —
      // get linearly more patience instead of burning the budget at a
      // fixed cadence.
      WatchdogReport r = co_await watchCounter(
          client, counterId, target,
          cfg.timeout + sim::Time(spent) * cfg.resendBackoff, owed);
      if (!r.timedOut) break;
      ++stats.timeouts;
      const std::uint64_t seen = client.counterValue(counterId);
      const bool progressed = seen > lastSeen;
      lastSeen = seen;
      if (!progressed && spent >= cfg.maxResends) {
        ++stats.hardFailures;
        throw RecoveryFailure(std::move(r));
      }
      const std::size_t replayed =
          resendFromRegistry(client.machine(), *hooks.registry, r);
      stats.resends += replayed;
      if (progressed && replayed == 0) {
        // The counter advanced during the round and the registry owed us
        // nothing: the shortfall is progress-bound, not loss-bound —
        // typically an upstream sender mid-recovery still draining toward
        // us. Re-arm without charging the resend budget; a trickling
        // cascade must not be escalated into a hard failure while it is
        // visibly making progress. (A round that actually replayed packets
        // is charged even when it also progressed: real loss was found.)
        ++stats.progressRounds;
        continue;
      }
      ++spent;
    }
  } catch (...) {
    flushStats();
    throw;
  }
  flushStats();
}

}  // namespace anton::core
