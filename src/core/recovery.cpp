#include "core/recovery.hpp"

#include "net/machine.hpp"
#include "sim/simulator.hpp"

namespace anton::core {

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

sim::Task RecoverableCountedWrite::await(std::uint64_t target,
                                         const ResendFn& resend) {
  std::uint64_t lastSeen = client_.counterValue(counterId_);
  for (int spent = 0;;) {
    // A spent round waits timeout + spent*backoff: the wait stays armed
    // continuously (no blind window between rounds) and cascaded
    // recoveries — a waiter whose upstream sender is itself recovering —
    // get linearly more patience instead of burning the budget at a fixed
    // cadence.
    CountedWriteWatchdog wd(client_, counterId_,
                            cfg_.timeout + sim::Time(spent) * cfg_.resendBackoff);
    for (const auto& [node, want] : expected_) wd.expectFrom(node, want);
    wd.rerouteOnTimeout(cfg_.rerouteOnTimeout);
    WatchdogReport r = co_await wd.wait(target);
    if (!r.timedOut) co_return;
    ++stats_.timeouts;
    const std::uint64_t seen = client_.counterValue(counterId_);
    const bool progressed = seen > lastSeen;
    lastSeen = seen;
    if (!progressed && spent >= cfg_.maxResends) {
      ++stats_.hardFailures;
      throw RecoveryFailure(std::move(r));
    }
    const std::size_t replayed = resend(r);
    stats_.resends += replayed;
    if (progressed && replayed == 0) {
      // The counter advanced during the round and the registry owed us
      // nothing: the shortfall is progress-bound, not loss-bound —
      // typically an upstream sender mid-recovery still draining toward
      // us. Re-arm without charging the resend budget; a trickling
      // cascade must not be escalated into a hard failure while it is
      // visibly making progress. (A round that actually replayed packets
      // is charged even when it also progressed: real loss was found.)
      ++stats_.progressRounds;
      continue;
    }
    ++spent;
  }
}

sim::Task recoverCounted(net::NetworkClient& client, int counterId,
                         std::uint64_t target,
                         std::span<const verify::SourceCount> bySource,
                         const RecoveryHooks& hooks) {
  RecoverableCountedWrite rcw(client, counterId, hooks.config);
  for (const verify::SourceCount& s : bySource) rcw.expectFrom(s.src, s.packets);
  net::Machine& machine = client.machine();
  DropRegistry& registry = *hooks.registry;
  auto replay = [&machine, &registry](const WatchdogReport& r) {
    return resendFromRegistry(machine, registry, r);
  };
  try {
    co_await rcw.await(target, replay);
  } catch (...) {
    if (hooks.stats != nullptr) hooks.stats->accumulate(rcw.stats());
    throw;
  }
  if (hooks.stats != nullptr) hooks.stats->accumulate(rcw.stats());
}

}  // namespace anton::core
