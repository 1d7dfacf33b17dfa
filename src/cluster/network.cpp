#include "cluster/network.hpp"

#include <algorithm>
#include <stdexcept>

namespace anton::cluster {

ClusterMachine::ClusterMachine(sim::Simulator& sim, int numNodes,
                               LogGPParams params)
    : sim_(sim), numNodes_(numNodes), params_(params),
      nodes_(std::size_t(numNodes)) {
  if (numNodes < 1) throw std::invalid_argument("cluster needs >= 1 node");
}

sim::Task ClusterMachine::send(int src, int dst, int tag, std::size_t bytes,
                               std::shared_ptr<const std::vector<double>> data) {
  if (dst < 0 || dst >= numNodes_) throw std::out_of_range("bad destination");
  ++messagesSent_;

  // The CPU is busy for o_s; injection happens at the end of that window.
  co_await sim_.delay(sim::us(params_.sendOverheadUs));

  NodeState& nic = nodes_[std::size_t(src)];
  sim::Time depart = std::max(sim_.now(), nic.nicFreeAt);
  sim::Time serialize = sim::us(params_.gapPerByteUs * double(bytes));
  nic.nicFreeAt = depart + std::max(sim::us(params_.gapUs), serialize);

  sim::Time arrive = depart + sim::us(params_.latencyUs) + serialize;
  Message msg{src, dst, tag, bytes, std::move(data)};
  sim_.at(arrive, [this, msg = std::move(msg)]() mutable { deliver(std::move(msg)); });
}

void ClusterMachine::deliver(Message msg) {
  NodeState& node = nodes_[std::size_t(msg.dst)];
  node.arrived.push_back(std::move(msg));
  tryMatch(node);
}

void ClusterMachine::RecvAwaiter::await_suspend(std::coroutine_handle<> h) {
  NodeState& node = m.nodes_[std::size_t(dst)];
  node.waiters.push_back({src, tag, this, h});
  if (timeout > 0) {
    // Deadline for the match; a message that matches first cancels it.
    deadline = m.sim_.armDeadline(m.sim_.now() + timeout, [this, h] {
      NodeState& nd = m.nodes_[std::size_t(dst)];
      std::erase_if(nd.waiters,
                    [this](const Waiter& w) { return w.awaiter == this; });
      timedOut = true;
      h.resume();
    });
  }
  m.tryMatch(node);
}

ClusterMachine::Message ClusterMachine::RecvAwaiter::await_resume() {
  if (timedOut)
    throw std::runtime_error(
        "cluster recv timed out: node " + std::to_string(dst) +
        " waiting on (src " +
        (src == kAnySource ? std::string("any") : std::to_string(src)) +
        ", tag " + std::to_string(tag) + ") — message lost or sender dead");
  return std::move(result);
}

void ClusterMachine::tryMatch(NodeState& node) {
  for (auto w = node.waiters.begin(); w != node.waiters.end();) {
    auto msg = std::find_if(node.arrived.begin(), node.arrived.end(),
                            [&](const Message& m) { return matches(*w, m); });
    if (msg == node.arrived.end()) {
      ++w;
      continue;
    }
    w->awaiter->result = std::move(*msg);
    node.arrived.erase(msg);
    sim_.cancelDeadline(w->awaiter->deadline);  // the match won the race
    // Receiver software completes the match after o_r.
    sim_.resumeAfter(sim::us(params_.recvOverheadUs), w->handle);
    w = node.waiters.erase(w);
  }
}

}  // namespace anton::cluster
