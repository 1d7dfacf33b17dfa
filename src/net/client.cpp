#include "net/client.hpp"

#include <algorithm>

#include "net/machine.hpp"

namespace anton::net {

NetworkClient::NetworkClient(Machine& machine, ClientAddr addr,
                             std::span<std::byte> mem, int numCounters)
    : machine_(machine), addr_(addr), mem_(mem), numCounters_(numCounters) {}

void NetworkClient::hostWrite(std::uint32_t address, const void* data,
                              std::size_t n) {
  if (address + n > mem_.size())
    throw std::out_of_range("NetworkClient::hostWrite out of range");
  std::memcpy(mem_.data() + address, data, n);
}

sim::Time NetworkClient::pollLatency() const {
  return machine_.delays().pollSuccess;
}

void NetworkClient::CounterWait::await_suspend(std::coroutine_handle<> h) const {
  SyncCounter& c = client.counter(id);
  if (c.value >= target) {
    // Already satisfied: the poll still costs one successful-poll latency.
    client.machine_.sim().resumeAfter(client.pollLatency(), h);
  } else {
    c.waiters.push_back({target, 0, [h] { h.resume(); }});
  }
}

std::uint64_t NetworkClient::onCounter(int id, std::uint64_t target,
                                       std::function<void()> fn) {
  checkCounter(id);
  SyncCounter& c = counter(id);
  if (c.value >= target) {
    machine_.sim().after(pollLatency(), std::move(fn));
    return 0;
  }
  std::uint64_t token = ++waiterSeq_;
  c.waiters.push_back({target, token, std::move(fn)});
  return token;
}

bool NetworkClient::cancelCounterWaiter(int id, std::uint64_t token) {
  if (token == 0) return false;
  checkCounter(id);
  SyncCounter& c = counter(id);
  for (auto it = c.waiters.begin(); it != c.waiters.end(); ++it) {
    if (it->token == token) {
      c.waiters.erase(it);
      return true;
    }
  }
  return false;
}

std::map<int, std::uint64_t> NetworkClient::counterSources(int id) const {
  std::map<int, std::uint64_t> out;
  for (const TallyCell& c : tally_)
    if (c.key != kFreeCell && (c.key >> 32) == std::uint64_t(std::uint32_t(id)))
      out[int(std::uint32_t(c.key))] = c.count;
  return out;
}

std::size_t NetworkClient::tallyCell(std::uint64_t key) {
  if (2 * (tallyUsed_ + 1) > tally_.size()) {
    std::vector<TallyCell> old(std::max<std::size_t>(16, 2 * tally_.size()),
                               TallyCell{kFreeCell, 0});
    old.swap(tally_);
    tallyUsed_ = 0;
    for (const TallyCell& c : old)
      if (c.key != kFreeCell) tally_[tallyCell(c.key)].count = c.count;
  }
  const std::size_t mask = tally_.size() - 1;
  // Fibonacci hashing: the high bits of key * 2^64/phi.
  std::size_t i = std::size_t((key * 0x9E3779B97F4A7C15ull) >> 32) & mask;
  while (tally_[i].key != key) {
    if (tally_[i].key == kFreeCell) {
      tally_[i].key = key;
      ++tallyUsed_;
      break;
    }
    i = (i + 1) & mask;
  }
  return i;
}

void NetworkClient::bumpCounter(int id, sim::Time /*now*/, int srcNode) {
  SyncCounter& c = counter(id);
  ++c.value;
  if (srcNode >= 0) {
    std::uint64_t key = tallyKey(id, srcNode);
    if (tally_.empty() || tally_[lastTally_].key != key)
      lastTally_ = tallyCell(key);
    ++tally_[lastTally_].count;
  }
  // Wake every poller whose threshold is now met; each resumes after the
  // polling latency of this client's counter bank.
  for (auto it = c.waiters.begin(); it != c.waiters.end();) {
    if (it->due || it->target > c.value) {
      ++it;
    } else if (it->token != 0) {
      it->due = true;
      machine_.sim().after(pollLatency(),
                           [this, id, token = it->token] { wakeDue(id, token); });
      ++it;
    } else {
      machine_.sim().after(pollLatency(), std::move(it->wake));
      it = c.waiters.erase(it);
    }
  }
}

void NetworkClient::wakeDue(int id, std::uint64_t token) {
  std::vector<SyncCounter::Waiter>& ws = counter(id).waiters;
  auto it = std::find_if(ws.begin(), ws.end(), [token](const auto& w) {
    return w.token == token;
  });
  if (it == ws.end()) return;  // retracted while its poll was in flight
  std::function<void()> wake = std::move(it->wake);
  ws.erase(it);
  wake();
}

void NetworkClient::deliver(const PacketPtr& p) {
  if (p->type == PacketType::kFifo)
    throw std::logic_error("FIFO packet delivered to a non-slice client");
  if (p->type == PacketType::kAccum)
    throw std::logic_error(
        "accumulation packet delivered to a non-accumulation client");
  std::size_t n = p->payloadBytes();
  if (n != 0) {
    if (p->address + n > mem_.size())
      throw std::out_of_range("remote write past end of client memory");
    std::memcpy(mem_.data() + p->address, p->payload->data(), n);
  }
  if (p->counterId != kNoCounter) {
    checkCounter(p->counterId);
    bumpCounter(p->counterId, machine_.sim().now(), p->src.node);
  }
}

PacketPtr NetworkClient::post(const SendArgs& args) {
  if (!canSend())
    throw std::logic_error("this client type cannot inject packets");
  PacketPtr p = allocatePacket();
  p->type = args.type;
  p->src = addr_;
  p->dst = args.dst;
  p->multicastPattern = args.multicastPattern;
  p->counterId = args.counterId;
  p->address = args.address;
  p->inOrder = args.inOrder;
  p->degradedRoute = args.degradedRoute;
  p->payload = args.payload;
  machine_.inject(p);
  return p;
}

sim::Task NetworkClient::send(SendArgs args) {
  PacketPtr p = post(args);
  // Packet creation is pipelined: the core is occupied for the injection
  // slot (or the wire serialization, whichever is longer), while the 36 ns
  // assembly latency is charged inside the packet's own pipeline.
  const HopDelays& d = machine_.delays();
  co_await machine_.sim().delay(
      std::max(d.injectOccupancy, d.linkSerialization[p->wire]));
}

// --- ProcessingSlice ------------------------------------------------------

void ProcessingSlice::deliver(const PacketPtr& p) {
  if (p->type == PacketType::kFifo) {
    fifo_.push(p);
    fifoHighWater_ = std::max(fifoHighWater_, fifo_.size());
    if (p->counterId != kNoCounter) {
      checkCounter(p->counterId);
      bumpCounter(p->counterId, machine_.sim().now(), p->src.node);
    }
    tryWakeFifoWaiter(machine_.sim().now());
    return;
  }
  NetworkClient::deliver(p);
}

void ProcessingSlice::FifoWait::await_suspend(std::coroutine_handle<> h) {
  slice.fifoWaiters_.push({this, h});
  slice.tryWakeFifoWaiter(slice.machine().sim().now());
}

void ProcessingSlice::tryWakeFifoWaiter(sim::Time /*now*/) {
  while (!fifoWaiters_.empty() && !fifo_.empty()) {
    FifoWaiterRef w = fifoWaiters_.pop();
    w.wait->result = fifo_.pop();
    machine_.sim().resumeAfter(pollLatency(), w.handle);
  }
}

// --- AccumulationMemory ---------------------------------------------------

sim::Time AccumulationMemory::pollLatency() const {
  return machine_.delays().accumPoll;
}

void AccumulationMemory::deliver(const PacketPtr& p) {
  if (p->type != PacketType::kAccum) {
    NetworkClient::deliver(p);
    return;
  }
  // Accumulation packets add their payload to memory in 4-byte quantities
  // (two's-complement fixed point; associative and order-independent).
  std::size_t n = p->payloadBytes();
  if (n % 4 != 0)
    throw std::logic_error("accumulation payload must be a multiple of 4 bytes");
  if (p->address % 4 != 0)
    throw std::logic_error("accumulation address must be 4-byte aligned");
  if (p->address + n > mem_.size())
    throw std::out_of_range("accumulation past end of memory");
  // A 0-byte accumulation carries no payload buffer at all.
  const std::byte* src = n != 0 ? p->payload->data() : nullptr;
  for (std::size_t off = 0; off < n; off += 4) {
    std::uint32_t cur, add;
    std::memcpy(&cur, mem_.data() + p->address + off, 4);
    std::memcpy(&add, src + off, 4);
    cur += add;  // wrapping add == two's-complement fixed-point accumulate
    std::memcpy(mem_.data() + p->address + off, &cur, 4);
  }
  if (p->counterId != kNoCounter) {
    checkCounter(p->counterId);
    bumpCounter(p->counterId, machine_.sim().now(), p->src.node);
  }
}

}  // namespace anton::net
