#include "sim/simulator.hpp"

#include <stdexcept>
#include <utility>

namespace anton::sim {

namespace {
/// Completed root-task frames are reaped every this many events, so
/// long-running simulations (millions of MD-step events) don't accumulate
/// every finished coroutine frame until the queue drains.
constexpr std::uint64_t kReapInterval = 1024;
}  // namespace

// --- slot arena -------------------------------------------------------------

std::uint32_t Simulator::park(Callback fn, EventHandle cancelled) {
  if (!freeSlots_.empty()) {
    std::uint32_t idx = freeSlots_.back();
    freeSlots_.pop_back();
    slots_[idx].fn = std::move(fn);
    slots_[idx].cancelled = std::move(cancelled);
    return idx;
  }
  slots_.push_back(Slot{std::move(fn), std::move(cancelled)});
  return std::uint32_t(slots_.size() - 1);
}

void Simulator::release(std::uint32_t idx) {
  slots_[idx].fn = Callback{};
  if (slots_[idx].cancelled) {
    slots_[idx].cancelled.reset();
    --liveCancellable_;
  }
  freeSlots_.push_back(idx);
}

void Simulator::purgeCancelled() {
  // Cancelled events are discarded unexecuted and leave the clock untouched:
  // a retracted deadline must not stretch the simulated timeline. With no
  // cancellable events pending there is nothing to purge — and no reason to
  // touch the slot arena per step.
  if (liveCancellable_ == 0) return;
  while (!queue_.empty() && slotCancelled(queue_.top().slot)) {
    if (CausalLog* log = causalOracle()) log->onDiscard(queue_.top().seq);
    release(queue_.top().slot);
    queue_.pop();
  }
}

// --- scheduling -------------------------------------------------------------

void Simulator::at(Time t, Callback fn) {
  if (t < now_) throw std::logic_error("Simulator::at: event scheduled in the past");
  std::uint32_t slot = park(std::move(fn), nullptr);
  std::uint64_t seq = nextSeq_++;
  if (CausalLog* log = causalOracle()) log->noteScheduled(seq);
  queue_.push(Event{t, seq, slot});
}

void Simulator::atReserved(Time t, std::uint64_t seq, Callback fn) {
  if (t < now_)
    throw std::logic_error("Simulator::atReserved: event scheduled in the past");
  if (seq >= nextSeq_)
    throw std::logic_error("Simulator::atReserved: seq was not reserved");
  std::uint32_t slot = park(std::move(fn), nullptr);
  // Insert-if-absent: a caller that attributed the seq at its reservation
  // point (net::Machine's batched drains) already fixed node and parent.
  if (CausalLog* log = causalOracle()) log->noteScheduled(seq);
  queue_.push(Event{t, seq, slot});
}

Simulator::EventHandle Simulator::atCancellable(Time t, Callback fn) {
  EventHandle h = std::allocate_shared<bool>(
      util::PoolAllocator<bool>(eventHandlePool()), false);
  if (t < now_)
    throw std::logic_error("Simulator::atCancellable: event scheduled in the past");
  std::uint32_t slot = park(std::move(fn), h);
  ++liveCancellable_;
  std::uint64_t seq = nextSeq_++;
  if (CausalLog* log = causalOracle()) log->noteScheduled(seq);
  queue_.push(Event{t, seq, slot});
  return h;
}

void Simulator::spawn(Task task) {
  roots_.push_back(std::move(task));
  roots_.back().startDetached();
  reapRoots();
}

void Simulator::reapRoots() {
  for (auto it = roots_.begin(); it != roots_.end();) {
    if (it->done()) {
      it->rethrowIfFailed();
      it = roots_.erase(it);
    } else {
      ++it;
    }
  }
}

// --- execution --------------------------------------------------------------

bool Simulator::step() {
  purgeCancelled();
  if (queue_.empty()) return false;
  Event ev = queue_.top();
  queue_.pop();
  // Move the callback out before running it: the callback may itself
  // schedule events, reusing (or growing) the slot arena.
  Callback fn = std::move(slots_[ev.slot].fn);
  release(ev.slot);
  now_ = ev.t;
  ++processed_;
  if (CausalLog* log = causalOracle()) log->onExecute(ev.t, ev.seq);
  fn();
  // Re-fetch: the callback may have attached or detached the oracle.
  if (CausalLog* log = causalOracle()) log->onExecuteDone();
  return true;
}

std::uint64_t Simulator::run() {
  std::uint64_t n = 0;
  while (step()) {
    if (++n % kReapInterval == 0) reapRoots();
  }
  reapRoots();
  return n;
}

std::uint64_t Simulator::runUntil(Time deadline) {
  std::uint64_t n = 0;
  while (true) {
    purgeCancelled();
    if (queue_.empty() || queue_.top().t > deadline) break;
    step();
    if (++n % kReapInterval == 0) reapRoots();
  }
  if (now_ < deadline) now_ = deadline;
  reapRoots();
  return n;
}

std::size_t Simulator::reset() {
  // Sweep the WHOLE queue, not just the purgeable top: a retracted deadline
  // buried under a live event is discarded-but-clean, and counting it would
  // trip the serve layer's arenaDirtyResets == 0 audit with a false leak.
  std::size_t discarded = roots_.size();
  for (const Event& ev : queue_.container()) {
    if (!slotCancelled(ev.slot)) ++discarded;
    release(ev.slot);
  }
  queue_.container().clear();  // capacity is retained for arena reuse
  // Destroying a suspended root unwinds its frame without resuming it; any
  // events it scheduled are already gone with the queue.
  roots_.clear();
  now_ = 0;
  nextSeq_ = 0;
  processed_ = 0;
  // Sequence numbers restart: an attached oracle log must open a new epoch
  // so records from different generations cannot alias.
  if (CausalLog* log = causalOracle()) log->onReset();
  return discarded;
}

}  // namespace anton::sim
