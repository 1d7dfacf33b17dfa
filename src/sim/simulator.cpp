#include "sim/simulator.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>

namespace anton::sim {

namespace {
/// Completed root-task frames are reaped every this many events, so
/// long-running simulations (millions of MD-step events) don't accumulate
/// every finished coroutine frame until the queue drains.
constexpr std::uint64_t kReapInterval = 1024;
}  // namespace

// --- event queue ------------------------------------------------------------

void Simulator::EventQueue::push(const Event& e) {
  ++size_;
  const std::uint64_t b = bucketOf(e.t);
  if (b <= curBucket_) {
    // The current bucket — or one before it, after top() made a later
    // bucket current and runUntil() then parked the clock short of it.
    cur_.push_back(e);
    std::push_heap(cur_.begin(), cur_.end(), Later{});
  } else if (b - curBucket_ < kRingBuckets) {
    pushRing(b, e);
  } else {
    far_.push_back(e);
    std::push_heap(far_.begin(), far_.end(), Later{});
  }
}

void Simulator::EventQueue::pushRing(std::uint64_t bucket, const Event& e) {
  if (head_.empty()) {
    head_.assign(kRingBuckets, kNoBlock);
    occupied_.assign(kRingBuckets / 64, 0);
  }
  const std::size_t i = std::size_t(bucket % kRingBuckets);
  std::uint32_t h = head_[i];
  if (h == kNoBlock || blocks_[h].n == kBlockEvents) {
    std::uint32_t fresh = freeBlock_;
    if (fresh != kNoBlock) {
      freeBlock_ = blocks_[fresh].next;
    } else {
      fresh = std::uint32_t(blocks_.size());
      blocks_.emplace_back();
    }
    blocks_[fresh].n = 0;
    blocks_[fresh].next = h;
    head_[i] = h = fresh;
    occupied_[i / 64] |= std::uint64_t(1) << (i % 64);
  }
  Block& blk = blocks_[h];
  blk.ev[blk.n++] = e;
  ++ringCount_;
}

template <typename F>
void Simulator::EventQueue::takeBucket(std::size_t i, F&& visit) {
  for (std::uint32_t b = head_[i]; b != kNoBlock;) {
    Block& blk = blocks_[b];
    for (std::uint32_t k = 0; k < blk.n; ++k) visit(blk.ev[k]);
    ringCount_ -= blk.n;
    const std::uint32_t older = blk.next;
    blk.next = freeBlock_;
    freeBlock_ = b;
    b = older;
  }
  head_[i] = kNoBlock;
  occupied_[i / 64] &= ~(std::uint64_t(1) << (i % 64));
}

const Simulator::Event* Simulator::EventQueue::pop() {
  std::pop_heap(cur_.begin(), cur_.end(), Later{});
  cur_.pop_back();
  --size_;
  return cur_.empty() ? nullptr : &cur_.front();
}

void Simulator::EventQueue::advance() {
  // cur_ is empty and events remain. Ring buckets all precede the far
  // heap's, so the next occupied ring bucket (cyclically after the current
  // one) is the next bucket with work; with the ring empty it is the far
  // heap's least.
  if (ringCount_ > 0) {
    const std::size_t from = std::size_t((curBucket_ + 1) % kRingBuckets);
    std::size_t w = from / 64;
    std::uint64_t bits = occupied_[w] & (~std::uint64_t(0) << (from % 64));
    while (bits == 0) {
      w = (w + 1) % occupied_.size();
      bits = occupied_[w];
    }
    const std::size_t i = w * 64 + std::size_t(std::countr_zero(bits));
    curBucket_ += 1 + (i + kRingBuckets - from) % kRingBuckets;
    takeBucket(i, [this](const Event& e) { cur_.push_back(e); });
    std::make_heap(cur_.begin(), cur_.end(), Later{});
  } else {
    curBucket_ = bucketOf(far_.front().t);
  }
  // The horizon moved with the current bucket: pull in the far events it
  // now covers (the far heap's least first, so this stops at the first
  // event still beyond it).
  while (!far_.empty() &&
         bucketOf(far_.front().t) < curBucket_ + kRingBuckets) {
    const Event e = far_.front();
    std::pop_heap(far_.begin(), far_.end(), Later{});
    far_.pop_back();
    --size_;
    push(e);
  }
}

template <typename F>
void Simulator::EventQueue::drain(F&& visit) {
  for (const Event& e : cur_) visit(e);
  cur_.clear();
  for (std::size_t w = 0; ringCount_ > 0 && w < occupied_.size(); ++w)
    while (occupied_[w] != 0)
      takeBucket(w * 64 + std::size_t(std::countr_zero(occupied_[w])), visit);
  for (const Event& e : far_) visit(e);
  far_.clear();
  size_ = 0;
  curBucket_ = 0;
}

// --- slot arena -------------------------------------------------------------

std::uint32_t Simulator::park(Callback&& fn) {
  if (!freeSlots_.empty()) {
    std::uint32_t idx = freeSlots_.back();
    freeSlots_.pop_back();
    slots_[idx] = std::move(fn);
    return idx;
  }
  slots_.push_back(std::move(fn));
  return std::uint32_t(slots_.size() - 1);
}

void Simulator::release(std::uint32_t idx) {
  slots_[idx] = Callback{};
  freeSlots_.push_back(idx);
}

// --- scheduling -------------------------------------------------------------

void Simulator::at(Time t, Callback fn) {
  if (t < now_) throw std::logic_error("Simulator::at: event scheduled in the past");
  std::uint32_t slot = park(std::move(fn));
  queue_.push(Event{t, nextSeq_++, slot});
}

void Simulator::atReserved(Time t, std::uint64_t seq, Callback fn) {
  if (t < now_)
    throw std::logic_error("Simulator::atReserved: event scheduled in the past");
  if (seq >= nextSeq_)
    throw std::logic_error("Simulator::atReserved: seq was not reserved");
  std::uint32_t slot = park(std::move(fn));
  queue_.push(Event{t, seq, slot});
}

Simulator::DeadlineId Simulator::armDeadline(Time t, Callback fn) {
  if (t < now_)
    throw std::logic_error("Simulator::armDeadline: deadline in the past");
  deadlines_.push_back(Event{t, ++lastDeadline_, park(std::move(fn))});
  std::push_heap(deadlines_.begin(), deadlines_.end(), Later{});
  return lastDeadline_;
}

bool Simulator::cancelDeadline(DeadlineId id) {
  auto it = std::find_if(deadlines_.begin(), deadlines_.end(),
                         [id](const Event& d) { return d.seq == id; });
  if (it == deadlines_.end()) return false;
  release(it->slot);
  *it = deadlines_.back();
  deadlines_.pop_back();
  std::make_heap(deadlines_.begin(), deadlines_.end(), Later{});
  return true;
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
  Event ev;
  // The earliest deadline runs only once no queued event is at or before it.
  if (!deadlines_.empty() &&
      (queue_.empty() || queue_.top().t > deadlines_.front().t)) {
    ev = deadlines_.front();
    std::pop_heap(deadlines_.begin(), deadlines_.end(), Later{});
    deadlines_.pop_back();
    ev.seq = nextSeq_++;  // a deadline's place in the schedule: when it fires
  } else if (queue_.empty()) {
    return false;
  } else {
    ev = queue_.top();
    // The next event's slot was written when it was scheduled, often tens
    // of thousands of events ago: start loading it now, while this runs.
    if (const Event* next = queue_.pop()) {
      const char* p = reinterpret_cast<const char*>(&slots_[next->slot]);
      __builtin_prefetch(p);
      __builtin_prefetch(p + sizeof(Callback) - 1);
    }
  }
  // Move the callback out before running it: the callback may itself
  // schedule events, reusing (or growing) the slot arena.
  Callback fn = std::move(slots_[ev.slot]);
  release(ev.slot);
  now_ = ev.t;
  ++processed_;
  digest_ = (digest_ ^ std::uint64_t(ev.t)) * util::kFnvPrime;
  digest_ = (digest_ ^ ev.seq) * util::kFnvPrime;
  fn();
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

std::uint64_t Simulator::runUntil(Time until) {
  std::uint64_t n = 0;
  while ((!queue_.empty() && queue_.top().t <= until) ||
         (!deadlines_.empty() && deadlines_.front().t <= until)) {
    step();
    if (++n % kReapInterval == 0) reapRoots();
  }
  if (now_ < until) now_ = until;
  reapRoots();
  return n;
}

std::size_t Simulator::reset() {
  std::size_t discarded = roots_.size() + queue_.size() + deadlines_.size();
  queue_.drain([&](const Event& ev) { release(ev.slot); });
  for (const Event& d : deadlines_) release(d.slot);
  deadlines_.clear();  // capacity is retained for arena reuse
  // Destroying a suspended root unwinds its frame without resuming it; any
  // events it scheduled are already gone with the queue.
  roots_.clear();
  now_ = 0;
  nextSeq_ = 0;
  processed_ = 0;
  digest_ = util::kFnvOffsetBasis;
  return discarded;
}

}  // namespace anton::sim
