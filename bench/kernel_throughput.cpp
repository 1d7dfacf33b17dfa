// Event-kernel throughput: the zero-allocation hot path measured against
// the legacy (seed) heap-allocating kernel, in one process.
//
// Two workload shapes from the paper's experiments drive the kernel:
//
//   ping       Fig. 5-style counted remote writes across 1-4 x-hops on an
//              8x8x8 torus, 256 B payloads — the latency path.
//   allreduce  the 8x8x8 (512-node) dimension-ordered all-reduce of
//              Table 2 — the throughput path (thousands of in-flight
//              packets, deep event queue).
//
// Each shape runs twice: once with util::hotPath() fully off (the legacy
// reference: heap packets/payloads/frames/handles, std::function-sized
// event SBO, one scheduled event per link traversal) and once fully on
// (slab pools, 64 B inline event captures, batched per-link drains). The
// knobs change host allocation only, so both runs must produce an
// identical simulated schedule — checked here, and gated bit-exactly by
// determinism_test.
//
// A global operator new/delete override counts every heap allocation; the
// measured windows run after a warmup so pools and vector capacities are
// hot. Self-checks (exit 1): pooled/legacy schedule digests must match,
// and the pooled ping steady state must make ZERO allocations.
//
// Gated metrics (tools/check_perf_trajectory.py):
//   *_speedup_vs_legacy_floor  events/sec speedup, clamped at the 5x
//                              target so improvements never trip the gate
//   ping_zero_alloc_steady     1.0 = no allocation in the measured window
//   schedule_match             1.0 = pooled == legacy schedule digests
// Raw events/sec, packets/sec and allocs/event are host-dependent and
// recorded informationally (measured against themselves).
#include "bench_common.hpp"

#include <chrono>
#include <cstdlib>
#include <new>

#include "core/allreduce.hpp"
#include "util/hotpath.hpp"
#include "util/torus_coord.hpp"

namespace {
// Every operator new since process start (the bench is single-threaded).
std::uint64_t g_allocs = 0;
}

// --- counting allocator hook ------------------------------------------------
// Replacing the global allocation functions makes every heap allocation in
// the process observable; the bench reads windowed deltas of g_allocs. The
// nothrow forms are replaced too (std::stable_sort's buffer uses them), so
// every block the matching operator delete frees came from malloc here.

void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  ++g_allocs;
  return std::malloc(n != 0 ? n : 1);
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  ++g_allocs;
  void* p = nullptr;
  return posix_memalign(&p, std::size_t(a), n != 0 ? n : 1) == 0 ? p
                                                                 : nullptr;
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return ::operator new(n, std::nothrow);
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  return ::operator new(n, a, std::nothrow);
}
void* operator new(std::size_t n) {
  if (void* p = ::operator new(n, std::nothrow)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  if (void* p = ::operator new(n, a, std::nothrow)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return ::operator new(n, a);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

using namespace anton;

namespace {

struct RunStats {
  double wallSec = 0.0;
  std::uint64_t events = 0;   ///< kernel events in the measured window
  std::uint64_t packets = 0;  ///< packets injected in the measured window
  std::uint64_t allocs = 0;   ///< operator new calls in the measured window
  std::uint64_t digest = 0;   ///< schedule digest (mode-independent)

  double eventsPerSec() const { return double(events) / wallSec; }
  double packetsPerSec() const { return double(packets) / wallSec; }
};

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t scheduleDigest(sim::Simulator& sim, net::Machine& m) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  h = mix(h, std::uint64_t(sim.now()));
  h = mix(h, sim.eventsProcessed());
  const net::MachineStats& s = m.stats();
  h = mix(h, s.packetsInjected);
  h = mix(h, s.packetsDelivered);
  h = mix(h, s.linkTraversals);
  h = mix(h, s.wireBytes);
  h = mix(h, s.multicastForks);
  return h;
}

/// Fig. 5-shaped ping: counted 256 B remote writes to x-neighbors 1-4 hops
/// out. One probe per iteration; `warmup` iterations heat pools and vector
/// capacities before the `iters` measured ones.
RunStats runPing(bool hot, int warmup, int iters) {
  util::ScopedHotPath scoped(hot);
  sim::Simulator sim;
  net::Machine m(sim, {8, 8, 8});
  auto probe = [&](int i) {
    int hops = 1 + (i % 4);
    net::ClientAddr dst{util::torusIndex({hops, 0, 0}, m.shape()),
                        net::kSlice0};
    (void)net::oneWayLatencyNs(m, {0, net::kSlice0}, dst,
                               /*payloadBytes=*/256);
  };
  for (int i = 0; i < warmup; ++i) probe(i);

  RunStats out;
  std::uint64_t ev0 = sim.eventsProcessed();
  std::uint64_t pk0 = m.stats().packetsInjected;
  std::uint64_t al0 = g_allocs;
  auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) probe(i);
  out.wallSec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  out.events = sim.eventsProcessed() - ev0;
  out.packets = m.stats().packetsInjected - pk0;
  out.allocs = g_allocs - al0;
  out.digest = scheduleDigest(sim, m);
  return out;
}

/// Table 2's largest common shape: 512-node dimension-ordered all-reduce,
/// 4 doubles per node. Each round spawns one task per node and drains.
RunStats runAllReduce(bool hot, int warmupRounds, int rounds) {
  util::ScopedHotPath scoped(hot);
  sim::Simulator sim;
  net::Machine m(sim, {8, 8, 8});
  core::DimOrderedAllReduce red(m);
  std::vector<double> sum;
  auto round = [&] {
    for (int n = 0; n < m.numNodes(); ++n) {
      std::vector<double> in{double(n), 1.0, 2.0, 3.0};
      sim.spawn(red.run(n, std::move(in), n == 0 ? &sum : nullptr));
    }
    sim.run();
  };
  for (int r = 0; r < warmupRounds; ++r) round();

  RunStats out;
  std::uint64_t ev0 = sim.eventsProcessed();
  std::uint64_t pk0 = m.stats().packetsInjected;
  std::uint64_t al0 = g_allocs;
  auto t0 = std::chrono::steady_clock::now();
  for (int r = 0; r < rounds; ++r) round();
  out.wallSec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  out.events = sim.eventsProcessed() - ev0;
  out.packets = m.stats().packetsInjected - pk0;
  out.allocs = g_allocs - al0;
  out.digest = scheduleDigest(sim, m);
  for (double v : sum) {
    std::uint64_t bits;
    static_assert(sizeof bits == sizeof v);
    std::memcpy(&bits, &v, sizeof bits);
    out.digest = mix(out.digest, bits);
  }
  return out;
}

/// Best-of-N wall clock with the two modes interleaved: each repetition
/// runs legacy then pooled back to back, and the fastest wall time per mode
/// wins. The simulated work is deterministic (fresh kernel per run,
/// identical digest and event counts), so the minimum is the repeat least
/// disturbed by host noise — and interleaving means a load spike must hit
/// the SAME mode in every repetition to bias the gated speedup ratio.
template <typename F>
std::pair<RunStats, RunStats> bestOfPaired(int reps, F&& runMode) {
  std::pair<RunStats, RunStats> best{runMode(false), runMode(true)};
  for (int r = 1; r < reps; ++r) {
    RunStats legacy = runMode(false);
    RunStats pooled = runMode(true);
    if (legacy.wallSec < best.first.wallSec) best.first = legacy;
    if (pooled.wallSec < best.second.wallSec) best.second = pooled;
  }
  return best;
}

}  // namespace

int main() {
  bench::banner("Event-kernel throughput: pooled hot path vs legacy");

  constexpr int kReps = 7;
  constexpr int kPingWarmup = 500, kPingIters = 12000;
  constexpr int kArWarmup = 1, kArRounds = 2;

  auto [pingLegacy, pingPooled] = bestOfPaired(
      kReps, [&](bool hot) { return runPing(hot, kPingWarmup, kPingIters); });
  auto [arLegacy, arPooled] = bestOfPaired(kReps, [&](bool hot) {
    return runAllReduce(hot, kArWarmup, kArRounds);
  });

  double pingSpeedup = pingPooled.eventsPerSec() / pingLegacy.eventsPerSec();
  double arSpeedup = arPooled.eventsPerSec() / arLegacy.eventsPerSec();
  bool schedulesMatch = pingLegacy.digest == pingPooled.digest &&
                        arLegacy.digest == arPooled.digest;
  bool pingZeroAlloc = pingPooled.allocs == 0;
  double arAllocsPerEvent = double(arPooled.allocs) / double(arPooled.events);

  util::TablePrinter table(
      {"shape", "mode", "events/s", "packets/s", "allocs/event"});
  auto row = [&](const char* shape, const char* mode, const RunStats& r) {
    table.addRow({shape, mode, util::TablePrinter::num(r.eventsPerSec(), 0),
                  util::TablePrinter::num(r.packetsPerSec(), 0),
                  util::TablePrinter::num(double(r.allocs) / double(r.events),
                                          4)});
  };
  row("ping 8x8x8", "legacy", pingLegacy);
  row("ping 8x8x8", "pooled", pingPooled);
  row("allreduce 8x8x8", "legacy", arLegacy);
  row("allreduce 8x8x8", "pooled", arPooled);
  table.print(std::cout);
  std::cout << "ping speedup: " << util::TablePrinter::num(pingSpeedup, 2)
            << "x   allreduce speedup: "
            << util::TablePrinter::num(arSpeedup, 2) << "x\n";

  bench::JsonReporter json("kernel");
  // Gates: the speedup floors are clamped at the 5x target (improvements
  // must never read as deviation growth); the boolean invariants gate on
  // exact 1.0.
  json.record("ping_speedup_vs_legacy_floor", 5.0,
              std::min(pingSpeedup, 5.0), "x");
  json.record("allreduce_speedup_vs_legacy_floor", 5.0,
              std::min(arSpeedup, 5.0), "x");
  json.record("ping_zero_alloc_steady", 1.0, pingZeroAlloc ? 1.0 : 0.0,
              "bool");
  json.record("schedule_match", 1.0, schedulesMatch ? 1.0 : 0.0, "bool");
  // Host-dependent raw numbers: informational (deviation pinned 0).
  json.record("ping_events_per_sec", pingPooled.eventsPerSec(),
              pingPooled.eventsPerSec(), "events/s");
  json.record("ping_packets_per_sec", pingPooled.packetsPerSec(),
              pingPooled.packetsPerSec(), "packets/s");
  json.record("allreduce_events_per_sec", arPooled.eventsPerSec(),
              arPooled.eventsPerSec(), "events/s");
  json.record("allreduce_allocs_per_event", arAllocsPerEvent,
              arAllocsPerEvent, "allocs/event");

  bool ok = schedulesMatch && pingZeroAlloc;
  if (!schedulesMatch)
    std::cout << "\nSCHEDULE MISMATCH: pooled kernel diverged from legacy\n";
  if (!pingZeroAlloc)
    std::cout << "\nALLOCATION ON THE HOT PATH: " << pingPooled.allocs
              << " heap allocations in the pooled ping window\n";
  if (ok) std::cout << "\nkernel invariants hold\n";
  return ok ? 0 : 1;
}
