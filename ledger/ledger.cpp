// Host-time ledger: one run of one benchmark workload against the simulator
// libraries.
//
//   ledger --workload ping-sweep|md-512|serve-mix --seed N --seconds S
//          --trace 0|1 --out RAW.json [--trace-file TRACE.json]
//
// The run sets up (several times; run.py reports the median), measures its
// timed operations for S seconds in a closed loop, and then checks the
// outputs outside the timed window. It writes one raw JSON record: set-up
// and per-operation samples, host-process counters, correctness checks and
// a digest of the simulated statistics. run.py turns the record into the
// benchmark's metrics.
//
// With --trace 1 the timed window is split in two halves: the first runs
// with span recording off and the second with it on, and the difference
// between their per-operation medians is the tracing overhead. The traced
// half then prices each layer on its own (a probe decomposed into Machine
// build, probe and teardown; plan, verify and run per serve job kind),
// records per-layer metrics, and writes every span as Chrome Trace Event
// JSON.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <climits>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "md/anton_app.hpp"
#include "md/engine.hpp"
#include "net/machine.hpp"
#include "net/probe.hpp"
#include "plan_registry.hpp"
#include "serve/job_spec.hpp"
#include "serve/runner.hpp"
#include "serve/server.hpp"
#include "spans.hpp"
#include "util/json.hpp"
#include "verify/checks.hpp"
#include "verify/timing.hpp"

namespace {
// Every operator new since process start; atomic because server workers
// allocate too.
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

// --- counting allocator hook ------------------------------------------------
// Every replaceable allocation function, the nothrow forms included, so each
// allocation is counted and every pointer is freed by the allocator that made
// it.

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, std::size_t(a), n != 0 ? n : 1) != 0)
    throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return ::operator new(n, a);
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n != 0 ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
  return ::operator new(n, t);
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  return posix_memalign(&p, std::size_t(a), n != 0 ? n : 1) == 0 ? p : nullptr;
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t& t) noexcept {
  return ::operator new(n, a, t);
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

namespace ledger {
namespace {

using namespace anton;
namespace json = util::json;

/// Set-up repetitions per run (run.py reports their median): many where
/// set-up takes milliseconds, few where it builds a 512-node Machine.
constexpr int kPingSetupReps = 41;
constexpr int kMdSetupReps = 5;
constexpr int kServeSetupReps = 15;

/// Server workers of serve-mix at most.
constexpr int kMaxServeWorkers = 3;

/// Hand freed heap memory back to the OS before a set-up repetition, so
/// every repetition pays the page faults the first one pays.
void coldStart() { malloc_trim(0); }

double msSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

std::uint64_t allocs() { return g_allocs.load(std::memory_order_relaxed); }

struct Proc {
  std::uint64_t minflt = 0;
  double maxRssMb = 0.0;
};

Proc readProc() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return {std::uint64_t(ru.ru_minflt), double(ru.ru_maxrss) / 1024.0};
}

/// Pin the calling thread to the CPU that runs a short integer loop
/// fastest, and return that CPU (-1 if affinity is unavailable). On a shared
/// host the virtual CPUs can differ in speed by tens of percent; a
/// single-threaded run that lands on a slow one reads as a slow program.
int pinToFastestCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return -1;
  auto pin = [](int cpu) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof one, &one) == 0;
  };
  int best = -1;
  double bestMs = 0.0;
  volatile std::uint64_t sink = 0;  // keeps the loop from being folded away
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed) || !pin(cpu)) continue;
    double ms = 1e300;
    for (int rep = 0; rep < 3; ++rep) {
      auto t0 = Clock::now();
      std::uint64_t x = sink;
      for (int i = 0; i < 2'000'000; ++i) x = x * 6364136223846793005ULL + 1;
      sink = x;
      ms = std::min(ms, msSince(t0));
    }
    if (best < 0 || ms < bestMs) {
      best = cpu;
      bestMs = ms;
    }
  }
  if (best < 0 || !pin(best)) {
    sched_setaffinity(0, sizeof allowed, &allowed);
    return -1;
  }
  return best;
}

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / double(v.size());
}

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string out;
  std::string traceFile;
};

/// What one workload run reports. run.py derives every metric from it.
struct Report {
  std::string unit;            ///< what one operation is: probe, step, job
  std::vector<double> setupS;  ///< one sample per set-up repetition
  /// Host ms per operation: one sample per timed unit (a sweep's probes, a
  /// step pair's steps, a job's turnaround).
  std::vector<double> opMs;
  std::uint64_t ops = 0;  ///< operations completed in the timed window
  double windowS = 0.0;   ///< wall of the timed window
  double peakRssMb = 0.0;
  std::uint64_t minflt = 0;  ///< minor page faults in the timed window
  std::uint64_t attempted = 0, failed = 0;
  struct Check {
    std::string name;
    bool ok;
    std::string detail;
  };
  std::vector<Check> checks;
  std::uint64_t digest = util::kFnvOffsetBasis;
  Args figures;  ///< workload-named end-to-end figures (paper_dev, ...)
  Args layers;   ///< per-layer metrics (traced runs)
  // Traced runs: the tracing overhead and the residual check.
  std::vector<double> untracedOpMs, tracedOpMs;
  std::string residualWhat;
  double explainedMs = 0.0, wallMs = 0.0, residualLimit = 0.0;

  void check(std::string name, bool ok, std::string detail = "") {
    checks.push_back({std::move(name), ok, std::move(detail)});
  }
  void mix(std::string_view bytes) { digest = util::fnv1a64(bytes, digest); }
  void mix(std::uint64_t v) { mix(std::to_string(v)); }
  void layer(std::string name, double v) {
    layers.emplace_back(std::move(name), v);
  }
};

/// Fold the simulated statistics that must repeat exactly into the digest.
void mixSimStats(Report& r, const sim::Simulator& sim,
                 const net::MachineStats& s) {
  r.mix(std::uint64_t(sim.now()));
  r.mix(sim.eventsProcessed());
  for (std::uint64_t v :
       {s.packetsInjected, s.packetsDelivered, s.linkTraversals, s.wireBytes,
        s.multicastForks, s.crcRetransmits, s.linkFailures, s.outageStalls,
        s.routerStalls, s.faultReroutes, std::uint64_t(s.retransmitDelay),
        std::uint64_t(s.stallDelay)})
    r.mix(v);
}

/// Simulated traffic, as counted by the kernel and the Machine.
struct Traffic {
  std::uint64_t events = 0, packets = 0, hops = 0, wire = 0, forks = 0;

  static Traffic of(const sim::Simulator& sim, const net::MachineStats& st) {
    return {sim.eventsProcessed(), st.packetsInjected, st.linkTraversals,
            st.wireBytes, st.multicastForks};
  }
  Traffic operator-(const Traffic& o) const {
    return {events - o.events, packets - o.packets, hops - o.hops,
            wire - o.wire, forks - o.forks};
  }
  Traffic& operator+=(const Traffic& o) {
    events += o.events;
    packets += o.packets;
    hops += o.hops;
    wire += o.wire;
    forks += o.forks;
    return *this;
  }
};

/// Per-operation traffic and the host cost per event and per hop, for `ops`
/// operations that carried `t`, took `ms` of host time and made `allocs`
/// heap allocations.
void reportTraffic(Report& r, const Traffic& t, std::uint64_t allocs,
                   double ms, double ops) {
  auto per = [](double a, std::uint64_t b) {
    return a / double(std::max<std::uint64_t>(b, 1));
  };
  r.layer("sim.events_per_op", double(t.events) / ops);
  r.layer("net.packets_per_op", double(t.packets) / ops);
  r.layer("net.hops_per_op", double(t.hops) / ops);
  r.layer("net.wire_bytes_per_op", double(t.wire) / ops);
  r.layer("net.multicast_forks_per_op", double(t.forks) / ops);
  r.layer("sim.ns_per_event", per(ms * 1e6, t.events));
  r.layer("net.ns_per_hop", per(ms * 1e6, t.hops));
  r.layer("sim.events_per_packet_hop", per(double(t.events), t.hops));
  r.layer("alloc.per_event", per(double(allocs), t.events));
}

/// What a closed loop returns: one sample per unit, and the loop's own wall
/// clock from its start to the end of its last unit (work between the timed
/// parts of the units included).
struct Loop {
  std::vector<double> samples;
  double wallS = 0.0;
};

/// Runs `unit(k)` in a closed loop, at least `minUnits` and at most
/// `maxUnits` times, until one more unit of average length would end more
/// than half past `seconds`. The window so ends within half a unit of
/// `seconds`.
template <typename F>
Loop closedLoop(double seconds, int minUnits, int maxUnits, F&& unit) {
  Loop loop;
  auto t0 = Clock::now();
  for (int k = 0; k < maxUnits; ++k) {
    double ms = msSince(t0);
    if (k >= std::max(minUnits, 1) && ms + 0.5 * ms / k >= seconds * 1e3)
      break;
    loop.samples.push_back(unit(k));
  }
  loop.wallS = msSince(t0) / 1e3;
  return loop;
}

// --- ping-sweep ----------------------------------------------------------

const util::TorusShape kTorus512{8, 8, 8};

/// Fig. 5 destination at `hops`: 1-4 along X, 5-8 add Y, 9-12 add Z (the
/// layout the fig5-ping job uses).
util::TorusCoord destAtHops(int hops) {
  return {std::min(hops, 4), std::clamp(hops - 4, 0, 4),
          std::clamp(hops - 8, 0, 4)};
}

struct Probe {
  int hops;
  int payload;
  bool bidir;
  std::string key;  ///< the runJob metric holding its latency
};

/// The probes of a fig5-ping job, in the runner's order.
std::vector<Probe> fig5Probes(const serve::JobSpec& spec) {
  std::vector<int> payloads = {0};
  if (spec.payloadBytes != 0) payloads.push_back(spec.payloadBytes);
  std::vector<Probe> out;
  for (int h = 0; h <= spec.maxHops; ++h)
    for (int payload : payloads)
      for (bool bidir : {false, true}) {
        std::string tail = std::to_string(payload) + "_h" + std::to_string(h);
        out.push_back({h, payload, bidir, (bidir ? "bidir" : "uni") + tail});
      }
  return out;
}

void runPingSweep(const Options& o, Tracer& tr, Report& r) {
  r.unit = "probe";
  const int cpu = pinToFastestCpu();
  const serve::JobSpec spec = serve::fig5PingSpec(12, 256);
  const std::vector<Probe> probes = fig5Probes(spec);
  const double nProbes = double(probes.size());

  // Set-up: an arena and the static lower bound of every probe distance.
  std::unique_ptr<sim::Simulator> arena;
  std::vector<double> boundNs;
  for (int rep = 0; rep < kPingSetupReps; ++rep) {
    coldStart();
    Scope s(tr, "ping.setup", std::uint64_t(rep));
    auto t0 = Clock::now();
    arena = std::make_unique<sim::Simulator>();
    boundNs.assign(std::size_t(spec.maxHops) + 1, 0.0);
    verify::TimingOptions opts;
    opts.rounds = 1;
    for (int h = 1; h <= spec.maxHops; ++h) {
      Scope v(tr, "verify.timing", std::uint64_t(h));
      boundNs[std::size_t(h)] =
          verify::analyzeTiming(tools::buildPingPlan(destAtHops(h)), opts)
              .criticalPathNs;
    }
    r.setupS.push_back(msSince(t0) / 1e3);
  }

  serve::RunOutcome first;
  std::uint64_t belowBound = 0, mismatched = 0;
  auto sweep = [&](int k) {
    Scope s(tr, "ping.sweep", std::uint64_t(k));
    auto t0 = Clock::now();
    serve::RunOutcome out;
    {
      Scope j(tr, "serve.runJob", std::uint64_t(k));
      out = serve::runJob(spec, *arena);
    }
    double ms = msSince(t0);
    r.attempted += probes.size();
    std::uint64_t bad = 0;
    for (const Probe& p : probes) {
      auto it = out.metrics.find(p.key);
      double bound = boundNs[std::size_t(p.hops)];
      if (it == out.metrics.end() || !(it->second > 0.0 && it->second >= bound))
        ++bad;
    }
    belowBound += bad;
    if (first.resultJson.empty()) {
      first = out;
    } else if (out.resultJson != first.resultJson) {
      ++mismatched;
      bad = probes.size();
    }
    r.failed += bad;
    return ms / nProbes;
  };

  Proc p0 = readProc();
  if (o.trace) {
    tr.setEnabled(false);
    Loop untraced = closedLoop(o.seconds / 2, 2, INT_MAX, sweep);
    tr.setEnabled(true);
    Loop traced = closedLoop(o.seconds / 2, 2, INT_MAX, sweep);
    r.untracedOpMs = untraced.samples;
    r.tracedOpMs = traced.samples;
    r.opMs = r.untracedOpMs;
    r.opMs.insert(r.opMs.end(), r.tracedOpMs.begin(), r.tracedOpMs.end());
    r.windowS = untraced.wallS + traced.wallS;
  } else {
    Loop loop = closedLoop(o.seconds, 2, INT_MAX, sweep);
    r.opMs = loop.samples;
    r.windowS = loop.wallS;
  }
  Proc p1 = readProc();
  r.peakRssMb = p1.maxRssMb;
  r.minflt = p1.minflt - p0.minflt;
  r.ops = std::uint64_t(double(r.opMs.size()) * nProbes);

  r.check("every probe >= its static timing bound", belowBound == 0,
          std::to_string(belowBound) + " probes below bound");
  r.check("every sweep repeats the first sweep's result", mismatched == 0,
          std::to_string(mismatched) + " sweeps differ");
  r.mix(first.resultJson);
  r.mix(std::uint64_t(arena->now()));
  r.mix(arena->eventsProcessed());

  auto at = [&](const char* key) {
    auto it = first.metrics.find(key);
    return it == first.metrics.end() ? 0.0 : it->second;
  };
  double h1 = at("uni0_h1"), h4 = at("uni0_h4"), h12 = at("uni0_h12");
  double slope = (h4 - h1) / 3.0, ratio = h1 > 0 ? h12 / h1 : 0.0;
  r.figures = {{"cpu", double(cpu)},
               {"one_hop_ns", h1},
               {"x_slope_ns_per_hop", slope},
               {"twelve_hop_ratio", ratio},
               {"paper_dev", std::max({std::abs(h1 - 162.0) / 162.0,
                                       std::abs(slope - 76.0) / 76.0,
                                       std::abs(ratio - 5.0) / 5.0})}};
  if (!o.trace) return;

  // Decomposed sweep: the runJob probes again, with the Machine build, the
  // probe and the teardown priced separately.
  std::vector<double> buildMs, probeUs, teardownMs, minflts;
  Traffic traffic;
  std::uint64_t a0 = allocs(), differ = 0;
  {
    Scope root(tr, "ping.decomposed");
    for (std::size_t i = 0; i < probes.size(); ++i) {
      const Probe& p = probes[i];
      arena->reset();
      std::unique_ptr<net::Machine> m;
      Proc f0 = readProc();
      auto t0 = Clock::now();
      {
        Scope b(tr, "net.build", i);
        m = std::make_unique<net::Machine>(*arena, kTorus512);
      }
      buildMs.push_back(msSince(t0));
      minflts.push_back(double(readProc().minflt - f0.minflt));
      net::ClientAddr src{0, net::kSlice0};
      net::ClientAddr dst{util::torusIndex(destAtHops(p.hops), m->shape()),
                          p.hops == 0 ? net::kSlice1 : net::kSlice0};
      t0 = Clock::now();
      double ns;
      {
        Scope pr(tr, "net.probe", i);
        ns = p.bidir ? net::bidirLatencyNs(*m, src, dst, std::size_t(p.payload))
                     : net::oneWayLatencyNs(*m, src, dst,
                                            std::size_t(p.payload), true);
      }
      probeUs.push_back(msSince(t0) * 1e3);
      if (ns != first.metrics.at(p.key)) ++differ;
      traffic += Traffic::of(*arena, m->stats());
      t0 = Clock::now();
      {
        Scope t(tr, "net.teardown", i);
        m.reset();
      }
      teardownMs.push_back(msSince(t0));
    }
  }
  std::uint64_t alloc = allocs() - a0;
  r.check("decomposed probes equal runJob's", differ == 0,
          std::to_string(differ) + " probes differ");
  // The runJob sweep just before the decomposed one: the host's speed can
  // drift by tens of percent between the start and the end of a run.
  double sweepMs = r.tracedOpMs.back() * nProbes;
  r.layer("net.build_ms", median(buildMs));
  r.layer("net.teardown_ms", median(teardownMs));
  r.layer("net.probe_us", median(probeUs));
  r.layer("proc.minflt_per_build", median(minflts));
  reportTraffic(r, traffic, alloc, sweepMs, nProbes);
  r.residualWhat =
      "probes x (build + probe + teardown) vs the runJob sweep before them";
  r.explainedMs = nProbes * (median(buildMs) + median(probeUs) / 1e3 +
                             median(teardownMs));
  r.wallMs = sweepMs;
  // Measured 6-11% on a shared 4-vCPU host, whose speed moves by up to ~10%
  // from one sweep to the next.
  r.residualLimit = 0.25;
}

// --- md-512 ----------------------------------------------------------------

/// The Table 3 configuration (bench/table3_comm_time, full size).
md::AntonMdConfig table3Config() {
  md::AntonMdConfig cfg;
  cfg.force.cutoff = 2.6;
  cfg.ewald.grid = 32;
  cfg.thermostatTau = 0.05;
  cfg.thermostatInterval = 2;
  cfg.longRangeInterval = 2;
  cfg.migrationInterval = 100;
  cfg.homeBoxMarginFrac = 0.08;
  return cfg;
}

md::EngineParams referenceParams(const md::AntonMdConfig& cfg) {
  md::EngineParams p;
  p.force = cfg.force;
  p.ewald = cfg.ewald;
  p.dt = cfg.dt;
  p.longRange = true;
  p.longRangeInterval = cfg.longRangeInterval;
  p.thermostatTau = cfg.thermostatTau;
  p.targetTemperature = cfg.targetTemperature;
  p.thermostatInterval = cfg.thermostatInterval;
  return p;
}

/// Timed step pairs per run at most: the reference screen below covers the
/// warm-up step and this many pairs.
constexpr int kMdMaxPairs = 6;

/// The md-512 input and its expected trajectory.
struct MdInput {
  std::uint64_t systemSeed = 0;
  int skipped = 0;  ///< candidate systems rejected by the screen
  /// Reference positions after 0, 1, ..., 1 + 2 * kMdMaxPairs steps.
  std::vector<std::vector<md::Vec3>> expected;
};

double maxForceComponent(const std::vector<md::Vec3>& forces) {
  double m = 0.0;
  for (const md::Vec3& f : forces)
    m = std::max({m, std::abs(f.x), std::abs(f.y), std::abs(f.z)});
  return m;
}

/// The 23,558-atom synthetic system for `seed`, run on the reference engine
/// for every step a run can take. A candidate whose reference forces leave
/// the app's fixed-point force range (int32 at `fixedPointScale`) is skipped
/// for the next seed derived from `seed`: such a close contact wraps the
/// quantized force accumulation, a limit of the model rather than something
/// this benchmark measures.
MdInput screenedInput(std::uint64_t seed, const md::AntonMdConfig& cfg) {
  const double limit = 2147483647.0 / cfg.fixedPointScale;
  const int steps = 1 + 2 * kMdMaxPairs;
  MdInput in;
  md::SyntheticSystemParams sp;
  sp.targetAtoms = 23558;
  std::uint64_t state = seed;
  for (;; ++in.skipped) {
    sp.seed = in.skipped == 0 ? seed : splitmix64(state);
    md::ReferenceEngine ref(md::buildSyntheticSystem(sp),
                            referenceParams(cfg));
    in.expected.assign(1, ref.system().positions);
    double maxForce = maxForceComponent(ref.forces());
    for (int k = 0; k < steps && maxForce < limit; ++k) {
      ref.step();
      maxForce = std::max(maxForce, maxForceComponent(ref.forces()));
      in.expected.push_back(ref.system().positions);
    }
    if (maxForce < limit) {
      in.systemSeed = sp.seed;
      return in;
    }
  }
}

std::uint64_t positionDigest(const md::MDSystem& sys) {
  std::uint64_t h = util::kFnvOffsetBasis;
  for (const md::Vec3& p : sys.positions)
    for (double c : {p.x, p.y, p.z}) h = util::fnv1a64(json::number(c), h);
  return h;
}

struct StepSample {
  bool longRange = false;
  double ms = 0.0;
  Traffic traffic;
  std::uint64_t allocs = 0;
};

void runMd512(const Options& o, Tracer& tr, Report& r) {
  r.unit = "step";
  const int cpu = pinToFastestCpu();
  const md::AntonMdConfig cfg = table3Config();
  MdInput in;
  {
    Scope s(tr, "md.reference");
    in = screenedInput(o.seed, cfg);
  }
  md::SyntheticSystemParams sp;
  sp.targetAtoms = 23558;
  sp.seed = in.systemSeed;

  std::unique_ptr<sim::Simulator> sim;
  std::unique_ptr<net::Machine> machine;
  std::unique_ptr<md::AntonMdApp> app;
  md::MDSystem initial;
  std::vector<double> buildMs, systemMs, appMs, teardownMs, minflts;
  auto teardown = [&] {
    if (!machine) return;
    Scope s(tr, "md.teardown");
    {
      Scope a(tr, "md.app_teardown");
      app.reset();
    }
    auto t0 = Clock::now();
    {
      Scope n(tr, "net.teardown");
      machine.reset();
    }
    teardownMs.push_back(msSince(t0));
    Scope k(tr, "sim.teardown");
    sim.reset();
  };

  // Set-up: Machine build, system build and app construction.
  for (int rep = 0; rep < kMdSetupReps; ++rep) {
    teardown();
    coldStart();
    Scope s(tr, "md.setup", std::uint64_t(rep));
    auto t0 = Clock::now();
    sim = std::make_unique<sim::Simulator>();
    auto t1 = Clock::now();
    Proc f0 = readProc();
    {
      Scope b(tr, "net.build");
      machine = std::make_unique<net::Machine>(*sim, kTorus512);
    }
    minflts.push_back(double(readProc().minflt - f0.minflt));
    buildMs.push_back(msSince(t1));
    t1 = Clock::now();
    {
      Scope b(tr, "md.system");
      initial = md::buildSyntheticSystem(sp);
    }
    systemMs.push_back(msSince(t1));
    t1 = Clock::now();
    {
      Scope b(tr, "md.app_setup");
      app = std::make_unique<md::AntonMdApp>(*machine, initial, cfg);
    }
    appMs.push_back(msSince(t1));
    r.setupS.push_back(msSince(t0) / 1e3);
  }

  std::uint64_t opId = 0;
  auto runStep = [&] {
    StepSample s;
    Traffic t0 = Traffic::of(*sim, machine->stats());
    std::uint64_t a0 = allocs();
    Scope sc(tr, "md.step", opId++);
    auto start = Clock::now();
    app->runSteps(1);
    s.ms = msSince(start);
    s.longRange = app->lastStep().longRange;
    sc.rename(s.longRange ? "md.step.lr" : "md.step.rl");
    s.traffic = Traffic::of(*sim, machine->stats()) - t0;
    s.allocs = allocs() - a0;
    sc.arg("events", double(s.traffic.events));
    sc.arg("packets", double(s.traffic.packets));
    sc.arg("hops", double(s.traffic.hops));
    sc.arg("allocs", double(s.allocs));
    return s;
  };
  {
    Scope w(tr, "md.warmup");
    runStep();
  }

  std::vector<StepSample> steps;
  bool alternating = true;
  std::vector<double> gatherMs;
  auto pair = [&](int k) {
    StepSample a = runStep(), b = runStep();
    alternating = alternating && a.longRange != b.longRange;
    steps.push_back(a);
    steps.push_back(b);
    if (k == 0) {
      // Digest checkpoint after the first timed pair, whatever the window.
      auto t0 = Clock::now();
      md::MDSystem now;
      {
        Scope g(tr, "md.gather");
        now = app->gatherSystem();
      }
      gatherMs.push_back(msSince(t0));
      mixSimStats(r, *sim, machine->stats());
      r.mix(positionDigest(now));
    }
    return 0.5 * (a.ms + b.ms);
  };
  Proc p0 = readProc();
  double untracedS = 0.0;  ///< wall of the half that records no spans
  if (o.trace) {
    tr.setEnabled(false);
    Loop untraced = closedLoop(o.seconds / 2, 1, kMdMaxPairs / 2, pair);
    untracedS = untraced.wallS;
    tr.setEnabled(true);
    const int done = int(untraced.samples.size());
    Scope window(tr, "md.window");
    Loop traced = closedLoop(o.seconds / 2, 1, kMdMaxPairs - done,
                             [&](int k) { return pair(k + done); });
    r.untracedOpMs = untraced.samples;
    r.tracedOpMs = traced.samples;
    r.opMs = r.untracedOpMs;
    r.opMs.insert(r.opMs.end(), r.tracedOpMs.begin(), r.tracedOpMs.end());
    r.windowS = untraced.wallS + traced.wallS;
  } else {
    Loop loop = closedLoop(o.seconds, 1, kMdMaxPairs, pair);
    r.opMs = loop.samples;
    r.windowS = loop.wallS;
  }
  Proc p1 = readProc();
  r.peakRssMb = p1.maxRssMb;
  r.minflt = p1.minflt - p0.minflt;
  r.ops = steps.size();

  md::MDSystem end;
  {
    auto t0 = Clock::now();
    Scope g(tr, "md.gather");
    end = app->gatherSystem();
    gatherMs.push_back(msSince(t0));
  }
  // Simulated-clock figures over the timed steps (the warm-up is step 0).
  std::vector<md::StepTiming> timed(app->stepTimings().begin() + 1,
                                    app->stepTimings().end());
  std::map<std::string, std::vector<double>> simUs;
  for (const md::StepTiming& t : timed) {
    simUs[t.longRange ? "md.sim.step_us.lr" : "md.sim.step_us.rl"].push_back(
        t.totalUs);
    simUs["md.sim.pos_send_us"].push_back(t.posSendUs);
    simUs["md.sim.htis_us"].push_back(t.htisUs);
    simUs["md.sim.bonded_us"].push_back(t.bondedUs);
    simUs["md.sim.force_wait_us"].push_back(t.forceWaitUs);
    if (t.longRange) {
      simUs["md.sim.lr_us"].push_back(t.lrUs);
      simUs["md.sim.fft_us"].push_back(t.fftUs);
      simUs["md.sim.thermostat_us"].push_back(t.thermostatUs);
    }
  }
  double rlUs = mean(simUs["md.sim.step_us.rl"]);
  double lrUs = mean(simUs["md.sim.step_us.lr"]);
  double avgUs = 0.5 * (rlUs + lrUs);
  r.figures = {{"cpu", double(cpu)},
               {"systems_skipped", double(in.skipped)},
               {"sim_step_us_rl", rlUs},
               {"sim_step_us_lr", lrUs},
               {"sim_step_us_avg", avgUs},
               {"paper_dev", std::abs(avgUs - 15.6) / 15.6}};
  int stepsRun = app->stepsDone();
  teardown();

  // Correctness, outside the timed window: the distributed end state
  // against the reference engine's state after the same number of steps.
  double maxErr = 0.0;
  const std::vector<md::Vec3>& want = in.expected.at(std::size_t(stepsRun));
  if (std::size_t(end.numAtoms()) != want.size()) maxErr = INFINITY;
  for (std::size_t i = 0; i < std::min(end.positions.size(), want.size()); ++i)
    maxErr =
        std::max(maxErr, initial.minImage(end.positions[i], want[i]).norm());
  std::ostringstream err;
  err << "max position error " << maxErr << " over " << stepsRun << " steps";
  r.check("end state matches ReferenceEngine (< 2e-3)", maxErr < 2e-3,
          err.str());
  r.check("timed steps alternate range-limited and long-range", alternating);
  r.attempted = steps.size();
  bool ok = maxErr < 2e-3 && alternating;
  r.failed = ok ? 0 : steps.size();
  if (!o.trace) return;
  // The run's wall on the host clock, from the recorder's epoch to here,
  // less the half that records no spans.
  const double runWallMs = tr.nowUs() / 1e3 - untracedS * 1e3;

  std::vector<double> rlMs, lrMs;
  Traffic traffic;
  std::uint64_t al = 0;
  for (const StepSample& s : steps) {
    (s.longRange ? lrMs : rlMs).push_back(s.ms);
    traffic += s.traffic;
    al += s.allocs;
  }
  r.layer("net.build_ms", median(buildMs));
  r.layer("net.teardown_ms", median(teardownMs));
  r.layer("proc.minflt_per_build", median(minflts));
  r.layer("md.system_ms", median(systemMs));
  r.layer("md.app_setup_ms", median(appMs));
  r.layer("md.step_ms.rl", median(rlMs));
  r.layer("md.step_ms.lr", median(lrMs));
  r.layer("md.gather_ms", median(gatherMs));
  reportTraffic(r, traffic, al, r.windowS * 1e3, double(steps.size()));
  for (const auto& [name, v] : simUs) r.layer(name, mean(v));

  // Residual: the run's wall against the layer calls in it, the spans with
  // no child span (reference run, Machine, system and app build, steps,
  // gathers, teardowns). On one thread such spans never overlap. What they
  // leave out is the benchmark's own work: CPU pinning, malloc_trim, counter
  // reads and the end-state comparison.
  std::vector<bool> isParent(tr.spans().size() + 1, false);
  for (const Span& s : tr.spans()) isParent[s.parent] = true;
  for (const Span& s : tr.spans())
    if (!isParent[s.id]) r.explainedMs += (s.endUs - s.startUs) / 1e3;
  r.wallMs = runWallMs;
  r.residualWhat =
      "leaf layer spans vs run wall (recorder start to end of checks, "
      "untraced half excluded)";
  r.residualLimit = 0.05;
}

// --- serve-mix -------------------------------------------------------------

/// The job kinds of the mix, at the small shapes serve_throughput uses.
struct Variant {
  std::string name;
  serve::JobSpec spec;
};

std::vector<Variant> serveVariants() {
  return {
      {"quickstart-md.4x4x4", serve::quickstartMdSpec(1)},
      {"table2-allreduce.4x4x4", serve::table2AllReduceSpec({4, 4, 4}, 4)},
      {"table2-allreduce.8x8x8", serve::table2AllReduceSpec({8, 8, 8}, 4)},
      {"fault-sweep.2x2x2", serve::faultSweepSpec({2, 2, 2}, 0.0)},
      {"fault-sweep.4x4x1", serve::faultSweepSpec({4, 4, 1}, 0.0, 4)},
      {"fig5-ping.h1", serve::fig5PingSpec(1, 0)},
  };
}

struct JobDone {
  std::size_t variant = 0;
  bool primer = false;  ///< run before the window so repeats have a source
  bool hit = false;     ///< submitted as a repeat of a completed spec
  serve::JobSpec spec;
  bool accepted = false;
  serve::JobRecord rec;
  double submitUs = 0.0;  ///< submit() call cost
  double startUs = 0.0;   ///< tracer clock at submission
};

/// The fresh-seed spec number `k` of variant `v`.
serve::JobSpec missSpec(const std::vector<Variant>& variants, std::size_t v,
                        std::uint64_t seed, std::uint64_t k) {
  serve::JobSpec spec = variants[v].spec;
  std::uint64_t s = seed ^ (std::uint64_t(v + 1) << 56) ^ k;
  spec.seed = splitmix64(s);
  return spec;
}

/// One closed-loop window against `server`. Untimed, it first runs miss
/// number 0 of every variant (the primers), so each variant has a completed
/// spec to repeat. Then it keeps `outstanding` jobs in flight for `seconds`,
/// each new submission drawn from a seeded, shuffled cycle that holds every
/// variant once as a fresh-seed miss and once as a repeat of a completed
/// spec. Returns the jobs in submission order, primers first.
std::vector<JobDone> serveWindow(serve::JobServer& server, Tracer& tr,
                                 const std::vector<Variant>& variants,
                                 std::uint64_t& rng,
                                 std::vector<std::uint64_t>& missCount,
                                 std::uint64_t seed, int outstanding,
                                 double seconds, double& wallS) {
  std::vector<JobDone> jobs;
  std::vector<std::vector<serve::JobSpec>> completed(variants.size());
  for (std::size_t v = 0; v < variants.size(); ++v) {
    JobDone job;
    job.variant = v;
    job.primer = true;
    job.spec = missSpec(variants, v, seed, 0);
    serve::SubmitOutcome sub = server.submit(job.spec);
    job.accepted = sub.accepted;
    job.rec.id = sub.id;
    jobs.push_back(std::move(job));
  }
  for (JobDone& job : jobs) {
    if (job.accepted) job.rec = server.wait(job.rec.id);
    if (job.rec.state == serve::JobState::kDone)
      completed[job.variant].push_back(job.spec);
  }
  std::vector<std::pair<std::size_t, bool>> cycle;
  std::deque<std::size_t> inFlight;
  auto t0 = Clock::now();
  auto submitNext = [&] {
    if (cycle.empty()) {
      for (std::size_t v = 0; v < variants.size(); ++v)
        for (bool hit : {false, true}) cycle.emplace_back(v, hit);
      for (std::size_t i = cycle.size() - 1; i > 0; --i)
        std::swap(cycle[i], cycle[splitmix64(rng) % (i + 1)]);
    }
    auto [v, hit] = cycle.back();
    cycle.pop_back();
    JobDone job;
    job.variant = v;
    job.hit = hit && !completed[v].empty();
    if (job.hit) {
      job.spec = completed[v][splitmix64(rng) % completed[v].size()];
    } else {
      job.spec = missSpec(variants, v, seed, ++missCount[v]);
    }
    job.startUs = tr.nowUs();
    serve::SubmitOutcome sub = server.submit(job.spec);
    double endUs = tr.nowUs();
    tr.add("serve.submit", job.startUs, endUs, sub.id, 0);
    job.submitUs = endUs - job.startUs;
    job.accepted = sub.accepted;
    job.rec.id = sub.id;
    job.rec.error = sub.reason;
    inFlight.push_back(jobs.size());
    jobs.push_back(std::move(job));
  };
  for (;;) {
    bool open = msSince(t0) < seconds * 1e3;
    while (open && inFlight.size() < std::size_t(outstanding)) submitNext();
    if (inFlight.empty()) break;
    JobDone& job = jobs[inFlight.front()];
    inFlight.pop_front();
    if (!job.accepted) continue;
    {
      Scope w(tr, "serve.wait", job.rec.id);
      job.rec = server.wait(job.rec.id);
    }
    tr.add(job.hit ? "serve.job.hit" : "serve.job.miss", job.startUs,
           job.startUs + job.rec.turnaroundMs * 1e3, job.rec.id,
           job.rec.worker + 1);
    if (job.rec.state == serve::JobState::kDone && !job.hit)
      completed[job.variant].push_back(job.spec);
  }
  wallS = msSince(t0) / 1e3;
  return jobs;
}

/// Serial runJob of every spec, spread over `threads` threads, each on its
/// own arena. Returns the canonical result JSON per spec ("" on error).
std::vector<std::string> serialResults(const std::vector<serve::JobSpec>& specs,
                                       int threads) {
  std::vector<std::string> out(specs.size());
  std::atomic<std::size_t> next{0};
  auto work = [&] {
    sim::Simulator arena;
    std::size_t i = 0;
    while ((i = next.fetch_add(1)) < specs.size()) {
      try {
        arena.reset();
        out[i] = serve::runJob(specs[i], arena).resultJson;
      } catch (const std::exception& e) {
        std::cerr << "ledger: reference run failed: " << e.what() << "\n";
      }
    }
  };
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) pool.emplace_back(work);
  for (std::thread& t : pool) t.join();
  return out;
}

void runServeMix(const Options& o, Tracer& tr, Report& r) {
  r.unit = "job";
  const std::vector<Variant> variants = serveVariants();
  // nproc - 1 workers, at most kMaxServeWorkers: every worker may build an
  // 8x8x8 Machine (~944 MB) at once, and the mix stays the same on larger
  // hosts.
  const int workers = std::clamp(
      int(std::thread::hardware_concurrency()) - 1, 1, kMaxServeWorkers);
  const int outstanding = 4 * workers;
  // The client never has more than `outstanding` jobs (or the primers) in
  // flight, so the queue cannot fill and no submission is refused for room.
  const serve::ServerConfig cfg{
      .workers = workers,
      .queueCapacity =
          std::max(std::size_t(outstanding), variants.size())};

  // Set-up: start a server and serve one warm-up job outside the mix.
  std::unique_ptr<serve::JobServer> server;
  bool warmOk = true;
  for (int rep = 0; rep < kServeSetupReps; ++rep) {
    server.reset();
    coldStart();
    Scope s(tr, "serve.setup", std::uint64_t(rep));
    auto t0 = Clock::now();
    server = std::make_unique<serve::JobServer>(cfg);
    serve::SubmitOutcome sub =
        server->submit(serve::table2AllReduceSpec({2, 2, 2}, 0));
    warmOk = warmOk && sub.accepted &&
             server->wait(sub.id).state == serve::JobState::kDone;
    r.setupS.push_back(msSince(t0) / 1e3);
  }
  r.check("warm-up job completes", warmOk);

  std::uint64_t rng = o.seed;
  std::vector<std::uint64_t> missCount(variants.size(), 0);
  std::vector<JobDone> jobs;
  std::string statusz;
  double serverWallMs = 0.0;
  std::size_t tracedFrom = 0;  ///< first job of the traced half
  auto window = [&](serve::JobServer& srv, double seconds) {
    double wallS = 0.0;
    std::vector<JobDone> part =
        serveWindow(srv, tr, variants, rng, missCount, o.seed, outstanding,
                    seconds, wallS);
    r.windowS += wallS;
    std::vector<double> ms;
    for (const JobDone& j : part)
      if (!j.primer) ms.push_back(j.rec.turnaroundMs);
    jobs.insert(jobs.end(), part.begin(), part.end());
    return ms;
  };
  Proc p0 = readProc();
  if (o.trace) {
    tr.setEnabled(false);
    r.untracedOpMs = window(*server, o.seconds / 2);
    server.reset();
    tr.setEnabled(true);
    auto t0 = Clock::now();
    server = std::make_unique<serve::JobServer>(cfg);
    tracedFrom = jobs.size();
    {
      Scope w(tr, "serve.window");
      r.tracedOpMs = window(*server, o.seconds / 2);
    }
    {
      Scope s(tr, "serve.statusz");
      statusz = server->statusz();
    }
    serverWallMs = msSince(t0);
    r.opMs = r.untracedOpMs;
    r.opMs.insert(r.opMs.end(), r.tracedOpMs.begin(), r.tracedOpMs.end());
  } else {
    r.opMs = window(*server, o.seconds);
  }
  Proc p1 = readProc();
  r.peakRssMb = p1.maxRssMb;
  r.minflt = p1.minflt - p0.minflt;
  server.reset();

  // Correctness: every job against a serial runJob of its spec. The primer
  // of each variant is always checked and feeds the digest.
  std::map<std::string, std::size_t> index;
  std::vector<serve::JobSpec> specs;
  auto need = [&](const serve::JobSpec& spec) {
    std::string key = serve::specToJson(spec);
    auto [it, added] = index.emplace(key, specs.size());
    if (added) specs.push_back(spec);
    return it->second;
  };
  std::vector<std::size_t> digestSpecs;
  for (std::size_t v = 0; v < variants.size(); ++v)
    digestSpecs.push_back(need(missSpec(variants, v, o.seed, 0)));
  for (const JobDone& j : jobs) need(j.spec);
  std::vector<std::string> want;
  {
    Scope ref(tr, "serve.reference");
    want = serialResults(specs, workers + 1);
  }
  std::uint64_t notDone = 0, wrong = 0, notHit = 0, missHit = 0;
  for (const JobDone& j : jobs) {
    const std::string& expected = want[index.at(serve::specToJson(j.spec))];
    bool bad = false;
    if (!j.accepted || j.rec.state != serve::JobState::kDone) {
      ++notDone;
      bad = true;
    } else if (expected.empty() || j.rec.resultJson != expected) {
      ++wrong;
      bad = true;
    }
    if (j.hit && !j.rec.cacheHit) {
      ++notHit;
      bad = true;
    }
    if (!j.hit && j.rec.cacheHit) ++missHit;
    r.failed += bad ? 1 : 0;
  }
  r.attempted = jobs.size();
  for (const JobDone& j : jobs)
    r.ops += !j.primer && j.rec.state == serve::JobState::kDone ? 1 : 0;
  r.check("every job ends done", notDone == 0,
          std::to_string(notDone) + " not done");
  r.check("every result equals a serial runJob of its spec", wrong == 0,
          std::to_string(wrong) + " differ");
  r.check("repeated specs come back as cache hits", notHit == 0,
          std::to_string(notHit) + " repeats missed the cache");
  for (std::size_t i : digestSpecs) r.mix(want[i]);
  std::uint64_t nHit = 0;
  for (const JobDone& j : jobs) nHit += j.hit ? 1 : 0;
  r.figures = {{"jobs_with_primers", double(jobs.size())},
               {"repeat_submissions", double(nHit)},
               {"fresh_seed_hits", double(missHit)},
               {"workers", double(workers)},
               {"outstanding", double(outstanding)}};
  if (!o.trace) return;

  // Layer prices, serially, on each variant's primer spec. The second of
  // two passes counts: the first warms the allocator as the window did.
  std::vector<double> planMs(variants.size()), checkMs(variants.size()),
      runMs(variants.size());
  sim::Simulator arena;
  for (int pass = 0; pass < 2; ++pass) {
    Scope price(tr, "serve.price", std::uint64_t(pass));
    for (std::size_t v = 0; v < variants.size(); ++v) {
      const serve::JobSpec& spec = specs[digestSpecs[v]];
      auto t0 = Clock::now();
      verify::CommPlan plan;
      {
        Scope s(tr, "verify.plan", v);
        plan = serve::planForSpec(spec);
      }
      planMs[v] = msSince(t0);
      t0 = Clock::now();
      {
        Scope s(tr, "verify.check", v);
        (void)verify::verifyPlan(plan);
      }
      checkMs[v] = msSince(t0);
      t0 = Clock::now();
      {
        Scope s(tr, "serve.runJob", v);
        arena.reset();
        (void)serve::runJob(spec, arena);
      }
      runMs[v] = msSince(t0);
    }
  }
  for (std::size_t v = 0; v < variants.size(); ++v) {
    r.layer("verify.plan_ms." + variants[v].name, planMs[v]);
    r.layer("verify.check_ms." + variants[v].name, checkMs[v]);
    r.layer("serve.run_ms." + variants[v].name, runMs[v]);
  }

  // The traced half's jobs: submit cost, hit ratio, turnaround by kind, and
  // the worker time the priced layers predict for them (primers included:
  // they ran on the traced server too).
  std::vector<double> submitUs, hitMs, missMs;
  double predictedBusyMs = 0.0;
  std::uint64_t tracedJobs = 0, tracedHits = 0;
  for (std::size_t i = tracedFrom; i < jobs.size(); ++i) {
    const JobDone& j = jobs[i];
    const std::size_t v = j.variant;
    const bool ran = j.primer || !j.rec.cacheHit;
    predictedBusyMs += planMs[v] + (ran ? checkMs[v] + runMs[v] : 0.0);
    if (j.primer) continue;
    ++tracedJobs;
    submitUs.push_back(j.submitUs);
    if (j.rec.cacheHit) {
      ++tracedHits;
      hitMs.push_back(j.rec.turnaroundMs);
    } else {
      missMs.push_back(j.rec.turnaroundMs);
    }
  }
  double busyFrac = 0.0;
  json::Value st = json::parse(statusz, "statusz");
  const json::Value& ws = json::field(st, "workers", "statusz");
  for (const json::Value& w : ws.arr)
    busyFrac += json::asDouble(json::field(w, "utilization", "worker"),
                               "utilization");
  busyFrac /= double(std::max<std::size_t>(ws.arr.size(), 1));
  r.layer("serve.submit_us", median(submitUs));
  r.layer("serve.cache_hit_ratio",
          double(tracedHits) / double(std::max<std::uint64_t>(tracedJobs, 1)));
  r.layer("serve.worker_busy_frac", busyFrac);
  r.layer("serve.hit_turnaround_ms", median(hitMs));
  r.layer("serve.miss_turnaround_ms", median(missMs));
  r.residualWhat =
      "priced plan/verify/run per traced job vs server worker busy time";
  r.explainedMs = predictedBusyMs;
  r.wallMs = busyFrac * serverWallMs * double(workers);
  r.residualLimit = 0.5;
}

// --- output ----------------------------------------------------------------

std::string numbers(const std::vector<double>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) s += ',';
    s += json::number(v[i]);
  }
  return s + "]";
}

std::string object(const Args& kv) {
  std::string s = "{";
  for (std::size_t i = 0; i < kv.size(); ++i) {
    if (i != 0) s += ',';
    s += json::quoted(kv[i].first);
    s += ':';
    s += json::number(kv[i].second);
  }
  return s + "}";
}

void writeReport(std::ostream& os, const Options& o, const Report& r,
                 std::size_t spans) {
  os << "{\"workload\":" << json::quoted(o.workload) << ",\"seed\":" << o.seed
     << ",\"trace\":" << (o.trace ? "true" : "false")
     << ",\"unit\":" << json::quoted(r.unit)
     << ",\"setup_s\":" << numbers(r.setupS)
     << ",\"op_ms\":" << numbers(r.opMs) << ",\"ops\":" << r.ops
     << ",\"window_s\":" << json::number(r.windowS)
     << ",\"peak_rss_mb\":" << json::number(r.peakRssMb)
     << ",\"minflt\":" << r.minflt << ",\"attempted\":" << r.attempted
     << ",\"failed\":" << r.failed << ",\"checks\":[";
  for (std::size_t i = 0; i < r.checks.size(); ++i)
    os << (i ? "," : "") << "{\"name\":" << json::quoted(r.checks[i].name)
       << ",\"ok\":" << (r.checks[i].ok ? "true" : "false")
       << ",\"detail\":" << json::quoted(r.checks[i].detail) << "}";
  os << "],\"digest\":" << json::quoted(util::hex64(r.digest))
     << ",\"figures\":" << object(r.figures);
  if (o.trace) {
    os << ",\"layers\":" << object(r.layers)
       << ",\"untraced_op_ms\":" << numbers(r.untracedOpMs)
       << ",\"traced_op_ms\":" << numbers(r.tracedOpMs)
       << ",\"spans\":" << spans << ",\"residual\":{\"what\":"
       << json::quoted(r.residualWhat)
       << ",\"explained_ms\":" << json::number(r.explainedMs)
       << ",\"wall_ms\":" << json::number(r.wallMs)
       << ",\"limit\":" << json::number(r.residualLimit) << "}";
  }
  os << "}\n";
}

Options parseArgs(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + a);
    std::string v = argv[++i];
    if (a == "--workload") o.workload = v;
    else if (a == "--seed") o.seed = std::stoull(v);
    else if (a == "--seconds") o.seconds = std::stod(v);
    else if (a == "--trace") o.trace = v == "1";
    else if (a == "--out") o.out = v;
    else if (a == "--trace-file") o.traceFile = v;
    else throw std::invalid_argument("unknown argument " + a);
  }
  if (o.out.empty()) throw std::invalid_argument("--out is required");
  if (!(o.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
  return o;
}

}  // namespace
}  // namespace ledger

int main(int argc, char** argv) {
  using namespace ledger;
  try {
    Options o = parseArgs(argc, argv);
    Tracer tr(o.trace);
    Report r;
    if (o.workload == "ping-sweep") runPingSweep(o, tr, r);
    else if (o.workload == "md-512") runMd512(o, tr, r);
    else if (o.workload == "serve-mix") runServeMix(o, tr, r);
    else throw std::invalid_argument("unknown workload " + o.workload);
    if (o.trace && !o.traceFile.empty()) {
      std::ofstream tf(o.traceFile);
      tr.writeChrome(tf);
      if (!tf) throw std::runtime_error("cannot write " + o.traceFile);
    }
    std::ofstream out(o.out);
    writeReport(out, o, r, tr.spans().size());
    if (!out) throw std::runtime_error("cannot write " + o.out);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "ledger: " << e.what() << "\n";
    return 2;
  }
}
