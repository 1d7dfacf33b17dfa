#include "serve/runner.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "core/allreduce.hpp"
#include "core/recovery.hpp"
#include "fault/plan.hpp"
#include "md/anton_app.hpp"
#include "net/machine.hpp"
#include "net/probe.hpp"
#include "plan_registry.hpp"
#include "util/json.hpp"
#include "verify/snapshot.hpp"

namespace anton::serve {
namespace {

namespace json = util::json;

/// Fig. 5 destination at the given hop count: 1-4 X only, 5-8 add Y,
/// 9-12 add Z (shortest-path max 4 per dimension on the 8x8x8 torus).
RunOutcome cancelledOutcome() {
  RunOutcome out;
  out.cancelled = true;
  return out;
}

util::TorusCoord destAtHops(int hops) {
  int hx = std::min(hops, 4);
  int hy = std::min(std::max(hops - 4, 0), 4);
  int hz = std::min(std::max(hops - 8, 0), 4);
  return {hx, hy, hz};
}

md::AntonMdConfig mdConfigFor(const JobSpec& spec) {
  md::AntonMdConfig cfg = tools::quickstartMdConfig();
  cfg.recoveryTimeoutUs = spec.recoveryTimeoutUs;
  cfg.recoveryMaxResends = spec.recoveryMaxResends;
  cfg.recoveryBackoffUs = spec.recoveryBackoffUs;
  return cfg;
}

core::RecoveryHooks recoveryHooksFor(const JobSpec& spec,
                                     core::DropRegistry& reg,
                                     core::RecoveryStats& stats) {
  core::RecoveryHooks hooks;
  hooks.registry = &reg;
  hooks.config.timeout = sim::us(spec.recoveryTimeoutUs);
  hooks.config.maxResends = spec.recoveryMaxResends;
  hooks.config.resendBackoff = sim::us(spec.recoveryBackoffUs);
  hooks.stats = &stats;
  return hooks;
}

/// Canonical metrics object: sorted keys (std::map order), classic-locale
/// full-precision numbers. The bytes both the digest and the cache store.
std::string metricsJson(const std::map<std::string, double>& metrics) {
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (const auto& [key, value] : metrics) {
    if (!first) os << ",";
    first = false;
    os << json::quoted(key) << ":" << json::number(value);
  }
  os << "}";
  return os.str();
}

/// Assemble the outcome: canonical JSON + digest over everything that must
/// be bit-identical across workers (metrics and any extra digest fields).
RunOutcome finish(const JobSpec& spec, std::map<std::string, double> metrics,
                  const std::vector<std::pair<std::string, std::string>>&
                      extraDigests = {}) {
  RunOutcome out;
  out.metrics = std::move(metrics);
  std::string body = metricsJson(out.metrics);
  std::uint64_t digest = util::fnv1a64(body);
  for (const auto& [key, hex] : extraDigests)
    digest = util::fnv1a64(hex, util::fnv1a64(key, digest));
  out.digest = digest;
  std::ostringstream os;
  os << "{\"family\":" << json::quoted(familyName(spec.family))
     << ",\"metrics\":" << body;
  for (const auto& [key, hex] : extraDigests)
    os << "," << json::quoted(key) << ":" << json::quoted(hex);
  os << ",\"digest\":" << json::quoted(util::hex64(digest)) << "}";
  out.resultJson = os.str();
  return out;
}

RunOutcome runQuickstartMd(const JobSpec& spec, sim::Simulator& arena,
                           const CancelToken& cancel) {
  arena.reset();
  net::Machine machine(arena, spec.shape);
  md::SyntheticSystemParams sp;
  sp.targetAtoms = spec.atoms;
  sp.seed = spec.seed;
  md::AntonMdApp app(machine, md::buildSyntheticSystem(sp), mdConfigFor(spec));
  // One runSteps call per step so cancellation can land between steps: the
  // step counter carries across calls, so the phase schedule (long-range /
  // thermostat / migration cadence) is identical to one runSteps(steps).
  for (int k = 0; k < spec.steps; ++k) {
    if (cancel.stop()) return cancelledOutcome();
    app.runSteps(1);
  }

  std::map<std::string, double> m;
  m["steps_done"] = double(app.stepsDone());
  double total = 0.0;
  for (const md::StepTiming& t : app.stepTimings()) total += t.totalUs;
  m["mean_step_us"] = total / double(app.stepsDone());
  m["last_step_us"] = app.lastStep().totalUs;
  m["sim_us"] = sim::toUs(arena.now());
  m["migrated_total"] = double(app.totalMigrated());
  m["drops"] = double(app.dropsObserved());
  m["resends"] = double(app.recoveryStats().resends);
  m["hard_failures"] = double(app.recoveryStats().hardFailures);

  // Trajectory digest: every coordinate of the gathered end state, rendered
  // through the locale-proof number formatter and hashed. Two runs agree on
  // this exactly when they computed the same trajectory bit-for-bit.
  md::MDSystem end = app.gatherSystem();
  std::uint64_t pos = util::kFnvOffsetBasis;
  for (const md::Vec3& p : end.positions)
    for (double c : {p.x, p.y, p.z}) pos = util::fnv1a64(json::number(c), pos);
  return finish(spec, std::move(m), {{"positionDigest", util::hex64(pos)}});
}

RunOutcome runFig5Ping(const JobSpec& spec, sim::Simulator& arena,
                       const CancelToken& cancel) {
  std::map<std::string, double> m;
  std::uint64_t reroutes = 0;
  auto measure = [&](int hops, int payload, bool bidir) {
    arena.reset();
    net::MachineConfig mc;
    mc.faultReroute = spec.degradedMode;
    net::Machine machine(arena, spec.shape, mc);
    fault::FaultPlan plan;
    if (spec.degradedMode) {
      // The degraded-mode scenario: node 0's X+ link is out for the whole
      // measurement window, so every X-leading route leaves through another
      // dimension first.
      plan.addLinkOutage(0, /*dim=*/0, /*sign=*/+1, 0, sim::us(1e9));
      machine.setFaultModel(&plan);
    }
    net::ClientAddr src{0, net::kSlice0};
    net::ClientAddr dst{util::torusIndex(destAtHops(hops), machine.shape()),
                        hops == 0 ? net::kSlice1 : net::kSlice0};
    double ns = bidir
                    ? net::bidirLatencyNs(machine, src, dst, std::size_t(payload))
                    : net::oneWayLatencyNs(machine, src, dst,
                                           std::size_t(payload), true);
    reroutes += machine.stats().faultReroutes;
    return ns;
  };

  std::vector<int> payloads = {0};
  if (spec.payloadBytes != 0) payloads.push_back(spec.payloadBytes);
  for (int h = 0; h <= spec.maxHops; ++h) {
    if (cancel.stop()) return cancelledOutcome();
    for (int payload : payloads) {
      std::string tail = std::to_string(payload) + "_h" + std::to_string(h);
      m["uni" + tail] = measure(h, payload, false);
      m["bidir" + tail] = measure(h, payload, true);
    }
  }
  if (spec.maxHops >= 1) m["one_hop_ns"] = m.at("uni0_h1");
  if (spec.degradedMode) m["fault_reroutes"] = double(reroutes);
  return finish(spec, std::move(m));
}

RunOutcome runTable2AllReduce(const JobSpec& spec, sim::Simulator& arena,
                              const CancelToken& cancel) {
  if (cancel.stop()) return cancelledOutcome();
  arena.reset();
  net::Machine machine(arena, spec.shape);
  core::DimOrderedAllReduce reduce(machine);

  const int n = machine.numNodes();
  const std::size_t words = std::size_t(spec.words);
  std::vector<std::vector<double>> out;
  out.resize(std::size_t(n));
  double start = sim::toUs(arena.now());
  double done = start;
  auto task = [&](int node) -> sim::Task {
    std::vector<double> in(words, double(node));
    co_await reduce.run(node, std::move(in), &out[std::size_t(node)]);
    done = std::max(done, sim::toUs(arena.now()));
  };
  for (int node = 0; node < n; ++node) arena.spawn(task(node));
  arena.run();

  double expect = double(n) * double(n - 1) / 2.0;  // sum 0..n-1, exact
  bool correct = true;
  for (int node = 0; node < n; ++node) {
    if (out[std::size_t(node)].size() != words) correct = false;
    for (double v : out[std::size_t(node)])
      if (v != expect) correct = false;
  }
  std::map<std::string, double> m;
  m["allreduce_us"] = done - start;
  m["nodes"] = double(n);
  m["words"] = double(spec.words);
  m["correct"] = correct ? 1.0 : 0.0;
  return finish(spec, std::move(m));
}

RunOutcome runFaultSweep(const JobSpec& spec, sim::Simulator& arena,
                         const CancelToken& cancel) {
  if (cancel.stop()) return cancelledOutcome();
  arena.reset();
  net::MachineConfig mc;
  mc.faultReroute = spec.degradedMode;
  net::Machine machine(arena, spec.shape, mc);
  fault::FaultPlan plan({.seed = spec.seed,
                         .bitErrorRate = spec.bitErrorRate,
                         .maxRetransmits = spec.maxRetransmits});
  machine.setFaultModel(&plan);
  core::DropRegistry registry(machine);
  core::RecoveryStats stats;
  core::DimOrderedAllReduce reduce(machine);
  reduce.setRecovery(recoveryHooksFor(spec, registry, stats));

  const int n = machine.numNodes();
  const std::size_t words = std::size_t(spec.words);
  std::vector<std::vector<double>> out;
  out.resize(std::size_t(n));
  auto task = [&](int node) -> sim::Task {
    std::vector<double> in(words, double(node + 1));  // exact in double
    co_await reduce.run(node, std::move(in), &out[std::size_t(node)]);
  };
  for (int node = 0; node < n; ++node) arena.spawn(task(node));
  arena.run();

  double expect = double(n) * double(n + 1) / 2.0;  // sum 1..n, exact
  bool correct = true;
  for (int node = 0; node < n; ++node) {
    if (out[std::size_t(node)].size() != words) correct = false;
    for (double v : out[std::size_t(node)])
      if (v != expect) correct = false;
  }
  std::map<std::string, double> m;
  m["allreduce_us"] = sim::toUs(arena.now());
  m["nodes"] = double(n);
  m["words"] = double(spec.words);
  m["correct"] = correct ? 1.0 : 0.0;
  m["crc_retransmits"] = double(machine.stats().crcRetransmits);
  m["link_failures"] = double(machine.stats().linkFailures);
  m["drops"] = double(registry.dropsObserved());
  m["timeouts"] = double(stats.timeouts);
  m["resends"] = double(stats.resends);
  m["hard_failures"] = double(stats.hardFailures);
  return finish(spec, std::move(m));
}

}  // namespace

verify::CommPlan planForSpec(const JobSpec& spec) {
  switch (spec.family) {
    case JobFamily::kQuickstartMd:
      return tools::buildMdPlan("md-" + spec.shape.str(), spec.shape,
                                spec.atoms, mdConfigFor(spec));
    case JobFamily::kFig5Ping:
      return tools::buildNamedPlan("fig5-ping");
    case JobFamily::kTable2AllReduce:
    case JobFamily::kFaultSweep:
      return tools::buildNamedPlan("table2-allreduce-" + spec.shape.str());
  }
  throw std::invalid_argument("planForSpec: unknown family");
}

std::uint64_t jobKey(const JobSpec& spec, const verify::CommPlan& plan) {
  return util::fnv1a64(verify::planToJson(plan),
                       util::fnv1a64(specToJson(spec)));
}

RunOutcome runJob(const JobSpec& spec, sim::Simulator& arena,
                  const CancelToken& cancel) {
  switch (spec.family) {
    case JobFamily::kQuickstartMd: return runQuickstartMd(spec, arena, cancel);
    case JobFamily::kFig5Ping: return runFig5Ping(spec, arena, cancel);
    case JobFamily::kTable2AllReduce:
      return runTable2AllReduce(spec, arena, cancel);
    case JobFamily::kFaultSweep: return runFaultSweep(spec, arena, cancel);
  }
  throw std::invalid_argument("runJob: unknown family");
}

}  // namespace anton::serve
