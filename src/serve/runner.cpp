#include "serve/runner.hpp"

#include <algorithm>
#include <functional>
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

namespace anton::serve {
namespace {

namespace json = util::json;

/// Called between a family's construction and its simulation with the plan
/// of the objects just built; simulation goes ahead only when it returns
/// true. Empty for a plain run, which extracts nothing.
using PlanGate = std::function<bool(verify::CommPlan)>;

RunOutcome cancelledOutcome() {
  RunOutcome out;
  out.cancelled = true;
  return out;
}

/// The plan of an all-reduce job's collective, named after its job.
verify::CommPlan allReducePlan(const JobSpec& spec,
                               const core::DimOrderedAllReduce& reduce) {
  verify::CommPlan p;
  p.name = std::string(familyName(spec.family)) + "-" + spec.shape.str();
  p.shape = spec.shape;
  reduce.appendPlan(p, "");
  return p;
}

/// True when every node's all-reduce result is `words` copies of `expect`.
bool reducedTo(const std::vector<std::vector<double>>& out, std::size_t words,
               double expect) {
  for (const std::vector<double>& v : out)
    if (v.size() != words || std::count(v.begin(), v.end(), expect) !=
                                 std::ptrdiff_t(words))
      return false;
  return true;
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
                           const CancelToken& cancel, const PlanGate& gate) {
  arena.reset();
  net::Machine machine(arena, spec.shape);
  md::SyntheticSystemParams sp;
  sp.targetAtoms = spec.atoms;
  sp.seed = spec.seed;
  md::AntonMdConfig cfg = tools::quickstartMdConfig();
  cfg.recoveryTimeoutUs = spec.recoveryTimeoutUs;
  cfg.recoveryMaxResends = spec.recoveryMaxResends;
  cfg.recoveryBackoffUs = spec.recoveryBackoffUs;
  md::AntonMdApp app(machine, md::buildSyntheticSystem(sp), cfg);
  if (gate && !gate(app.extractCommPlan())) return {};
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
                       const CancelToken& cancel, const PlanGate& gate) {
  // The probed destinations: 1-4 hops X only, 5-8 add Y, 9-12 add Z
  // (shortest-path max 4 per dimension on the 8x8x8 torus); hop 0 is node
  // 0's other slice. The job's plan pings exactly these, with unarmed waits.
  std::vector<net::ClientAddr> dests;
  for (int h = 0; h <= spec.maxHops; ++h) {
    util::TorusCoord c{std::min(h, 4), std::min(std::max(h - 4, 0), 4),
                       std::min(std::max(h - 8, 0), 4)};
    dests.push_back({util::torusIndex(c, spec.shape),
                     h == 0 ? net::kSlice1 : net::kSlice0});
  }
  if (gate && !gate(tools::buildFig5Plan(dests, /*recoveryArmed=*/false)))
    return {};
  std::map<std::string, double> m;
  std::uint64_t reroutes = 0;
  auto measure = [&](net::ClientAddr dst, int payload, bool bidir) {
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
      m["uni" + tail] = measure(dests[std::size_t(h)], payload, false);
      m["bidir" + tail] = measure(dests[std::size_t(h)], payload, true);
    }
  }
  if (spec.maxHops >= 1) m["one_hop_ns"] = m.at("uni0_h1");
  if (spec.degradedMode) m["fault_reroutes"] = double(reroutes);
  return finish(spec, std::move(m));
}

RunOutcome runTable2AllReduce(const JobSpec& spec, sim::Simulator& arena,
                              const CancelToken& cancel,
                              const PlanGate& gate) {
  if (cancel.stop()) return cancelledOutcome();
  arena.reset();
  net::Machine machine(arena, spec.shape);
  core::DimOrderedAllReduce reduce(machine);
  if (gate && !gate(allReducePlan(spec, reduce))) return {};

  const int n = machine.numNodes();
  const std::size_t words = std::size_t(spec.words);
  std::vector<std::vector<double>> out(static_cast<std::size_t>(n));
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
  std::map<std::string, double> m;
  m["allreduce_us"] = done - start;
  m["nodes"] = double(n);
  m["words"] = double(spec.words);
  m["correct"] = reducedTo(out, words, expect) ? 1.0 : 0.0;
  return finish(spec, std::move(m));
}

RunOutcome runFaultSweep(const JobSpec& spec, sim::Simulator& arena,
                         const CancelToken& cancel, const PlanGate& gate) {
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
  reduce.setRecovery({.registry = &registry,
                      .config = {.timeout = sim::us(spec.recoveryTimeoutUs),
                                 .maxResends = spec.recoveryMaxResends,
                                 .resendBackoff =
                                     sim::us(spec.recoveryBackoffUs)},
                      .stats = &stats});
  if (gate && !gate(allReducePlan(spec, reduce))) return {};

  const int n = machine.numNodes();
  const std::size_t words = std::size_t(spec.words);
  std::vector<std::vector<double>> out(static_cast<std::size_t>(n));
  auto task = [&](int node) -> sim::Task {
    std::vector<double> in(words, double(node + 1));  // exact in double
    co_await reduce.run(node, std::move(in), &out[std::size_t(node)]);
  };
  for (int node = 0; node < n; ++node) arena.spawn(task(node));
  arena.run();

  double expect = double(n) * double(n + 1) / 2.0;  // sum 1..n, exact
  std::map<std::string, double> m;
  m["allreduce_us"] = sim::toUs(arena.now());
  m["nodes"] = double(n);
  m["words"] = double(spec.words);
  m["correct"] = reducedTo(out, words, expect) ? 1.0 : 0.0;
  m["crc_retransmits"] = double(machine.stats().crcRetransmits);
  m["link_failures"] = double(machine.stats().linkFailures);
  m["drops"] = double(registry.dropsObserved());
  m["timeouts"] = double(stats.timeouts);
  m["resends"] = double(stats.resends);
  m["hard_failures"] = double(stats.hardFailures);
  return finish(spec, std::move(m));
}

/// The one per-family construction: builds the job's objects on `arena`,
/// hands their plan to `gate` (when given) and simulates them.
RunOutcome runFamily(const JobSpec& spec, sim::Simulator& arena,
                     const CancelToken& cancel, const PlanGate& gate) {
  switch (spec.family) {
    case JobFamily::kQuickstartMd:
      return runQuickstartMd(spec, arena, cancel, gate);
    case JobFamily::kFig5Ping: return runFig5Ping(spec, arena, cancel, gate);
    case JobFamily::kTable2AllReduce:
      return runTable2AllReduce(spec, arena, cancel, gate);
    case JobFamily::kFaultSweep:
      return runFaultSweep(spec, arena, cancel, gate);
  }
  throw std::invalid_argument("runJob: unknown family");
}

}  // namespace

verify::CommPlan planForSpec(const JobSpec& spec) {
  sim::Simulator sim;
  verify::CommPlan plan;
  runFamily(spec, sim, {}, [&](verify::CommPlan p) {
    plan = std::move(p);
    return false;
  });
  return plan;
}

std::uint64_t jobKey(const JobSpec& spec) {
  return util::fnv1a64(specToJson(spec));
}

RunOutcome runJob(const JobSpec& spec, sim::Simulator& arena,
                  const CancelToken& cancel, verify::VerifyResult* verified) {
  if (verified == nullptr) return runFamily(spec, arena, cancel, {});
  return runFamily(spec, arena, cancel, [&](verify::CommPlan plan) {
    *verified = verify::verifyPlan(plan);
    return verified->ok();
  });
}

}  // namespace anton::serve
