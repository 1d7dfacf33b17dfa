#include "plan_registry.hpp"

#include <stdexcept>

#include "cluster/collectives.hpp"
#include "core/allreduce.hpp"
#include "core/recovery.hpp"
#include "fft/distributed.hpp"
#include "md/anton_app.hpp"
#include "net/machine.hpp"
#include "sim/simulator.hpp"

namespace anton::tools {
namespace {

md::AntonMdConfig table3Config() {
  md::AntonMdConfig cfg = quickstartMdConfig();
  cfg.force.cutoff = 2.6;
  cfg.ewald.grid = 32;
  cfg.homeBoxMarginFrac = 0.08;  // Table 3 bench configuration
  cfg.migrationInterval = 100;
  return cfg;
}

/// Shipped standalone subsystems are armed the way the MD app arms them
/// (DropRegistry + recovery hooks), so their extracted waits carry a
/// recovery story and pass the verifier's gating recovery-coverage check.
core::RecoveryHooks shippedRecoveryHooks(core::DropRegistry& registry) {
  core::RecoveryHooks hooks;
  hooks.registry = &registry;
  hooks.config.timeout = sim::us(5000);
  return hooks;
}

verify::CommPlan allReducePlan(util::TorusShape shape) {
  sim::Simulator sim;
  net::Machine machine(sim, shape);
  core::DropRegistry registry(machine);
  core::DimOrderedAllReduce reduce(machine);
  reduce.setRecovery(shippedRecoveryHooks(registry));
  verify::CommPlan p;
  p.name = "table2-allreduce-" + shape.str();
  p.shape = shape;
  reduce.appendPlan(p, "");
  return p;
}

verify::CommPlan clusterPlan(int numNodes) {
  verify::CommPlan p;
  p.name = "cluster-allreduce-" + std::to_string(numNodes);
  cluster::appendAllReducePlan(p, numNodes, "");
  return p;
}

/// One forward + inverse FFT pair on a 2x2x2 torus — the smallest plan that
/// exercises the per-dimension counter reuse across the two passes.
verify::CommPlan fftPairPlan() {
  sim::Simulator sim;
  net::Machine machine(sim, {2, 2, 2});
  core::DropRegistry registry(machine);
  fft::DistributedFft3D fft3d(machine, 8, 8, 8);
  fft3d.setRecovery(shippedRecoveryHooks(registry));
  verify::CommPlan p;
  p.name = "fft-pair-2x2x2";
  p.shape = {2, 2, 2};
  fft3d.appendPlan(p, "");
  return p;
}

bool parseShapeSuffix(const std::string& s, util::TorusShape* out) {
  int v[3] = {0, 0, 0};
  std::size_t pos = 0;
  for (int d = 0; d < 3; ++d) {
    std::size_t next = d < 2 ? s.find('x', pos) : s.size();
    if (next == std::string::npos || next == pos) return false;
    for (std::size_t i = pos; i < next; ++i)
      if (s[i] < '0' || s[i] > '9') return false;
    v[d] = std::stoi(s.substr(pos, next - pos));
    if (v[d] < 1) return false;
    pos = next + 1;
  }
  *out = {v[0], v[1], v[2]};
  return true;
}

}  // namespace

verify::CommPlan buildFig5Plan(std::span<const net::ClientAddr> dests,
                               bool recoveryArmed) {
  verify::CommPlan p;
  p.name = "fig5-ping";
  p.shape = {8, 8, 8};
  p.addPhaseEdge("ping.send", "ping.recv");
  p.addPhaseEdge("ping.recv", "ping.ack");
  const int send = p.addPhase("ping.send"), recv = p.addPhase("ping.recv");
  std::vector<verify::SourceCount> ackFrom;
  std::vector<verify::BufferWriter> ackWriters;
  for (const net::ClientAddr& to : dests) {
    p.addWrite("ping.send", {.srcNode = 0, .counterId = 0, .dst = to});
    p.addExpectation("ping.recv", "ping.recv",
                     {.client = to, .counterId = 0, .perRound = 1,
                      .recoveryArmed = recoveryArmed},
                     {{{0, 1}}});
    const verify::BufferWriter pinger{0, std::uint16_t(send)};
    p.addBuffer("ping.slot." + std::to_string(to.node), "ping.recv",
                {.client = to, .bytes = 32}, {&pinger, 1});
    p.addWrite("ping.recv", {.srcNode = to.node, .counterId = 1,
                             .dst = {0, net::kSlice0}});
    ackFrom.push_back({to.node, 1});
    ackWriters.push_back({to.node, std::uint16_t(recv)});
  }
  p.addExpectation("ping.ack", "ping.ack",
                   {.client = {0, net::kSlice0}, .counterId = 1,
                    .perRound = ackFrom.size(),
                    .recoveryArmed = recoveryArmed},
                   ackFrom);
  p.addBuffer("ping.ackslots", "ping.ack",
              {.client = {0, net::kSlice0},
               .bytes = std::uint32_t(dests.size()) * 32u},
              ackWriters);
  return p;
}

md::AntonMdConfig quickstartMdConfig() {
  md::AntonMdConfig cfg;
  cfg.force.cutoff = 2.2;
  cfg.ewald.grid = 16;
  cfg.thermostatTau = 0.05;
  cfg.homeBoxMarginFrac = 0.10;
  cfg.recoveryTimeoutUs = 5000;  // arm recovery on every counted wait
  cfg.recoveryMaxResends = 6;
  return cfg;
}

verify::CommPlan buildMdPlan(const std::string& name, util::TorusShape shape,
                             int atoms, const md::AntonMdConfig& cfg) {
  sim::Simulator sim;
  net::Machine machine(sim, shape);
  md::SyntheticSystemParams sp;
  sp.targetAtoms = atoms;
  sp.seed = 2010;
  md::AntonMdApp app(machine, md::buildSyntheticSystem(sp), cfg);
  verify::CommPlan p = app.extractCommPlan();
  p.name = name;
  return p;
}

std::vector<std::string> goldenPlanNames() {
  return {"fig5-ping", "table2-allreduce-2x2x2", "cluster-allreduce-16",
          "fft-pair-2x2x2", "quickstart-md", "md-4x4x1"};
}

verify::CommPlan buildPingPlan(util::TorusCoord corner,
                               util::TorusShape shape) {
  verify::CommPlan p;
  p.name = "ping-" + std::to_string(corner.x) + "-" +
           std::to_string(corner.y) + "-" + std::to_string(corner.z);
  p.shape = shape;
  p.addPhaseEdge("ping.send", "ping.recv");
  const int dst = util::torusIndex(corner, shape);
  p.addWrite("ping.send",
             {.srcNode = 0, .counterId = 0, .dst = {dst, net::kSlice0}});
  p.addExpectation("ping.recv", "ping.recv",
                   {.client = {dst, net::kSlice0}, .counterId = 0,
                    .perRound = 1, .recoveryArmed = true},
                   {{{0, 1}}});
  return p;
}

SlackEnvelope timingSlackEnvelope(const std::string& family) {
  // Pinned from the CI oracle runs (verify_plans --timing-oracle) with
  // roughly 2x headroom over the observed ratio; see DESIGN.md §12 for what
  // widens each family's slack. Observed: ping 1.05-1.13 (pure
  // communication, the bound is tight); all-reduce ~2.15 (per-stage
  // synchronization waits the bound's free program-order edges don't
  // price); quickstart-md ~31 (a live MD step is dominated by force/FFT
  // compute between the communication phases the bound prices).
  if (family == "fig5-ping") return {1.5};
  if (family == "quickstart-md") return {60.0};
  if (family == "table2-allreduce") return {4.0};
  return {};
}

verify::CommPlan buildNamedPlan(const std::string& name) {
  if (name == "quickstart-md")
    return buildMdPlan(name, {4, 4, 4}, 1536, quickstartMdConfig());
  if (name == "md-4x4x1")
    // Degenerate torus with a traffic-carrying extent-1 dimension: the shape
    // that used to break the half-shell import accounting (ISSUE 5
    // satellite). Golden so the reduced-offset dedup stays pinned.
    return buildMdPlan(name, {4, 4, 1}, 1536, quickstartMdConfig());
  if (name == "table3-md-8x8x8")
    return buildMdPlan(name, {8, 8, 8}, 23558, table3Config());
  if (name == "fig5-ping") {
    // Slice 0 of corners (1,0,0), (2,0,0), (4,0,0), (4,4,0) and (4,4,4) of
    // the 8x8x8 torus; the fault bench arms the ping write.
    const net::ClientAddr corners[] = {{1, 0}, {2, 0}, {4, 0}, {36, 0}, {292, 0}};
    return buildFig5Plan(corners, /*recoveryArmed=*/true);
  }
  if (name == "fft-pair-2x2x2") return fftPairPlan();
  const std::string arPrefix = "table2-allreduce-";
  if (name.rfind(arPrefix, 0) == 0) {
    util::TorusShape shape;
    if (parseShapeSuffix(name.substr(arPrefix.size()), &shape))
      return allReducePlan(shape);
  }
  const std::string clPrefix = "cluster-allreduce-";
  if (name.rfind(clPrefix, 0) == 0) {
    const std::string n = name.substr(clPrefix.size());
    if (!n.empty() && n.find_first_not_of("0123456789") == std::string::npos)
      return clusterPlan(std::stoi(n));
  }
  throw std::invalid_argument("unknown plan name: " + name);
}

}  // namespace anton::tools
