// SC10 Figure 11: evolution of per-step execution time as atoms diffuse
// away from their initial bond-program assignment, with and without bond
// program regeneration.
//
// The paper's curve spans 8 million time steps on the real machine; here
// atom diffusion between samples is applied synthetically (random-walk
// displacement calibrated to the same root-mean-square drift per sampling
// gap), then one full simulated step measures the current per-step cost and
// the mean bond-traffic hop distance. The regeneration variant rebuilds the
// bond program every `regenEvery` samples (the paper: every 120k steps,
// installed one regeneration period late; we mirror that lag by
// regenerating from the positions of the previous sample).
#include "bench_common.hpp"

#include "md/anton_app.hpp"

using namespace anton;

namespace {

struct Series {
  std::vector<double> virtualSteps;
  std::vector<double> stepUs;
  std::vector<double> bondHops;
};

Series run(bool regen) {
  sim::Simulator sim;
  net::MachineConfig mcfg;
  mcfg.clientMemBytes = 1 << 20;  // diffusion headroom widens the regions
  net::Machine machine(sim, {4, 4, 4}, mcfg);
  md::SyntheticSystemParams sp;
  sp.targetAtoms = 23558 / 8;
  sp.seed = 42;
  md::MDSystem sys = md::buildSyntheticSystem(sp);

  md::AntonMdConfig cfg;
  cfg.force.cutoff = 2.2;
  cfg.ewald.grid = 16;
  cfg.longRangeInterval = 2;
  cfg.thermostatTau = 0.05;
  cfg.migrationInterval = 1000;  // isolated from migration effects
  cfg.homeBoxMarginFrac = 0.06;
  cfg.packetHeadroom = 1.8;  // diffusion redistributes atoms across nodes

  md::AntonMdApp app(machine, sys, cfg);

  // Each sample represents a 120k-step gap; rms displacement per gap of
  // ~1.6 box-fractions of a node box models liquid diffusion at that scale.
  const int samples = 24;
  const int regenEvery = 3;
  const double swapFraction = 0.30;

  Series out;
  for (int s = 0; s < samples; ++s) {
    if (s > 0) app.syntheticDiffusion(swapFraction, 1000 + std::uint64_t(s));
    if (regen && s > 0 && s % regenEvery == 0) app.regenerateBondProgram();
    app.runSteps(4);  // two range-limited + two long-range steps
    const auto& ts = app.stepTimings();
    double avg = 0.25 * (ts[ts.size() - 1].totalUs + ts[ts.size() - 2].totalUs +
                         ts[ts.size() - 3].totalUs + ts[ts.size() - 4].totalUs);
    out.virtualSteps.push_back(double(s) * 0.12);  // millions of steps
    out.stepUs.push_back(avg);
    out.bondHops.push_back(app.averageBondHops());
  }
  return out;
}

}  // namespace

int main() {
  bench::banner("Figure 11: bond-program aging and regeneration");

  Series without = run(false);
  Series with = run(true);

  util::TablePrinter table({"Msteps", "no-regen step (us)", "no-regen hops",
                            "regen step (us)", "regen hops"});
  util::CsvWriter csv("fig11_bond_regen.csv");
  csv.row("million_steps", "noregen_us", "noregen_hops", "regen_us",
          "regen_hops");
  for (std::size_t i = 0; i < without.stepUs.size(); ++i) {
    table.addRow({util::TablePrinter::num(without.virtualSteps[i], 2),
                  util::TablePrinter::num(without.stepUs[i], 2),
                  util::TablePrinter::num(without.bondHops[i], 2),
                  util::TablePrinter::num(with.stepUs[i], 2),
                  util::TablePrinter::num(with.bondHops[i], 2)});
    csv.row(without.virtualSteps[i], without.stepUs[i], without.bondHops[i],
            with.stepUs[i], with.bondHops[i]);
  }
  table.print(std::cout);

  double head = 0, tailNo = 0, tailYes = 0;
  const std::size_t k = without.stepUs.size();
  for (std::size_t i = 0; i < 3; ++i) head += without.stepUs[i] / 3;
  for (std::size_t i = k - 6; i < k; ++i) {
    tailNo += without.stepUs[i] / 6;
    tailYes += with.stepUs[i] / 6;
  }
  double improvement = (tailNo - tailYes) / tailNo * 100.0;
  double hopsNoTail = 0, hopsYesTail = 0;
  for (std::size_t i = k - 6; i < k; ++i) {
    hopsNoTail += without.bondHops[i] / 6;
    hopsYesTail += with.bondHops[i] / 6;
  }
  std::cout << "\npaper shape: without regeneration, bond traffic drifts to "
               "longer routes and the step slows (14% overall improvement "
               "from regeneration on the paper's benchmark); regeneration "
               "resets the assignment.\n"
            << "model: mean bond hop distance ages to "
            << util::TablePrinter::num(hopsNoTail, 2)
            << " without regeneration vs "
            << util::TablePrinter::num(hopsYesTail, 2)
            << " with; step time " << util::TablePrinter::num(tailNo, 1)
            << " -> " << util::TablePrinter::num(tailYes, 1) << " us ("
            << util::TablePrinter::num(improvement, 1) << "% improvement).\n"
            << "NOTE: the timing effect is muted relative to the paper "
               "because this model\'s critical path is dominated by "
               "range-limited import and the long-range phase (see "
               "EXPERIMENTS.md); the "
               "aging mechanism itself - hop growth and its reset - "
               "reproduces cleanly.\n"
            << "(initial step time " << util::TablePrinter::num(head, 1)
            << " us)\nseries written to fig11_bond_regen.csv\n";
  // Success criterion: the aging mechanism (hop growth, reset by regen) and
  // a non-negative timing benefit.
  return (hopsNoTail > 2.0 * hopsYesTail && tailYes <= tailNo + 0.3) ? 0 : 1;
}
