// SC10 Table 3: critical-path communication time and total time per MD
// time step for the 23,558-atom DHFR benchmark on a 512-node Anton vs. the
// 512-node Xeon/InfiniBand Desmond cluster. Long-range interactions and
// temperature control run every other step.
//
// Anton-side numbers are measured by running the full Anton-mapped MD
// application (synthetic DHFR-sized system) on the machine model;
// "communication time" follows the paper's methodology (total minus
// critical-path arithmetic, here obtained by re-running with the compute
// calibration zeroed). The Desmond column runs the LogGP cluster model;
// its compute times are the published Table 3 residuals [15].
//
// Pass --small to run a 64-node, ~2,900-atom scaled configuration (same
// shape, ~8x faster); the full 512-node run takes a few minutes.
//
// BENCH_table3.json records each phase's Anton communication time against
// the paper's and the Anton/Desmond communication ratio against 1/27;
// metric names carry the node count, and CI gates the --small run.
#include <cstring>

#include "bench_common.hpp"

#include "cluster/desmond.hpp"
#include "md/anton_app.hpp"

using namespace anton;

namespace {

struct AntonTimes {
  double rlTotal = 0, lrTotal = 0, fft = 0, thermo = 0, avgTotal = 0;
};

md::AntonMdConfig mdConfig(bool small) {
  md::AntonMdConfig cfg;
  cfg.force.cutoff = small ? 2.2 : 2.6;
  cfg.ewald.grid = small ? 16 : 32;
  cfg.thermostatTau = 0.05;
  cfg.thermostatInterval = 2;
  cfg.longRangeInterval = 2;
  cfg.migrationInterval = 100;  // Table 3 profiles non-migration steps
  cfg.homeBoxMarginFrac = 0.08;
  return cfg;
}

AntonTimes measureAnton(bool small, bool zeroCompute) {
  sim::Simulator sim;
  util::TorusShape shape = small ? util::TorusShape{4, 4, 4}
                                 : util::TorusShape{8, 8, 8};
  net::Machine machine(sim, shape);

  md::SyntheticSystemParams sp;
  sp.targetAtoms = small ? 23558 / 8 : 23558;
  sp.seed = 2010;
  md::MDSystem sys = md::buildSyntheticSystem(sp);

  md::AntonMdConfig cfg = mdConfig(small);
  if (zeroCompute) {
    cfg.htisPairNs = cfg.gcBondNs = cfg.gcAngleNs = cfg.gcDihedralNs = 0;
    cfg.integrateAtomNs = cfg.spreadAtomNs = cfg.interpAtomNs = 0;
    cfg.fftConfig.fftPointNs = cfg.fftConfig.packPointNs = 0;
  }

  md::AntonMdApp app(machine, sys, cfg);
  app.runSteps(4);  // two range-limited + two long-range steps

  AntonTimes t;
  int rl = 0, lr = 0;
  for (const md::StepTiming& s : app.stepTimings()) {
    if (s.longRange) {
      t.lrTotal += s.totalUs;
      t.fft += s.fftUs;
      t.thermo += s.thermostatUs;
      ++lr;
    } else {
      t.rlTotal += s.totalUs;
      ++rl;
    }
  }
  t.rlTotal /= std::max(1, rl);
  t.lrTotal /= std::max(1, lr);
  t.fft /= std::max(1, lr);
  t.thermo /= std::max(1, lr);
  t.avgTotal = 0.5 * (t.rlTotal + t.lrTotal);
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  bool small = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--small") == 0) small = true;

  bench::banner(std::string("Table 3: critical-path communication time (") +
                (small ? "64-node scaled" : "512-node DHFR") + ")");

  AntonTimes total = measureAnton(small, false);
  AntonTimes commOnly = measureAnton(small, true);

  cluster::DesmondWorkload w;
  if (small) {
    w.numNodes = 64;
    w.atoms = 23558 / 8;
    w.fftGrid = 16;
    w.fftGroup = 16;
  }
  cluster::DesmondTimes desmond = cluster::measureDesmond(w);
  // Published compute residuals for the Desmond column (total - comm, [15]).
  double desmondRlCompute = 351 - 108, desmondLrCompute = 779 - 416;
  double desmondThermoTotal = 99, desmondFftTotal = 290;

  struct Row {
    const char* phase;
    const char* metric;
    double paperAntonComm, paperAntonTotal;
    double antonComm, antonTotal;
    double paperDesComm, paperDesTotal;
    double desComm, desTotal;
  };
  Row rows[] = {
      {"average step", "average_step", 9.8, 15.6, commOnly.avgTotal,
       total.avgTotal, 262, 565, desmond.averageUs,
       desmond.averageUs + 0.5 * (desmondRlCompute + desmondLrCompute)},
      {"range-limited step", "range_limited_step", 5.0, 9.0,
       commOnly.rlTotal, total.rlTotal, 108, 351, desmond.rangeLimitedUs,
       desmond.rangeLimitedUs + desmondRlCompute},
      {"long-range step", "long_range_step", 14.6, 22.2, commOnly.lrTotal,
       total.lrTotal, 416, 779, desmond.longRangeUs,
       desmond.longRangeUs + desmondLrCompute},
      {"FFT-based convolution", "fft", 7.5, 8.5, commOnly.fft, total.fft, 230,
       290, desmond.fftUs, desmondFftTotal},
      {"thermostat", "thermostat", 2.6, 3.0, commOnly.thermo, total.thermo,
       78, 99, desmond.thermostatUs, desmondThermoTotal},
  };

  util::TablePrinter table({"phase", "Anton comm (paper/model)",
                            "Anton total (paper/model)",
                            "Desmond comm (paper/model)",
                            "Desmond total (paper/model)"});
  util::CsvWriter csv("table3_comm_time.csv");
  bench::JsonReporter json("table3");
  const std::string nodes = small ? "_64n" : "_512n";
  csv.row("phase", "anton_comm_us", "anton_total_us", "desmond_comm_us",
          "desmond_total_us");
  for (const Row& r : rows) {
    auto pair = [](double a, double b) {
      return util::TablePrinter::num(a, 1) + " / " + util::TablePrinter::num(b, 1);
    };
    table.addRow({r.phase, pair(r.paperAntonComm, r.antonComm),
                  pair(r.paperAntonTotal, r.antonTotal),
                  pair(r.paperDesComm, r.desComm),
                  pair(r.paperDesTotal, r.desTotal)});
    csv.row(r.phase, r.antonComm, r.antonTotal, r.desComm, r.desTotal);
    json.record(std::string("anton_comm_") + r.metric + nodes,
                r.paperAntonComm, r.antonComm, "us");
  }
  table.print(std::cout);

  double ratio = desmond.averageUs / commOnly.avgTotal;
  json.record("anton_over_desmond_comm" + nodes, 1.0 / 27.0, 1.0 / ratio,
              "ratio");
  std::cout << "\nheadline: Anton critical-path communication is 1/"
            << util::TablePrinter::num(ratio, 0)
            << " of the Desmond/InfiniBand cluster (paper: 1/27)\n"
            << "per-step traffic: avg node sends "
            << "over 250 messages per step on the real machine; see "
               "machine stats in fig13 bench for this model\n";
  return ratio > 5.0 ? 0 : 1;
}
