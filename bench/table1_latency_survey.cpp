// SC10 Table 1: survey of published inter-node software-to-software
// (ping-pong) latencies. The Anton entry is measured live on the model;
// the other machines are the paper's cited literature constants, plus the
// LogGP InfiniBand baseline measured on our cluster model for context.
#include "bench_common.hpp"

#include "cluster/network.hpp"

using namespace anton;

int main() {
  bench::banner("Table 1: inter-node software-to-software latency survey");

  sim::Simulator sim;
  net::Machine m(sim, {8, 8, 8});
  double antonUs = net::oneWayLatencyNs(m, {0, net::kSlice0},
                                          {util::torusIndex({1, 0, 0}, m.shape()),
                                           net::kSlice0},
                                          0) /
                   1000.0;

  // LogGP model of the DDR2 InfiniBand cluster (our Table 3 baseline).
  sim::Simulator csim;
  cluster::ClusterMachine cm(csim, 2);
  double done = -1;
  auto recv = [&]() -> sim::Task {
    co_await cm.recv(1, 0, 1);
    done = sim::toUs(csim.now());
  };
  auto send = [&]() -> sim::Task { co_await cm.send(0, 1, 1, 8); };
  csim.spawn(recv());
  csim.spawn(send());
  csim.run();

  struct Entry {
    const char* machine;
    double paperUs;  // negative: measured here
    const char* date;
    const char* ref;
  };
  Entry entries[] = {
      {"Anton (this model)", -1, "2009", "measured here"},
      {"Altix 3700 BX2", 1.25, "2006", "[18]"},
      {"QsNetII", 1.28, "2005", "[8]"},
      {"Columbia", 1.6, "2005", "[10]"},
      {"Sun Fire", 1.7, "2002", "[42]"},
      {"EV7", 1.7, "2002", "[26]"},
      {"J-Machine", 1.8, "1993", "[32]"},
      {"QsNET", 1.9, "2001", "[33]"},
      {"Roadrunner (InfiniBand)", 2.16, "2008", "[7]"},
      {"LogGP IB model (this repo)", -2, "-", "measured here"},
      {"Cray T3E", 2.75, "1996", "[37]"},
      {"Blue Gene/P", 2.75, "2008", "[3]"},
      {"Blue Gene/L", 2.8, "2005", "[25]"},
      {"ASC Purple", 4.4, "2005", "[25]"},
      {"Cray XT4", 4.5, "2007", "[2]"},
      {"Red Storm", 6.9, "2005", "[25]"},
      {"SR8000", 9.9, "2001", "[45]"},
  };

  util::TablePrinter table({"machine", "latency (us)", "date", "source"});
  util::CsvWriter csv("table1_latency_survey.csv");
  csv.row("machine", "latency_us", "source");
  for (const Entry& e : entries) {
    double us = e.paperUs == -1 ? antonUs : e.paperUs == -2 ? done : e.paperUs;
    table.addRow({e.machine, util::TablePrinter::num(us, 2), e.date, e.ref});
    csv.row(e.machine, us, e.ref);
  }
  table.print(std::cout);
  std::cout << "\npaper anchor: Anton 0.16 us, ~8x below the best published "
               "(1.25 us); measured "
            << util::TablePrinter::num(antonUs, 3) << " us\n";
  return antonUs < 0.2 ? 0 : 1;
}
