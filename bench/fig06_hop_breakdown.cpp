// SC10 Figure 6: component breakdown of the 162 ns neighbor-X counted
// remote write. The model's calibrated components are printed next to the
// paper's measured values, and the end-to-end sum is cross-checked against
// an actual simulated transfer.
#include "bench_common.hpp"

using namespace anton;

int main() {
  bench::banner("Figure 6: single-hop (+X neighbor) latency breakdown");

  sim::Simulator sim;
  net::Machine m(sim, {8, 8, 8});
  const net::LatencyConfig& lat = m.latency();
  const net::RingLayout& ring = lat.ring;

  int sliceR = ring.clientRouter[net::kSlice0];
  int xPlusR = ring.adapterRouter[std::size_t(net::RingLayout::adapterIndex(0, +1))];
  int xMinusR = ring.adapterRouter[std::size_t(net::RingLayout::adapterIndex(0, -1))];

  struct Row {
    const char* component;
    double paperNs;
    double modelNs;
  };
  Row rows[] = {
      {"packet assembly + injection (slice)", 36.0, lat.assemblyNs},
      {"on-chip ring: slice -> X+ adapter (2 routers)", 19.0,
       sim::toNs(lat.ringPath(sliceR, xPlusR))},
      {"X+ link adapter", 20.0, lat.adapterNs},
      {"torus link wire", 0.0, lat.wireNs[0]},
      {"X- link adapter", 20.0, lat.adapterNs},
      {"on-chip ring: X- adapter -> slice (3 routers)", 25.0,
       sim::toNs(lat.ringPath(xMinusR, sliceR))},
      {"counter update + successful poll", 42.0, lat.pollSuccessNs},
  };

  util::TablePrinter table({"component", "paper (ns)", "model (ns)"});
  double paperSum = 0, modelSum = 0;
  for (const Row& r : rows) {
    table.addRow({r.component, util::TablePrinter::num(r.paperNs, 0),
                  util::TablePrinter::num(r.modelNs, 0)});
    paperSum += r.paperNs;
    modelSum += r.modelNs;
  }
  table.addRow({"TOTAL", util::TablePrinter::num(paperSum, 0),
                util::TablePrinter::num(modelSum, 0)});
  table.print(std::cout);

  double measured = net::oneWayLatencyNs(
      m, {0, net::kSlice0},
      {util::torusIndex({1, 0, 0}, m.shape()), net::kSlice0}, 0);
  std::cout << "\nend-to-end simulated transfer: "
            << util::TablePrinter::num(measured, 1)
            << " ns (paper: 162 ns)\n";
  std::cout << "link bandwidth: 50.6 Gbit/s raw, "
            << util::TablePrinter::num(lat.linkBytesPerNs * 8, 1)
            << " Gbit/s effective; on-chip ring "
            << util::TablePrinter::num(lat.ringBytesPerNs * 8, 1)
            << " Gbit/s\n";
  return measured == 162.0 ? 0 : 1;
}
