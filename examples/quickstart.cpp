// Quickstart: build a small Anton machine, send counted remote writes, use
// hardware multicast, and run a global all-reduce — the paper's three core
// communication primitives — then run the same configuration as a
// simulation-service job (DESIGN.md §9).
//
//   ./examples/quickstart
#include <iostream>
#include <vector>

#include "core/allreduce.hpp"
#include "core/multicast.hpp"
#include "net/machine.hpp"
#include "plan_registry.hpp"
#include "serve/job_spec.hpp"
#include "serve/runner.hpp"
#include "sim/simulator.hpp"
#include "verify/snapshot.hpp"

using namespace anton;

int main() {
  // The quickstart configuration comes from the shared job-spec factory —
  // the same spec the MD example job, the service and the benches build.
  // A 4x4x4 torus: 64 nodes, each with 4 processing slices, an HTIS, and
  // two accumulation memories.
  serve::JobSpec spec = serve::quickstartMdSpec();
  sim::Simulator sim;
  net::Machine machine(sim, spec.shape);
  const int nodes = machine.numNodes();

  // --- 1. counted remote write: push data + synchronization in one packet.
  std::cout << "1) counted remote write\n";
  auto receiver = [&]() -> sim::Task {
    net::ProcessingSlice& me = machine.slice(1, 0);
    // Poll the synchronization counter until both packets have committed.
    co_await me.waitCounter(/*counter=*/0, /*target=*/2);
    std::cout << "   node 1 received both words: " << me.read<double>(0)
              << " and " << me.read<double>(8) << " at t="
              << sim::toNs(sim.now()) << " ns\n";
  };
  auto sender = [&]() -> sim::Task {
    double values[2] = {3.14, 2.71};
    for (int i = 0; i < 2; ++i) {
      net::NetworkClient::SendArgs args;
      args.dst = {1, net::kSlice0};          // neighbor node, slice 0
      args.counterId = 0;                    // counted write
      args.address = std::uint32_t(i) * 8;   // preallocated receive slot
      args.payload = net::makePayload(&values[i], sizeof(double));
      co_await machine.slice(0, 0).send(args);
    }
  };
  sim.spawn(receiver());
  sim.spawn(sender());
  sim.run();

  // --- 2. hardware multicast: one injected packet fans out in the network.
  std::cout << "2) hardware multicast to 5 HTIS units\n";
  core::PatternAllocator patterns(machine);
  std::vector<net::ClientAddr> dests;
  for (int n : {1, 4, 16, 17, 20}) dests.push_back({n, net::kHtis});
  int pattern = patterns.install(/*srcNode=*/0, dests);

  machine.resetStats();
  net::NetworkClient::SendArgs mc;
  mc.multicastPattern = pattern;
  mc.counterId = 3;
  double payload = 42.0;
  mc.payload = net::makePayload(&payload, sizeof payload);
  machine.slice(0, 1).post(mc);
  sim.run();
  std::cout << "   1 packet injected, " << machine.stats().packetsDelivered
            << " delivered, " << machine.stats().linkTraversals
            << " link crossings (multicast forked "
            << machine.stats().multicastForks << "x in the network)\n";

  // --- 3. dimension-ordered all-reduce across all 64 nodes.
  std::cout << "3) global all-reduce (32 bytes, all " << nodes
            << " nodes)\n";
  core::DimOrderedAllReduce allReduce(machine);
  std::vector<std::vector<double>> results;
  results.resize(std::size_t(nodes));
  auto reduceTask = [&](int node) -> sim::Task {
    std::vector<double> in(4, double(node));  // contribute [node, node, ...]
    co_await allReduce.run(node, std::move(in), &results[std::size_t(node)]);
  };
  sim::Time t0 = sim.now();
  for (int n = 0; n < nodes; ++n) sim.spawn(reduceTask(n));
  sim.run();
  std::cout << "   every node computed sum = " << results[0][0]
            << " (expected " << (nodes - 1) * nodes / 2 << ") in "
            << sim::toUs(sim.now() - t0) << " us\n";

  // --- 4. the same configuration as a simulation-service job: the spec is
  // declarative and its hash is the job's cache key. The runner builds the
  // job's machine and MD app once, verifies the plan extracted from them and
  // only then simulates them; planForSpec returns that same plan. The result
  // is the canonical JSON a simd_server would cache under the job key.
  std::cout << "4) run the quickstart MD job through the service runner\n";
  sim::Simulator arena;
  verify::VerifyResult verdict;
  serve::RunOutcome out = serve::runJob(spec, arena, {}, &verdict);
  std::cout << "   job key " << util::hex64(serve::jobKey(spec))
            << ", plan key " << verify::planKeyHex(serve::planForSpec(spec))
            << ", " << verdict.violations.size() << " plan violations\n"
            << "   " << out.resultJson << "\n";
  if (!verdict.ok() || out.resultJson.empty()) return 1;

  std::cout << "\nDone. Explore bench/ for the paper's tables and figures,\n"
               "and tools/simd_server for the job-server daemon.\n";
  return 0;
}
