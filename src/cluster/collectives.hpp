// MPI-style collectives and exchange patterns on the cluster baseline.
//
// These implement the commodity-cluster idioms the paper contrasts with
// Anton's fine-grained direct communication: staged neighbor exchange
// (Fig. 8a: 6 messages per node in 3 stages instead of 26 direct sends),
// recursive-doubling all-reduce, and pencil-group all-to-all for FFT
// transposes.
#pragma once

#include <functional>
#include <vector>

#include "cluster/network.hpp"
#include "sim/task.hpp"
#include "util/torus_coord.hpp"
#include "verify/plan.hpp"

namespace anton::cluster {

/// Recursive-doubling all-reduce (requires power-of-two node count).
/// Collective: every node spawns one task. Sums element-wise with a fixed
/// operand order so results are identical on all nodes.
sim::Task allReduce(ClusterMachine& m, int node, std::vector<double> in,
                    std::vector<double>* out, int tagBase = 1000);

/// Static message plan of the recursive-doubling all-reduce in the
/// verifier's counted-write vocabulary: the cluster is modeled as an
/// {n, 1, 1} torus, one tag acts as one sync counter, one message as one
/// packet, built as a counted-traffic schedule (core/schedule.hpp). Waits
/// are marked recovery-armed because the cluster transport is reliable
/// (MPI semantics), unlike raw counted writes. Returns the final phase
/// appended.
std::string appendAllReducePlan(verify::CommPlan& plan, int numNodes,
                                const std::string& afterPhase,
                                int tagBase = 1000);

/// Staged nearest-neighbor exchange on a logical 3D torus of cluster nodes:
/// stage d sends the accumulated slab (own data plus everything received in
/// earlier stages) to both neighbors along dimension d — 6 messages per node
/// reach all 26 neighbors in 3 stages. `bytesOwn` is each node's own
/// contribution; received data is forwarded, so stage sizes grow 3x per
/// stage. Returns (via *outBytes) the total bytes received.
sim::Task stagedNeighborExchange(ClusterMachine& m, util::TorusShape shape,
                                 int node, std::size_t bytesOwn,
                                 std::size_t* outBytes, int tagBase = 2000);

/// All-to-all within a group of nodes (FFT transpose building block): each
/// member sends `bytesPerPair` to every other member.
sim::Task allToAll(ClusterMachine& m, std::vector<int> group,
                   int selfIndex, std::size_t bytesPerPair, int tagBase = 3000);

}  // namespace anton::cluster
