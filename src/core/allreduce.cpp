#include "core/allreduce.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <span>
#include <stdexcept>

namespace anton::core {

using net::MulticastEntry;
using net::RingLayout;

namespace {

int maxExtent(const util::TorusShape& s) {
  return std::max({s.nx, s.ny, s.nz});
}

constexpr int kShare = 3;  ///< name of the local-share phase
/// Line-broadcast pattern ids: [kPatternBase, kPatternBase + 3*maxExtent).
constexpr int kPatternBase = 208;
/// One receive slot: the largest reduction payload.
constexpr std::uint32_t kSlotBytes = net::kMaxPayloadBytes;

net::PayloadPtr packDoubles(std::span<const double> xs) {
  if (xs.empty()) return nullptr;
  return net::makePayload(xs.data(), xs.size() * sizeof(double));
}

}  // namespace

// --- DimOrderedAllReduce ----------------------------------------------------

DimOrderedAllReduce::DimOrderedAllReduce(net::Machine& machine,
                                         AllReduceConfig cfg)
    : machine_(machine), cfg_(cfg) {
  buildSchedule();
}

void DimOrderedAllReduce::setRecovery(const RecoveryHooks& hooks) {
  if (schedule_.started())
    throw std::logic_error("all-reduce recovery armed after a run");
  recovery_ = hooks;
}

int DimOrderedAllReduce::patternId(int dim, int pos) const {
  return kPatternBase + dim * maxExtent(machine_.shape()) + pos;
}

std::uint32_t DimOrderedAllReduce::slotAddr(int pos, int parity) const {
  return cfg_.memBase +
         std::uint32_t(pos * 2 + parity) * kSlotBytes;
}

int DimOrderedAllReduce::lastDim() const {
  const util::TorusShape& shape = machine_.shape();
  return shape.nz > 1 ? 2 : shape.ny > 1 ? 1 : shape.nx > 1 ? 0 : -1;
}

int DimOrderedAllReduce::lineNode(int node, int dim, int pos) const {
  util::TorusCoord c = util::torusCoordOf(node, machine_.shape());
  c[dim] = pos;
  return util::torusIndex(c, machine_.shape());
}

void DimOrderedAllReduce::buildSchedule() {
  const util::TorusShape& shape = machine_.shape();
  for (int dim = 0; dim < 3; ++dim) {
    schedule_.names.push_back(std::string("allreduce.") + "xyz"[dim]);
    schedule_.waits.push_back({dim, cfg_.counterId});
  }
  schedule_.names.push_back("allreduce.share");
  for (int dim = 0; dim < 3; ++dim)
    schedule_.names.push_back(schedule_.names[std::size_t(dim)] + ".slots");
  schedule_.numNodes = machine_.numNodes();

  std::vector<int> peers;
  for (int dim = 0; dim < 3; ++dim) {
    const int n = shape.extent(dim);
    if (n < 2) continue;
    const auto phase = std::uint8_t(dim);
    // run() multicasts the local partial *before* waiting on the line's
    // peers: the wait follows the send. That order is exactly why the
    // receive slots need parity double buffering.
    schedule_.sites.push_back({phase, phase, phase, 1, 1});
    // The line broadcast from position `pos` reaches positions ahead of it
    // (+dim chain, length fwd) and behind it (-dim chain, length bwd). One
    // pattern per (dim, pos) serves every line: a node's row depends only
    // on its position relative to the source's.
    const int fwd = n / 2;
    const int bwd = n - 1 - fwd;
    auto link = [dim](int sign) {
      return std::uint8_t(1u << RingLayout::adapterIndex(dim, sign));
    };
    for (int j = 0; j < machine_.numNodes(); ++j) {
      const int k = util::torusCoordOf(j, shape)[dim];
      for (int pos = 0; pos < n; ++pos) {
        const int kf = util::wrap(k - pos, n);
        const int kb = util::wrap(pos - k, n);
        MulticastEntry e;
        if (kf == 0) {  // source position: fork both ways, no local delivery
          e.linkMask = std::uint8_t((fwd >= 1 ? link(+1) : 0) |
                                    (bwd >= 1 ? link(-1) : 0));
        } else {
          e.clientMask = std::uint8_t(1u << dim);  // slice `dim`
          if (kf < fwd) e.linkMask = link(+1);
          else if (kf > fwd && kb < bwd) e.linkMask = link(-1);
        }
        machine_.setMulticastPattern(j, patternId(dim, pos), e);
      }
    }
    for (int s = 0; s < machine_.numNodes(); ++s) {
      const int pos = util::torusCoordOf(s, shape)[dim];
      peers.clear();
      for (int k = 0; k < n; ++k)
        if (k != pos) peers.push_back(lineNode(s, dim, k));
      schedule_.sends.push_back({.srcNode = s, .phase = phase, .seq = 0,
                                 .counterId = cfg_.counterId,
                                 .pattern = patternId(dim, pos)});
      schedule_.addBuffer({.name = std::uint16_t(kShare + 1 + dim),
                           .client = {s, dim}, .base = slotAddr(0, 0),
                           .bytes = std::uint32_t(n) * 2u * kSlotBytes,
                           .copies = 2, .freePhase = phase},
                          phase, peers);
    }
  }
  // The node-local share of the global sum: uncounted writes.
  if (const int last = lastDim(); last >= 0)
    for (int s = 0; s < machine_.numNodes(); ++s)
      for (int sl = 0; sl < net::kNumSlices; ++sl)
        if (sl != last)
          schedule_.sends.push_back(
              {.srcNode = s, .phase = kShare, .dst = {s, sl}});
  schedule_.transpose(&machine_);
}

std::string DimOrderedAllReduce::appendPlan(verify::CommPlan& plan,
                                            const std::string& afterPhase) const {
  // One phase per participating dimension, then the local share.
  std::string prev = afterPhase;
  for (int phase = 0; phase <= kShare; ++phase) {
    if (phase < kShare ? machine_.shape().extent(phase) < 2 : lastDim() < 0)
      continue;
    plan.addPhaseEdge(prev, schedule_.names[std::size_t(phase)]);
    prev = schedule_.names[std::size_t(phase)];
    schedule_.appendTo(plan, phase, phase, recovery_.armed());
  }
  // Each source's tree: the installed rows of its line, the only ones its
  // broadcast can reach, meant for the line's other nodes.
  std::vector<verify::TreeRow> rows;
  std::vector<net::ClientAddr> dests;
  for (int dim = 0; dim < 3; ++dim) {
    const int n = machine_.shape().extent(dim);
    if (n < 2) continue;
    for (int s = 0; s < machine_.numNodes(); ++s) {
      const int pos = util::torusCoordOf(s, machine_.shape())[dim];
      const int id = patternId(dim, pos);
      rows.clear();
      dests.clear();
      for (int k = 0; k < n; ++k) {
        const int j = lineNode(s, dim, k);
        rows.push_back({j, machine_.node(j).multicast(id)});
        if (k != pos) dests.push_back({j, dim});
      }
      plan.addTree(id, s, rows, dests);
    }
  }
  return prev;
}

sim::Task DimOrderedAllReduce::run(int nodeIdx, std::vector<double> in,
                                   std::vector<double>* out) {
  const util::TorusShape& shape = machine_.shape();
  const util::TorusCoord coord = util::torusCoordOf(nodeIdx, shape);
  const std::size_t words = in.size();
  if (words * sizeof(double) > kSlotBytes)
    throw std::length_error("all-reduce payload exceeds a packet payload");

  std::vector<double> cur = std::move(in);
  for (int dim = 0; dim < 3; ++dim) {
    int n = shape.extent(dim);
    if (n < 2) continue;
    net::ProcessingSlice& slice = machine_.slice(nodeIdx, dim);
    int pos = coord[dim];
    int parity = int(schedule_.state(nodeIdx, dim).rounds % 2);

    net::NetworkClient::SendArgs args;
    args.multicastPattern = patternId(dim, pos);
    args.counterId = cfg_.counterId;
    args.address = slotAddr(pos, parity);
    args.payload = packDoubles(cur);
    co_await slice.send(args);

    co_await schedule_.awaitRound(machine_, nodeIdx, dim, 1, recovery_);

    // Redundant ordered sum across line positions: identical on every node.
    if (words != 0) {
      std::vector<double> acc(words, 0.0);
      for (int i = 0; i < n; ++i) {
        for (std::size_t w = 0; w < words; ++w) {
          double v = (i == pos)
                         ? cur[w]
                         : slice.read<double>(slotAddr(i, parity) +
                                              std::uint32_t(w * sizeof(double)));
          acc[w] += v;
        }
      }
      cur = std::move(acc);
    }
    co_await machine_.sim().delay(
        sim::ns(cfg_.roundOverheadNs + cfg_.perWordNs * double(words) * n));
  }

  // The last participating slice shares the global sum with its three
  // peers through local remote writes (SC10 §IV-B4).
  if (const int last = lastDim(); last >= 0) {
    net::ProcessingSlice& owner = machine_.slice(nodeIdx, last);
    for (int s = 0; s < net::kNumSlices; ++s) {
      if (s == last) continue;
      net::NetworkClient::SendArgs share;
      share.dst = {nodeIdx, s};
      // Past the line-broadcast slots: 2*maxExtent slots precede it.
      share.address = slotAddr(maxExtent(machine_.shape()), 0);
      share.payload = packDoubles(cur);
      co_await owner.send(share);
    }
  }

  if (out != nullptr) *out = std::move(cur);
}

// --- ButterflyAllReduce -----------------------------------------------------

ButterflyAllReduce::ButterflyAllReduce(net::Machine& machine,
                                       AllReduceConfig cfg)
    : machine_(machine),
      cfg_(cfg),
      sent_(std::size_t(machine.numNodes())),
      calls_(std::size_t(machine.numNodes())) {
  const util::TorusShape& shape = machine.shape();
  for (int dim = 0; dim < 3; ++dim) {
    int n = shape.extent(dim);
    if (n > 1 && !std::has_single_bit(unsigned(n)))
      throw std::invalid_argument("butterfly all-reduce needs power-of-two extents");
    roundsPerDim_[std::size_t(dim)] = std::bit_width(unsigned(n)) - 1;
  }
}

std::uint32_t ButterflyAllReduce::slotAddr(int dim, int round, int parity) const {
  // Up to 3 dims x log2(extent) rounds x 2 parities of one slot each.
  int slot = (dim * 8 + round) * 2 + parity;
  return cfg_.memBase + std::uint32_t(slot) * kSlotBytes;
}

sim::Task ButterflyAllReduce::run(int nodeIdx, std::vector<double> in,
                                  std::vector<double>* out) {
  const util::TorusShape& shape = machine_.shape();
  const util::TorusCoord coord = util::torusCoordOf(nodeIdx, shape);
  const std::size_t words = in.size();
  int parity = int(calls_[std::size_t(nodeIdx)]++ % 2);

  std::vector<double> cur = std::move(in);
  for (int dim = 0; dim < 3; ++dim) {
    net::ProcessingSlice& slice = machine_.slice(nodeIdx, dim);
    int pos = coord[dim];
    for (int r = 0; r < roundsPerDim_[std::size_t(dim)]; ++r) {
      util::TorusCoord partner = coord;
      partner[dim] = pos ^ (1 << r);

      net::NetworkClient::SendArgs args;
      args.dst = {util::torusIndex(partner, shape), dim};
      args.counterId = cfg_.counterId;
      args.address = slotAddr(dim, r, parity);
      args.payload = packDoubles(cur);
      co_await slice.send(args);

      std::uint64_t target = ++sent_[std::size_t(nodeIdx)][std::size_t(dim)];
      co_await slice.waitCounter(cfg_.counterId, target);

      if (words != 0) {
        std::vector<double> theirs(words);
        for (std::size_t w = 0; w < words; ++w)
          theirs[w] = slice.read<double>(slotAddr(dim, r, parity) +
                                         std::uint32_t(w * sizeof(double)));
        // Order the operands by subcube position so every node computes
        // bit-identical sums.
        bool mineFirst = ((pos >> r) & 1) == 0;
        for (std::size_t w = 0; w < words; ++w)
          cur[w] = mineFirst ? cur[w] + theirs[w] : theirs[w] + cur[w];
      }
      co_await machine_.sim().delay(
          sim::ns(cfg_.roundOverheadNs + cfg_.perWordNs * double(words) * 2));
    }
  }
  if (out != nullptr) *out = std::move(cur);
}

}  // namespace anton::core
