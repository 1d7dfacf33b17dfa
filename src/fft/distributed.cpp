#include "fft/distributed.hpp"

#include <bit>
#include <cstring>
#include <stdexcept>

namespace anton::fft {

namespace {
constexpr std::uint32_t kPointBytes = sizeof(Complex);  // 16
constexpr int kCounterBase = 220;  ///< gather/scatter counter per dimension
constexpr std::uint32_t kMemBase = 0x30000;  ///< receive regions in slice memory
}  // namespace

DistributedFft3D::DistributedFft3D(net::Machine& machine, int gx, int gy,
                                   int gz, DistributedFftConfig cfg)
    : machine_(machine),
      cfg_(cfg),
      g_{gx, gy, gz},
      home_(std::size_t(machine.numNodes())) {
  const util::TorusShape& shape = machine.shape();
  for (int d = 0; d < 3; ++d) {
    if (g_[std::size_t(d)] <= 0 || !std::has_single_bit(unsigned(g_[std::size_t(d)])))
      throw std::invalid_argument("grid extents must be powers of two");
    if (g_[std::size_t(d)] % shape.extent(d) != 0)
      throw std::invalid_argument("grid extent must divide by torus extent");
    b_[std::size_t(d)] = g_[std::size_t(d)] / shape.extent(d);
  }
  for (auto& blk : home_) blk.assign(blockSize(), Complex{0.0, 0.0});

  std::uint32_t offset = kMemBase;
  for (int d = 0; d < 3; ++d) {
    DimPlan& p = plan_[std::size_t(d)];
    p.d = d;
    p.a = d == 0 ? 1 : 0;
    p.b = d == 2 ? 1 : 2;
    p.ringSize = shape.extent(d);
    p.lineLen = g_[std::size_t(d)];
    p.seg = b_[std::size_t(d)];
    p.linesPerBlock = b_[std::size_t(p.a)] * b_[std::size_t(p.b)];
    int k = cfg_.pointsPerPacket == 0
                ? std::min(p.seg, int(net::kMaxPayloadBytes / kPointBytes))
                : std::min({cfg_.pointsPerPacket, p.seg,
                            int(net::kMaxPayloadBytes / kPointBytes)});
    p.packetsPerSegment = (p.seg + k - 1) / k;
    // Ring position 0 owns the most lines.
    p.gatherRegion = std::uint32_t(ownedLines(0, p)) * std::uint32_t(p.lineLen) * kPointBytes;
    p.scatterRegion = std::uint32_t(p.linesPerBlock) * std::uint32_t(p.seg) * kPointBytes;
    p.gatherBase = offset;
    offset += 2 * p.gatherRegion;
    p.scatterBase = offset;
    offset += 2 * p.scatterRegion;
  }
  std::size_t memNeeded = offset;
  if (memNeeded > machine.config().clientMemBytes)
    throw std::invalid_argument("FFT receive regions exceed client memory");
  buildSchedule();
}

std::array<int, 3> DistributedFft3D::globalCoord(int nodeIdx,
                                                 std::size_t localIdx) const {
  util::TorusCoord c = util::torusCoordOf(nodeIdx, machine_.shape());
  int lx = int(localIdx % std::size_t(b_[0]));
  int ly = int((localIdx / std::size_t(b_[0])) % std::size_t(b_[1]));
  int lz = int(localIdx / (std::size_t(b_[0]) * std::size_t(b_[1])));
  return {c.x * b_[0] + lx, c.y * b_[1] + ly, c.z * b_[2] + lz};
}

void DistributedFft3D::loadGrid(const std::vector<Complex>& grid) {
  if (grid.size() != std::size_t(g_[0]) * std::size_t(g_[1]) * std::size_t(g_[2]))
    throw std::invalid_argument("grid size mismatch");
  for (int n = 0; n < machine_.numNodes(); ++n) {
    std::vector<Complex>& blk = home_[std::size_t(n)];
    for (std::size_t i = 0; i < blk.size(); ++i) {
      auto [x, y, z] = globalCoord(n, i);
      blk[i] = grid[std::size_t(x) +
                    std::size_t(g_[0]) * (std::size_t(y) + std::size_t(g_[1]) * std::size_t(z))];
    }
  }
}

std::vector<Complex> DistributedFft3D::extractGrid() const {
  std::vector<Complex> grid(std::size_t(g_[0]) * std::size_t(g_[1]) * std::size_t(g_[2]));
  for (int n = 0; n < machine_.numNodes(); ++n) {
    const std::vector<Complex>& blk = home_[std::size_t(n)];
    for (std::size_t i = 0; i < blk.size(); ++i) {
      auto [x, y, z] = globalCoord(n, i);
      grid[std::size_t(x) +
           std::size_t(g_[0]) * (std::size_t(y) + std::size_t(g_[1]) * std::size_t(z))] = blk[i];
    }
  }
  return grid;
}

int DistributedFft3D::ownedLines(int pos, const DimPlan& p) {
  // Lines with lid % ringSize == pos, lid in [0, linesPerBlock).
  return p.linesPerBlock / p.ringSize + (pos < p.linesPerBlock % p.ringSize);
}

std::uint32_t DistributedFft3D::gatherAddr(const DimPlan& p, int parity,
                                           int ord, int gp) const {
  return p.gatherBase + std::uint32_t(parity) * p.gatherRegion +
         (std::uint32_t(ord) * std::uint32_t(p.lineLen) + std::uint32_t(gp)) *
             kPointBytes;
}

std::uint32_t DistributedFft3D::scatterAddr(const DimPlan& p, int parity,
                                            int lid, int dp) const {
  return p.scatterBase + std::uint32_t(parity) * p.scatterRegion +
         (std::uint32_t(lid) * std::uint32_t(p.seg) + std::uint32_t(dp)) *
             kPointBytes;
}

std::size_t DistributedFft3D::homeIndex(const DimPlan& p, int la, int lb,
                                        int ld) const {
  int l[3];
  l[p.d] = ld;
  l[p.a] = la;
  l[p.b] = lb;
  return std::size_t(l[0]) +
         std::size_t(b_[0]) * (std::size_t(l[1]) + std::size_t(b_[1]) * std::size_t(l[2]));
}

void DistributedFft3D::buildSchedule() {
  const util::TorusShape& shape = machine_.shape();
  for (int d = 0; d < 3; ++d) {
    schedule_.waits.push_back({kSlice, kCounterBase + 2 * d});
    schedule_.waits.push_back({kSlice, kCounterBase + 2 * d + 1});
  }
  schedule_.numNodes = machine_.numNodes();
  std::vector<int> gatherWriters, scatterWriters;
  for (int pass = 0; pass < 2; ++pass) {
    const std::uint8_t kind = pass == 0 ? kForward : kInverse;
    for (int d = 0; d < 3; ++d) {
      const std::string pfx = std::string(pass == 0 ? "fft.fwd." : "fft.inv.") +
                              "xyz"[d];
      for (const char* k : {".gather", ".xform", ".unpack", ".xform.scatter"})
        schedule_.names.push_back(pfx + k);
      const auto gather = std::uint8_t(phase(pass, d, 0));
      const auto xform = std::uint8_t(phase(pass, d, 1));
      const auto unpack = std::uint8_t(phase(pass, d, 2));
      // The transform coroutine waits on the gather counter, reads, runs the
      // FFT and only then scatters: the waits at seq 0 ahead of the sends at
      // seq 1 are the live order the event-granular checks depend on.
      // A ring position owning no lines still has its (empty) gather wait.
      schedule_.sites.push_back({gather, xform, std::uint8_t(2 * d), kind, 0,
                                 true});
      schedule_.sites.push_back({xform, unpack, std::uint8_t(2 * d + 1), kind});
      const DimPlan& p = plan_[std::size_t(d)];
      const std::uint32_t pps = std::uint32_t(p.packetsPerSegment);
      for (int n = 0; n < machine_.numNodes(); ++n) {
        const util::TorusCoord coord = util::torusCoordOf(n, shape);
        const std::uint32_t myOwned = std::uint32_t(ownedLines(coord[d], p));
        gatherWriters.clear();
        scatterWriters.clear();
        for (int o = 0; o < p.ringSize; ++o) {
          util::TorusCoord oc = coord;
          oc[d] = o;
          const int peer = util::torusIndex(oc, shape);
          // Gather: my segments of every line `peer` owns.
          if (const int owned = ownedLines(o, p); owned != 0) {
            schedule_.sends.push_back({.srcNode = n, .phase = gather,
                                       .kinds = kind,
                                       .counterId = kCounterBase + 2 * d,
                                       .dst = {peer, kSlice},
                                       .packets = std::uint32_t(owned) * pps});
            scatterWriters.push_back(peer);
          }
          // Scatter: my owned lines' segments back to every ring node.
          if (myOwned != 0) {
            schedule_.sends.push_back({.srcNode = n, .phase = xform,
                                       .kinds = kind,
                                       .counterId = kCounterBase + 2 * d + 1,
                                       .dst = {peer, kSlice},
                                       .packets = myOwned * pps});
            gatherWriters.push_back(peer);
          }
        }
        schedule_.addBuffer(
            {.name = gather, .client = {n, kSlice},
             .base = p.gatherBase + std::uint32_t(pass) * p.gatherRegion,
             .bytes = p.gatherRegion, .freePhase = xform},
            gather, gatherWriters);
        schedule_.addBuffer(
            {.name = std::uint16_t(phase(pass, d, 3)), .client = {n, kSlice},
             .base = p.scatterBase + std::uint32_t(pass) * p.scatterRegion,
             .bytes = p.scatterRegion, .freePhase = unpack},
            xform, scatterWriters);
      }
    }
  }
  schedule_.transpose();
}

void DistributedFft3D::setRecovery(const core::RecoveryHooks& hooks) {
  if (schedule_.started())
    throw std::logic_error("FFT recovery armed after a run");
  recovery_ = hooks;
}

std::uint64_t DistributedFft3D::packetsPerNodePerTransform(int nodeIdx) const {
  std::uint64_t total = 0;
  for (const verify::PlannedWrite& s : schedule_.sendsOf(nodeIdx))
    if (s.kinds & kForward) total += s.packets;
  return total;
}

std::string DistributedFft3D::appendPlan(verify::CommPlan& plan,
                                         const std::string& afterPhase) const {
  std::string prev = afterPhase;
  for (int pass = 0; pass < 2; ++pass)
    for (int step = 0; step < 3; ++step) {
      const int d = pass == 0 ? step : 2 - step;
      // gather: push segments to owners; xform: wait, read, FFT, scatter;
      // unpack: wait, read home segments.
      for (int k = 0; k < 3; ++k) {
        const std::string& next = schedule_.names[std::size_t(phase(pass, d, k))];
        plan.addPhaseEdge(prev, next);
        prev = next;
      }
      schedule_.appendTo(plan, phase(pass, d, 0), phase(pass, d, 2),
                         recovery_.armed());
    }
  return prev;
}

sim::Task DistributedFft3D::run(int nodeIdx, bool inverse) {
  const util::TorusShape& shape = machine_.shape();
  const util::TorusCoord coord = util::torusCoordOf(nodeIdx, shape);
  net::ProcessingSlice& slice = machine_.slice(nodeIdx, kSlice);
  std::vector<Complex>& blk = home_[std::size_t(nodeIdx)];
  const Kind kind = inverse ? kInverse : kForward;

  for (int step = 0; step < 3; ++step) {
    const int d = inverse ? 2 - step : step;
    const DimPlan& p = plan_[std::size_t(d)];
    const int myPos = coord[d];
    const int myOwned = ownedLines(myPos, p);
    const int parity = int(schedule_.state(nodeIdx, 2 * d).rounds % 2);

    // --- gather: push my segments of every line to the line owners -------
    const int kEff = (p.seg + p.packetsPerSegment - 1) / p.packetsPerSegment;
    std::vector<std::byte> buf(std::size_t(kEff) * kPointBytes);
    for (int lid = 0; lid < p.linesPerBlock; ++lid) {
      const int la = lid % b_[std::size_t(p.a)];
      const int lb = lid / b_[std::size_t(p.a)];
      util::TorusCoord ownerCoord = coord;
      ownerCoord[d] = lid % p.ringSize;
      const int ownerNode = util::torusIndex(ownerCoord, shape);
      const int ord = lid / p.ringSize;
      for (int dp0 = 0; dp0 < p.seg; dp0 += kEff) {
        const int cnt = std::min(kEff, p.seg - dp0);
        for (int i = 0; i < cnt; ++i) {
          Complex v = blk[homeIndex(p, la, lb, dp0 + i)];
          std::memcpy(buf.data() + std::size_t(i) * kPointBytes, &v, kPointBytes);
        }
        net::NetworkClient::SendArgs args;
        args.dst = {ownerNode, kSlice};
        args.counterId = kCounterBase + 2 * d;
        args.address = gatherAddr(p, parity, ord, myPos * p.seg + dp0);
        args.payload = net::makePayload(buf.data(), std::size_t(cnt) * kPointBytes);
        co_await slice.send(args);
      }
    }
    co_await machine_.sim().delay(
        sim::ns(cfg_.packPointNs * double(p.linesPerBlock * p.seg)));

    co_await schedule_.awaitRound(machine_, nodeIdx, 2 * d, kind, recovery_);

    // --- compute: 1D FFTs on my owned lines ------------------------------
    std::vector<std::vector<Complex>> lines(static_cast<std::size_t>(myOwned));
    for (int ord = 0; ord < myOwned; ++ord) {
      auto& line = lines[std::size_t(ord)];
      line.resize(std::size_t(p.lineLen));
      for (int gp = 0; gp < p.lineLen; ++gp)
        line[std::size_t(gp)] = slice.read<Complex>(gatherAddr(p, parity, ord, gp));
      fft1d(line, inverse);
    }
    const double fftNs = cfg_.fftPointNs * double(myOwned) * double(p.lineLen) *
                         double(std::bit_width(unsigned(p.lineLen)) - 1);
    co_await machine_.sim().delay(sim::ns(fftNs));

    // --- scatter: return transformed segments to home blocks -------------
    for (int ord = 0; ord < myOwned; ++ord) {
      const int lid = ord * p.ringSize + myPos;
      const auto& line = lines[std::size_t(ord)];
      for (int s = 0; s < p.ringSize; ++s) {
        util::TorusCoord dstCoord = coord;
        dstCoord[d] = s;
        const int dstNode = util::torusIndex(dstCoord, shape);
        for (int dp0 = 0; dp0 < p.seg; dp0 += kEff) {
          const int cnt = std::min(kEff, p.seg - dp0);
          for (int i = 0; i < cnt; ++i) {
            Complex v = line[std::size_t(s * p.seg + dp0 + i)];
            std::memcpy(buf.data() + std::size_t(i) * kPointBytes, &v, kPointBytes);
          }
          net::NetworkClient::SendArgs args;
          args.dst = {dstNode, kSlice};
          args.counterId = kCounterBase + 2 * d + 1;
          args.address = scatterAddr(p, parity, lid, dp0);
          args.payload = net::makePayload(buf.data(), std::size_t(cnt) * kPointBytes);
          co_await slice.send(args);
        }
      }
    }

    co_await schedule_.awaitRound(machine_, nodeIdx, 2 * d + 1, kind,
                                  recovery_);

    // --- unpack the scatter region into the home block -------------------
    for (int lid = 0; lid < p.linesPerBlock; ++lid) {
      const int la = lid % b_[std::size_t(p.a)];
      const int lb = lid / b_[std::size_t(p.a)];
      for (int dp = 0; dp < p.seg; ++dp)
        blk[homeIndex(p, la, lb, dp)] =
            slice.read<Complex>(scatterAddr(p, parity, lid, dp));
    }
    co_await machine_.sim().delay(
        sim::ns(cfg_.packPointNs * double(p.linesPerBlock * p.seg)));
  }
}

}  // namespace anton::fft
