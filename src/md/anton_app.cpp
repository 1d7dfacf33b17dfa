#include "md/anton_app.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>
#include <stdexcept>

#include "sim/gate.hpp"
#include "sim/rng.hpp"

namespace anton::md {

namespace {

/// 32-byte on-wire atom record: one atom per packet (SC10 §IV-B2).
struct PosRecord {
  std::int32_t gid = -1;
  std::int32_t homeAndSlot = 0;  // homeNode * 65536 + slot
  double x = 0, y = 0, z = 0;

  int homeNode() const { return homeAndSlot >> 16; }
  int slot() const { return homeAndSlot & 0xFFFF; }
};
static_assert(sizeof(PosRecord) == 32);

/// Migration record: full dynamic atom state, including the force the next
/// step's first half-kick needs, as the fixed-point words the accumulation
/// memory produced it in (so it arrives bit-exact).
struct MigRecord {
  std::int32_t gid = 0;
  std::int32_t force[3] = {0, 0, 0};
  double px, py, pz;
  double vx, vy, vz;
};
static_assert(sizeof(MigRecord) == 64);

}  // namespace

AntonMdApp::AntonMdApp(net::Machine& machine, MDSystem system, AntonMdConfig cfg)
    : machine_(machine), cfg_(cfg), shape_(machine.shape()), box_(system.box) {
  nodeBox_ = {box_.x / shape_.nx, box_.y / shape_.ny, box_.z / shape_.nz};
  margin_ = nodeBox_ * cfg_.homeBoxMarginFrac;

  for (int d = 0; d < 3; ++d) {
    double bd = d == 0 ? nodeBox_.x : d == 1 ? nodeBox_.y : nodeBox_.z;
    double md = d == 0 ? margin_.x : d == 1 ? margin_.y : margin_.z;
    if (cfg_.force.cutoff + 2.0 * md > bd)
      throw std::invalid_argument(
          "cutoff + relaxed-box margins must fit within one home box "
          "(the import regions would miss pairs)");
  }

  charges_ = system.charges;
  masses_ = system.masses;
  ljStrength_ = system.ljStrength;
  topology_.box = system.box;
  topology_.bonds = system.bonds;
  topology_.angles = system.angles;
  topology_.dihedrals = system.dihedrals;
  topology_.charges = charges_;
  topology_.masses = masses_;
  topology_.ljStrength = ljStrength_;

  ewald_ = std::make_unique<MeshEwald>(box_, cfg_.ewald);

  nodes_.resize(std::size_t(machine_.numNodes()));
  partitionAtoms(system);
  // Rejects extents of exactly 2, whose +1 and -1 neighbors alias.
  imports_ = ImportRegions(shape_, cfg_.importMethod);
  buildBondProgram();

  patterns_ = std::make_unique<core::PatternAllocator>(machine_, 0, 207);
  installPatterns();
  preloadImportCounts();
  migrationSync_ = std::make_unique<core::NeighborhoodSync>(
      machine_, *patterns_, kCtrFlush, net::kSlice0);
  allReduce_ =
      std::make_unique<core::DimOrderedAllReduce>(machine_);
  fft_ = std::make_unique<fft::DistributedFft3D>(
      machine_, cfg_.ewald.grid, cfg_.ewald.grid, cfg_.ewald.grid,
      cfg_.fftConfig);
  for (int d = 0; d < 3; ++d) {
    if (fft_->blockExtent(d) < 4)
      throw std::invalid_argument(
          "FFT blocks must span >= 4 grid points per dimension (order-4 "
          "spline halos)");
  }

  if (cfg_.recoveryTimeoutUs > 0.0) {
    dropRegistry_ = std::make_unique<core::DropRegistry>(machine_);
    // One shared arming handle for every counted wait of the superstep:
    // the MD phases (through schedule_), the FFT gather/scatter waits
    // and the all-reduce line-broadcast waits all diagnose and replay
    // drops from the same registry into the same stats.
    recoveryHooks_.registry = dropRegistry_.get();
    recoveryHooks_.config.timeout = sim::us(cfg_.recoveryTimeoutUs);
    recoveryHooks_.config.maxResends = cfg_.recoveryMaxResends;
    recoveryHooks_.config.resendBackoff = sim::us(cfg_.recoveryBackoffUs);
    recoveryHooks_.stats = &recoveryStats_;
    fft_->setRecovery(recoveryHooks_);
    allReduce_->setRecovery(recoveryHooks_);
  }

  schedule_.numNodes = machine_.numNodes();
  schedule_.names = {std::begin(kNames), std::end(kNames)};
  schedule_.waits = {{net::kHtis, kCtrCount},    {net::kHtis, kCtrPos},
                     {net::kSlice0, kCtrBondPos}, {net::kAccum1, kCtrGrid},
                     {net::kSlice1, kCtrPot},     {net::kAccum0, kCtrForce},
                     {net::kSlice0, kCtrFlush}};
  schedule_.sites = {
      // Population counts, awaited in the step after a migration.
      {Label::kCount, Phase::kHtis, kCountSite, kTemplateStep},
      {Label::kPos, Phase::kHtis, kPosSite, kTemplateStep},
      {Label::kBondPos, Phase::kBonded, kBondPosSite, kTemplateStep},
      {Phase::kGrid, Phase::kGrid, kGridSite, kTemplateStep},
      {Label::kPotential, Phase::kInterp, kPotSite, kTemplateStep},
      {Label::kForces, Phase::kForceWait, kForceSite, kTemplateStep},
      // The flush is signalled before the neighbours' flushes are awaited.
      {Label::kFlush, Phase::kMigrate, kFlushSite, kTemplateStep, 1}};
  buildSchedule();
  computeInitialForces();
}

// --- geometry ---------------------------------------------------------------

int AntonMdApp::ownerOf(const Vec3& posIn) const {
  MDSystem tmp;
  tmp.box = box_;
  Vec3 p = tmp.wrap(posIn);
  int x = std::min(shape_.nx - 1, int(p.x / nodeBox_.x));
  int y = std::min(shape_.ny - 1, int(p.y / nodeBox_.y));
  int z = std::min(shape_.nz - 1, int(p.z / nodeBox_.z));
  return util::torusIndex({x, y, z}, shape_);
}

Vec3 AntonMdApp::nodeBoxOrigin(int node) const {
  util::TorusCoord c = util::torusCoordOf(node, shape_);
  return {c.x * nodeBox_.x, c.y * nodeBox_.y, c.z * nodeBox_.z};
}

bool AntonMdApp::insideRelaxedBox(int node, const Vec3& pos) const {
  Vec3 o = nodeBoxOrigin(node);
  auto inside1 = [](double p, double lo, double hi, double period) {
    // Interval test on a circle.
    double d = p - lo;
    d -= period * std::floor(d / period);
    return d < (hi - lo);
  };
  return inside1(pos.x, o.x - margin_.x, o.x + nodeBox_.x + margin_.x, box_.x) &&
         inside1(pos.y, o.y - margin_.y, o.y + nodeBox_.y + margin_.y, box_.y) &&
         inside1(pos.z, o.z - margin_.z, o.z + nodeBox_.z + margin_.z, box_.z);
}

// --- setup ------------------------------------------------------------------

void AntonMdApp::partitionAtoms(const MDSystem& sys) {
  for (int i = 0; i < sys.numAtoms(); ++i) {
    int owner = ownerOf(sys.positions[std::size_t(i)]);
    nodes_[std::size_t(owner)].atoms.push_back(
        {i, sys.positions[std::size_t(i)], sys.velocities[std::size_t(i)]});
  }
  for (auto& n : nodes_) {
    std::sort(n.atoms.begin(), n.atoms.end(),
              [](const AtomRecord& a, const AtomRecord& b) { return a.gid < b.gid; });
    n.forces.assign(n.atoms.size(), Vec3{});
  }
  // Receive capacity is per source node: each node's slots accommodate its
  // own worst-case density fluctuation (§IV-B1). Only the real atoms travel;
  // capacity sizes the regions and bounds what migration may bring in.
  posCapacity_.resize(nodes_.size());
  posRegionSlots_ = 0;
  const double avg = double(sys.numAtoms()) / machine_.numNodes();
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    // Cover both this node's initial population and the machine average:
    // migration can fill an initially sparse box up to the average regime.
    double basis = std::max(double(nodes_[i].atoms.size()), avg);
    posCapacity_[i] = std::max(4, int(std::ceil(basis * cfg_.packetHeadroom)));
    posRegionSlots_ = std::max(posRegionSlots_, posCapacity_[i]);
  }
}

std::uint32_t AntonMdApp::posSlotAddr(int srcNode, int slot) const {
  // Receive regions keyed by srcNode modulo a machine-wide residue R that
  // is collision-free within every import/halo group (multicast packets
  // carry a single address, so the region must be a function of the source
  // alone). R is computed in installPatterns() and stored in posRegionMod_.
  return std::uint32_t(srcNode % posRegionMod_) *
             std::uint32_t(posRegionSlots_) * 32u +
         std::uint32_t(slot) * 32u;
}

std::uint32_t AntonMdApp::countSlotAddr(int srcNode) const {
  // The count table follows the position regions, keyed the same way.
  return std::uint32_t(posRegionMod_) * std::uint32_t(posRegionSlots_) * 32u +
         std::uint32_t(srcNode % posRegionMod_) * 4u;
}

void AntonMdApp::preloadImportCounts() {
  // Host set-up, like loading a checkpoint: every HTIS learns the current
  // population of each box it imports. From here on the counts change only
  // at migration, which multicasts them (SC10 §IV-B1).
  for (int n = 0; n < machine_.numNodes(); ++n)
    for (int s : imports_.sources(n)) {
      const std::int32_t count =
          std::int32_t(nodes_[std::size_t(s)].atoms.size());
      machine_.htis(n).hostWrite(countSlotAddr(s), &count, sizeof count);
    }
}

void AntonMdApp::installPatterns() {
  // Residue R: smallest modulus with no collision among the 27-neighborhood
  // sources of any receiver (the halo group is a superset of the HTIS
  // import group).
  posRegionMod_ = 1;
  for (int r = 1; r <= machine_.numNodes(); ++r) {
    bool ok = true;
    for (int i = 0; i < machine_.numNodes() && ok; ++i) {
      std::set<int> residues;
      residues.insert(i % r);
      for (int nb : core::torusNeighborhood26(shape_, i)) {
        if (!residues.insert(nb % r).second) {
          ok = false;
          break;
        }
      }
    }
    if (ok) {
      posRegionMod_ = r;
      break;
    }
  }

  // Check client memory budgets: position regions plus the count table.
  std::size_t posRegion =
      std::size_t(posRegionMod_) * (std::size_t(posRegionSlots_) * 32 + 4);
  if (posRegion > machine_.config().clientMemBytes)
    throw std::invalid_argument("HTIS position regions exceed client memory");

  const int n = machine_.numNodes();
  posPattern_.resize(std::size_t(n));
  potPattern_.resize(std::size_t(n));
  for (int i = 0; i < n; ++i) {
    std::vector<net::ClientAddr> posDests;
    posDests.push_back({i, net::kHtis});
    for (int u : imports_.exportTo(i)) posDests.push_back({u, net::kHtis});
    posPattern_[std::size_t(i)] = patterns_->install(i, posDests);

    std::vector<net::ClientAddr> potDests;
    potDests.push_back({i, net::kSlice1});
    for (int nb : core::torusNeighborhood26(shape_, i))
      potDests.push_back({nb, net::kSlice1});
    potPattern_[std::size_t(i)] = patterns_->install(i, potDests);
  }
}

void AntonMdApp::buildSchedule() {
  const int numNodes = machine_.numNodes();
  const std::size_t blockPts = fft_->blockSize();
  const std::size_t chunk = net::kMaxPayloadBytes;
  const std::uint64_t gridPackets = (blockPts * 4 + chunk - 1) / chunk;
  const std::size_t potBlockBytes = blockPts * 8;
  const std::uint64_t potPackets = (potBlockBytes + chunk - 1) / chunk;

  // Bond-program positions per (home, compute node): one per home atom a
  // term on the compute node reads; each comes back as one force return.
  std::vector<std::map<int, std::uint64_t>> bondTo(nodes_.size());
  std::vector<std::map<int, std::uint64_t>> bondFrom(nodes_.size());
  for (int h = 0; h < numNodes; ++h)
    for (const AtomRecord& a : nodes_[std::size_t(h)].atoms)
      for (int t : atomTermNodes_[std::size_t(a.gid)]) {
        ++bondTo[std::size_t(h)][t];
        ++bondFrom[std::size_t(t)][h];
      }
  auto population = [&](int n) {
    return std::uint64_t(nodes_[std::size_t(n)].atoms.size());
  };

  schedule_.sends.clear();
  schedule_.buffers.clear();
  schedule_.writers.clear();
  for (int n = 0; n < numNodes; ++n) {
    const std::vector<int>& neighbors = migrationSync_->neighbors(n);
    std::vector<int> block{n};  // this node and its 26-neighbourhood
    block.insert(block.end(), neighbors.begin(), neighbors.end());
    // A unicast to `dst`, or a multicast on `pattern`.
    auto send = [&](std::uint8_t phase, StepKind kind, int counter,
                    std::uint64_t packets, net::ClientAddr dst,
                    int pattern = net::kNoMulticast) -> verify::PlannedWrite& {
      return schedule_.sends.emplace_back(verify::PlannedWrite{
          .srcNode = n, .phase = phase, .kinds = kind, .counterId = counter,
          .pattern = pattern, .dst = dst, .packets = std::uint32_t(packets)});
    };
    const net::ClientAddr none{-1, -1};

    // md.send: one position per home atom to the import region, and the
    // bond program's positions.
    send(Phase::kSend, kEveryStep, kCtrPos, population(n), none,
         posPattern_[std::size_t(n)]);
    for (const auto& [t, atoms] : bondTo[std::size_t(n)])
      send(Phase::kSend, kEveryStep, kCtrBondPos, atoms, {t, net::kSlice0});
    // md.htis: one force return per imported atom, to its home.
    for (int s : imports_.sources(n))
      send(Phase::kHtis, kEveryStep, kCtrForce, population(s),
           {s, net::kAccum0});
    // md.bonded: one force return per gathered atom, to its home.
    for (const auto& [h, atoms] : bondFrom[std::size_t(n)])
      send(Phase::kBonded, kEveryStep, kCtrForce, atoms, {h, net::kAccum0});
    // Long range: a dense charge block to every neighbourhood block, the
    // potential-halo multicast, and one interpolated force per home atom.
    for (int t : block)
      send(Phase::kSpread, kLongRangeStep, kCtrGrid, gridPackets,
           {t, net::kAccum1});
    send(Phase::kPot, kLongRangeStep, kCtrPot, potPackets, none,
         potPattern_[std::size_t(n)]);
    send(Phase::kInterp, kLongRangeStep, kCtrForce, population(n),
         {n, net::kAccum0});
    // md.fifo: migrating atoms stream to the 26-neighbourhood. Stochastic,
    // uncounted in-order FIFO traffic (SC10 §IV-B5): the schedule cannot
    // know how many atoms leave, only where they may go. One nominal
    // record per neighbour documents the lanes the flush fences.
    for (int nb : neighbors) {
      verify::PlannedWrite& lane = send(Phase::kFifo, kMigrationStep,
                                       net::kNoCounter, 1, {nb, net::kSlice0});
      lane.inOrder = lane.fifo = true;
    }
    // md.migrate: the in-order flush to the 26-neighbourhood, then the new
    // population to every HTIS that imports this box (awaited by the next
    // step's md.htis). migrationPhase() signals the flush first and only
    // then waits on the neighbours' flushes: the flush rides behind the
    // md.fifo records and fences them, it does not follow the local wait.
    verify::PlannedWrite& flush =
        send(Phase::kMigrate, kMigrationStep, migrationSync_->counterId(), 1,
             none, migrationSync_->patternId(n));
    flush.inOrder = true;
    flush.seq = 0;
    send(Phase::kMigrate, kMigrationStep, kCtrCount, 1, none,
         posPattern_[std::size_t(n)])
        .seq = 2;

    // Receive buffers: base, span, copies, and the phase whose wait retires
    // the previous round's contents.
    const std::vector<int>& sources = imports_.sources(n);
    const std::uint32_t posBytes =
        std::uint32_t(posRegionMod_) * std::uint32_t(posRegionSlots_) * 32u;
    schedule_.addBuffer({.name = Label::kPosBuffer, .client = {n, net::kHtis},
                         .bytes = posBytes, .freePhase = Phase::kHtis},
                        Phase::kSend, sources);
    schedule_.addBuffer({.name = Label::kCountBuffer,
                         .client = {n, net::kHtis}, .base = countSlotAddr(0),
                         .bytes = std::uint32_t(posRegionMod_) * 4u,
                         .freePhase = Phase::kHtis},
                        Phase::kMigrate, sources);
    if (!bondFrom[std::size_t(n)].empty()) {
      std::vector<int> homes;
      for (const auto& [h, atoms] : bondFrom[std::size_t(n)])
        homes.push_back(h);
      schedule_.addBuffer(
          {.name = Label::kBondPosBuffer, .client = {n, net::kSlice0},
           .base = 0x8000u,
           .bytes = std::uint32_t(bondAtomSlot_[std::size_t(n)].size()) * 32u,
           .freePhase = Phase::kBonded},
          Phase::kSend, homes);
    }
    schedule_.addBuffer({.name = Phase::kGrid, .client = {n, net::kAccum1},
                         .bytes = 2u * std::uint32_t(blockPts) * 4u,
                         .copies = 2, .freePhase = Phase::kGrid},
                        Phase::kSpread, block);
    schedule_.addBuffer({.name = Phase::kPot, .client = {n, net::kSlice1},
                         .bytes = 2u * std::uint32_t(posRegionMod_) *
                                  std::uint32_t(potBlockBytes),
                         .copies = 2, .freePhase = Phase::kInterp},
                        Phase::kPot, block);
  }

  // Every wait expects what the sends reaching its (client, counter)
  // deliver, multicasts through the installed tables.
  schedule_.transpose(&machine_);
}

void AntonMdApp::buildBondProgram() {
  const int n = machine_.numNodes();
  termsOnNode_.assign(std::size_t(n), {});
  bondAtomSlot_.assign(std::size_t(n), {});
  atomTermNodes_.assign(charges_.size(), {});

  // Current position of every atom (for placement decisions).
  std::vector<Vec3> pos(charges_.size());
  for (const NodeState& ns : nodes_)
    for (const AtomRecord& a : ns.atoms) pos[std::size_t(a.gid)] = a.pos;

  auto assign = [&](TermRef::Kind kind, int index, int firstAtom,
                    std::initializer_list<int> atoms) {
    int node = ownerOf(pos[std::size_t(firstAtom)]);
    termsOnNode_[std::size_t(node)].push_back({kind, index});
    for (int a : atoms) {
      auto [it, inserted] = bondAtomSlot_[std::size_t(node)].try_emplace(
          a, int(bondAtomSlot_[std::size_t(node)].size()));
      if (inserted) atomTermNodes_[std::size_t(a)].push_back(node);
    }
  };
  for (int i = 0; i < int(topology_.bonds.size()); ++i) {
    const Bond& b = topology_.bonds[std::size_t(i)];
    assign(TermRef::kBond, i, b.i, {b.i, b.j});
  }
  for (int i = 0; i < int(topology_.angles.size()); ++i) {
    const Angle& a = topology_.angles[std::size_t(i)];
    assign(TermRef::kAngle, i, a.j, {a.i, a.j, a.k});
  }
  for (int i = 0; i < int(topology_.dihedrals.size()); ++i) {
    const Dihedral& d = topology_.dihedrals[std::size_t(i)];
    assign(TermRef::kDihedral, i, d.j, {d.i, d.j, d.k, d.l});
  }
  for (auto& list : atomTermNodes_) {
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
  }
}

void AntonMdApp::regenerateBondProgram() {
  buildBondProgram();
  buildSchedule();
}

void AntonMdApp::syntheticDiffusion(double swapFraction,
                                    std::uint64_t seed) {
  // Lazily derive the solvent molecules from the bond topology (connected
  // components of at most 4 atoms; the protein chain is one big component).
  if (solventMolecules_.empty()) {
    std::vector<int> parent(charges_.size());
    for (std::size_t i = 0; i < parent.size(); ++i) parent[i] = int(i);
    auto find = [&](int x) {
      while (parent[std::size_t(x)] != x) {
        parent[std::size_t(x)] = parent[std::size_t(parent[std::size_t(x)])];
        x = parent[std::size_t(x)];
      }
      return x;
    };
    for (const Bond& b : topology_.bonds) parent[std::size_t(find(b.i))] = find(b.j);
    std::map<int, std::vector<int>> comps;
    for (std::size_t i = 0; i < parent.size(); ++i)
      comps[find(int(i))].push_back(int(i));
    for (auto& [root, atoms] : comps)
      if (atoms.size() <= 4) solventMolecules_.push_back(atoms);
  }

  // Current position of every atom.
  std::vector<Vec3> pos(charges_.size());
  std::vector<Vec3> vel(charges_.size());
  for (const NodeState& ns : nodes_) {
    for (const AtomRecord& a : ns.atoms) {
      pos[std::size_t(a.gid)] = a.pos;
      vel[std::size_t(a.gid)] = a.vel;
    }
  }

  MDSystem tmp;
  tmp.box = box_;
  // Anchor on the first (center) atom: swapping translates molecule A's
  // center exactly onto B's center position and vice versa, so the
  // center-center liquid packing is preserved and no LJ cores overlap.
  auto anchor = [&](const std::vector<int>& mol) {
    return pos[std::size_t(mol[0])];
  };

  sim::Rng rng(seed);
  const std::size_t m = solventMolecules_.size();
  const double rmax = 0.6 * std::min({box_.x, box_.y, box_.z});
  std::size_t swaps = std::size_t(swapFraction * double(m) / 2.0);
  for (std::size_t s = 0; s < swaps; ++s) {
    const auto& a = solventMolecules_[rng.below(m)];
    Vec3 ca = anchor(a);
    // Partner: a nearby molecule (localized diffusion).
    const std::vector<int>* b = nullptr;
    for (int tries = 0; tries < 64 && b == nullptr; ++tries) {
      const auto& cand = solventMolecules_[rng.below(m)];
      if (&cand == &a) continue;
      if (tmp.minImage(ca, anchor(cand)).norm() < rmax) b = &cand;
    }
    if (b == nullptr) continue;
    Vec3 delta = tmp.minImage(ca, anchor(*b));
    for (int g : a) pos[std::size_t(g)] = tmp.wrap(pos[std::size_t(g)] + delta);
    for (int g : *b) pos[std::size_t(g)] = tmp.wrap(pos[std::size_t(g)] - delta);
  }

  // Fast-forward the home-box reassignment migration would have done (in
  // gid order, so every box stays sorted), and check every box against its
  // receive capacity before any of them changes.
  std::vector<std::vector<AtomRecord>> homes(nodes_.size());
  for (std::size_t g = 0; g < pos.size(); ++g)
    homes[std::size_t(ownerOf(pos[g]))].push_back({int(g), pos[g], vel[g]});
  for (std::size_t n = 0; n < nodes_.size(); ++n)
    if (int(homes[n].size()) > posCapacity_[n])
      throw std::runtime_error(
          "synthetic diffusion overflowed the receive-buffer capacity "
          "(raise packetHeadroom)");
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    NodeState& ns = nodes_[n];
    ns.atoms = std::move(homes[n]);
    ns.forces.assign(ns.atoms.size(), Vec3{});
    if (!lrForce_.empty()) lrForce_[n].assign(ns.atoms.size(), Vec3{});
  }
  preloadImportCounts();
  buildSchedule();
  computeInitialForces();
}

double AntonMdApp::averageBondHops() const {
  std::uint64_t hops = 0, count = 0;
  for (int node = 0; node < machine_.numNodes(); ++node) {
    for (const AtomRecord& a : nodes_[std::size_t(node)].atoms) {
      for (int t : atomTermNodes_[std::size_t(a.gid)]) {
        hops += std::uint64_t(machine_.hops(node, t));
        ++count;
      }
    }
  }
  return count == 0 ? 0.0 : double(hops) / double(count);
}

void AntonMdApp::computeInitialForces() {
  // Host-side bootstrap: the very first F(t=0), computed with the same
  // kernels the distributed step uses (the paper's machine loads a prepared
  // checkpoint the same way).
  MDSystem sys = gatherSystem();
  std::vector<Vec3> f(std::size_t(sys.numAtoms()));
  bondedForces(sys, f);
  rangeLimitedForces(sys, cfg_.force, f);
  ewald_->energyAndForces(sys, f);
  for (int node = 0; node < machine_.numNodes(); ++node) {
    NodeState& ns = nodes_[std::size_t(node)];
    for (std::size_t i = 0; i < ns.atoms.size(); ++i)
      ns.forces[i] = f[std::size_t(ns.atoms[i].gid)];
  }
}

MDSystem AntonMdApp::gatherSystem() const {
  MDSystem sys;
  sys.box = box_;
  sys.bonds = topology_.bonds;
  sys.angles = topology_.angles;
  sys.dihedrals = topology_.dihedrals;
  sys.charges = charges_;
  sys.masses = masses_;
  sys.ljStrength = ljStrength_;
  sys.positions.resize(charges_.size());
  sys.velocities.resize(charges_.size());
  for (const NodeState& ns : nodes_) {
    for (const AtomRecord& a : ns.atoms) {
      sys.positions[std::size_t(a.gid)] = a.pos;
      sys.velocities[std::size_t(a.gid)] = a.vel;
    }
  }
  return sys;
}

// --- per-step choreography ---------------------------------------------------

void AntonMdApp::zeroForceSlots(int node) {
  std::vector<std::byte> zeros(std::size_t(posRegionSlots_) * 12, std::byte{0});
  machine_.accum(node, 0).hostWrite(0, zeros.data(), zeros.size());
}

sim::Task AntonMdApp::sendPositions(int node) {
  NodeState& ns = nodes_[std::size_t(node)];
  net::ProcessingSlice& slice0 = machine_.slice(node, 0);

  // (a) Fine-grained multicast to the import-region HTIS units: one packet
  // per home atom, the count every importer holds since the last migration.
  for (int slot = 0; slot < int(ns.atoms.size()); ++slot) {
    const AtomRecord& a = ns.atoms[std::size_t(slot)];
    PosRecord rec;
    rec.gid = a.gid;
    rec.homeAndSlot = node * 65536 + slot;
    rec.x = a.pos.x;
    rec.y = a.pos.y;
    rec.z = a.pos.z;
    net::NetworkClient::SendArgs args;
    args.multicastPattern = posPattern_[std::size_t(node)];
    args.counterId = kCtrPos;
    args.address = posSlotAddr(node, slot);
    args.payload = net::makePayload(&rec, sizeof rec);
    co_await slice0.send(args);
  }

  // (b) Bond-program positions: unicast counted writes, exact counts.
  for (std::size_t i = 0; i < ns.atoms.size(); ++i) {
    const AtomRecord& a = ns.atoms[i];
    for (int t : atomTermNodes_[std::size_t(a.gid)]) {
      PosRecord rec;
      rec.gid = a.gid;
      rec.homeAndSlot = node * 65536 + int(i);
      rec.x = a.pos.x;
      rec.y = a.pos.y;
      rec.z = a.pos.z;
      net::NetworkClient::SendArgs args;
      args.dst = {t, net::kSlice0};
      args.counterId = kCtrBondPos;
      args.address = 0x8000u + std::uint32_t(bondAtomSlot_[std::size_t(t)]
                                                 .at(a.gid)) *
                                   32u;
      args.payload = net::makePayload(&rec, sizeof rec);
      co_await slice0.send(args);
    }
  }
}

sim::Task AntonMdApp::htisPhase(int node, int stepNumber) {
  net::Htis& htis = machine_.htis(node);
  sim::Time phaseStart = machine_.sim().now();
  const std::vector<int>& sources = imports_.sources(node);

  // After a migration, wait for every source's new population (counts are
  // multicast at the end of the migration step) before trusting the table.
  if (stepKinds(stepNumber - 1) & kMigrationStep)
    co_await awaitSite(node, kCountSite, kMigrationStep);

  // The count table, not the schedule, sets this step's position arrivals:
  // one packet per atom of every import source.
  std::vector<core::Arrival> count;
  count.reserve(sources.size());
  for (int s : sources)
    count.push_back({s, kEveryStep, std::uint32_t(htis.read<std::int32_t>(
                                        countSlotAddr(s)))});
  co_await schedule_.awaitRound(machine_, node, kPosSite, kEveryStep,
                                recoveryHooks_, &count);

  // Decode the arrived records per source (slot-indexed).
  std::vector<std::vector<PosRecord>> recs(sources.size());
  for (std::size_t s = 0; s < sources.size(); ++s) {
    recs[s].resize(count[s].packets);
    for (int slot = 0; slot < int(recs[s].size()); ++slot)
      recs[s][std::size_t(slot)] =
          htis.read<PosRecord>(posSlotAddr(sources[s], slot));
  }

  // Pair computation over the box pairs the import rule assigns to this
  // node, in (s1, s2) order with j > i inside one box; same-column NT pairs
  // keep only the atom pairs whose higher gid is at home. Forces per
  // (source, slot).
  std::vector<std::vector<Vec3>> forceOut(sources.size());
  for (std::size_t s = 0; s < sources.size(); ++s)
    forceOut[s].assign(recs[s].size(), Vec3{});
  std::uint64_t pairs = 0;
  const double cutoff2 = cfg_.force.cutoff * cfg_.force.cutoff;
  for (const ImportRegions::BoxPair& bp : imports_.pairs(node)) {
    const std::vector<PosRecord>& as = recs[std::size_t(bp.s1)];
    const std::vector<PosRecord>& bs = recs[std::size_t(bp.s2)];
    std::vector<Vec3>& fa = forceOut[std::size_t(bp.s1)];
    std::vector<Vec3>& fb = forceOut[std::size_t(bp.s2)];
    for (int i = 0; i < int(as.size()); ++i) {
      const PosRecord& a = as[std::size_t(i)];
      Vec3 pa{a.x, a.y, a.z};
      for (int j = (bp.s1 == bp.s2 ? i + 1 : 0); j < int(bs.size()); ++j) {
        const PosRecord& b = bs[std::size_t(j)];
        if (bp.byGid && b.gid > a.gid) continue;
        // MDSystem::minImage, rejecting on one component first: most
        // imported pairs lie beyond the cutoff, and norm2 >= dx^2, dy^2.
        const double dx = MDSystem::minImage1(b.x - pa.x, box_.x);
        if (dx * dx >= cutoff2) continue;
        const double dy = MDSystem::minImage1(b.y - pa.y, box_.y);
        if (dy * dy >= cutoff2) continue;
        const Vec3 d{dx, dy, MDSystem::minImage1(b.z - pa.z, box_.z)};
        if (d.norm2() >= cutoff2) continue;
        PairForce pf = rangeLimitedPair(
            d, charges_[std::size_t(a.gid)], charges_[std::size_t(b.gid)],
            cfg_.force,
            (ljStrength_.empty() ? 1.0
                                 : ljStrength_[std::size_t(a.gid)] *
                                       ljStrength_[std::size_t(b.gid)]));
        fa[std::size_t(i)] += pf.onI;
        fb[std::size_t(j)] -= pf.onI;
        ++pairs;
      }
    }
  }

  // Pipelined compute: charge the HTIS for the pair work.
  co_await machine_.sim().delay(sim::ns(cfg_.htisPairNs * double(pairs)));

  // Stream one force return per imported atom to its home accumulation
  // memory. The HTIS pipelines packet creation, so packets are posted on a
  // streaming cadence rather than co_awaited:
  // one event posts packet k at spacing * k and re-arms itself on the
  // (k+1)-th of the sequence numbers reserved here, which are the (time,
  // seq) slots one scheduled event per packet would take.
  struct ForceStream {
    AntonMdApp& app;
    net::Htis& htis;
    const std::vector<int>& sources;
    const std::vector<std::vector<Vec3>>& forces;
    sim::Time start;
    sim::Time spacing;
    std::uint64_t firstSeq;
    int total;
    int k = 0;
    std::size_t s = 0;
    int slot = 0;

    void fire() {
      while (slot == int(forces[s].size())) {  // skip exhausted/empty boxes
        slot = 0;
        ++s;
      }
      const Vec3& f = forces[s][std::size_t(slot)];
      std::int32_t q[3] = {app.quantize(f.x), app.quantize(f.y),
                           app.quantize(f.z)};
      net::NetworkClient::SendArgs args;
      args.type = net::PacketType::kAccum;
      args.dst = {sources[s], net::kAccum0};
      args.counterId = kCtrForce;
      args.address = app.forceSlotAddr(slot);
      args.payload = net::makePayload(q, sizeof q);
      htis.post(args);
      ++slot;
      if (++k < total)
        app.machine_.sim().atReserved(start + spacing * k,
                                      firstSeq + std::uint64_t(k),
                                      [this] { fire(); });
    }
  };
  sim::Simulator& simulator = machine_.sim();
  int total = 0;
  for (const std::vector<Vec3>& f : forceOut) total += int(f.size());
  ForceStream stream{*this, htis, sources, forceOut, simulator.now(),
                     sim::ns(cfg_.htisStreamNs), simulator.nextSeq(), total};
  for (int k = 0; k < total; ++k) simulator.reserveSeq();
  if (total > 0)
    simulator.atReserved(stream.start, stream.firstSeq,
                         [&stream] { stream.fire(); });
  co_await simulator.delay(stream.spacing * total);
  current_.htisUs = std::max(
      current_.htisUs, sim::toUs(machine_.sim().now() - phaseStart));
  if (auto* tr = machine_.trace())
    tr->record("HTIS", "range-limited", phaseStart, machine_.sim().now());
}

sim::Task AntonMdApp::bondedPhase(int node) {
  net::ProcessingSlice& slice0 = machine_.slice(node, 0);
  const auto& slots = bondAtomSlot_[std::size_t(node)];
  sim::Time phaseStart = machine_.sim().now();

  if (!slots.empty()) co_await awaitSite(node, kBondPosSite, kEveryStep);

  // Read the gathered positions and evaluate the assigned terms on the
  // geometry cores.
  std::map<int, PosRecord> atomRec;
  for (const auto& [gid, slot] : slots) {
    atomRec[gid] = slice0.read<PosRecord>(0x8000u + std::uint32_t(slot) * 32u);
  }
  std::map<int, Vec3> force;  // per gid
  double gcNs = 0.0;

  MDSystem tmp;
  tmp.box = box_;
  auto posOf = [&](int gid) {
    const PosRecord& r = atomRec.at(gid);
    return Vec3{r.x, r.y, r.z};
  };
  for (const TermRef& t : termsOnNode_[std::size_t(node)]) {
    if (t.kind == TermRef::kBond) {
      const Bond& b = topology_.bonds[std::size_t(t.index)];
      tmp.positions = {posOf(b.i), posOf(b.j)};
      std::vector<Vec3> f(2);
      bondForce(tmp, Bond{0, 1, b.r0, b.k}, f);
      force[b.i] += f[0];
      force[b.j] += f[1];
      gcNs += cfg_.gcBondNs;
    } else if (t.kind == TermRef::kAngle) {
      const Angle& a = topology_.angles[std::size_t(t.index)];
      tmp.positions = {posOf(a.i), posOf(a.j), posOf(a.k)};
      std::vector<Vec3> f(3);
      angleForce(tmp, Angle{0, 1, 2, a.theta0, a.kTheta}, f);
      force[a.i] += f[0];
      force[a.j] += f[1];
      force[a.k] += f[2];
      gcNs += cfg_.gcAngleNs;
    } else {
      const Dihedral& d = topology_.dihedrals[std::size_t(t.index)];
      tmp.positions = {posOf(d.i), posOf(d.j), posOf(d.k), posOf(d.l)};
      std::vector<Vec3> f(4);
      dihedralForce(tmp, Dihedral{0, 1, 2, 3, d.kPhi, d.n, d.phi0}, f);
      force[d.i] += f[0];
      force[d.j] += f[1];
      force[d.k] += f[2];
      force[d.l] += f[3];
      gcNs += cfg_.gcDihedralNs;
    }
  }
  co_await machine_.sim().delay(sim::ns(gcNs));

  // One aggregated fixed-point accumulation packet per (atom, this node).
  for (const auto& [gid, f] : force) {
    const PosRecord& r = atomRec.at(gid);
    std::int32_t q[3] = {quantize(f.x), quantize(f.y), quantize(f.z)};
    net::NetworkClient::SendArgs args;
    args.type = net::PacketType::kAccum;
    args.dst = {r.homeNode(), net::kAccum0};
    args.counterId = kCtrForce;
    args.address = forceSlotAddr(r.slot());
    args.payload = net::makePayload(q, sizeof q);
    co_await slice0.send(args);
  }
  current_.bondedUs = std::max(
      current_.bondedUs, sim::toUs(machine_.sim().now() - phaseStart));
  if (auto* tr = machine_.trace())
    tr->record("GC", "bonded", phaseStart, machine_.sim().now());
}

sim::Task AntonMdApp::longRangePhase(int node) {
  NodeState& ns = nodes_[std::size_t(node)];
  net::ProcessingSlice& slice1 = machine_.slice(node, 1);
  net::AccumulationMemory& gridMem = machine_.accum(node, 1);
  const int K = cfg_.ewald.grid;
  const int bsz[3] = {fft_->blockExtent(0), fft_->blockExtent(1),
                      fft_->blockExtent(2)};
  const std::size_t blockPts = fft_->blockSize();

  sim::Time phaseStart = machine_.sim().now();
  const int parity = int(schedule_.state(node, kGridSite).rounds % 2);
  const std::uint32_t gridBase =
      std::uint32_t(parity) * std::uint32_t(blockPts) * 4u;

  // --- charge spreading: dense fixed-count accumulation sends -------------
  // Compute this node's contribution to each neighborhood block: the
  // scheduled spread sends name the blocks.
  const std::span<const verify::PlannedWrite> sends = schedule_.sendsOf(node);
  std::map<int, std::vector<std::int32_t>> contrib;
  for (const verify::PlannedWrite& s : sends)
    if (s.phase == Phase::kSpread) contrib[s.dst.node].assign(blockPts, 0);

  MDSystem tmp;
  tmp.box = box_;
  for (const AtomRecord& a : ns.atoms) {
    Vec3 p = tmp.wrap(a.pos);
    SplineStencil sx = splineStencil(p.x / box_.x * K, K);
    SplineStencil sy = splineStencil(p.y / box_.y * K, K);
    SplineStencil sz = splineStencil(p.z / box_.z * K, K);
    double q = charges_[std::size_t(a.gid)];
    for (int ia = 0; ia < 4; ++ia)
      for (int ib = 0; ib < 4; ++ib)
        for (int ic = 0; ic < 4; ++ic) {
          int gx = sx.points[std::size_t(ia)];
          int gy = sy.points[std::size_t(ib)];
          int gz = sz.points[std::size_t(ic)];
          int owner = util::torusIndex(
              {gx / bsz[0], gy / bsz[1], gz / bsz[2]}, shape_);
          auto it = contrib.find(owner);
          if (it == contrib.end())
            throw std::logic_error("atom strayed beyond the spread halo");
          std::size_t local =
              std::size_t(gx % bsz[0]) +
              std::size_t(bsz[0]) * (std::size_t(gy % bsz[1]) +
                                     std::size_t(bsz[1]) * std::size_t(gz % bsz[2]));
          it->second[local] += quantize(q * sx.w[std::size_t(ia)] *
                                        sy.w[std::size_t(ib)] *
                                        sz.w[std::size_t(ic)]);
        }
  }
  co_await machine_.sim().delay(
      sim::ns(cfg_.spreadAtomNs * double(ns.atoms.size())));

  // Dense block sends (zero-padded): fixed packet counts per pair.
  const std::size_t blockBytes = blockPts * 4;
  const std::size_t chunk = net::kMaxPayloadBytes;
  for (const verify::PlannedWrite& s : sends) {
    if (s.phase != Phase::kSpread) continue;
    const std::vector<std::int32_t>& block = contrib[s.dst.node];
    for (std::size_t off = 0; off < blockBytes; off += chunk) {
      std::size_t nbytes = std::min(chunk, blockBytes - off);
      net::NetworkClient::SendArgs args;
      args.type = net::PacketType::kAccum;
      args.dst = s.dst;
      args.counterId = s.counterId;
      args.address = gridBase + std::uint32_t(off);
      args.payload = net::makePayload(
          reinterpret_cast<const std::byte*>(block.data()) + off, nbytes);
      co_await slice1.send(args);
    }
  }

  // --- gather the accumulated charge grid ---------------------------------
  // The counter lives on the accumulation memory; polling it from the slice
  // crosses the on-chip ring (higher poll latency, SC10 §III-B).
  co_await awaitSite(node, kGridSite, kLongRangeStep);

  std::vector<fft::Complex>& homeBlk = fft_->home(node);
  for (std::size_t i = 0; i < blockPts; ++i) {
    homeBlk[i] = {dequantize(gridMem.read<std::int32_t>(
                      gridBase + std::uint32_t(i) * 4u)),
                  0.0};
  }
  // Re-zero this parity copy for its next use two long-range rounds ahead.
  {
    std::vector<std::byte> zeros(blockBytes, std::byte{0});
    gridMem.hostWrite(gridBase, zeros.data(), zeros.size());
  }

  // --- FFT -> influence multiply -> inverse FFT ----------------------------
  sim::Time fftStart = machine_.sim().now();
  co_await fft_->run(node, false);
  const double k3 = double(K) * double(K) * double(K);
  for (std::size_t i = 0; i < blockPts; ++i) {
    auto [m1, m2, m3] = fft_->globalCoord(node, i);
    homeBlk[i] *= ewald_->influence(m1, m2, m3) * k3;
  }
  co_await fft_->run(node, true);
  current_.fftUs = std::max(current_.fftUs,
                            sim::toUs(machine_.sim().now() - fftStart));

  // --- potential halo: multicast my block to the 26-neighborhood ----------
  const int potParity = int(schedule_.state(node, kPotSite).rounds % 2);
  const std::size_t potBlockBytes = blockPts * 8;  // doubles
  const std::uint32_t potRegion =
      std::uint32_t(posRegionMod_) * std::uint32_t(potBlockBytes);
  const std::uint32_t potBase = std::uint32_t(potParity) * potRegion;
  std::vector<double> phi(blockPts);
  for (std::size_t i = 0; i < blockPts; ++i) phi[i] = homeBlk[i].real();
  for (std::size_t off = 0; off < potBlockBytes; off += chunk) {
    std::size_t nbytes = std::min(chunk, potBlockBytes - off);
    net::NetworkClient::SendArgs args;
    args.multicastPattern = potPattern_[std::size_t(node)];
    args.counterId = kCtrPot;
    args.address = potBase +
                   std::uint32_t(node % posRegionMod_) *
                       std::uint32_t(potBlockBytes) +
                   std::uint32_t(off);
    args.payload = net::makePayload(
        reinterpret_cast<const std::byte*>(phi.data()) + off, nbytes);
    co_await slice1.send(args);
  }

  co_await awaitSite(node, kPotSite, kLongRangeStep);

  // --- force interpolation -------------------------------------------------
  // Read phi at arbitrary stencil points from the assembled halo regions.
  auto phiAt = [&](int gx, int gy, int gz) {
    int ox = gx / bsz[0], oy = gy / bsz[1], oz = gz / bsz[2];
    int owner = util::torusIndex({ox, oy, oz}, shape_);
    std::size_t local =
        std::size_t(gx % bsz[0]) +
        std::size_t(bsz[0]) * (std::size_t(gy % bsz[1]) +
                               std::size_t(bsz[1]) * std::size_t(gz % bsz[2]));
    std::uint32_t addr = potBase +
                         std::uint32_t(owner % posRegionMod_) *
                             std::uint32_t(potBlockBytes) +
                         std::uint32_t(local) * 8u;
    return slice1.read<double>(addr);
  };

  for (std::size_t i = 0; i < ns.atoms.size(); ++i) {
    const AtomRecord& a = ns.atoms[i];
    Vec3 p = tmp.wrap(a.pos);
    SplineStencil sx = splineStencil(p.x / box_.x * K, K);
    SplineStencil sy = splineStencil(p.y / box_.y * K, K);
    SplineStencil sz = splineStencil(p.z / box_.z * K, K);
    double q = charges_[std::size_t(a.gid)];
    Vec3 grad;
    for (int ia = 0; ia < 4; ++ia)
      for (int ib = 0; ib < 4; ++ib)
        for (int ic = 0; ic < 4; ++ic) {
          double v = phiAt(sx.points[std::size_t(ia)],
                           sy.points[std::size_t(ib)],
                           sz.points[std::size_t(ic)]);
          grad.x += sx.dw[std::size_t(ia)] * sy.w[std::size_t(ib)] *
                    sz.w[std::size_t(ic)] * v;
          grad.y += sx.w[std::size_t(ia)] * sy.dw[std::size_t(ib)] *
                    sz.w[std::size_t(ic)] * v;
          grad.z += sx.w[std::size_t(ia)] * sy.w[std::size_t(ib)] *
                    sz.dw[std::size_t(ic)] * v;
        }
    Vec3 f = -q * Vec3{grad.x * K / box_.x, grad.y * K / box_.y,
                       grad.z * K / box_.z};
    lrForce_[std::size_t(node)][i] = f;
  }
  co_await machine_.sim().delay(
      sim::ns(cfg_.interpAtomNs * double(ns.atoms.size())));

  // Self accumulation of the interpolated forces, one packet per atom.
  for (int slot = 0; slot < int(ns.atoms.size()); ++slot) {
    const Vec3& f = lrForce_[std::size_t(node)][std::size_t(slot)];
    std::int32_t q[3] = {quantize(f.x), quantize(f.y), quantize(f.z)};
    net::NetworkClient::SendArgs args;
    args.type = net::PacketType::kAccum;
    args.dst = {node, net::kAccum0};
    args.counterId = kCtrForce;
    args.address = forceSlotAddr(slot);
    args.payload = net::makePayload(q, sizeof q);
    co_await slice1.send(args);
  }
  current_.lrUs = std::max(
      current_.lrUs, sim::toUs(machine_.sim().now() - phaseStart));
  if (auto* tr = machine_.trace())
    tr->record("FFT/LR", "fft-convolution", phaseStart, machine_.sim().now());
}

sim::Task AntonMdApp::migrationPhase(int node) {
  NodeState& ns = nodes_[std::size_t(node)];
  net::ProcessingSlice& slice0 = machine_.slice(node, 0);
  sim::Time migStart = machine_.sim().now();

  // Outbound: atoms that left the relaxed home box go to the FIFO of the
  // new owner (stochastic: no counted writes possible, SC10 §IV-B5).
  // Atoms travel with their last force: the next step's first half-kick
  // uses it wherever the atom then lives.
  std::vector<std::pair<AtomRecord, Vec3>> keep;
  int sent = 0;
  for (std::size_t i = 0; i < ns.atoms.size(); ++i) {
    const AtomRecord& a = ns.atoms[i];
    const Vec3& f = ns.forces[i];
    int owner = insideRelaxedBox(node, a.pos) ? node : ownerOf(a.pos);
    if (owner == node) {  // still inside, or wrapped back into our own box
      keep.push_back({a, f});
      continue;
    }
    MigRecord rec{a.gid,   {quantize(f.x), quantize(f.y), quantize(f.z)},
                  a.pos.x, a.pos.y, a.pos.z,
                  a.vel.x, a.vel.y, a.vel.z};
    net::NetworkClient::SendArgs args;
    args.type = net::PacketType::kFifo;
    args.dst = {owner, net::kSlice0};
    args.inOrder = true;
    args.payload = net::makePayload(&rec, sizeof rec);
    co_await slice0.send(args);
    ++sent;
  }
  migratedTotal_ += std::uint64_t(sent);

  // Flush: in-order counted write to all 26 neighbors, then wait for all
  // neighbors' flushes and drain the FIFO.
  co_await migrationSync_->signalAndCharge(node);
  // Armed, a dropped flush packet is diagnosed and replayed instead of
  // hanging every neighbor's drain. The FIFO records the flush fences
  // remain uncounted — a dropped migration payload is the one lane recovery
  // cannot cover (see DESIGN.md §7).
  co_await awaitSite(node, kFlushSite, kMigrationStep);

  int received = 0;
  while (net::PacketPtr p = slice0.pollFifo()) {
    MigRecord rec;
    std::memcpy(&rec, p->payload->data(), sizeof rec);
    keep.push_back({{rec.gid, Vec3{rec.px, rec.py, rec.pz},
                     Vec3{rec.vx, rec.vy, rec.vz}},
                    Vec3{dequantize(rec.force[0]), dequantize(rec.force[1]),
                         dequantize(rec.force[2])}});
    ++received;
  }
  std::sort(keep.begin(), keep.end(), [](const auto& a, const auto& b) {
    return a.first.gid < b.first.gid;
  });
  if (int(keep.size()) > posCapacity_[std::size_t(node)])
    throw std::runtime_error(
        "home box overflow: atoms exceed the receive-buffer capacity "
        "(raise packetHeadroom)");
  ns.atoms.resize(keep.size());
  ns.forces.resize(keep.size());
  for (std::size_t i = 0; i < keep.size(); ++i) {
    ns.atoms[i] = keep[i].first;
    ns.forces[i] = keep[i].second;
  }
  lrForce_[std::size_t(node)].assign(ns.atoms.size(), Vec3{});

  // Publish the new population to every HTIS that imports this box, on the
  // position multicast's own pattern: counts change only here (§IV-B1).
  {
    const std::int32_t count = std::int32_t(ns.atoms.size());
    net::NetworkClient::SendArgs args;
    args.multicastPattern = posPattern_[std::size_t(node)];
    args.counterId = kCtrCount;
    args.address = countSlotAddr(node);
    args.payload = net::makePayload(&count, sizeof count);
    co_await slice0.send(args);
  }

  // Bookkeeping: slot tables and counted-write expectations are rebuilt.
  co_await machine_.sim().delay(
      sim::ns(cfg_.migrateAtomNs * double(sent + received) + 200.0));
  current_.migrationUs = std::max(
      current_.migrationUs, sim::toUs(machine_.sim().now() - migStart));
}

unsigned AntonMdApp::stepKinds(int stepNumber) const {
  if (stepNumber < 1) return 0;
  unsigned kinds = kEveryStep;
  if (stepNumber % cfg_.longRangeInterval == 0) kinds |= kLongRangeStep;
  if (stepNumber % cfg_.migrationInterval == 0) kinds |= kMigrationStep;
  return kinds;
}

sim::Task AntonMdApp::stepTask(int node, int stepNumber) {
  NodeState& ns = nodes_[std::size_t(node)];
  const unsigned kinds = stepKinds(stepNumber);
  const bool thermoStep = cfg_.thermostatTau > 0.0 &&
                          stepNumber % cfg_.thermostatInterval == 0;

  // 1. First half-kick + drift (slice integration work).
  for (std::size_t i = 0; i < ns.atoms.size(); ++i) {
    AtomRecord& a = ns.atoms[i];
    a.vel += (0.5 * cfg_.dt / masses_[std::size_t(a.gid)]) * ns.forces[i];
    MDSystem tmp;
    tmp.box = box_;
    a.pos = tmp.wrap(a.pos + cfg_.dt * a.vel);
  }
  co_await machine_.sim().delay(
      sim::ns(cfg_.integrateAtomNs * double(ns.atoms.size())));

  // 2. Prepare receive-side state, then push positions (their arrival is
  // what triggers every force packet aimed at this node).
  zeroForceSlots(node);
  lrForce_[std::size_t(node)].assign(ns.atoms.size(), Vec3{});
  sim::Time sendStart = machine_.sim().now();
  co_await sendPositions(node);
  current_.posSendUs = std::max(
      current_.posSendUs, sim::toUs(machine_.sim().now() - sendStart));
  if (auto* tr = machine_.trace())
    tr->record("TS", "position-send", sendStart, machine_.sim().now());

  // 3. Concurrent hardware phases.
  sim::Gate gate;
  gate.spawn(machine_.sim(), htisPhase(node, stepNumber));
  gate.spawn(machine_.sim(), bondedPhase(node));
  if (kinds & kLongRangeStep) gate.spawn(machine_.sim(), longRangePhase(node));
  co_await gate.wait();

  // 4. Integration: wait for every force packet this step's sends return
  // (the home population is local knowledge: no count exchange), read,
  // half-kick.
  net::AccumulationMemory& acc = machine_.accum(node, 0);
  sim::Time waitStart = machine_.sim().now();
  co_await awaitSite(node, kForceSite, kinds);
  current_.forceWaitUs = std::max(
      current_.forceWaitUs, sim::toUs(machine_.sim().now() - waitStart));
  if (auto* tr = machine_.trace())
    tr->record("TS", "wait-forces", waitStart, machine_.sim().now());
  for (std::size_t i = 0; i < ns.atoms.size(); ++i) {
    std::uint32_t base = forceSlotAddr(int(i));
    Vec3 f{dequantize(acc.read<std::int32_t>(base)),
           dequantize(acc.read<std::int32_t>(base + 4)),
           dequantize(acc.read<std::int32_t>(base + 8))};
    ns.forces[i] = f;
    ns.atoms[i].vel +=
        (0.5 * cfg_.dt / masses_[std::size_t(ns.atoms[i].gid)]) * f;
  }
  co_await machine_.sim().delay(
      sim::ns(cfg_.integrateAtomNs * double(ns.atoms.size())));

  // 5. Thermostat: 32-byte dimension-ordered all-reduce (SC10 §IV-B4).
  if (thermoStep) {
    sim::Time tStart = machine_.sim().now();
    double ke = 0.0;
    for (const AtomRecord& a : ns.atoms)
      ke += 0.5 * masses_[std::size_t(a.gid)] * a.vel.norm2();
    std::vector<double> in(4);
    in[0] = ke;
    in[1] = double(ns.atoms.size());
    std::vector<double> out;
    co_await allReduce_->run(node, std::move(in), &out);
    double totalAtoms = out[1];
    double t = 2.0 * out[0] / (3.0 * totalAtoms);
    if (t > 0.0) {
      double lambda = std::sqrt(1.0 + cfg_.dt / cfg_.thermostatTau *
                                          (cfg_.targetTemperature / t - 1.0));
      for (AtomRecord& a : ns.atoms) a.vel *= lambda;
    }
    current_.thermostatUs = std::max(
        current_.thermostatUs, sim::toUs(machine_.sim().now() - tStart));
    if (auto* tr = machine_.trace())
      tr->record("TS", "global-reduction", tStart, machine_.sim().now());
  }

  // 6. Migration phase (relaxed boxes make this infrequent, SC10 Fig. 12).
  if (kinds & kMigrationStep) co_await migrationPhase(node);
}

void AntonMdApp::runSteps(int k) {
  lrForce_.resize(std::size_t(machine_.numNodes()));
  for (int node = 0; node < machine_.numNodes(); ++node)
    lrForce_[std::size_t(node)].assign(nodes_[std::size_t(node)].atoms.size(),
                                       Vec3{});

  for (int s = 0; s < k; ++s) {
    const int stepNumber = stepsDone_ + 1;
    const unsigned kinds = stepKinds(stepNumber);
    current_ = StepTiming{};
    current_.stepNumber = stepNumber;
    current_.longRange = (kinds & kLongRangeStep) != 0;
    current_.thermostat = cfg_.thermostatTau > 0.0 &&
                          stepNumber % cfg_.thermostatInterval == 0;
    current_.migration = (kinds & kMigrationStep) != 0;

    if (dropRegistry_) {
      // Discard replay entries from before the previous step: a count
      // packet lost at the end of one step is awaited in the next.
      dropRegistry_->prune(prevStepStart_);
      prevStepStart_ = machine_.sim().now();
    }

    sim::Time start = machine_.sim().now();
    for (int node = 0; node < machine_.numNodes(); ++node)
      machine_.sim().spawn(stepTask(node, stepNumber));
    machine_.sim().run();
    if (current_.migration) buildSchedule();

    current_.totalUs = sim::toUs(machine_.sim().now() - start);
    timings_.push_back(current_);
    ++stepsDone_;
  }
}

verify::CommPlan AntonMdApp::extractCommPlan() const {
  verify::CommPlan plan;
  plan.name = "md.step";
  plan.shape = shape_;

  // Phase skeleton of the template superstep. Concurrent hardware phases
  // (HTIS / bonded / long-range) branch from the send phase and rejoin at
  // the force wait; the round wraps from migration back to the next send.
  plan.addPhaseEdge("md.send", "md.htis");
  plan.addPhaseEdge("md.send", "md.bonded");
  plan.addPhaseEdge("md.send", "md.spread");
  plan.addPhaseEdge("md.spread", "md.grid");
  std::string tail = fft_->appendPlan(plan, "md.grid");
  plan.addPhaseEdge(tail, "md.pot");
  plan.addPhaseEdge("md.pot", "md.interp");
  plan.addPhaseEdge("md.htis", "md.forcewait");
  plan.addPhaseEdge("md.bonded", "md.forcewait");
  plan.addPhaseEdge("md.interp", "md.forcewait");
  tail = allReduce_->appendPlan(plan, "md.forcewait");
  plan.addPhaseEdge(tail, "md.fifo");
  plan.addPhaseEdge("md.fifo", "md.migrate");

  // The MD part: the step schedule, copied, and every pattern installed
  // through the shared allocator (position import multicasts, potential
  // halos, the migration-flush broadcasts).
  schedule_.appendTo(plan, Phase::kSend, Phase::kMigrate,
                     dropRegistry_ != nullptr);
  for (const core::InstalledPattern& p : patterns_->installed())
    plan.addTree(p.id, p.tree.srcNode, p.tree.entries, p.dests);
  return plan;
}

}  // namespace anton::md
