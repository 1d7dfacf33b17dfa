#include "trace/activity.hpp"

#include <algorithm>
#include <sstream>

namespace anton::trace {

int ActivityTrace::unit(const std::string& name) {
  auto [it, inserted] = unitIds_.try_emplace(name, int(unitNames_.size()));
  if (inserted) unitNames_.push_back(name);
  return it->second;
}

int ActivityTrace::kind(const std::string& name) {
  auto [it, inserted] = kindIds_.try_emplace(name, int(kindNames_.size()));
  if (inserted) kindNames_.push_back(name);
  return it->second;
}

void ActivityTrace::record(int unit, int kind, sim::Time start, sim::Time end) {
  if (!enabled_ || end <= start) return;
  intervals_.push_back({unit, kind, start, end});
}

sim::Time ActivityTrace::busyTime(int unit, int kind, sim::Time from,
                                  sim::Time to) const {
  sim::Time total = 0;
  for (const Interval& iv : intervals_) {
    if (iv.unit != unit || iv.kind != kind) continue;
    total += std::max<sim::Time>(0, std::min(iv.end, to) - std::max(iv.start, from));
  }
  return total;
}

sim::Time ActivityTrace::busyTime(int unit, sim::Time from, sim::Time to) const {
  sim::Time total = 0;
  for (const Interval& iv : intervals_) {
    if (iv.unit != unit) continue;
    total += std::max<sim::Time>(0, std::min(iv.end, to) - std::max(iv.start, from));
  }
  return total;
}

std::string ActivityTrace::csv() const {
  std::ostringstream os;
  os << "unit,kind,start_ns,end_ns\n";
  for (const Interval& iv : intervals_) {
    os << unitNames_[std::size_t(iv.unit)] << ','
       << kindNames_[std::size_t(iv.kind)] << ',' << sim::toNs(iv.start) << ','
       << sim::toNs(iv.end) << '\n';
  }
  return os.str();
}

std::string ActivityTrace::timeline(sim::Time from, sim::Time to,
                                    int columns) const {
  if (to <= from || columns <= 0) return {};
  const double bucket = double(to - from) / columns;

  // busy[unit][column][kind] -> time
  std::vector<std::vector<std::map<int, double>>> busy(
      unitNames_.size(),
      std::vector<std::map<int, double>>(std::size_t(columns)));
  for (const Interval& iv : intervals_) {
    sim::Time s = std::max(iv.start, from);
    sim::Time e = std::min(iv.end, to);
    if (e <= s) continue;
    int c0 = int(double(s - from) / bucket);
    int c1 = std::min(columns - 1, int(double(e - from) / bucket));
    for (int c = c0; c <= c1; ++c) {
      double bs = double(from) + c * bucket;
      double be = bs + bucket;
      double overlap = std::min(double(e), be) - std::max(double(s), bs);
      if (overlap > 0) busy[std::size_t(iv.unit)][std::size_t(c)][iv.kind] += overlap;
    }
  }

  std::size_t nameWidth = 0;
  for (const auto& n : unitNames_) nameWidth = std::max(nameWidth, n.size());

  std::ostringstream os;
  for (std::size_t u = 0; u < unitNames_.size(); ++u) {
    os << unitNames_[u] << std::string(nameWidth - unitNames_[u].size() + 1, ' ')
       << '|';
    for (int c = 0; c < columns; ++c) {
      const auto& kinds = busy[u][std::size_t(c)];
      if (kinds.empty()) {
        os << '.';
        continue;
      }
      int best = kinds.begin()->first;
      double bestT = kinds.begin()->second;
      for (const auto& [k, t] : kinds) {
        if (t > bestT) {
          best = k;
          bestT = t;
        }
      }
      char ch = kindNames_[std::size_t(best)].empty()
                    ? '?'
                    : kindNames_[std::size_t(best)][0];
      os << ch;
    }
    os << "|\n";
  }
  os << "legend:";
  for (const auto& k : kindNames_) {
    if (!k.empty()) os << ' ' << k[0] << '=' << k;
  }
  os << "  .=idle\n";
  return os.str();
}

}  // namespace anton::trace
