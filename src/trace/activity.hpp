// Activity tracing: the model's stand-in for Anton's logic analyzer.
//
// SC10 Fig. 13 was produced by an on-chip diagnostic network recording what
// every unit (torus links, Tensilica cores, geometry cores, HTIS) was doing
// over a time step. ActivityTrace collects (unit, kind, interval) records
// from instrumented software and renders them as CSV or as an ASCII
// timeline with one row per unit group and one column per time bucket.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace anton::trace {

class ActivityTrace {
 public:
  struct Interval {
    int unit;
    int kind;
    sim::Time start;
    sim::Time end;
  };

  /// Register (or look up) a unit row, e.g. "TS", "GC", "HTIS", "link.X+".
  int unit(const std::string& name);
  /// Register (or look up) an activity kind, e.g. "fft", "wait", "bonded".
  int kind(const std::string& name);

  /// Record one closed interval. Zero-length intervals are dropped.
  void record(int unit, int kind, sim::Time start, sim::Time end);
  void record(const std::string& unit, const std::string& kind,
              sim::Time start, sim::Time end) {
    record(this->unit(unit), this->kind(kind), start, end);
  }

  bool enabled() const { return enabled_; }
  void setEnabled(bool e) { enabled_ = e; }

  const std::vector<Interval>& intervals() const { return intervals_; }
  const std::vector<std::string>& unitNames() const { return unitNames_; }
  const std::vector<std::string>& kindNames() const { return kindNames_; }
  void clear() { intervals_.clear(); }

  /// Total recorded time of `kind` on `unit` within [from, to).
  sim::Time busyTime(int unit, int kind, sim::Time from, sim::Time to) const;
  /// Total recorded time of any kind on `unit` within [from, to).
  sim::Time busyTime(int unit, sim::Time from, sim::Time to) const;

  /// CSV dump: unit,kind,start_ns,end_ns.
  std::string csv() const;

  /// ASCII timeline between [from, to): one row per unit, `columns` buckets;
  /// each cell shows the first letter of the dominant activity kind in the
  /// bucket ('.' when idle). The legend maps letters to kind names.
  std::string timeline(sim::Time from, sim::Time to, int columns = 96) const;

 private:
  bool enabled_ = true;
  std::vector<std::string> unitNames_;
  std::vector<std::string> kindNames_;
  std::map<std::string, int> unitIds_;
  std::map<std::string, int> kindIds_;
  std::vector<Interval> intervals_;
};

/// RAII helper: records [construction, destruction) as one interval.
class ScopedActivity {
 public:
  ScopedActivity(ActivityTrace& trace, sim::Time now, int unit, int kind)
      : trace_(trace), unit_(unit), kind_(kind), start_(now) {}
  void finish(sim::Time now) {
    if (!done_) trace_.record(unit_, kind_, start_, now);
    done_ = true;
  }

 private:
  ActivityTrace& trace_;
  int unit_;
  int kind_;
  sim::Time start_;
  bool done_ = false;
};

}  // namespace anton::trace
