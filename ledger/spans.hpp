// Benchmark-side span recorder for the host-time ledger.
//
// Spans are opened and closed in the ledger's own code around calls into
// the simulator's layers (Machine build, MD steps, runJob, ...). Each span
// has a name "<layer>.<what>", a start and end on the host clock, a parent
// (the innermost span open when it started) and the id of the operation it
// belongs to (a probe, a step, a job). Spans stay in memory and are written
// once, at the end, as Chrome Trace Event JSON, which Perfetto and
// chrome://tracing open as is.
//
// With recording off, open() returns 0 and close(0) does nothing, so the
// timed code pays one branch per boundary.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "util/json.hpp"

namespace ledger {

using Clock = std::chrono::steady_clock;
using Args = std::vector<std::pair<std::string, double>>;

struct Span {
  std::string name;
  double startUs = 0.0;  ///< since the recorder's epoch
  double endUs = 0.0;
  std::uint64_t id = 0;      ///< 1-based; 0 means "no span"
  std::uint64_t parent = 0;  ///< 0 for a root span
  std::uint64_t op = 0;      ///< operation id shared by the spans of one op
  int lane = 0;  ///< Chrome "tid": 0 is the benchmark thread, w + 1 is
                 ///< server worker w
  Args args;     ///< counters read at the span's boundaries
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  void setEnabled(bool on) { enabled_ = on; }

  /// Microseconds since the recorder was made (read whether or not spans
  /// are being recorded).
  double nowUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
        .count();
  }

  /// Open a span under the innermost open span. Returns its id, or 0 when
  /// recording is off.
  std::uint64_t open(std::string name, std::uint64_t op = 0) {
    if (!enabled_) return 0;
    Span s;
    s.name = std::move(name);
    s.id = spans_.size() + 1;
    s.parent = open_.empty() ? 0 : open_.back();
    s.op = op;
    s.startUs = nowUs();
    spans_.push_back(std::move(s));
    open_.push_back(spans_.back().id);
    return spans_.back().id;
  }

  /// Close span `id`, which must be the innermost open one. No-op for 0.
  void close(std::uint64_t id, Args args = {}) {
    if (id == 0) return;
    if (open_.empty() || open_.back() != id) {
      std::fputs("ledger: spans must close innermost first\n", stderr);
      std::abort();
    }
    open_.pop_back();
    Span& s = spans_[id - 1];
    s.endUs = nowUs();
    s.args = std::move(args);
  }

  /// Rename an open span (a step learns whether it was long-range only
  /// after it ran). No-op for 0.
  void rename(std::uint64_t id, std::string name) {
    if (id != 0) spans_[id - 1].name = std::move(name);
  }

  /// Record an already finished interval (e.g. a job's server-side
  /// turnaround) under the innermost open span.
  void add(std::string name, double startUs, double endUs, std::uint64_t op,
           int lane, Args args = {}) {
    if (!enabled_) return;
    Span s;
    s.name = std::move(name);
    s.id = spans_.size() + 1;
    s.parent = open_.empty() ? 0 : open_.back();
    s.op = op;
    s.startUs = startUs;
    s.endUs = endUs;
    s.lane = lane;
    s.args = std::move(args);
    spans_.push_back(std::move(s));
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Chrome Trace Event JSON: one complete ("X") event per span, with the
  /// span id, parent id and operation id in its args.
  void writeChrome(std::ostream& os) const {
    namespace json = anton::util::json;
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    std::vector<int> lanes;
    for (const Span& s : spans_) {
      bool known = false;
      for (int l : lanes) known = known || l == s.lane;
      if (!known) lanes.push_back(s.lane);
    }
    for (int lane : lanes) {
      if (!first) os << ",";
      first = false;
      std::string label =
          lane == 0 ? "benchmark" : "server worker " + std::to_string(lane - 1);
      os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << lane
         << ",\"args\":{\"name\":" << json::quoted(label) << "}}";
    }
    for (const Span& s : spans_) {
      if (!first) os << ",";
      first = false;
      std::string layer = s.name.substr(0, s.name.find('.'));
      os << "{\"name\":" << json::quoted(s.name)
         << ",\"cat\":" << json::quoted(layer)
         << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.lane
         << ",\"ts\":" << json::number(s.startUs)
         << ",\"dur\":" << json::number(s.endUs - s.startUs)
         << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
         << ",\"op\":" << s.op;
      for (const auto& [key, value] : s.args)
        os << "," << json::quoted(key) << ":" << json::number(value);
      os << "}}";
    }
    os << "]}\n";
  }

 private:
  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::uint64_t> open_;  ///< ids of the open spans, innermost last
};

/// RAII span: opens on construction, closes (with its args) on destruction.
class Scope {
 public:
  Scope(Tracer& t, std::string name, std::uint64_t op = 0)
      : t_(t), id_(t.open(std::move(name), op)) {}
  ~Scope() { t_.close(id_, std::move(args_)); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  void arg(std::string key, double value) {
    if (id_ != 0) args_.emplace_back(std::move(key), value);
  }
  void rename(std::string name) { t_.rename(id_, std::move(name)); }

 private:
  Tracer& t_;
  std::uint64_t id_;
  Args args_;
};

}  // namespace ledger
