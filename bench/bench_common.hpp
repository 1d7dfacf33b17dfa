// Shared helpers for the experiment benches: ping-pong measurement on the
// Anton model, paper-vs-measured table assembly, CSV output location.
#pragma once

#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>

#include "net/machine.hpp"
#include "net/probe.hpp"
#include "sim/simulator.hpp"
#include "util/csv.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace anton::bench {

/// Machine-readable paper-vs-measured records: one JSON object per line,
/// written to BENCH_<name>.json in the working directory. Every bench emits
/// these alongside its human-readable table so tooling can track the
/// deviation trajectory across commits. Output is strict JSON: strings are
/// escaped, numbers round-trip at full double precision, and non-finite
/// values become null (bare `nan`/`inf` would break every parser).
class JsonReporter {
 public:
  explicit JsonReporter(const std::string& bench)
      : bench_(bench), out_("BENCH_" + bench + ".json") {
    if (!out_)
      throw std::runtime_error("JsonReporter: cannot open BENCH_" + bench +
                               ".json for writing");
  }

  /// Write to an explicit path instead of BENCH_<name>.json. Used by tools
  /// (e.g. verify_plans) whose reports are not paper-vs-measured benches and
  /// must not be picked up by the perf-trajectory tooling.
  JsonReporter(const std::string& name, const std::string& path)
      : bench_(name), out_(path) {
    if (!out_)
      throw std::runtime_error("JsonReporter: cannot open " + path +
                               " for writing");
  }

  /// Emit one preformatted line (the caller guarantees it is valid JSON).
  void raw(const std::string& line) {
    out_ << line << '\n';
    if (!out_)
      throw std::runtime_error("JsonReporter: write for " + bench_ + " failed");
  }

  /// deviation = (measured - paper) / paper (0 when paper is 0).
  void record(const std::string& metric, double paper, double measured,
              const std::string& unit) {
    double dev = paper != 0.0 ? (measured - paper) / paper : 0.0;
    out_ << "{\"bench\":" << util::json::quoted(bench_)
         << ",\"metric\":" << util::json::quoted(metric)
         << ",\"paper\":" << util::json::number(paper)
         << ",\"measured\":" << util::json::number(measured)
         << ",\"deviation\":" << util::json::number(dev)
         << ",\"unit\":" << util::json::quoted(unit) << "}\n";
    if (!out_)
      throw std::runtime_error("JsonReporter: write to BENCH_" + bench_ +
                               ".json failed");
  }

 private:
  std::string bench_;
  std::ofstream out_;
};

inline void banner(const std::string& title) {
  std::cout << "\n=== " << title << " ===\n";
}

}  // namespace anton::bench
