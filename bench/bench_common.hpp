// Shared helpers for the experiment benches: ping-pong measurement on the
// Anton model, paper-vs-measured table assembly, CSV output location.
#pragma once

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

#include "net/machine.hpp"
#include "net/probe.hpp"
#include "sim/simulator.hpp"
#include "util/csv.hpp"
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
    out_ << "{\"bench\":" << quoted(bench_) << ",\"metric\":" << quoted(metric)
         << ",\"paper\":" << number(paper) << ",\"measured\":" << number(measured)
         << ",\"deviation\":" << number(dev) << ",\"unit\":" << quoted(unit)
         << "}\n";
    if (!out_)
      throw std::runtime_error("JsonReporter: write to BENCH_" + bench_ +
                               ".json failed");
  }

  /// Full-precision JSON number, or null for non-finite values.
  static std::string number(double v) {
    if (!std::isfinite(v)) return "null";
    std::ostringstream os;
    os.precision(std::numeric_limits<double>::max_digits10);
    os << v;
    return os.str();
  }

  /// JSON string literal: quotes, backslashes and control characters escaped.
  static std::string quoted(const std::string& s) {
    std::string out = "\"";
    for (unsigned char c : s) {
      switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
          if (c < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
          } else {
            out += char(c);
          }
      }
    }
    out += '"';
    return out;
  }

 private:
  std::string bench_;
  std::ofstream out_;
};

inline void banner(const std::string& title) {
  std::cout << "\n=== " << title << " ===\n";
}

}  // namespace anton::bench
