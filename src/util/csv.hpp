// Tiny CSV writer used by the experiment benches to dump figure series.
#pragma once

#include <fstream>
#include <sstream>
#include <string>

namespace anton::util {

/// Streams rows of comma-separated values to a file. Values are formatted via
/// operator<<; strings containing commas or quotes are quoted per RFC 4180.
class CsvWriter {
 public:
  explicit CsvWriter(const std::string& path) : out_(path) {}

  bool ok() const { return static_cast<bool>(out_); }

  template <typename... Ts>
  void row(const Ts&... values) {
    bool first = true;
    ((writeCell(values, first), first = false), ...);
    out_ << '\n';
  }

 private:
  template <typename T>
  void writeCell(const T& v, bool first) {
    if (!first) out_ << ',';
    std::ostringstream ss;
    ss << v;
    out_ << escape(ss.str());
  }

  static std::string escape(const std::string& s) {
    if (s.find_first_of(",\"\n") == std::string::npos) return s;
    std::string r = "\"";
    for (char c : s) {
      if (c == '"') r += '"';
      r += c;
    }
    r += '"';
    return r;
  }

  std::ofstream out_;
};

}  // namespace anton::util
