// bench::JsonReporter must emit strict JSON: the perf-trajectory tooling
// parses BENCH_*.json with an ordinary JSON parser, so bare nan/inf tokens,
// unescaped quotes in metric names, locale decimal commas or truncated
// doubles silently corrupt the trajectory. These tests exercise the
// escaping and number formatting helpers the reporter writes with
// (util/json.hpp) and round-trip full records through a minimal JSON
// reader.
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <locale>
#include <map>
#include <string>

#include "bench_common.hpp"
#include "util/json.hpp"

namespace anton::bench {
namespace {

// Minimal flat-object JSON reader, just enough for one reporter line:
// {"key":value,...} with string or number-or-null values. Returns false on
// any syntax violation — which is exactly what the tests are guarding.
bool parseFlatObject(const std::string& line,
                     std::map<std::string, std::string>& out) {
  std::size_t i = 0;
  auto skipWs = [&] {
    while (i < line.size() && std::isspace(static_cast<unsigned char>(line[i])))
      ++i;
  };
  auto parseString = [&](std::string& s) {
    if (i >= line.size() || line[i] != '"') return false;
    ++i;
    s.clear();
    while (i < line.size() && line[i] != '"') {
      char c = line[i];
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control
      if (c == '\\') {
        if (++i >= line.size()) return false;
        switch (line[i]) {
          case '"': s += '"'; break;
          case '\\': s += '\\'; break;
          case 'n': s += '\n'; break;
          case 'r': s += '\r'; break;
          case 't': s += '\t'; break;
          case 'u': {
            if (i + 4 >= line.size()) return false;
            s += char(std::strtoul(line.substr(i + 1, 4).c_str(), nullptr, 16));
            i += 4;
            break;
          }
          default: return false;
        }
      } else {
        s += c;
      }
      ++i;
    }
    if (i >= line.size()) return false;
    ++i;  // closing quote
    return true;
  };
  skipWs();
  if (i >= line.size() || line[i] != '{') return false;
  ++i;
  while (true) {
    skipWs();
    std::string key;
    if (!parseString(key)) return false;
    skipWs();
    if (i >= line.size() || line[i] != ':') return false;
    ++i;
    skipWs();
    std::string value;
    if (i < line.size() && line[i] == '"') {
      if (!parseString(value)) return false;
    } else {
      std::size_t start = i;
      while (i < line.size() && line[i] != ',' && line[i] != '}') ++i;
      value = line.substr(start, i - start);
      if (value.empty()) return false;
      if (value != "null") {  // must parse fully as a JSON number
        char* end = nullptr;
        std::strtod(value.c_str(), &end);
        if (end != value.c_str() + value.size()) return false;
      }
    }
    out[key] = value;
    skipWs();
    if (i < line.size() && line[i] == ',') {
      ++i;
      continue;
    }
    break;
  }
  if (i >= line.size() || line[i] != '}') return false;
  return true;
}

TEST(JsonReporter, NonFiniteValuesBecomeNull) {
  EXPECT_EQ(util::json::number(std::nan("")), "null");
  EXPECT_EQ(util::json::number(std::numeric_limits<double>::infinity()),
            "null");
  EXPECT_EQ(util::json::number(-std::numeric_limits<double>::infinity()),
            "null");
}

TEST(JsonReporter, NumbersRoundTripAtFullPrecision) {
  for (double v : {162.0, 1.0 / 3.0, 9.869604401089358e-7, -0.0, 1e300,
                   0.1 + 0.2, 5e-324}) {
    std::string s = util::json::number(v);
    double back = std::strtod(s.c_str(), nullptr);
    EXPECT_EQ(back, v) << "lossy: " << s;
  }
}

TEST(JsonReporter, StringsAreEscaped) {
  EXPECT_EQ(util::json::quoted("plain"), "\"plain\"");
  EXPECT_EQ(util::json::quoted("say \"hi\""), "\"say \\\"hi\\\"\"");
  EXPECT_EQ(util::json::quoted("a\\b"), "\"a\\\\b\"");
  EXPECT_EQ(util::json::quoted("line\nbreak\ttab"),
            "\"line\\nbreak\\ttab\"");
  EXPECT_EQ(util::json::quoted(std::string("nul\x01" "byte")),
            "\"nul\\u0001byte\"");
}

TEST(JsonReporter, RecordedLinesParseAndRoundTrip) {
  const std::string bench = "json_rt \"quoted\"\tname";
  {
    JsonReporter rep(bench);
    rep.record("latency (one-way)", 162.0, 171.5, "ns");
    rep.record("nan metric", 100.0, std::nan(""), "us");
    rep.record("third \\ pi", 3.0, 9.869604401089358e-7, "1/s");
  }  // close the file before reading it back

  std::ifstream in("BENCH_" + bench + ".json");
  ASSERT_TRUE(in) << "reporter output file missing";
  std::string line;

  ASSERT_TRUE(std::getline(in, line));
  std::map<std::string, std::string> rec;
  ASSERT_TRUE(parseFlatObject(line, rec)) << "invalid JSON: " << line;
  EXPECT_EQ(rec["bench"], bench);
  EXPECT_EQ(rec["metric"], "latency (one-way)");
  EXPECT_EQ(rec["unit"], "ns");
  EXPECT_EQ(std::strtod(rec["paper"].c_str(), nullptr), 162.0);
  EXPECT_EQ(std::strtod(rec["measured"].c_str(), nullptr), 171.5);
  EXPECT_EQ(std::strtod(rec["deviation"].c_str(), nullptr),
            (171.5 - 162.0) / 162.0);

  ASSERT_TRUE(std::getline(in, line));
  rec.clear();
  ASSERT_TRUE(parseFlatObject(line, rec)) << "invalid JSON: " << line;
  EXPECT_EQ(rec["measured"], "null") << "NaN must serialize as null";
  EXPECT_EQ(rec["deviation"], "null");

  ASSERT_TRUE(std::getline(in, line));
  rec.clear();
  ASSERT_TRUE(parseFlatObject(line, rec)) << "invalid JSON: " << line;
  EXPECT_EQ(rec["metric"], "third \\ pi");
  EXPECT_EQ(std::strtod(rec["measured"].c_str(), nullptr),
            9.869604401089358e-7)
      << "precision lost in round-trip";

  EXPECT_FALSE(std::getline(in, line)) << "unexpected extra output";
  std::remove(("BENCH_" + bench + ".json").c_str());
}

/// A locale that writes 1234.5 as "1.234,5".
struct CommaDecimal : std::numpunct<char> {
  char do_decimal_point() const override { return ','; }
  char do_thousands_sep() const override { return '.'; }
  std::string do_grouping() const override { return "\3"; }
};

TEST(JsonReporter, RecordsIgnoreTheGlobalLocale) {
  const std::locale previous = std::locale::global(
      std::locale(std::locale::classic(), new CommaDecimal));
  {
    JsonReporter rep("json_locale");
    rep.record("m", 1234.5, 0.25, "us");
  }
  std::locale::global(previous);

  std::ifstream in("BENCH_json_locale.json");
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_NE(line.find("\"paper\":1234.5,"), std::string::npos) << line;
  EXPECT_NE(line.find("\"measured\":0.25,"), std::string::npos) << line;
  std::remove("BENCH_json_locale.json");
}

}  // namespace
}  // namespace anton::bench
