#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>
#include <string>

#include "util/json.hpp"
#include "util/table.hpp"
#include "util/torus_coord.hpp"
#include "util/vec3.hpp"

namespace anton::util {
namespace {

TEST(Vec3, Arithmetic) {
  Vec3 a{1, 2, 3};
  Vec3 b{4, 5, 6};
  EXPECT_EQ(a + b, Vec3(5, 7, 9));
  EXPECT_EQ(b - a, Vec3(3, 3, 3));
  EXPECT_EQ(a * 2.0, Vec3(2, 4, 6));
  EXPECT_EQ(2.0 * a, Vec3(2, 4, 6));
  EXPECT_EQ(-a, Vec3(-1, -2, -3));
  EXPECT_DOUBLE_EQ(a.dot(b), 32.0);
  EXPECT_EQ(a.cross(b), Vec3(-3, 6, -3));
  EXPECT_DOUBLE_EQ(Vec3(3, 4, 0).norm(), 5.0);
}

TEST(TorusCoord, Wrap) {
  EXPECT_EQ(wrap(5, 8), 5);
  EXPECT_EQ(wrap(8, 8), 0);
  EXPECT_EQ(wrap(-1, 8), 7);
  EXPECT_EQ(wrap(-9, 8), 7);
  EXPECT_EQ(wrap(17, 8), 1);
}

TEST(TorusCoord, SignedDelta) {
  // Shortest signed displacement with wraparound, ties broken positive.
  EXPECT_EQ(signedTorusDelta(0, 3, 8), 3);
  EXPECT_EQ(signedTorusDelta(0, 5, 8), -3);
  EXPECT_EQ(signedTorusDelta(0, 4, 8), 4);   // tie -> positive
  EXPECT_EQ(signedTorusDelta(7, 0, 8), 1);   // wrap forward
  EXPECT_EQ(signedTorusDelta(0, 7, 8), -1);  // wrap backward
  EXPECT_EQ(signedTorusDelta(3, 3, 8), 0);
}

TEST(TorusCoord, Hops) {
  TorusShape s{8, 8, 8};
  EXPECT_EQ(torusHops({0, 0, 0}, {0, 0, 0}, s), 0);
  EXPECT_EQ(torusHops({0, 0, 0}, {1, 0, 0}, s), 1);
  EXPECT_EQ(torusHops({0, 0, 0}, {7, 0, 0}, s), 1);
  // Maximum distance in an 8x8x8 torus is 4+4+4 = 12 (SC10 Fig. 5 caption).
  EXPECT_EQ(torusHops({0, 0, 0}, {4, 4, 4}, s), 12);
}

TEST(TorusCoord, IndexRoundTrip) {
  TorusShape s{3, 4, 5};
  for (int i = 0; i < s.size(); ++i) {
    EXPECT_EQ(torusIndex(torusCoordOf(i, s), s), i);
  }
  EXPECT_EQ(torusIndex({1, 2, 3}, s), 1 + 3 * (2 + 4 * 3));
}

TEST(TorusCoord, Neighbor) {
  TorusShape s{4, 4, 4};
  EXPECT_EQ(torusNeighbor({0, 0, 0}, 0, -1, s), (TorusCoord{3, 0, 0}));
  EXPECT_EQ(torusNeighbor({3, 0, 0}, 0, +1, s), (TorusCoord{0, 0, 0}));
  EXPECT_EQ(torusNeighbor({1, 1, 1}, 2, +1, s), (TorusCoord{1, 1, 2}));
}

TEST(Table, Renders) {
  TablePrinter t({"a", "long-header"});
  t.addRow({"x", "1"});
  t.addRow({"yyyy"});
  std::ostringstream os;
  t.print(os);
  std::string out = os.str();
  EXPECT_NE(out.find("long-header"), std::string::npos);
  EXPECT_NE(out.find("yyyy"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(Table, NumFormat) {
  EXPECT_EQ(TablePrinter::num(1.234, 2), "1.23");
  EXPECT_EQ(TablePrinter::num(5, 0), "5");
}

TEST(Json, IntegersAreReadFromTheLiteralExactly) {
  using json::asInt;
  using json::asU64;
  using json::parse;
  EXPECT_EQ(asU64(parse("9007199254740993"), "x"), (1ull << 53) + 1);
  EXPECT_EQ(asU64(parse("18446744073709551615"), "x"),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(asInt(parse("-2147483648"), "x"),
            std::numeric_limits<int>::min());
  EXPECT_EQ(asInt(parse("[7]").arr[0], "x"), 7);
  // Fractions, exponents and out-of-range values are errors naming the
  // field, never a truncated, rounded or wrapped integer.
  for (const char* bad : {"2.5", "1e30", "1E2", "-1.0", "2147483648"}) {
    try {
      asInt(parse(bad), "spec.steps");
      ADD_FAILURE() << bad << " read as an int";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("spec.steps"), std::string::npos)
          << e.what();
    }
  }
  for (const char* bad : {"-1", "2.5", "1e20", "18446744073709551616"})
    EXPECT_THROW(asU64(parse(bad), "request.id"), std::runtime_error) << bad;
  EXPECT_THROW(asInt(parse("\"3\""), "x"), std::runtime_error);
  // Doubles keep their own reading.
  EXPECT_EQ(json::asDouble(parse("2.5e-3"), "x"), 2.5e-3);
}

}  // namespace
}  // namespace anton::util
