#include "bgpcmp/stats/table.h"

#include <gtest/gtest.h>

namespace bgpcmp::stats {
namespace {

TEST(Fmt, FixedPrecision) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt(3.0, 0), "3");
  EXPECT_EQ(fmt(-1.5, 1), "-1.5");
}

TEST(Table, AlignsColumns) {
  Table t{{"name", "value"}};
  t.add_row({"a", "1"});
  t.add_row({"long-name", "22"});
  const auto text = t.render();
  // Every line should be as wide as the widest cell in each column.
  EXPECT_NE(text.find("name       value"), std::string::npos);
  EXPECT_NE(text.find("long-name  22"), std::string::npos);
}

TEST(Table, HasHeaderRule) {
  Table t{{"x"}};
  t.add_row({"1"});
  const auto text = t.render();
  EXPECT_NE(text.find("-"), std::string::npos);
}

TEST(RenderSeries, OneRowPerPoint) {
  std::vector<SeriesPoint> s1{{0.0, 0.1}, {1.0, 0.5}, {2.0, 1.0}};
  std::vector<SeriesPoint> s2{{0.0, 0.9}, {1.0, 0.5}, {2.0, 0.0}};
  const auto text = render_series("x", {"up", "down"}, {s1, s2});
  // Header + rule + 3 data rows.
  int lines = 0;
  for (const char c : text) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, 5);
  EXPECT_NE(text.find("up"), std::string::npos);
  EXPECT_NE(text.find("down"), std::string::npos);
  EXPECT_NE(text.find("0.500"), std::string::npos);
}

TEST(RenderSeries, RespectsPrecision) {
  std::vector<SeriesPoint> s{{0.0, 0.123456}};
  const auto text = render_series("x", {"y"}, {s}, 5);
  EXPECT_NE(text.find("0.12346"), std::string::npos);
}

}  // namespace
}  // namespace bgpcmp::stats
