#include "bgpcmp/core/csv.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

namespace bgpcmp::core {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in{path};
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string tmp_path(const char* name) {
  return std::string{::testing::TempDir()} + name;
}

TEST(Csv, WritesHeaderAndRows) {
  const auto path = tmp_path("basic.csv");
  ASSERT_TRUE(write_csv(path, {"a", "b"}, {{"1", "2"}, {"3", "4"}}));
  EXPECT_EQ(slurp(path), "a,b\n1,2\n3,4\n");
  std::remove(path.c_str());
}

TEST(Csv, EscapesSpecialCharacters) {
  const auto path = tmp_path("escape.csv");
  ASSERT_TRUE(write_csv(path, {"name"}, {{"has,comma"}, {"has\"quote"}}));
  EXPECT_EQ(slurp(path), "name\n\"has,comma\"\n\"has\"\"quote\"\n");
  std::remove(path.c_str());
}

TEST(Csv, SeriesExportMatchesCdf) {
  const stats::WeightedCdf cdf{{{0.0, 1.0}, {10.0, 1.0}}};
  const auto path = tmp_path("series.csv");
  ASSERT_TRUE(write_series_csv(path, "x", {"cdf"}, {&cdf}, 0.0, 10.0, 3));
  const auto text = slurp(path);
  EXPECT_NE(text.find("x,cdf"), std::string::npos);
  EXPECT_NE(text.find("0.0000,0.500000"), std::string::npos);
  EXPECT_NE(text.find("10.0000,1.000000"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Csv, CcdfExport) {
  const stats::WeightedCdf cdf{{{5.0, 1.0}}};
  const auto path = tmp_path("ccdf.csv");
  ASSERT_TRUE(write_series_csv(path, "x", {"ccdf"}, {&cdf}, 0.0, 10.0, 2,
                               /*ccdf=*/true));
  const auto text = slurp(path);
  EXPECT_NE(text.find("0.0000,1.000000"), std::string::npos);
  EXPECT_NE(text.find("10.0000,0.000000"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Csv, UnwritablePathFails) {
  EXPECT_FALSE(write_csv("/nonexistent-dir/x.csv", {"a"}, {}));
}

TEST(Csv, ExportDirComesFromEnvironment) {
  ::unsetenv("BGPCMP_CSV_DIR");
  EXPECT_FALSE(csv_export_dir().has_value());
  ::setenv("BGPCMP_CSV_DIR", "/tmp/figs", 1);
  ASSERT_TRUE(csv_export_dir().has_value());
  EXPECT_EQ(*csv_export_dir(), "/tmp/figs");
  ::setenv("BGPCMP_CSV_DIR", "", 1);
  EXPECT_FALSE(csv_export_dir().has_value());
  ::unsetenv("BGPCMP_CSV_DIR");
}

}  // namespace
}  // namespace bgpcmp::core
