#include "bgpcmp/core/report.h"

#include <gtest/gtest.h>

namespace bgpcmp::core {
namespace {

TEST(Report, BannerFramesTitle) {
  const auto text = banner("Hello");
  EXPECT_NE(text.find("| Hello |"), std::string::npos);
  // Three lines, the rule as wide as the framed title.
  int lines = 0;
  for (const char c : text) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, 3);
  EXPECT_NE(text.find("========="), std::string::npos);
}

TEST(Report, HeadlineAlignsAndFormats) {
  const auto line = headline("key", 12.3456, "ms", 2);
  EXPECT_NE(line.find("key"), std::string::npos);
  EXPECT_NE(line.find("= 12.35 ms"), std::string::npos);
  EXPECT_EQ(line.back(), '\n');
}

TEST(Report, HeadlineWithoutUnit) {
  const auto line = headline("ratio", 0.5);
  EXPECT_NE(line.find("= 0.500"), std::string::npos);
  EXPECT_EQ(line.find("ms"), std::string::npos);
}

TEST(Report, LongKeysStillRender) {
  const std::string key(80, 'k');
  const auto line = headline(key, 1.0);
  EXPECT_NE(line.find(key), std::string::npos);
  EXPECT_NE(line.find("= 1.000"), std::string::npos);
}

TEST(Report, RenderCdfsSharesGrid) {
  const stats::WeightedCdf a{{{0.0, 1.0}, {10.0, 1.0}}};
  const stats::WeightedCdf b{{{5.0, 1.0}}};
  const auto text = render_cdfs("x", {"a", "b"}, {&a, &b}, 0.0, 10.0, 3);
  EXPECT_NE(text.find("a"), std::string::npos);
  EXPECT_NE(text.find("b"), std::string::npos);
  EXPECT_NE(text.find("0.00"), std::string::npos);
  EXPECT_NE(text.find("10.00"), std::string::npos);
}

TEST(Report, RenderCcdfInverts) {
  const stats::WeightedCdf a{{{5.0, 1.0}}};
  const auto cdf_text = render_cdfs("x", {"v"}, {&a}, 0.0, 10.0, 2, false);
  const auto ccdf_text = render_cdfs("x", {"v"}, {&a}, 0.0, 10.0, 2, true);
  // At x=10 the CDF reads 1.000, the CCDF 0.000.
  EXPECT_NE(cdf_text.find("1.000"), std::string::npos);
  EXPECT_NE(ccdf_text.find("0.000"), std::string::npos);
}

}  // namespace
}  // namespace bgpcmp::core
