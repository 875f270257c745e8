#include "bgpcmp/stats/table.h"

#include <algorithm>
#include <cstdio>

#include "bgpcmp/netbase/check.h"

namespace bgpcmp::stats {

std::string fmt(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void Table::add_row(std::vector<std::string> cells) {
  BGPCMP_CHECK_EQ(cells.size(), headers_.size(),
                  "row width must match the table header");
  rows_.push_back(std::move(cells));
}

std::string Table::render() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto emit_row = [&](const std::vector<std::string>& row) {
    std::string line;
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c > 0) line += "  ";
      line += row[c];
      line.append(widths[c] - row[c].size(), ' ');
    }
    while (!line.empty() && line.back() == ' ') line.pop_back();
    return line + "\n";
  };
  std::string out = emit_row(headers_);
  std::string rule;
  for (std::size_t c = 0; c < widths.size(); ++c) {
    if (c > 0) rule += "  ";
    rule.append(widths[c], '-');
  }
  out += rule + "\n";
  for (const auto& row : rows_) out += emit_row(row);
  return out;
}

std::string render_series(const std::string& x_label,
                          const std::vector<std::string>& series_names,
                          const std::vector<std::vector<SeriesPoint>>& series,
                          int precision) {
  BGPCMP_CHECK_EQ(series_names.size(), series.size(), "one name per series");
  BGPCMP_CHECK(!series.empty(), "rendering zero series");
  std::vector<std::string> headers{x_label};
  headers.insert(headers.end(), series_names.begin(), series_names.end());
  Table t{std::move(headers)};
  const std::size_t n = series.front().size();
  for (const auto& s : series) {
    BGPCMP_CHECK_EQ(s.size(), n, "all series must share one x-grid");
    (void)s;
  }
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<std::string> cells;
    cells.reserve(series.size() + 1);
    cells.push_back(fmt(series.front()[i].x, 2));
    for (const auto& s : series) cells.push_back(fmt(s[i].y, precision));
    t.add_row(std::move(cells));
  }
  return t.render();
}

}  // namespace bgpcmp::stats
