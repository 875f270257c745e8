// Fixed-width table / series printers shared by all bench binaries, so every
// figure's output has a consistent, diff-able format.
#pragma once

#include <string>
#include <vector>

#include "bgpcmp/stats/cdf.h"

namespace bgpcmp::stats {

/// A column-aligned text table.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  void add_row(std::vector<std::string> cells);

  [[nodiscard]] std::string render() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Render one or more CDF/CCDF series sampled on a shared x-grid, one row per
/// x value, one column per series — the textual equivalent of a figure.
[[nodiscard]] std::string render_series(
    const std::string& x_label, const std::vector<std::string>& series_names,
    const std::vector<std::vector<SeriesPoint>>& series, int precision = 3);

/// Format a double with fixed precision.
[[nodiscard]] std::string fmt(double v, int precision = 2);

}  // namespace bgpcmp::stats
