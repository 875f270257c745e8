// The paper's figures (Figs 1-5) and §3 experiments (E6-E17) behind one
// registry; `bgpcmp experiment <name>` runs one, printing its report to
// stdout. The names are the results/*.txt stems and DESIGN.md §3's entry
// points.
#pragma once

#include <optional>
#include <span>
#include <string_view>

namespace bgpcmp::experiments {

struct Experiment {
  std::string_view name;
  /// Whether it has a measurement campaign that `days` resizes; the others
  /// ignore `days`.
  bool takes_days;
  /// nullopt keeps the experiment's own campaign length.
  void (*run)(std::optional<double> days);
};

/// Every experiment, in a fixed order: the figures, then E6-E17.
[[nodiscard]] std::span<const Experiment> registry();

}  // namespace bgpcmp::experiments
