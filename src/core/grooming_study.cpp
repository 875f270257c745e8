#include "bgpcmp/core/grooming_study.h"

#include <string>
#include <utility>
#include <vector>

#include "bgpcmp/stats/cdf.h"

namespace bgpcmp::core {

AnycastQuality measure_anycast_quality(const Scenario& scenario,
                                       const cdn::AnycastCdn& cdn,
                                       const GroomingStudyConfig& config) {
  cdn::OdinBeacons beacons{&cdn, &scenario.latency, &scenario.clients, config.odin};
  Rng root{config.seed};
  Rng rng = root.fork("quality");

  std::vector<double> weights;
  weights.reserve(scenario.clients.size());
  for (traffic::PrefixId id = 0; id < scenario.clients.size(); ++id) {
    weights.push_back(scenario.clients.at(id).user_weight);
  }

  std::vector<stats::Weighted> gap_obs;
  double gap_sum = 0.0;
  double weight_sum = 0.0;
  for (int i = 0; i < config.sample_clients; ++i) {
    const auto id = static_cast<traffic::PrefixId>(rng.weighted_index(weights));
    cdn::BeaconResult r;
    if (!beacons.measure(id, config.measure_time, rng, r)) continue;
    const double gap = r.anycast.value() - r.best_unicast().value();
    const double w = scenario.clients.at(id).user_weight;
    gap_obs.push_back({gap, w});
    gap_sum += gap * w;
    weight_sum += w;
  }

  AnycastQuality q;
  const stats::WeightedCdf gaps{std::move(gap_obs)};
  if (!gaps.empty()) {
    q.mean_gap_ms = weight_sum > 0.0 ? gap_sum / weight_sum : 0.0;
    q.median_gap_ms = gaps.quantile(0.5);
    q.frac_within_10ms = gaps.fraction_at_most(10.0);
    q.frac_tail_50ms = gaps.fraction_above(50.0);
  }
  return q;
}

GroomingStudyResult run_grooming_study(const ScenarioConfig& base,
                                       const GroomingStudyConfig& config,
                                       std::span<const std::size_t> pop_counts) {
  GroomingStudyResult result;
  for (const std::size_t pops : pop_counts) {
    ScenarioConfig cfg = base;
    cfg.provider.pop_count = pops;
    auto scenario = Scenario::make(cfg);
    cdn::AnycastCdn cdn{&scenario->internet, &scenario->provider};

    GroomingDensityRow row;
    row.pop_count = pops;
    row.ungroomed = measure_anycast_quality(*scenario, cdn, config);

    cdn::AnycastGroomer groomer{&cdn, &scenario->latency, &scenario->clients,
                                config.grooming};
    const auto report = groomer.groom();
    row.grooming_steps = static_cast<int>(report.steps.size());
    row.gap_by_iteration = report.mean_gap_by_iteration;
    row.groomed = measure_anycast_quality(*scenario, cdn, config);
    result.rows.push_back(std::move(row));
  }
  return result;
}

}  // namespace bgpcmp::core
