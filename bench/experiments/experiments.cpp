// The paper's figures (Figs 1-5) and §3 experiments (E6-E17), one function
// each, and the registry `bgpcmp experiment` runs them from. Each function's
// comment names the paper artifact it reproduces and the shape to expect.
#include "experiments.h"

#include <array>
#include <cstdio>
#include <iterator>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bgpcmp/bgp/propagation.h"
#include "bgpcmp/bgp/rib.h"
#include "bgpcmp/cdn/anycast_cdn.h"
#include "bgpcmp/cdn/edge_fabric.h"
#include "bgpcmp/cdn/edge_fabric_controller.h"
#include "bgpcmp/core/availability.h"
#include "bgpcmp/core/csv.h"
#include "bgpcmp/core/degrade.h"
#include "bgpcmp/core/footprint.h"
#include "bgpcmp/core/grooming_study.h"
#include "bgpcmp/core/report.h"
#include "bgpcmp/core/scenario.h"
#include "bgpcmp/core/singlewan.h"
#include "bgpcmp/core/site_planning.h"
#include "bgpcmp/core/study_anycast.h"
#include "bgpcmp/core/study_pop.h"
#include "bgpcmp/core/study_wan.h"
#include "bgpcmp/core/tail.h"
#include "bgpcmp/exec/thread_pool.h"
#include "bgpcmp/measure/campaign.h"
#include "bgpcmp/measure/http.h"
#include "bgpcmp/stats/cdf.h"
#include "bgpcmp/stats/quantile.h"
#include "bgpcmp/stats/summary.h"
#include "bgpcmp/stats/table.h"
#include "bgpcmp/wan/tiers.h"
#include "bgpcmp/wan/transit_wan.h"

namespace bgpcmp::experiments {
namespace {

// E1 / Figure 1: traffic-weighted CDF of the median MinRTT difference between
// BGP's preferred egress route and the best alternate route, with the
// bootstrap-CI band, plus the §3.1 headline numbers (E11).
//
// Paper shape targets: the CDF mass sits near 0; median MinRTT is improvable
// by >= 5 ms for only 2-4% of traffic; for a visible share of traffic BGP is
// strictly better than every alternative.
void fig1_pop_routing(std::optional<double> days) {
  core::PopStudyConfig study_cfg;
  if (days) study_cfg.days = *days;

  std::fputs(core::banner("Figure 1: possible median latency improvement over BGP "
                          "by routing over alternate routes")
                 .c_str(),
             stdout);
  auto scenario = core::Scenario::make();
  const auto result = core::run_pop_study(*scenario, study_cfg);

  const auto point = result.fig1_cdf(core::PopStudyResult::Fig1Bound::Point);
  const auto lower = result.fig1_cdf(core::PopStudyResult::Fig1Bound::Lower);
  const auto upper = result.fig1_cdf(core::PopStudyResult::Fig1Bound::Upper);

  std::printf("<PoP,prefix> pairs: %zu, windows: %zu, observations: %zu\n\n",
              result.series.size(), result.windows.size(), point.count());
  std::fputs("Cum. fraction of traffic vs median MinRTT difference (ms)\n"
             "[BGP - Alternate]; positive = best alternate beats BGP\n\n",
             stdout);
  std::fputs(core::render_cdfs("diff_ms", {"cdf", "ci_lower", "ci_upper"},
                               {&point, &lower, &upper}, -10.0, 10.0, 21)
                 .c_str(),
             stdout);

  std::fputs("\nHeadlines (E11):\n", stdout);
  std::fputs(core::headline("traffic improvable by >= 5 ms (paper: 2-4%)",
                            100.0 * result.improvable_traffic_fraction(5.0), "%")
                 .c_str(),
             stdout);
  std::fputs(core::headline("traffic improvable by >= 1 ms",
                            100.0 * result.improvable_traffic_fraction(1.0), "%")
                 .c_str(),
             stdout);
  std::fputs(core::headline("traffic where BGP beats best alternate by >= 1 ms",
                            100.0 * point.fraction_at_most(-1.0), "%")
                 .c_str(),
             stdout);
  std::fputs(core::headline("traffic within +/- 2 ms of best alternate",
                            100.0 * (point.fraction_at_most(2.0) -
                                     point.fraction_at_most(-2.0)),
                            "%")
                 .c_str(),
             stdout);

  // Regional decomposition of the headline (not in the paper's figure, but
  // useful when judging which geographies drive the improvable tail).
  {
    std::map<topo::Region, std::pair<double, double>> by_region;  // improvable, total
    const auto& db = scenario->internet.city_db();
    for (const auto& s : result.series) {
      const auto region = db.at(scenario->clients.at(s.prefix).city).region;
      for (std::size_t w = 0; w < result.windows.size(); ++w) {
        by_region[region].second += s.volume[w];
        if (s.diff(w) >= 5.0) by_region[region].first += s.volume[w];
      }
    }
    std::fputs("\nImprovable (>=5 ms) traffic by client region:\n", stdout);
    for (const auto& [region, frac] : by_region) {
      if (frac.second <= 0.0) continue;
      std::fputs(core::headline(std::string(topo::region_name(region)),
                                100.0 * frac.first / frac.second, "%")
                     .c_str(),
                 stdout);
    }
  }

  if (const auto dir = core::csv_export_dir()) {
    core::write_series_csv(*dir + "/fig1.csv", "diff_ms",
                           {"cdf", "ci_lower", "ci_upper"},
                           {&point, &lower, &upper}, -10.0, 10.0, 81);
  }
}

// E2 / Figure 2: does direct peering explain BGP's good performance?
// CDFs of (best peering - best transit) and (best private - best public peer)
// median MinRTT differences, traffic-weighted.
//
// Paper shape targets: both curves tightly centered on 0 — transits perform
// about as well as peers, and public-exchange peers about as well as PNIs.
void fig2_peer_transit(std::optional<double> days) {
  core::PopStudyConfig study_cfg;
  if (days) study_cfg.days = *days;

  std::fputs(core::banner("Figure 2: peering vs transit, private vs public exchange")
                 .c_str(),
             stdout);
  auto scenario = core::Scenario::make();
  const auto result = core::run_pop_study(*scenario, study_cfg);

  const auto peer_transit = result.fig2_peer_vs_transit();
  const auto private_public = result.fig2_private_vs_public();

  std::printf("observations: peer-vs-transit %zu, private-vs-public %zu\n\n",
              peer_transit.count(), private_public.count());
  std::fputs("Cum. fraction of traffic vs median MinRTT difference (ms)\n"
             "negative = first class is faster\n\n",
             stdout);
  std::fputs(core::render_cdfs("diff_ms", {"peer_vs_transit", "private_vs_public"},
                               {&peer_transit, &private_public}, -10.0, 10.0, 21)
                 .c_str(),
             stdout);

  std::fputs("\nHeadlines:\n", stdout);
  std::fputs(core::headline("peer-vs-transit |diff| <= 2 ms share",
                            100.0 * (peer_transit.fraction_at_most(2.0) -
                                     peer_transit.fraction_at_most(-2.0)),
                            "%")
                 .c_str(),
             stdout);
  std::fputs(core::headline("private-vs-public |diff| <= 2 ms share",
                            100.0 * (private_public.fraction_at_most(2.0) -
                                     private_public.fraction_at_most(-2.0)),
                            "%")
                 .c_str(),
             stdout);
  std::fputs(core::headline("peer-vs-transit median diff", peer_transit.quantile(0.5),
                            "ms")
                 .c_str(),
             stdout);
  std::fputs(core::headline("private-vs-public median diff",
                            private_public.quantile(0.5), "ms")
                 .c_str(),
             stdout);

  if (const auto dir = core::csv_export_dir()) {
    core::write_series_csv(*dir + "/fig2.csv", "diff_ms",
                           {"peer_vs_transit", "private_vs_public"},
                           {&peer_transit, &private_public}, -10.0, 10.0, 81);
  }
}

// E3 / Figure 3: CCDF of (anycast - best unicast) latency per request, for
// Europe / World / United States.
//
// Paper shape targets: anycast within 10 ms of the best unicast for ~70% of
// requests globally; best unicast >= 100 ms faster for ~10% of requests;
// Europe tighter than the world at the head of the distribution.
void fig3_anycast_ccdf(std::optional<double> /*days*/) {
  std::fputs(core::banner("Figure 3: anycast vs best unicast front-end (CCDF of "
                          "requests)")
                 .c_str(),
             stdout);
  auto scenario = core::Scenario::make(core::ScenarioConfig::microsoft_like());
  cdn::AnycastCdn cdn{&scenario->internet, &scenario->provider};
  const auto result = core::run_anycast_study(*scenario, cdn);

  std::printf("requests: world %zu, europe %zu, us %zu\n\n",
              result.fig3_world.count(), result.fig3_europe.count(),
              result.fig3_us.count());
  std::fputs("CCDF of requests vs performance difference between anycast and\n"
             "best unicast (ms)\n\n",
             stdout);
  std::fputs(core::render_cdfs("gap_ms", {"europe", "world", "united_states"},
                               {&result.fig3_europe, &result.fig3_world,
                                &result.fig3_us},
                               0.0, 100.0, 21, /*ccdf=*/true)
                 .c_str(),
             stdout);

  std::fputs("\nHeadlines (§3.2.1):\n", stdout);
  std::fputs(core::headline("requests with anycast within 10 ms (paper: ~70%)",
                            100.0 * result.frac_within_10ms, "%")
                 .c_str(),
             stdout);
  std::fputs(core::headline("requests with best unicast >= 100 ms faster (paper: ~10%)",
                            100.0 * result.frac_unicast_100ms_faster, "%")
                 .c_str(),
             stdout);
  std::fputs(core::headline("requests with anycast >= 25 ms slower (paper: ~20%)",
                            100.0 * result.fig3_world.fraction_above(25.0), "%")
                 .c_str(),
             stdout);

  if (const auto dir = core::csv_export_dir()) {
    core::write_series_csv(*dir + "/fig3.csv", "gap_ms",
                           {"europe", "world", "united_states"},
                           {&result.fig3_europe, &result.fig3_world,
                            &result.fig3_us},
                           0.0, 100.0, 101, /*ccdf=*/true);
  }
}

// E4 / Figure 4: improvement over anycast from LDNS-granularity DNS
// redirection, per weighted /24, at the median and 75th percentile.
//
// Paper shape targets: the median improves for ~27% of queries but the
// prediction does *worse* than anycast for ~17% — redirection wins and loses
// at the same order of magnitude.
void fig4_dns_redirection(std::optional<double> /*days*/) {
  std::fputs(core::banner("Figure 4: DNS redirection vs anycast (CDF of weighted "
                          "/24s)")
                 .c_str(),
             stdout);
  auto scenario = core::Scenario::make(core::ScenarioConfig::microsoft_like());
  cdn::AnycastCdn cdn{&scenario->internet, &scenario->provider};
  const auto result = core::run_anycast_study(*scenario, cdn);

  std::printf("weighted /24s: %zu\n\n", result.fig4_median.count());
  std::fputs("CDF of weighted /24s vs improvement from following the DNS\n"
             "redirection decision (ms); positive = redirection beat anycast\n\n",
             stdout);
  std::fputs(core::render_cdfs("improvement_ms", {"median", "p75"},
                               {&result.fig4_median, &result.fig4_p75}, -100.0,
                               100.0, 21)
                 .c_str(),
             stdout);

  std::fputs("\nHeadlines (§3.2.1):\n", stdout);
  std::fputs(core::headline("/24s improved at median (paper: ~27%)",
                            100.0 * result.fig4_improved_fraction, "%")
                 .c_str(),
             stdout);
  std::fputs(core::headline("/24s made worse at median (paper: ~17%)",
                            100.0 * result.fig4_worse_fraction, "%")
                 .c_str(),
             stdout);

  if (const auto dir = core::csv_export_dir()) {
    core::write_series_csv(*dir + "/fig4.csv", "improvement_ms",
                           {"median", "p75"},
                           {&result.fig4_median, &result.fig4_p75}, -400.0,
                           400.0, 161);
  }
}

// E5 / Figure 5: per-country median latency difference, Standard Tier minus
// Premium Tier, to the US-Central data center (the paper's world map, printed
// as a table), plus the E12 ingress-distance headline.
//
// Paper shape targets: most NA/SA/EU countries within +/- 10 ms; Premium
// (private WAN) wins across most of Asia and Oceania; Standard (public
// Internet) wins for India and some Middle East countries; ~80% of Premium
// measurements enter the cloud within 400 km of the vantage vs ~10% for
// Standard.
void fig5_tier_map(std::optional<double> days) {
  core::WanStudyConfig cfg;
  if (days) cfg.campaign.days = *days;

  std::fputs(core::banner("Figure 5: Standard - Premium tier median latency by "
                          "country")
                 .c_str(),
             stdout);
  auto scenario = core::Scenario::make(core::ScenarioConfig::google_like());
  wan::CloudTiers tiers{&scenario->internet, &scenario->provider};
  const auto result = core::run_wan_study(*scenario, tiers, cfg);

  std::printf("samples: %zu total, %zu after the vantage filter "
              "(direct Premium peering, >=1 intermediate AS on Standard)\n\n",
              result.total_samples, result.filtered_samples);

  stats::Table table{{"country", "region", "median S-P (ms)", "samples", "verdict"}};
  for (const auto& row : result.countries) {
    const char* verdict = row.median_diff_ms > 10.0    ? "premium wins"
                          : row.median_diff_ms < -10.0 ? "standard wins"
                                                       : "comparable";
    table.add_row({row.country, std::string(topo::region_name(row.region)),
                   stats::fmt(row.median_diff_ms, 1), std::to_string(row.samples),
                   verdict});
  }
  std::fputs(table.render().c_str(), stdout);

  std::fputs("\nHeadlines:\n", stdout);
  std::fputs(core::headline("Premium measurements entering cloud within 400 km "
                            "(paper: ~80%)",
                            100.0 * result.premium_ingress_near_fraction, "%")
                 .c_str(),
             stdout);
  std::fputs(core::headline("Standard measurements entering cloud within 400 km "
                            "(paper: ~10%)",
                            100.0 * result.standard_ingress_near_fraction, "%")
                 .c_str(),
             stdout);
  bool found = false;
  const double india = result.country_diff("India", found);
  if (found) {
    std::fputs(core::headline("India median S-P (paper: negative, public Internet "
                              "wins)",
                              india, "ms", 1)
                   .c_str(),
               stdout);
  }

  if (const auto dir = core::csv_export_dir()) {
    std::vector<std::vector<std::string>> rows;
    for (const auto& row : result.countries) {
      rows.push_back({row.country, std::string(topo::region_name(row.region)),
                      stats::fmt(row.median_diff_ms, 2),
                      std::to_string(row.samples)});
    }
    core::write_csv(*dir + "/fig5.csv",
                    {"country", "region", "median_standard_minus_premium_ms",
                     "samples"},
                    rows);
  }
}

// E6 (§3.1.1): do all route options degrade together?
//
// Paper shape targets: (1) alternates usually match BGP's latency;
// (2) degradation windows on BGP's preferred path outnumber improvement
// opportunities; (3) most alternates that beat BGP do so persistently; and
// when the preferred path degrades, the alternates usually degrade too
// (shared destination-side congestion).
void e6_degrade_together(std::optional<double> days) {
  core::PopStudyConfig study_cfg;
  if (days) study_cfg.days = *days;

  std::fputs(core::banner("E6: degrade-together decomposition of the PoP study")
                 .c_str(),
             stdout);
  auto scenario = core::Scenario::make();
  const auto study = core::run_pop_study(*scenario, study_cfg);
  const auto result = core::analyze_degrade(study);

  std::printf("<PoP,prefix> pairs analyzed: %zu over %zu windows\n\n", result.pairs,
              study.windows.size());
  std::fputs("Improvement-pattern split (traffic-weighted):\n", stdout);
  std::fputs(core::headline("no opportunity (alternates never help)",
                            100.0 * result.traffic_no_opportunity, "%")
                 .c_str(),
             stdout);
  std::fputs(core::headline("persistent (an alternate is better nearly always)",
                            100.0 * result.traffic_persistent, "%")
                 .c_str(),
             stdout);
  std::fputs(core::headline("transient (alternates help occasionally)",
                            100.0 * result.traffic_transient, "%")
                 .c_str(),
             stdout);
  std::fputs("\nDegradation vs opportunity:\n", stdout);
  std::fputs(core::headline("windows where the BGP route was degraded",
                            100.0 * result.degraded_window_fraction, "%")
                 .c_str(),
             stdout);
  std::fputs(core::headline("windows where an alternate beat BGP by >= 5 ms",
                            100.0 * result.improvement_window_fraction, "%")
                 .c_str(),
             stdout);
  std::fputs(core::headline("degraded windows where ALL alternates degraded too",
                            100.0 * result.degrade_together_fraction, "%")
                 .c_str(),
             stdout);
  std::fputs(core::headline("improvable traffic mass from persistent pairs "
                            "(paper: most)",
                            100.0 * result.improvement_mass_persistent, "%")
                 .c_str(),
             stdout);
}

// E7 (§3.1.3): reduced-peering-footprint emulation.
//
// Sweeps the provider's peering fraction from 100% down to 10%, shifting the
// shed traffic onto the surviving interconnections (whose congestion rises
// accordingly) — the study the paper says cannot be run in production.
void e7_footprint_ablation(std::optional<double> days) {
  core::FootprintConfig cfg;
  cfg.study.days = days.value_or(2.0);

  std::fputs(core::banner("E7: reduced peering footprint ablation").c_str(), stdout);
  const double fractions[] = {1.0, 0.75, 0.5, 0.25, 0.1};
  const auto result =
      core::run_footprint_ablation(core::ScenarioConfig{}, cfg, fractions);

  stats::Table table{{"peering kept", "peer edges", "mean BGP RTT (ms)",
                      "p95 BGP RTT (ms)", "improvable >=5ms", "transit share"}};
  for (const auto& p : result.points) {
    table.add_row({stats::fmt(100.0 * p.peering_fraction, 0) + "%",
                   std::to_string(p.provider_peer_edges),
                   stats::fmt(p.mean_bgp_rtt_ms, 2), stats::fmt(p.p95_bgp_rtt_ms, 2),
                   stats::fmt(100.0 * p.improvable_frac_5ms, 2) + "%",
                   stats::fmt(100.0 * p.transit_preferred_fraction, 1) + "%"});
  }
  std::fputs(table.render().c_str(), stdout);
  std::fputs("\nReading: latency should degrade only mildly until the surviving\n"
             "links' induced congestion bites, while traffic shifts onto transit\n"
             "— quantifying how much latency headroom the peering footprint buys.\n",
             stdout);
}

// E8 (§3.2.2): nature vs nurture — ungroomed vs groomed anycast across PoP
// densities, with the per-iteration grooming trajectory.
void e8_grooming_ablation(std::optional<double> /*days*/) {
  core::GroomingStudyConfig cfg;

  std::fputs(core::banner("E8: anycast grooming — nature vs nurture").c_str(),
             stdout);
  const std::size_t pop_counts[] = {10, 18, 26, 34};
  const auto result = core::run_grooming_study(
      core::ScenarioConfig::microsoft_like(), cfg, pop_counts);

  stats::Table table{{"PoPs", "steps", "ungroomed mean gap", "groomed mean gap",
                      "ungroomed <=10ms", "groomed <=10ms", "ungroomed >=50ms",
                      "groomed >=50ms"}};
  for (const auto& row : result.rows) {
    table.add_row({std::to_string(row.pop_count), std::to_string(row.grooming_steps),
                   stats::fmt(row.ungroomed.mean_gap_ms, 2) + " ms",
                   stats::fmt(row.groomed.mean_gap_ms, 2) + " ms",
                   stats::fmt(100.0 * row.ungroomed.frac_within_10ms, 1) + "%",
                   stats::fmt(100.0 * row.groomed.frac_within_10ms, 1) + "%",
                   stats::fmt(100.0 * row.ungroomed.frac_tail_50ms, 1) + "%",
                   stats::fmt(100.0 * row.groomed.frac_tail_50ms, 1) + "%"});
  }
  std::fputs(table.render().c_str(), stdout);

  std::fputs("\nGrooming trajectory (weighted mean anycast-vs-best-unicast gap, ms):\n",
             stdout);
  for (const auto& row : result.rows) {
    std::printf("  %2zu PoPs:", row.pop_count);
    for (const double gap : row.gap_by_iteration) std::printf(" %6.2f", gap);
    std::printf("\n");
  }
  std::fputs("\nReading: the ungroomed-vs-groomed delta is 'nurture'; the density\n"
             "sweep shows how much of anycast quality the footprint ('nature')\n"
             "provides before any operator intervention.\n",
             stdout);
}

// E9 (§3.3.2): the single-WAN hypothesis — Internet paths perform best when
// most of the journey rides one large network — plus the Tier-1 late-exit
// ablation and the India case study.
void e9_single_wan(std::optional<double> /*days*/) {
  std::fputs(core::banner("E9: single-WAN fraction vs latency inflation").c_str(),
             stdout);
  auto scenario = core::Scenario::make(core::ScenarioConfig::google_like());
  wan::CloudTiers tiers{&scenario->internet, &scenario->provider};
  const auto result = core::run_single_wan_study(*scenario, tiers);

  stats::Table table{{"single-network fraction", "paths", "median RTT inflation"}};
  for (const auto& bin : result.bins) {
    table.add_row({"[" + stats::fmt(bin.lo, 1) + ", " + stats::fmt(bin.hi, 1) + ")",
                   std::to_string(bin.count),
                   bin.count > 0 ? stats::fmt(bin.median_inflation, 3) + "x" : "-"});
  }
  std::fputs(table.render().c_str(), stdout);

  std::fputs("\nHeadlines:\n", stdout);
  std::fputs(core::headline("correlation(single-WAN fraction, inflation) "
                            "(hypothesis: negative)",
                            result.correlation)
                 .c_str(),
             stdout);
  std::fputs(core::headline("median RTT saved if Tier-1s did late exit",
                            result.late_exit_median_improvement_ms, "ms")
                 .c_str(),
             stdout);
  std::printf("\nIndia case study (%zu sampled paths):\n", result.india_samples);
  std::fputs(core::headline("India premium median", result.india_premium_ms, "ms", 1)
                 .c_str(),
             stdout);
  std::fputs(
      core::headline("India standard median (paper: beats premium)",
                     result.india_standard_ms, "ms", 1)
          .c_str(),
      stdout);
  std::fputs(core::headline("world premium median", result.world_premium_ms, "ms", 1)
                 .c_str(),
             stdout);
  std::fputs(core::headline("world standard median", result.world_standard_ms, "ms", 1)
                 .c_str(),
             stdout);
}

// E10 (§4): beyond median performance — the improvable tail at multiple
// thresholds scaled to session counts, the upper quantiles of the Fig 1
// distribution, and the tier goodput ratio (the paper's 10 MB-download
// footnote).
void e10_beyond_median(std::optional<double> days) {
  core::PopStudyConfig study_cfg;
  study_cfg.days = days.value_or(3.0);

  std::fputs(core::banner("E10: beyond median performance").c_str(), stdout);
  auto scenario = core::Scenario::make();
  const auto study = core::run_pop_study(*scenario, study_cfg);

  // A short tier campaign for the goodput footnote.
  auto cloud_scenario = core::Scenario::make(core::ScenarioConfig::google_like());
  wan::CloudTiers tiers{&cloud_scenario->internet, &cloud_scenario->provider};
  measure::VantageFleet fleet{&cloud_scenario->clients};
  measure::CampaignConfig campaign_cfg;
  campaign_cfg.days = 3.0;
  measure::Campaign campaign{&tiers, &cloud_scenario->latency, &fleet,
                             &cloud_scenario->clients, campaign_cfg};
  Rng rng{9001};
  const auto samples = campaign.run(rng);

  const auto result = core::analyze_tail(study, samples);

  stats::Table table{{"threshold", "traffic improvable", "est. sessions (of 2e14)"}};
  for (const auto& row : result.rows) {
    char sessions[32];
    std::snprintf(sessions, sizeof(sessions), "%.2e", row.estimated_sessions);
    table.add_row({stats::fmt(row.threshold_ms, 0) + " ms",
                   stats::fmt(100.0 * row.traffic_fraction, 2) + "%", sessions});
  }
  std::fputs(table.render().c_str(), stdout);

  std::fputs("\nHeadlines:\n", stdout);
  std::fputs(core::headline("p95 of (BGP - best alternate)", result.p95_improvement_ms,
                            "ms")
                 .c_str(),
             stdout);
  std::fputs(core::headline("p99 of (BGP - best alternate)", result.p99_improvement_ms,
                            "ms")
                 .c_str(),
             stdout);
  std::fputs(core::headline("median goodput ratio premium/standard (paper: ~1, "
                            "'little difference')",
                            result.goodput_ratio_median, "x")
                 .c_str(),
             stdout);
}

/// One E11 egress policy's latency and interface-load tallies.
struct PolicyStats {
  std::vector<stats::Weighted> rtt;  ///< (RTT ms, volume) per plan-window
  double rtt_weighted_sum = 0.0;
  double weight_sum = 0.0;
  std::size_t overloaded_link_windows = 0;
  double detoured_fraction_sum = 0.0;
};

// E11 (extension; §2.2/§3.1 context): what Edge Fabric actually buys.
//
// The §3.1 dataset compares BGP against an omniscient latency oracle and
// finds little headroom. But Edge Fabric was not built to chase latency — it
// keeps egress interfaces below capacity. This experiment runs three egress
// policies over the same two days of demand:
//
//   static-bgp    always BGP's preferred route (no controller);
//   edge-fabric   capacity-aware detouring (the real system's loop);
//   oracle        per-window latency minimizer (the paper's comparator).
//
// Latency accounting includes the self-induced queueing of whatever load each
// policy puts on each interface, so overloading the preferred PNI hurts.
void e11_edge_fabric(std::optional<double> days) {
  std::fputs(core::banner("E11: static BGP vs Edge Fabric vs latency oracle")
                 .c_str(),
             stdout);
  auto scenario = core::Scenario::make();
  const auto& g = scenario->internet.graph;
  const auto& db = scenario->internet.city_db();

  // Plan every prefix like the Fig 1 study: rank the egress options the
  // provider hears toward the client's origin (its Adj-RIB-in), then realize
  // each option's path.
  std::vector<cdn::EdgeFabricController::PrefixPlan> plans;
  std::vector<std::vector<lat::GeoPath>> paths;  // parallel to plans
  for (traffic::PrefixId id = 0; id < scenario->clients.size(); ++id) {
    const auto& client = scenario->clients.at(id);
    const auto pop = scenario->provider.serving_pop(g, db, client.origin_as,
                                                    client.city);
    const auto rib = bgp::adj_rib_in(g, bgp::OriginSpec::everywhere(client.origin_as),
                                     scenario->provider.as_index());
    auto options = cdn::edge_fabric::rank_by_policy(
        g, scenario->provider.egress_options(g, rib, pop));
    if (options.empty()) continue;
    if (options.size() > 3) options.resize(3);
    cdn::EdgeFabricController::PrefixPlan plan;
    plan.prefix = id;
    plan.pop = pop;
    std::vector<lat::GeoPath> plan_paths;
    for (const auto& opt : options) {
      auto path = cdn::edge_fabric::egress_path(
          g, db, scenario->provider.as_index(), scenario->provider.pop(pop), opt,
          client.city);
      if (!path.valid()) continue;
      plan.options.push_back(opt);
      plan_paths.push_back(std::move(path));
    }
    if (plan.options.empty()) continue;
    plans.push_back(std::move(plan));
    paths.push_back(std::move(plan_paths));
  }
  std::printf("prefixes planned: %zu\n\n", plans.size());

  cdn::EdgeFabricController controller{&g, &scenario->demand, plans};
  const auto& cplans = controller.plans();
  const double limit = 0.95;

  PolicyStats stats_bgp;
  PolicyStats stats_ef;
  PolicyStats stats_oracle;
  const auto windows = fifteen_minute_grid(days.value_or(2.0));

  for (std::size_t w = 0; w < windows.size(); w += 2) {
    const SimTime t = windows[w].midpoint();
    std::vector<double> volume(cplans.size());
    std::vector<double> base(cplans.size() * 3, 0.0);  // rtt per (plan, option)
    for (std::size_t i = 0; i < cplans.size(); ++i) {
      const auto& client = scenario->clients.at(cplans[i].prefix);
      volume[i] = scenario->demand.volume(cplans[i].prefix, t).value();
      for (std::size_t r = 0; r < cplans[i].options.size(); ++r) {
        base[i * 3 + r] = scenario->latency
                              .rtt(paths[i][r], t, client.access,
                                   client.origin_as, client.city)
                              .total()
                              .value();
      }
    }

    // Choice per policy: option index per plan.
    const auto ef_decision = controller.run_cycle(t);
    auto evaluate = [&](auto choose, PolicyStats& out, double* detoured) {
      std::map<topo::LinkId, double> load;
      std::vector<std::size_t> choice(cplans.size());
      double moved = 0.0;
      double total = 0.0;
      for (std::size_t i = 0; i < cplans.size(); ++i) {
        choice[i] = choose(i);
        load[cplans[i].options[choice[i]].link] += volume[i];
        total += volume[i];
        if (choice[i] != 0) moved += volume[i];
      }
      // Self-induced queueing on each interface.
      std::map<topo::LinkId, double> extra;
      for (const auto& [link, bytes] : load) {
        const double util =
            bytes / (g.link(link).capacity.value() * controller.bytes_per_gbps());
        extra[link] =
            lat::queueing_delay(util, scenario->congestion.config()).value();
        if (util > limit) ++out.overloaded_link_windows;
      }
      for (std::size_t i = 0; i < cplans.size(); ++i) {
        const auto link = cplans[i].options[choice[i]].link;
        const double ms = base[i * 3 + choice[i]] + extra[link];
        out.rtt.push_back({ms, volume[i]});
        out.rtt_weighted_sum += ms * volume[i];
        out.weight_sum += volume[i];
      }
      if (detoured != nullptr && total > 0.0) *detoured += moved / total;
    };

    evaluate([](std::size_t) { return std::size_t{0}; }, stats_bgp, nullptr);
    evaluate(
        [&](std::size_t i) { return ef_decision.assignments[i].route_index; },
        stats_ef, &stats_ef.detoured_fraction_sum);
    evaluate(
        [&](std::size_t i) {
          std::size_t best = 0;
          for (std::size_t r = 1; r < cplans[i].options.size(); ++r) {
            if (base[i * 3 + r] < base[i * 3 + best]) best = r;
          }
          return best;
        },
        stats_oracle, &stats_oracle.detoured_fraction_sum);
  }

  const double n_windows = static_cast<double>((windows.size() + 1) / 2);
  stats::Table table{{"policy", "mean RTT", "p50", "p99", "overloaded link-windows",
                      "traffic off preferred"}};
  auto row = [&](const char* name, PolicyStats& s) {
    const double mean = s.weight_sum > 0.0 ? s.rtt_weighted_sum / s.weight_sum : 0.0;
    const stats::WeightedCdf rtt{std::move(s.rtt)};
    table.add_row({name, stats::fmt(mean, 2) + " ms",
                   stats::fmt(rtt.quantile(0.5), 2) + " ms",
                   stats::fmt(rtt.quantile(0.99), 2) + " ms",
                   std::to_string(s.overloaded_link_windows),
                   stats::fmt(100.0 * s.detoured_fraction_sum / n_windows, 2) + "%"});
  };
  row("static-bgp", stats_bgp);
  row("edge-fabric", stats_ef);
  row("oracle-latency", stats_oracle);
  std::fputs(table.render().c_str(), stdout);

  std::fputs("\nReading: Edge Fabric's job is the overload column, not the "
             "latency columns — matching the paper's claim that the latency "
             "gap between BGP and even an omniscient oracle is small.\n",
             stdout);
}

// E13 (§4): availability under a front-end failure — anycast resilience vs
// DNS-cache-induced outages.
//
// Paper shape targets: "anycast provides resilience against site outages and
// avoids availability problems that can be induced by DNS caching" — anycast
// users should be dark for BGP-convergence seconds, DNS-pinned users for
// TTL + controller-reaction minutes.
void e12_availability(std::optional<double> /*days*/) {
  std::fputs(core::banner("E13: site failure — anycast vs DNS redirection "
                          "availability")
                 .c_str(),
             stdout);
  auto scenario = core::Scenario::make(core::ScenarioConfig::microsoft_like());
  cdn::AnycastCdn cdn{&scenario->internet, &scenario->provider};
  const core::AvailabilityConfig cfg;
  const auto result = core::run_availability_study(*scenario, cdn, cfg);

  const auto& db = scenario->internet.city_db();
  std::printf("failed front-end: %s (the busiest catchment)\n\n",
              db.at(scenario->provider.pop(result.failed_pop).city).name.data());

  std::fputs("Affected users (weight share):\n", stdout);
  std::fputs(core::headline("anycast scheme", 100.0 * result.anycast_affected_fraction,
                            "%")
                 .c_str(),
             stdout);
  std::fputs(core::headline("DNS redirection scheme",
                            100.0 * result.dns_affected_fraction, "%")
                 .c_str(),
             stdout);

  std::fputs("\nExpected unreachable time per user (outage cost):\n", stdout);
  std::fputs(core::headline("anycast (BGP re-convergence)",
                            result.anycast_outage_user_seconds, "s")
                 .c_str(),
             stdout);
  std::fputs(core::headline("DNS redirection (TTL + controller reaction)",
                            result.dns_outage_user_seconds, "s")
                 .c_str(),
             stdout);
  if (result.anycast_outage_user_seconds > 0.0) {
    std::fputs(core::headline("DNS / anycast outage ratio",
                              result.dns_outage_user_seconds /
                                  result.anycast_outage_user_seconds,
                              "x")
                   .c_str(),
               stdout);
  }

  std::fputs("\nAfter failover:\n", stdout);
  std::fputs(core::headline("anycast median latency penalty",
                            result.anycast_failover_penalty_ms, "ms")
                 .c_str(),
             stdout);
  std::fputs(core::headline("DNS users recovered by the next decision",
                            100.0 * result.dns_recovered_fraction, "%")
                 .c_str(),
             stdout);
  std::fputs("\nReading: latency is only one axis — the paper's §4 point that "
             "anycast's limited control buys real availability.\n",
             stdout);
}

// E14 (§3.1's unshown figure): "We find qualitatively similar results for
// bandwidth (not shown)."
//
// Same <PoP, prefix, route> structure as Fig 1, but the metric is what a
// client session experiences: modeled TCP goodput of a 10 MB transfer over
// each route (RTT from the latency model, bottleneck = min(client access
// rate, tightest crossed link's headroom)). CDF of (best alternate - BGP
// preferred) goodput, traffic-weighted. Shape target: mass at 0, mirroring
// Fig 1 — the session bottleneck is shared, so alternates rarely deliver
// more bytes per second.
void e14_bandwidth(std::optional<double> days) {
  std::fputs(core::banner("E14: available bandwidth — BGP vs best alternate "
                          "(the paper's unshown figure)")
                 .c_str(),
             stdout);
  auto scenario = core::Scenario::make();
  const auto& g = scenario->internet.graph;
  const auto& db = scenario->internet.city_db();

  // Plan routes exactly like the Fig 1 study: from the provider's Adj-RIB-in
  // toward each client's origin.
  struct Plan {
    traffic::PrefixId prefix;
    std::vector<lat::GeoPath> paths;  // [0] = BGP preferred
  };
  std::vector<Plan> plans;
  for (traffic::PrefixId id = 0; id < scenario->clients.size(); ++id) {
    const auto& client = scenario->clients.at(id);
    const auto pop = scenario->provider.serving_pop(g, db, client.origin_as,
                                                    client.city);
    const auto rib = bgp::adj_rib_in(g, bgp::OriginSpec::everywhere(client.origin_as),
                                     scenario->provider.as_index());
    auto options = cdn::edge_fabric::rank_by_policy(
        g, scenario->provider.egress_options(g, rib, pop));
    if (options.size() < 2) continue;
    if (options.size() > 3) options.resize(3);
    Plan plan;
    plan.prefix = id;
    for (const auto& opt : options) {
      auto path = cdn::edge_fabric::egress_path(
          g, db, scenario->provider.as_index(), scenario->provider.pop(pop), opt,
          client.city);
      if (path.valid()) plan.paths.push_back(std::move(path));
    }
    if (plan.paths.size() >= 2) plans.push_back(std::move(plan));
  }

  // Per-session goodput of one route: TCP model with the route's RTT and a
  // bottleneck set by the client's access rate or the route's tightest-link
  // headroom, whichever is smaller.
  constexpr double kAccessMbps = 200.0;
  constexpr double kDownloadBytes = 10.0e6;
  auto session_goodput = [&](const Plan& plan, std::size_t r, SimTime t) {
    const auto& client = scenario->clients.at(plan.prefix);
    const auto rtt = scenario->latency
                         .rtt(plan.paths[r], t, client.access, client.origin_as,
                              client.city)
                         .total();
    measure::TcpModelConfig tcp;
    const double headroom_mbps =
        scenario->latency.available_bandwidth(plan.paths[r], t, 400.0).value() *
        1000.0;
    tcp.bottleneck_mbps = std::min(kAccessMbps, headroom_mbps);
    return measure::goodput_mbps(kDownloadBytes, rtt, tcp);
  };

  std::vector<stats::Weighted> diff_obs;  // best alternate - preferred, Mbps
  const auto windows = fifteen_minute_grid(days.value_or(2.0));
  for (std::size_t w = 0; w < windows.size(); w += 4) {
    const SimTime t = windows[w].midpoint();
    for (const auto& plan : plans) {
      const double volume = scenario->demand.volume(plan.prefix, t).value();
      const double preferred = session_goodput(plan, 0, t);
      double best_alt = 0.0;
      for (std::size_t r = 1; r < plan.paths.size(); ++r) {
        best_alt = std::max(best_alt, session_goodput(plan, r, t));
      }
      diff_obs.push_back({best_alt - preferred, volume});
    }
  }
  const stats::WeightedCdf diff{std::move(diff_obs)};

  std::printf("<PoP,prefix> pairs: %zu, observations: %zu\n\n", plans.size(),
              diff.count());
  std::fputs("CDF of traffic vs per-session goodput difference (Mbps)\n"
             "[best alternate - BGP preferred]; positive = an alternate "
             "delivers more\n\n",
             stdout);
  std::fputs(core::render_cdfs("diff_mbps", {"cdf"}, {&diff}, -50.0, 50.0, 21)
                 .c_str(),
             stdout);
  std::fputs("\nHeadlines (paper: 'qualitatively similar results for "
             "bandwidth'):\n",
             stdout);
  std::fputs(core::headline("traffic where an alternate adds >= 10 Mbps",
                            100.0 * diff.fraction_above(10.0), "%")
                 .c_str(),
             stdout);
  std::fputs(core::headline("traffic where BGP's route delivers >= 10 Mbps more",
                            100.0 * diff.fraction_at_most(-10.0), "%")
                 .c_str(),
             stdout);
  std::fputs(core::headline("traffic within +/- 10 Mbps (comparable goodput)",
                            100.0 * (diff.fraction_at_most(10.0) -
                                     diff.fraction_at_most(-10.0)),
                            "%")
                 .c_str(),
             stdout);
}

// E15 (§3.2.2): CDN site planning — the diminishing-returns curve of PoP
// density and how well a new site's benefit can be predicted from geometry.
void e15_site_planning(std::optional<double> /*days*/) {
  std::fputs(core::banner("E15: CDN site planning — density sweep and "
                          "site-addition prediction")
                 .c_str(),
             stdout);
  core::SitePlanningConfig cfg;
  const std::size_t counts[] = {6, 10, 16, 24, 34, 44};
  const auto result = core::run_site_planning(
      core::ScenarioConfig::microsoft_like(), cfg, counts);

  std::fputs("PoP-density sweep (ungroomed anycast):\n", stdout);
  stats::Table density{{"PoPs", "median gap", "p90 gap", "median catchment"}};
  for (const auto& p : result.density) {
    density.add_row({std::to_string(p.pop_count),
                     stats::fmt(p.median_gap_ms, 2) + " ms",
                     stats::fmt(p.p90_gap_ms, 2) + " ms",
                     stats::fmt(p.median_catchment_km, 0) + " km"});
  }
  std::fputs(density.render().c_str(), stdout);

  std::fputs("\nSite-addition ablation (one candidate metro at a time):\n",
             stdout);
  const topo::CityDb& db = topo::CityDb::world();
  stats::Table add{{"candidate", "predicted gain", "actual gain",
                    "catchment share"}};
  for (const auto& row : result.additions) {
    add.add_row({std::string(db.at(row.candidate).name),
                 stats::fmt(row.predicted_improvement_ms, 3) + " ms",
                 stats::fmt(row.actual_improvement_ms, 3) + " ms",
                 stats::fmt(100.0 * row.catchment_shift, 1) + "%"});
  }
  std::fputs(add.render().c_str(), stdout);
  std::fputs("\n", stdout);
  std::fputs(core::headline("predicted-vs-actual correlation "
                            "(paper asks: how well can it be predicted?)",
                            result.prediction_correlation)
                 .c_str(),
             stdout);
  std::fputs("\nReading: the density curve flattens (diminishing returns) and "
             "geometric predictions rank candidates usefully but miss the "
             "BGP-catchment effects — both answers to §3.2.2's questions.\n",
             stdout);
}

// E16 (§3.3.2): "Does the public Internet performance observed to Google
// cloud data centers depend on Google paying Tier-1 providers for high-end
// service, or do we observe similar performance to other destinations? ...
// it is also possible that a route will often stay on a single large network
// for most of the way towards Google simply as an artifact of standard
// valley-free BGP policy."
//
// Test: compare vantage paths toward the cloud's Standard-tier announcement
// against paths toward ordinary stub networks homed in the same metro. If
// inflation and single-network fractions look alike, the cloud gets nothing
// special from the Tier-1s — valley-free policy alone produces the
// single-WAN-carries-it-most-of-the-way behavior.
void e16_valley_free(std::optional<double> /*days*/) {
  std::fputs(core::banner("E16: is public-Internet performance to the cloud "
                          "special, or valley-free physics?")
                 .c_str(),
             stdout);
  auto scenario = core::Scenario::make(core::ScenarioConfig::google_like());
  const auto& g = scenario->internet.graph;
  const auto& db = scenario->internet.city_db();
  wan::CloudTiers tiers{&scenario->internet, &scenario->provider};
  const SimTime t = SimTime::hours(12);

  // Ordinary destinations: stubs homed within 800 km of the DC metro.
  std::vector<topo::AsIndex> ordinary;
  for (const auto st : scenario->internet.stubs) {
    if (db.distance(g.node(st).hub, tiers.dc_city()).value() <= 800.0) {
      ordinary.push_back(st);
    }
  }
  std::printf("ordinary destinations near the DC: %zu stubs; cloud destination: "
              "Standard tier at %s\n\n",
              ordinary.size(), db.at(tiers.dc_city()).name.data());
  if (ordinary.empty()) {
    std::fputs("no stub near the DC in this world; nothing to compare\n", stdout);
    return;
  }
  std::vector<bgp::RouteTable> ordinary_tables;
  ordinary_tables.reserve(ordinary.size());
  for (const auto st : ordinary) {
    ordinary_tables.push_back(bgp::compute_routes(g, st));
  }

  // Weighted vantage sample; for each, inflation (RTT / geodesic floor) and
  // largest-single-network fraction toward both destination kinds.
  std::vector<double> cloud_inflation;
  std::vector<double> cloud_fraction;
  std::vector<double> ordinary_inflation;
  std::vector<double> ordinary_fraction;
  Rng rng{16001};
  std::vector<double> weights;
  for (traffic::PrefixId id = 0; id < scenario->clients.size(); ++id) {
    weights.push_back(scenario->clients.at(id).user_weight);
  }
  for (int i = 0; i < 600; ++i) {
    const auto id = static_cast<traffic::PrefixId>(rng.weighted_index(weights));
    const auto& client = scenario->clients.at(id);
    const double floor_ms =
        rtt_floor(db.distance(client.city, tiers.dc_city())).value() +
        client.access.base_rtt_ms;
    if (floor_ms <= 1.0) continue;

    const auto stan = tiers.standard(client);
    if (stan.valid()) {
      const double ms =
          tiers.rtt(stan, scenario->latency, t, client).value();
      cloud_inflation.push_back(ms / floor_ms);
      cloud_fraction.push_back(
          wan::largest_single_network_fraction(stan.access_path));
    }

    const std::size_t k = rng.index(ordinary.size());
    const auto& table = ordinary_tables[k];
    if (!table.reachable(client.origin_as)) continue;
    const auto as_path = table.path(client.origin_as);
    const auto dest_hub = g.node(ordinary[k]).hub;
    const auto path = lat::build_geo_path(g, db, as_path, client.city, dest_hub);
    if (!path.valid()) continue;
    const double floor2 =
        rtt_floor(db.distance(client.city, dest_hub)).value() +
        client.access.base_rtt_ms;
    if (floor2 <= 1.0) continue;
    const double ms = scenario->latency
                          .rtt(path, t, client.access, client.origin_as, client.city)
                          .total()
                          .value();
    ordinary_inflation.push_back(ms / floor2);
    ordinary_fraction.push_back(wan::largest_single_network_fraction(path));
  }

  std::fputs("Latency inflation over the geodesic floor (median / p90):\n", stdout);
  std::fputs(core::headline("to the cloud (Standard tier)",
                            stats::median(cloud_inflation), "x")
                 .c_str(),
             stdout);
  std::fputs(core::headline("to ordinary stubs in the same metro",
                            stats::median(ordinary_inflation), "x")
                 .c_str(),
             stdout);
  std::fputs(core::headline("cloud p90", stats::quantile(cloud_inflation, 0.9), "x")
                 .c_str(),
             stdout);
  std::fputs(core::headline("ordinary p90",
                            stats::quantile(ordinary_inflation, 0.9), "x")
                 .c_str(),
             stdout);
  std::fputs("\nFraction of the journey on the largest single network (median):\n",
             stdout);
  std::fputs(core::headline("to the cloud", stats::median(cloud_fraction)).c_str(),
             stdout);
  std::fputs(core::headline("to ordinary stubs", stats::median(ordinary_fraction))
                 .c_str(),
             stdout);
  std::fputs("\nReading: the model gives the cloud no preferential Tier-1 "
             "treatment, so matching inflation here shows valley-free policy "
             "alone reproduces the 'single WAN carries it most of the way' "
             "behavior — the paper's alternative hypothesis.\n",
             stdout);
}

/// The headline numbers of one master seed's world (E17).
struct SeedHeadlines {
  double frac5 = 0.0;
  double band10 = 0.0;
  double any10 = 0.0;
  double any25 = 0.0;
};

// E17 (robustness): the reproduction's headline claims across independent
// random worlds. A single calibrated seed could overfit; this sweep rebuilds
// the whole Internet from different master seeds and re-measures the Fig 1
// and Fig 3 headlines.
void e17_seed_sweep(std::optional<double> days) {
  std::fputs(core::banner("E17: headline robustness across master seeds").c_str(),
             stdout);

  const std::uint64_t seeds[] = {1, 7, 42, 2026, 31337};
  const std::size_t n_seeds = std::size(seeds);
  // Each seed's world is built once through the WorldCache and shared by both
  // provider scenarios (the Microsoft-like run below reuses the same
  // InternetConfig, so its make_cached is a hit, not a second build). Worlds
  // fan out over the exec pool — the cache's per-key futures keep distinct
  // seeds building concurrently. Results are collected in seed order: output
  // is identical at any width.
  const auto rows = exec::parallel_map(n_seeds, [&](std::size_t s) {
    const std::uint64_t seed = seeds[s];
    auto scenario =
        core::Scenario::make_cached(core::ScenarioConfig::with_master_seed(seed));
    core::PopStudyConfig pcfg;
    pcfg.days = days.value_or(1.0);
    const auto pop = core::run_pop_study(*scenario, pcfg);
    const auto cdf = pop.fig1_cdf();

    SeedHeadlines row;
    row.frac5 = pop.improvable_traffic_fraction(5.0);
    row.band10 = cdf.fraction_at_most(10.0) - cdf.fraction_at_most(-10.0);

    // The Fig 3 population on a Microsoft-like provider in the same world.
    auto ms_cfg = core::ScenarioConfig::microsoft_like();
    ms_cfg.internet = scenario->config.internet;  // same Internet, 2015 CDN
    auto ms = core::Scenario::make_cached(ms_cfg);  // cache hit: same world key
    cdn::AnycastCdn cdn{&ms->internet, &ms->provider};
    core::AnycastStudyConfig acfg;
    acfg.beacon_rounds = 2;
    acfg.eval_windows = 2;
    const auto anycast = core::run_anycast_study(*ms, cdn, acfg);
    row.any10 = anycast.frac_within_10ms;
    row.any25 = anycast.fig3_world.fraction_above(25.0);
    return row;
  });

  stats::Table table{{"seed", "fig1 improvable >=5ms", "fig1 within +/-10ms",
                      "fig3 within 10ms", "fig3 >=25ms"}};
  stats::Summary improvable;
  stats::Summary within10;
  stats::Summary any10;
  stats::Summary any25;
  for (std::size_t s = 0; s < n_seeds; ++s) {
    const SeedHeadlines& row = rows[s];
    table.add_row({std::to_string(seeds[s]), stats::fmt(100.0 * row.frac5, 2) + "%",
                   stats::fmt(100.0 * row.band10, 1) + "%",
                   stats::fmt(100.0 * row.any10, 1) + "%",
                   stats::fmt(100.0 * row.any25, 1) + "%"});
    improvable.add(100.0 * row.frac5);
    within10.add(100.0 * row.band10);
    any10.add(100.0 * row.any10);
    any25.add(100.0 * row.any25);
  }
  std::fputs(table.render().c_str(), stdout);
  std::fputs("\nAcross seeds:\n", stdout);
  std::printf("fig1 improvable >=5 ms: %s (paper: 2-4%%)\n",
              improvable.str().c_str());
  std::printf("fig1 within +/-10 ms:   %s\n", within10.str().c_str());
  std::printf("fig3 within 10 ms:      %s (paper: ~70%%)\n", any10.str().c_str());
  std::printf("fig3 >=25 ms:           %s (paper: ~20%%)\n", any25.str().c_str());
  std::fputs("\nReading: the qualitative claims are properties of the model, "
             "not of one lucky seed.\n",
             stdout);
}

constexpr std::array<Experiment, 16> kRegistry{{
    {"fig1_pop_routing", /*takes_days=*/true, &fig1_pop_routing},
    {"fig2_peer_transit", /*takes_days=*/true, &fig2_peer_transit},
    {"fig3_anycast_ccdf", /*takes_days=*/false, &fig3_anycast_ccdf},
    {"fig4_dns_redirection", /*takes_days=*/false, &fig4_dns_redirection},
    {"fig5_tier_map", /*takes_days=*/true, &fig5_tier_map},
    {"e6_degrade_together", /*takes_days=*/true, &e6_degrade_together},
    {"e7_footprint_ablation", /*takes_days=*/true, &e7_footprint_ablation},
    {"e8_grooming_ablation", /*takes_days=*/false, &e8_grooming_ablation},
    {"e9_single_wan", /*takes_days=*/false, &e9_single_wan},
    {"e10_beyond_median", /*takes_days=*/true, &e10_beyond_median},
    {"e11_edge_fabric", /*takes_days=*/true, &e11_edge_fabric},
    {"e12_availability", /*takes_days=*/false, &e12_availability},
    {"e14_bandwidth", /*takes_days=*/true, &e14_bandwidth},
    {"e15_site_planning", /*takes_days=*/false, &e15_site_planning},
    {"e16_valley_free", /*takes_days=*/false, &e16_valley_free},
    {"e17_seed_sweep", /*takes_days=*/true, &e17_seed_sweep},
}};

}  // namespace

std::span<const Experiment> registry() { return kRegistry; }

}  // namespace bgpcmp::experiments
