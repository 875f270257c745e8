#include "bgpcmp/core/study_anycast.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "bgpcmp/cdn/odin.h"
#include "bgpcmp/exec/thread_pool.h"
#include "bgpcmp/latency/rtt_sampler.h"
#include "bgpcmp/stats/quantile.h"

namespace bgpcmp::core {

AnycastStudyResult run_anycast_study(const Scenario& scenario,
                                     const cdn::AnycastCdn& cdn,
                                     const AnycastStudyConfig& config) {
  const topo::CityDb& db = scenario.internet.city_db();
  cdn::OdinBeacons beacons{&cdn, &scenario.latency, &scenario.clients, config.odin};
  Rng root{config.seed};

  // ---- Fig 3: per-request anycast vs best unicast -----------------------
  std::vector<stats::Weighted> world;
  std::vector<stats::Weighted> europe;
  std::vector<stats::Weighted> us;
  {
    // Warm-then-plan (docs/PARALLELISM.md): the deterministic halves of all
    // beacons — route resolution and base RTTs — fan out over the pool; the
    // noise draws then replay serially in the historical (client, round)
    // order, so the stream consumed from `rng` is byte-identical to the old
    // all-in-one loop at any thread count.
    const auto plans = exec::parallel_map(
        scenario.clients.size(), [&](std::size_t id) {
          std::vector<cdn::BeaconPlan> rounds;
          rounds.reserve(static_cast<std::size_t>(config.beacon_rounds));
          for (int round = 0; round < config.beacon_rounds; ++round) {
            const SimTime t = SimTime::hours(6.0 * (round + 1));
            rounds.push_back(beacons.plan(static_cast<traffic::PrefixId>(id), t));
          }
          return rounds;
        });
    Rng rng = root.fork("fig3");
    for (traffic::PrefixId id = 0; id < scenario.clients.size(); ++id) {
      const auto& client = scenario.clients.at(id);
      const double request_weight = scenario.demand.popularity(id);
      for (int round = 0; round < config.beacon_rounds; ++round) {
        cdn::BeaconResult beacon;
        if (!beacons.sample(plans[id][static_cast<std::size_t>(round)], rng, beacon)) {
          continue;
        }
        const double gap = beacon.anycast.value() - beacon.best_unicast().value();
        world.push_back({gap, request_weight});
        const auto& city = db.at(client.city);
        if (city.region == topo::Region::Europe) europe.push_back({gap, request_weight});
        if (city.country == "United States") us.push_back({gap, request_weight});
      }
    }
  }

  // ---- Fig 4: LDNS-granularity DNS redirection vs anycast ----------------
  std::vector<stats::Weighted> fig4_median;
  std::vector<stats::Weighted> fig4_p75;
  double improved_weight = 0.0;
  double worse_weight = 0.0;
  double total_weight = 0.0;
  {
    cdn::DnsRedirector redirector{&cdn, &beacons, &scenario.clients, config.dns};
    const auto clusters = redirector.build_clusters();
    const lat::RttSampler sampler;
    Rng rng = root.fork("fig4");
    constexpr double kEps = 1.0;  // ms; deadband around "no change"

    // Per-member deterministic work for one cluster whose decision picked
    // unicast: routes resolved once (they do not vary across windows) and
    // base RTTs computed per window.
    struct MemberPlan {
      bool valid = false;           ///< both routes valid; false => no draws
      std::vector<double> any_base;  ///< per-window anycast base RTT (ms)
      std::vector<double> uni_base;  ///< per-window unicast base RTT (ms)
    };

    for (const auto& cluster : clusters) {
      // The decision draws from the shared stream, so clusters stay serial;
      // within a cluster the per-member per-window base RTTs fan out over the
      // pool before the (serial) noise draws, preserving the historical
      // decide(c), samples(c), decide(c+1), ... draw order exactly.
      const auto decision = redirector.decide(cluster, config.decision_time, rng);
      std::vector<MemberPlan> plans;
      if (decision.use_unicast) {
        plans = exec::parallel_map(cluster.members.size(), [&](std::size_t mi) {
          const auto& client = scenario.clients.at(cluster.members[mi]);
          MemberPlan plan;
          const auto anycast = cdn.anycast_route(client);
          const auto unicast = cdn.unicast_route(client, decision.pop);
          if (!anycast.valid() || !unicast.valid()) return plan;
          plan.valid = true;
          plan.any_base.reserve(static_cast<std::size_t>(config.eval_windows));
          plan.uni_base.reserve(static_cast<std::size_t>(config.eval_windows));
          for (int w = 0; w < config.eval_windows; ++w) {
            const SimTime t =
                config.decision_time +
                SimTime{config.eval_window_spacing.seconds() * (w + 1)};
            plan.any_base.push_back(scenario.latency
                                        .rtt(anycast.path, t, client.access,
                                             client.origin_as, client.city)
                                        .total()
                                        .value());
            plan.uni_base.push_back(scenario.latency
                                        .rtt(unicast, t, client.access,
                                             client.origin_as, client.city)
                                        .total()
                                        .value());
          }
          return plan;
        });
      }
      for (std::size_t mi = 0; mi < cluster.members.size(); ++mi) {
        const auto member = cluster.members[mi];
        const auto& client = scenario.clients.at(member);
        std::vector<double> improvements;
        improvements.reserve(static_cast<std::size_t>(config.eval_windows));
        if (!decision.use_unicast) {
          // Redirected to anycast: no change, and no draws.
          improvements.assign(static_cast<std::size_t>(config.eval_windows), 0.0);
        } else if (plans[mi].valid) {
          for (int w = 0; w < config.eval_windows; ++w) {
            const auto wi = static_cast<std::size_t>(w);
            const auto any_ms =
                sampler.sample_ping(Milliseconds{plans[mi].any_base[wi]}, rng);
            const auto uni_ms =
                sampler.sample_ping(Milliseconds{plans[mi].uni_base[wi]}, rng);
            improvements.push_back(any_ms.value() - uni_ms.value());
          }
        }
        if (improvements.empty()) continue;
        const double med = stats::quantile(improvements, 0.5);
        const double p75 = stats::quantile(improvements, 0.75);
        fig4_median.push_back({med, client.user_weight});
        fig4_p75.push_back({p75, client.user_weight});
        total_weight += client.user_weight;
        if (med > kEps) improved_weight += client.user_weight;
        if (med < -kEps) worse_weight += client.user_weight;
      }
    }
  }

  AnycastStudyResult result{
      .fig3_world = stats::WeightedCdf{std::move(world)},
      .fig3_europe = stats::WeightedCdf{std::move(europe)},
      .fig3_us = stats::WeightedCdf{std::move(us)},
      .fig4_median = stats::WeightedCdf{std::move(fig4_median)},
      .fig4_p75 = stats::WeightedCdf{std::move(fig4_p75)},
  };
  result.frac_within_10ms = result.fig3_world.fraction_at_most(10.0);
  result.frac_unicast_100ms_faster = result.fig3_world.fraction_above(100.0);
  if (total_weight > 0.0) {
    result.fig4_improved_fraction = improved_weight / total_weight;
    result.fig4_worse_fraction = worse_weight / total_weight;
  }
  return result;
}

}  // namespace bgpcmp::core
