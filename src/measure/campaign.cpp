#include "bgpcmp/measure/campaign.h"

#include <utility>

#include "bgpcmp/exec/thread_pool.h"
#include "bgpcmp/netbase/lookup.h"

namespace bgpcmp::measure {

std::vector<TierSample> Campaign::run(Rng& rng) const {
  std::vector<TierSample> out;
  Prober prober{latency_};
  const int days = static_cast<int>(config_.days);
  const int rounds = fleet_->config().rounds_per_day;
  const int pings = fleet_->config().pings_per_measurement;

  // Warm-then-plan (docs/PARALLELISM.md): everything deterministic — vantage
  // rotations, tier routes, per-round base RTTs — fans out over the pool;
  // only the ping noise draws stay serial, replayed in the historical
  // (day, round, vantage) order so the stream consumed from `rng` is
  // byte-identical to the old all-in-one loop at any thread count.

  // Daily vantage selections are self-seeded per day, so order is free.
  const auto daily = exec::parallel_map(static_cast<std::size_t>(days),
                                        [&](std::size_t day) {
                                          return fleet_->daily_selection(
                                              static_cast<int>(day));
                                        });

  // Tier routes are static per client (BGP is recomputed only on announcement
  // changes); resolve each distinct vantage once, in parallel.
  LookupMap<traffic::PrefixId, std::size_t> route_slot;
  std::vector<traffic::PrefixId> unique_ids;
  for (const auto& vantages : daily) {
    for (const auto id : vantages) {
      if (route_slot.try_emplace(id, unique_ids.size()).second) {
        unique_ids.push_back(id);
      }
    }
  }
  const auto routes = exec::parallel_map(
      unique_ids.size(),
      [&](std::size_t i) {
        const auto& client = clients_->at(unique_ids[i]);
        return std::make_pair(tiers_->premium(client), tiers_->standard(client));
      });

  // Flatten the campaign into its historical iteration order and compute the
  // two base RTTs of every measurable item in parallel.
  struct Item {
    traffic::PrefixId id = 0;
    SimTime t;
    std::size_t route = 0;
  };
  std::vector<Item> items;
  for (int day = 0; day < days; ++day) {
    for (int round = 0; round < rounds; ++round) {
      const SimTime t = SimTime::days(day) +
                        SimTime::hours(24.0 * (round + 0.5) / rounds);
      for (const auto id : daily[static_cast<std::size_t>(day)]) {
        items.push_back(Item{id, t, route_slot.at(id)});
      }
    }
  }
  struct Bases {
    double premium = 0.0;
    double standard = 0.0;
  };
  const auto bases = exec::parallel_map(items.size(), [&](std::size_t i) {
    Bases b;
    const auto& [prem, stan] = routes[items[i].route];
    if (!prem.valid() || !stan.valid()) return b;  // skipped in replay too
    const auto& client = clients_->at(items[i].id);
    b.premium = latency_
                    ->rtt(prem.access_path, items[i].t, client.access,
                          client.origin_as, client.city)
                    .total()
                    .value();
    b.standard = latency_
                     ->rtt(stan.access_path, items[i].t, client.access,
                           client.origin_as, client.city)
                     .total()
                     .value();
    return b;
  });

  // Serial replay: draw the loss/jitter noise in the original order. Items
  // with an unreachable tier drew nothing historically and still draw
  // nothing here.
  for (std::size_t i = 0; i < items.size(); ++i) {
    const auto& [prem, stan] = routes[items[i].route];
    if (!prem.valid() || !stan.valid()) continue;
    const auto ping_prem =
        prober.ping_from_base(Milliseconds{bases[i].premium}, pings, rng);
    const auto ping_stan =
        prober.ping_from_base(Milliseconds{bases[i].standard}, pings, rng);
    if (ping_prem.received == 0 || ping_stan.received == 0) continue;

    const auto& client = clients_->at(items[i].id);
    TierSample s;
    s.client = items[i].id;
    s.time = items[i].t;
    s.premium = ping_prem.min_rtt + prem.wan_rtt;
    s.standard = ping_stan.min_rtt;
    s.premium_direct = prem.direct_entry;
    s.standard_intermediates = stan.intermediate_ases;
    s.premium_ingress_km = tiers_->ingress_distance(prem, client).value();
    s.standard_ingress_km = tiers_->ingress_distance(stan, client).value();
    out.push_back(s);
  }
  return out;
}

}  // namespace bgpcmp::measure
