#include "bgpcmp/cdn/provider.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "bgpcmp/netbase/check.h"

namespace bgpcmp::cdn {

ContentProvider ContentProvider::attach(Internet& internet,
                                        const ProviderConfig& config) {
  const topo::CityDb& db = internet.city_db();
  topo::AsGraph& g = internet.graph;
  ContentProvider cp;
  cp.config_ = config;
  Rng root{config.seed};

  Rng rng_pop = root.fork("pops");
  std::vector<CityId> pop_cities =
      topo::choose_pop_cities(internet, config.pop_count, rng_pop);
  for (const auto name : config.extra_pop_cities) {
    const auto city = db.find(name);
    if (city && std::find(pop_cities.begin(), pop_cities.end(), *city) ==
                    pop_cities.end()) {
      pop_cities.push_back(*city);
    }
  }

  cp.as_ = g.add_as(Asn{config.asn}, topo::AsClass::Content, config.name,
                    pop_cities, pop_cities.front(), config.backbone_inflation);
  for (const CityId c : pop_cities) {
    Pop p;
    p.id = static_cast<PopId>(cp.pops_.size());
    p.city = c;
    cp.pops_.push_back(p);
  }

  // Tier-1 transit: land a session at every PoP metro the Tier-1 covers.
  Rng rng_tr = root.fork("transit");
  std::vector<AsIndex> t1s = internet.tier1s;
  rng_tr.shuffle(t1s);
  const int n_transit = std::min<int>(config.transit_provider_count,
                                      static_cast<int>(t1s.size()));
  const std::size_t transit_links = config.transit_session_pops == 0
                                        ? cp.pops_.size()
                                        : config.transit_session_pops;
  for (int i = 0; i < n_transit; ++i) {
    // A modern edge provider buys transit that is reachable at every PoP
    // (Facebook has "routes announced by two or more transit providers" at
    // each location); a 2015-era CDN landed it at a few major sites.
    topo::add_transit_edge(g, db, t1s[static_cast<std::size_t>(i)], cp.as_,
                           GigabitsPerSecond{config.transit_capacity_gbps},
                           transit_links);
  }

  // Site-local transit: a front-end site cannot operate without an upstream;
  // any PoP metro not covered by the Tier-1 contracts buys transit from a
  // regional carrier present there. (Unicast reachability of every site is a
  // property of the real systems; anycast catchment errors come from BGP's
  // path *choices*, not from dangling sites.)
  for (const Pop& pop : cp.pops_) {
    bool has_transit = false;
    for (const topo::Neighbor& nb : g.neighbors(cp.as_)) {
      if (nb.role != topo::NeighborRole::Provider) continue;
      for (const topo::LinkId l : g.edge(nb.edge).links) {
        if (g.link(l).city == pop.city) {
          has_transit = true;
          break;
        }
      }
      if (has_transit) break;
    }
    if (has_transit) continue;
    std::vector<AsIndex> local;
    for (const AsIndex t : internet.transits) {
      if (g.has_presence(t, pop.city)) local.push_back(t);
    }
    if (local.empty()) continue;  // remote metro: served over the backbone only
    Rng rng_site = root.fork("site-" + std::to_string(pop.city));
    const AsIndex carrier = local[rng_site.index(local.size())];
    const auto edge = g.find_edge(carrier, cp.as_);
    if (edge && g.edge(*edge).rel != topo::Relationship::ProviderCustomer) continue;
    if (edge) {
      bool dup = false;
      for (const topo::LinkId l : g.edge(*edge).links) {
        if (g.link(l).city == pop.city) dup = true;
      }
      if (!dup) {
        g.add_link(*edge, pop.city, LinkKind::Transit,
                   GigabitsPerSecond{config.transit_capacity_gbps * 0.5});
      }
    } else {
      const topo::EdgeId e = g.connect_transit(carrier, cp.as_);
      g.add_link(e, pop.city, LinkKind::Transit,
                 GigabitsPerSecond{config.transit_capacity_gbps * 0.5});
    }
  }

  // Peering: decide the relationship per neighbor AS once, then land
  // sessions across the shared footprint — a provider that peers with an AS
  // does so at (nearly) every exchange where both are present, which is what
  // keeps ingress near the client.
  Rng rng_peer = root.fork("peering");
  std::vector<AsIndex> peer_candidates;
  for (AsIndex m = 0; m < g.as_count(); ++m) {
    const topo::AsClass cls = g.node(m).cls;
    if (cls != topo::AsClass::Eyeball && cls != topo::AsClass::Transit) continue;
    const bool colocated =
        std::any_of(cp.pops_.begin(), cp.pops_.end(),
                    [&](const Pop& p) { return g.has_presence(m, p.city); });
    if (colocated) peer_candidates.push_back(m);
  }
  // PNI likelihood grows with the eyeball's user base: the heaviest eyeballs
  // are (in practice) always directly interconnected — that is where the
  // traffic volume pays for dedicated capacity.
  auto eyeball_weight = [&](AsIndex m) {
    double w = 0.0;
    for (const CityId c : g.node(m).presence) w += db.at(c).user_weight;
    return w;
  };
  double median_weight = 1.0;
  {
    std::vector<double> weights;
    for (const AsIndex m : peer_candidates) {
      if (g.node(m).cls == topo::AsClass::Eyeball) {
        weights.push_back(eyeball_weight(m));
      }
    }
    if (!weights.empty()) {
      std::nth_element(weights.begin(), weights.begin() + weights.size() / 2,
                       weights.end());
      median_weight = std::max(1e-9, weights[weights.size() / 2]);
    }
  }
  for (const AsIndex m : peer_candidates) {
    // Per-AS randomness: the peering decision for an AS depends only on
    // (provider seed, its ASN), so adding or removing a PoP does not
    // reshuffle every other relationship — site-addition ablations (E15)
    // compare like with like.
    Rng rng_m = rng_peer.fork("m-" + std::to_string(g.node(m).asn.value()));
    const bool eyeball = g.node(m).cls == topo::AsClass::Eyeball;
    const double size_ratio = eyeball ? eyeball_weight(m) / median_weight : 0.0;
    const double pni_prob =
        1.0 - std::pow(1.0 - config.pni_eyeball_fraction, size_ratio);
    if (eyeball && rng_m.chance(pni_prob)) {
      // PNI landed across the shared PoP metros.
      topo::add_peering_edge(g, db, cp.as_, m, LinkKind::PrivatePeering,
                             GigabitsPerSecond{config.pni_capacity_gbps},
                             config.pni_max_links);
      continue;
    }
    // Skip ASes that already sell the provider transit (site-local carriers).
    if (const auto existing = g.find_edge(cp.as_, m);
        existing && g.edge(*existing).rel == topo::Relationship::ProviderCustomer) {
      continue;
    }
    const double open_prob = eyeball ? config.ixp_peer_prob
                                     : config.ixp_peer_prob * config.transit_peer_scale;
    if (!rng_m.chance(open_prob)) continue;
    // Open (public) peering: sessions across the shared exchange metros,
    // with per-city randomness so new PoPs only add sessions.
    for (const Pop& pop : cp.pops_) {
      const topo::Ixp* ixp = internet.ixp_in(pop.city);
      if (ixp == nullptr || !ixp->is_member(m)) continue;
      Rng rng_city = rng_m.fork("city-" + std::to_string(pop.city));
      if (!rng_city.chance(config.public_session_density)) continue;
      topo::add_peering_link_at(g, cp.as_, m, pop.city, LinkKind::PublicPeering,
                                GigabitsPerSecond{config.public_capacity_gbps});
    }
  }

  // Collect the provider's links per PoP.
  for (const topo::Neighbor& nb : g.neighbors(cp.as_)) {
    for (const topo::LinkId l : g.edge(nb.edge).links) {
      const CityId city = g.link(l).city;
      const auto pop = cp.pop_in(city);
      if (pop) cp.pops_[*pop].links.push_back(l);
    }
  }
  return cp;
}

ContentProvider ContentProvider::restore(AsIndex as, std::vector<Pop> pops,
                                         const ProviderConfig& config) {
  BGPCMP_CHECK_NE(as, topo::kNoAs, "restored provider needs a valid AS index");
  ContentProvider cp;
  cp.as_ = as;
  cp.pops_ = std::move(pops);
  cp.config_ = config;
  for (PopId id = 0; id < cp.pops_.size(); ++id) {
    BGPCMP_CHECK_EQ(cp.pops_[id].id, id, "restored PoP ids must be dense and in order");
  }
  return cp;
}

std::optional<PopId> ContentProvider::pop_in(CityId city) const {
  for (const Pop& p : pops_) {
    if (p.city == city) return p.id;
  }
  return std::nullopt;
}

PopId ContentProvider::nearest_pop(const topo::CityDb& cities, CityId city) const {
  BGPCMP_CHECK(!pops_.empty(), "provider must have at least one PoP");
  PopId best = kNoPop;
  double best_km = std::numeric_limits<double>::max();
  for (const Pop& p : pops_) {
    const double km = cities.distance(p.city, city).value();
    if (km < best_km) {
      best_km = km;
      best = p.id;
    }
  }
  return best;
}

PopId ContentProvider::serving_pop(const topo::AsGraph& graph,
                                   const topo::CityDb& cities,
                                   topo::AsIndex client_as, CityId client_city) const {
  const PopId nearest = nearest_pop(cities, client_city);
  const double near_km = cities.distance(pops_.at(nearest).city, client_city).value();
  const auto direct = graph.find_edge(as_, client_as);
  if (!direct) return nearest;
  PopId best = kNoPop;
  double best_km = std::numeric_limits<double>::max();
  for (const topo::LinkId l : graph.edge(*direct).links) {
    const auto pop = pop_in(graph.link(l).city);
    if (!pop) continue;
    const double km = cities.distance(graph.link(l).city, client_city).value();
    if (km < best_km) {
      best_km = km;
      best = *pop;
    }
  }
  if (best != kNoPop && best_km <= 1.5 * near_km + 300.0) return best;
  return nearest;
}

std::vector<EgressOption> ContentProvider::egress_options(
    const topo::AsGraph& graph, const bgp::RouteTable& table, PopId pop) const {
  return egress_options(graph, bgp::candidate_routes_at(graph, table, as_), pop);
}

std::vector<EgressOption> ContentProvider::egress_options(
    const topo::AsGraph& graph, std::span<const bgp::CandidateRoute> rib,
    PopId pop_id) const {
  const Pop& pop = pops_.at(pop_id);
  std::vector<EgressOption> out;
  for (const bgp::CandidateRoute& cand : rib) {
    // Best link of this candidate's session landed at the PoP.
    LinkId best_link = topo::kNoLink;
    LinkKind best_kind = LinkKind::Transit;
    auto kind_rank = [](LinkKind k) {
      return k == LinkKind::PrivatePeering ? 0 : k == LinkKind::PublicPeering ? 1 : 2;
    };
    for (const LinkId l : pop.links) {
      if (graph.link(l).edge != cand.edge) continue;
      const LinkKind k = graph.link(l).kind;
      if (best_link == topo::kNoLink || kind_rank(k) < kind_rank(best_kind)) {
        best_link = l;
        best_kind = k;
      }
    }
    if (best_link == topo::kNoLink) continue;  // neighbor not at this PoP
    out.push_back(EgressOption{cand, best_link, best_kind});
  }
  return out;
}

}  // namespace bgpcmp::cdn
