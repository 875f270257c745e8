#include "bgpcmp/topology/topology_gen.h"

#include "bgpcmp/netbase/check.h"
#include "bgpcmp/netbase/lookup.h"
#include "bgpcmp/topology/build_util.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <string_view>

namespace bgpcmp::topo {

namespace {

constexpr std::uint32_t kTier1AsnBase = 101;
constexpr std::uint32_t kTransitAsnBase = 1001;
constexpr std::uint32_t kEyeballAsnBase = 5001;
constexpr std::uint32_t kStubAsnBase = 20001;

GigabitsPerSecond jittered(double gbps, Rng& rng) {
  return GigabitsPerSecond{gbps * rng.lognormal(0.0, 0.3)};
}

void add_transit(AsGraph& g, const CityDb& db, AsIndex provider, AsIndex customer,
                 double gbps, Rng& rng, std::size_t max_links = 6) {
  if (g.find_edge(provider, customer)) return;
  add_transit_edge(g, db, provider, customer, jittered(gbps, rng), max_links);
}

void add_peering(AsGraph& g, const CityDb& db, AsIndex a, AsIndex b, LinkKind kind,
                 double gbps, Rng& rng, std::size_t max_links = 4) {
  if (g.find_edge(a, b)) return;
  add_peering_edge(g, db, a, b, kind, jittered(gbps, rng), max_links);
}

/// Sample `mean`-distributed small counts >= 1 (1 + Poisson-ish via
/// geometric-ish draw; clamped to [1, max]).
int sample_count(Rng& rng, double mean, int max) {
  const int extra = static_cast<int>(rng.exponential(std::max(0.0, mean - 1.0)) + 0.5);
  return std::clamp(1 + extra, 1, max);
}

constexpr Region kRegions[] = {
    Region::NorthAmerica, Region::SouthAmerica, Region::Europe, Region::Asia,
    Region::Oceania,      Region::Africa,       Region::MiddleEast};
constexpr std::size_t kRegionCount = std::size(kRegions);

/// Per-region city lists and user-weight tables, computed once per build.
/// `sample_region` used to rebuild all of this on every call (a full scan of
/// the city database per transit AS); hoisting it preserves the exact
/// summation order — per region, ascending CityId — so every weighted draw
/// sees bit-identical weights.
struct RegionTables {
  std::array<std::vector<CityId>, kRegionCount> cities;
  std::array<std::vector<double>, kRegionCount> city_weights;
  std::array<double, kRegionCount> totals{};

  explicit RegionTables(const CityDb& db) {
    for (CityId c = 0; c < db.size(); ++c) {
      const auto r = static_cast<std::size_t>(db.at(c).region);
      cities[r].push_back(c);
      city_weights[r].push_back(db.at(c).user_weight);
      totals[r] += db.at(c).user_weight;
    }
  }
};
// kRegions must stay aligned with the Region declaration order so the
// enum value doubles as the table index.
static_assert(static_cast<std::size_t>(Region::NorthAmerica) == 0 &&
              static_cast<std::size_t>(Region::MiddleEast) == kRegionCount - 1);

/// Weighted sample of one region by total user weight.
Region sample_region(const RegionTables& tables, Rng& rng) {
  return kRegions[rng.weighted_index(std::span<const double>{tables.totals})];
}

/// Streaming FNV-1a 64 over raw bytes, with fixed-width encodings so the
/// hash is layout- and platform-stable.
class Fnv1a {
 public:
  void mix_bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      hash_ ^= b[i];
      hash_ *= 0x100000001b3ULL;
    }
  }
  void mix_u64(std::uint64_t v) { mix_bytes(&v, sizeof v); }
  void mix_double(double d) {
    std::uint64_t bits;
    std::memcpy(&bits, &d, sizeof bits);
    mix_u64(bits);
  }
  void mix_str(std::string_view s) {
    mix_u64(s.size());
    mix_bytes(s.data(), s.size());
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

}  // namespace

std::uint64_t internet_fingerprint(const Internet& net) {
  Fnv1a h;
  const AsGraph& g = net.graph;
  h.mix_u64(g.as_count());
  h.mix_u64(g.edge_count());
  h.mix_u64(g.link_count());
  for (AsIndex i = 0; i < g.as_count(); ++i) {
    const AsNode& n = g.node(i);
    h.mix_u64(n.asn.value());
    h.mix_u64(static_cast<std::uint64_t>(n.cls));
    h.mix_str(n.name);
    h.mix_u64(n.hub);
    h.mix_double(n.backbone_inflation);
    h.mix_u64(n.presence.size());
    for (const CityId c : n.presence) h.mix_u64(c);
    h.mix_u64(n.edges.size());
    for (const EdgeId e : n.edges) h.mix_u64(e);
  }
  for (const AsEdge& e : g.edges()) {
    h.mix_u64(e.a);
    h.mix_u64(e.b);
    h.mix_u64(static_cast<std::uint64_t>(e.rel));
    h.mix_u64(e.links.size());
    for (const LinkId l : e.links) h.mix_u64(l);
  }
  for (const InterconnectLink& l : g.links()) {
    h.mix_u64(l.edge);
    h.mix_u64(l.city);
    h.mix_u64(static_cast<std::uint64_t>(l.kind));
    h.mix_double(l.capacity.value());
  }
  h.mix_u64(net.ixps.size());
  for (const Ixp& x : net.ixps) {
    h.mix_str(x.name);
    h.mix_u64(x.city);
    h.mix_u64(x.members.size());
    for (const AsIndex m : x.members) h.mix_u64(m);
  }
  for (const auto* v : {&net.tier1s, &net.transits, &net.eyeballs, &net.stubs}) {
    h.mix_u64(v->size());
    for (const AsIndex i : *v) h.mix_u64(i);
  }
  return h.value();
}

std::uint64_t internet_config_fingerprint(const InternetConfig& config) {
  Fnv1a h;
  h.mix_u64(static_cast<std::uint64_t>(config.tier1_count));
  h.mix_u64(static_cast<std::uint64_t>(config.transit_count));
  h.mix_u64(static_cast<std::uint64_t>(config.eyeball_count));
  h.mix_u64(static_cast<std::uint64_t>(config.stub_count));
  h.mix_u64(config.ixps_per_region);
  h.mix_double(config.transit_tier1_providers_mean);
  h.mix_double(config.transit_peer_prob);
  h.mix_double(config.eyeball_transit_providers_mean);
  h.mix_double(config.eyeball_tier1_provider_prob);
  h.mix_double(config.eyeball_peering_openness);
  h.mix_double(config.stub_dual_home_prob);
  h.mix_double(config.tier1_link_capacity);
  h.mix_double(config.transit_link_capacity);
  h.mix_double(config.eyeball_transit_capacity);
  h.mix_double(config.stub_capacity);
  return h.value();
}

const Ixp* Internet::ixp_in(CityId city) const {
  if (!ixp_by_city.empty()) {  // index built; O(1) path
    if (city >= ixp_by_city.size() || ixp_by_city[city] == kNoIxpSlot) return nullptr;
    return &ixps[ixp_by_city[city]];
  }
  // Hand-assembled Internets (tests) may not have called rebuild_ixp_index.
  for (const auto& x : ixps) {
    if (x.city == city) return &x;
  }
  return nullptr;
}

void Internet::rebuild_ixp_index() {
  ixp_by_city.assign(cities == nullptr ? 0 : cities->size(), kNoIxpSlot);
  for (std::size_t i = 0; i < ixps.size(); ++i) {
    const CityId c = ixps[i].city;
    BGPCMP_CHECK_LT(c, ixp_by_city.size(), "IXP city outside the city database");
    // First IXP in a city wins, matching the historical scan order.
    if (ixp_by_city[c] == kNoIxpSlot) ixp_by_city[c] = static_cast<std::uint32_t>(i);
  }
}

Internet build_internet(const InternetConfig& config) {
  const CityDb& db = CityDb::world();
  Internet net;
  net.cities = &db;

  Rng root{config.seed};
  Rng rng_t1 = root.fork("tier1");
  Rng rng_tr = root.fork("transit");
  Rng rng_eb = root.fork("eyeball");
  Rng rng_st = root.fork("stub");
  Rng rng_link = root.fork("links");

  const std::vector<CityId> ixp_cities = choose_ixp_cities(db, config.ixps_per_region);
  std::vector<char> is_ixp_city(db.size(), 0);
  for (const CityId c : ixp_cities) is_ixp_city[c] = 1;
  const RegionTables regions(db);

  // Global hub metros used for long-haul interconnection between regional
  // players: the highest-weight IXP city of each region.
  std::vector<CityId> global_hubs;
  {
    std::map<Region, CityId> best;
    for (const CityId c : ixp_cities) {
      const Region r = db.at(c).region;
      if (!best.count(r) || db.at(c).user_weight > db.at(best[r]).user_weight) {
        best[r] = c;
      }
    }
    for (const auto& [r, c] : best) global_hubs.push_back(c);
  }

  // ---- Tier-1 backbones -------------------------------------------------
  for (int i = 0; i < config.tier1_count; ++i) {
    std::vector<CityId> presence;
    for (const CityId c : ixp_cities) {
      if (rng_t1.chance(0.92)) presence.push_back(c);
    }
    for (CityId c = 0; c < db.size(); ++c) {
      if (is_ixp_city[c]) continue;
      if (rng_t1.chance(0.30)) presence.push_back(c);
    }
    if (presence.empty()) presence = ixp_cities;
    const CityId hub = presence[rng_t1.index(presence.size())];
    const AsIndex idx = net.graph.add_as(
        Asn{kTier1AsnBase + static_cast<std::uint32_t>(i)}, AsClass::Tier1,
        "T1-" + std::to_string(i), presence, hub, /*backbone_inflation=*/1.15);
    net.tier1s.push_back(idx);
  }
  // Full peer mesh among Tier-1s (the defining property of the clique).
  for (std::size_t i = 0; i < net.tier1s.size(); ++i) {
    for (std::size_t j = i + 1; j < net.tier1s.size(); ++j) {
      add_peering(net.graph, db, net.tier1s[i], net.tier1s[j],
                  LinkKind::PrivatePeering, config.tier1_link_capacity, rng_link,
                  /*max_links=*/48);
    }
  }

  // ---- Regional transit providers ---------------------------------------
  for (int i = 0; i < config.transit_count; ++i) {
    const Region region = sample_region(regions, rng_tr);
    const auto& region_cities = regions.cities[static_cast<std::size_t>(region)];
    const auto& weights = regions.city_weights[static_cast<std::size_t>(region)];
    const std::size_t n_cities =
        std::min(region_cities.size(),
                 static_cast<std::size_t>(rng_tr.uniform_int(6, 14)));
    std::set<CityId> chosen;
    while (chosen.size() < n_cities) {
      chosen.insert(region_cities[rng_tr.weighted_index(weights)]);
    }
    std::vector<CityId> presence{chosen.begin(), chosen.end()};
    // Some transits extend to 1-2 global hubs for long-haul peering.
    if (rng_tr.chance(0.4)) {
      presence.push_back(global_hubs[rng_tr.index(global_hubs.size())]);
    }
    const CityId hub = presence.front();
    const AsIndex idx = net.graph.add_as(
        Asn{kTransitAsnBase + static_cast<std::uint32_t>(i)}, AsClass::Transit,
        "TR-" + std::string(region_name(region)) + "-" + std::to_string(i),
        presence, hub, /*backbone_inflation=*/1.25);
    net.transits.push_back(idx);

    const int n_providers = sample_count(
        rng_tr, config.transit_tier1_providers_mean, config.tier1_count);
    std::vector<AsIndex> t1s = net.tier1s;
    rng_tr.shuffle(t1s);
    for (int p = 0; p < n_providers; ++p) {
      add_transit(net.graph, db, t1s[static_cast<std::size_t>(p)], idx,
                  config.transit_link_capacity, rng_link, /*max_links=*/10);
    }
  }
  // Transit-transit peering where footprints overlap.
  for (std::size_t i = 0; i < net.transits.size(); ++i) {
    for (std::size_t j = i + 1; j < net.transits.size(); ++j) {
      if (!rng_tr.chance(config.transit_peer_prob)) continue;
      add_peering(net.graph, db, net.transits[i], net.transits[j],
                  LinkKind::PublicPeering, config.transit_link_capacity * 0.25,
                  rng_link, /*max_links=*/6);
    }
  }

  // ---- Eyeball access ISPs ----------------------------------------------
  // Countries weighted by their total user weight; big countries host
  // multiple eyeballs. Single pass over the city database: a hash map keyed
  // by country name replaces the historical `std::find` over the growing
  // countries vector, while first-appearance order — which the weighted draw
  // below depends on — and the per-country accumulation order are unchanged.
  std::vector<std::string_view> countries;
  std::vector<double> country_weights;
  std::vector<std::vector<CityId>> country_cities_tab;
  LookupMap<std::string_view, std::size_t> country_slot;
  for (CityId c = 0; c < db.size(); ++c) {
    const auto& city = db.at(c);
    const auto [slot, inserted] =
        country_slot.try_emplace(city.country, countries.size());
    if (inserted) {
      countries.push_back(city.country);
      country_weights.push_back(city.user_weight);
      country_cities_tab.push_back({c});
    } else {
      country_weights[slot] += city.user_weight;
      country_cities_tab[slot].push_back(c);
    }
  }
  // Hub per country: the biggest metro (first such city on ties, matching the
  // historical per-eyeball max scan over the country's cities).
  std::vector<CityId> country_hub(countries.size());
  for (std::size_t ci = 0; ci < countries.size(); ++ci) {
    CityId hub = country_cities_tab[ci].front();
    for (const CityId c : country_cities_tab[ci]) {
      if (db.at(c).user_weight > db.at(hub).user_weight) hub = c;
    }
    country_hub[ci] = hub;
  }
  // Transit providers bucketed by home (hub) region, preserving net.transits
  // order within each bucket; a transit's hub never changes after creation,
  // so this is safe to snapshot even though footprints still grow.
  std::array<std::vector<AsIndex>, kRegionCount> transits_by_region;
  for (const AsIndex t : net.transits) {
    const auto r = static_cast<std::size_t>(db.at(net.graph.node(t).hub).region);
    transits_by_region[r].push_back(t);
  }
  for (int i = 0; i < config.eyeball_count; ++i) {
    const std::size_t ci = rng_eb.weighted_index(country_weights);
    const std::vector<CityId>& country_cities = country_cities_tab[ci];
    BGPCMP_CHECK(!country_cities.empty(), "every country must have at least one city");
    const CityId hub = country_hub[ci];
    // Access ISPs in large countries are regional, not national: keep the
    // hub plus a subset of the other metros — big countries end up with a
    // mix of nationwide and regional eyeballs.
    std::vector<CityId> presence;
    for (const CityId c : country_cities) {
      if (c == hub || country_cities.size() <= 4 || rng_eb.chance(0.6)) {
        presence.push_back(c);
      }
    }
    const AsIndex idx = net.graph.add_as(
        Asn{kEyeballAsnBase + static_cast<std::uint32_t>(i)}, AsClass::Eyeball,
        "EB-" + std::string(db.at(hub).country_code) + "-" + std::to_string(i),
        presence, hub, /*backbone_inflation=*/1.4);
    net.eyeballs.push_back(idx);

    // Providers: transits already present in the eyeball's metros first (an
    // ISP buys transit from carriers operating in its own country; this also
    // keeps alternate egress routes geographically close to the preferred
    // one, §3.1.2), then other same-region transits.
    const Region region = db.at(hub).region;
    std::vector<AsIndex> at_hub;
    std::vector<AsIndex> colocated;
    std::vector<AsIndex> regional;
    for (const AsIndex t : transits_by_region[static_cast<std::size_t>(region)]) {
      if (net.graph.has_presence(t, hub)) {
        at_hub.push_back(t);
        continue;
      }
      const bool shares =
          std::any_of(presence.begin(), presence.end(),
                      [&](CityId c) { return net.graph.has_presence(t, c); });
      (shares ? colocated : regional).push_back(t);
    }
    rng_eb.shuffle(at_hub);
    rng_eb.shuffle(colocated);
    rng_eb.shuffle(regional);
    std::vector<AsIndex> candidates = std::move(at_hub);
    candidates.insert(candidates.end(), colocated.begin(), colocated.end());
    candidates.insert(candidates.end(), regional.begin(), regional.end());
    const int n_providers =
        sample_count(rng_eb, config.eyeball_transit_providers_mean, 4);
    int attached = 0;
    for (const AsIndex t : candidates) {
      if (attached >= n_providers) break;
      add_transit(net.graph, db, t, idx, config.eyeball_transit_capacity, rng_link,
                  /*max_links=*/8);
      ++attached;
    }
    if (attached == 0 || rng_eb.chance(config.eyeball_tier1_provider_prob)) {
      const AsIndex t1 = net.tier1s[rng_eb.index(net.tier1s.size())];
      add_transit(net.graph, db, t1, idx, config.eyeball_transit_capacity, rng_link);
    }
  }

  // ---- Stubs --------------------------------------------------------------
  std::vector<double> city_weights;
  for (CityId c = 0; c < db.size(); ++c) city_weights.push_back(db.at(c).user_weight);
  for (int i = 0; i < config.stub_count; ++i) {
    const auto city = static_cast<CityId>(rng_st.weighted_index(city_weights));
    const AsIndex idx = net.graph.add_as(
        Asn{kStubAsnBase + static_cast<std::uint32_t>(i)}, AsClass::Stub,
        "ST-" + std::string(db.at(city).country_code) + "-" + std::to_string(i),
        {city}, city, /*backbone_inflation=*/1.5);
    net.stubs.push_back(idx);

    // Providers: any transit or eyeball present in (or near) the stub's city.
    std::vector<AsIndex> candidates;
    for (const AsIndex t : net.transits) {
      if (net.graph.has_presence(t, city)) candidates.push_back(t);
    }
    for (const AsIndex e : net.eyeballs) {
      if (net.graph.has_presence(e, city)) candidates.push_back(e);
    }
    const int n_providers = rng_st.chance(config.stub_dual_home_prob) ? 2 : 1;
    rng_st.shuffle(candidates);
    int attached = 0;
    for (const AsIndex p : candidates) {
      if (attached >= n_providers) break;
      add_transit(net.graph, db, p, idx, config.stub_capacity, rng_link, 1);
      ++attached;
    }
    if (attached == 0) {
      // Remote metro: buy transit from a random regional transit, which
      // extends its footprint into the stub's city.
      const Region region = db.at(city).region;
      const std::vector<AsIndex>& regional =
          transits_by_region[static_cast<std::size_t>(region)];
      const AsIndex p = regional.empty()
                            ? net.tier1s[rng_st.index(net.tier1s.size())]
                            : regional[rng_st.index(regional.size())];
      add_transit(net.graph, db, p, idx, config.stub_capacity, rng_link, 1);
    }
  }

  // ---- IXPs ----------------------------------------------------------------
  // Presence is frozen at this point (every footprint mutation above went
  // through add_presence), so snapshot a per-city membership index instead of
  // probing all ASes per IXP city. Ascending AS order per city — with a
  // node's duplicate presence entries collapsed — reproduces the historical
  // full-scan visit order, and with it the openness draw sequence.
  std::vector<std::vector<AsIndex>> ases_in_city(db.size());
  for (AsIndex i = 0; i < net.graph.as_count(); ++i) {
    for (const CityId c : net.graph.node(i).presence) {
      auto& v = ases_in_city[c];
      if (!v.empty() && v.back() == i) continue;  // duplicate presence entry
      v.push_back(i);
    }
  }
  for (const CityId c : ixp_cities) {
    Ixp ixp;
    ixp.name = "IXP-" + std::string(db.at(c).name);
    ixp.city = c;
    for (const AsIndex i : ases_in_city[c]) {
      const AsClass cls = net.graph.node(i).cls;
      const bool joins =
          cls == AsClass::Tier1 || cls == AsClass::Transit ||
          (cls == AsClass::Eyeball && rng_eb.chance(config.eyeball_peering_openness));
      if (joins) ixp.members.push_back(i);
    }
    net.ixps.push_back(std::move(ixp));
  }

  // Eyeball-eyeball and eyeball-transit public peering across shared IXPs
  // (modest probability; eyeballs mostly exchange via transit or content PNIs).
  Rng rng_pub = root.fork("public-peering");
  for (const Ixp& ixp : net.ixps) {
    for (std::size_t i = 0; i < ixp.members.size(); ++i) {
      for (std::size_t j = i + 1; j < ixp.members.size(); ++j) {
        const AsIndex a = ixp.members[i];
        const AsIndex b = ixp.members[j];
        const AsClass ca = net.graph.node(a).cls;
        const AsClass cb = net.graph.node(b).cls;
        const bool eyeball_pair = ca == AsClass::Eyeball && cb == AsClass::Eyeball;
        const bool eyeball_transit =
            (ca == AsClass::Eyeball && cb == AsClass::Transit) ||
            (ca == AsClass::Transit && cb == AsClass::Eyeball);
        double prob = 0.0;
        if (eyeball_pair) prob = 0.10;
        if (eyeball_transit) prob = 0.08;
        if (prob > 0.0 && rng_pub.chance(prob)) {
          add_peering(net.graph, db, a, b, LinkKind::PublicPeering,
                      /*gbps=*/80.0, rng_link, 2);
        }
      }
    }
  }

  net.rebuild_ixp_index();
  return net;
}

std::vector<CityId> choose_pop_cities(const Internet& internet, std::size_t count,
                                      Rng& rng) {
  const CityDb& db = internet.city_db();
  std::vector<CityId> candidates;
  std::vector<double> weights;
  for (const Ixp& ixp : internet.ixps) {
    candidates.push_back(ixp.city);
    weights.push_back(db.at(ixp.city).user_weight);
  }
  std::vector<CityId> chosen;
  std::vector<char> is_chosen(db.size(), 0);
  while (chosen.size() < std::min(count, candidates.size())) {
    const std::size_t i = rng.weighted_index(weights);
    if (weights[i] <= 0.0) continue;
    chosen.push_back(candidates[i]);
    is_chosen[candidates[i]] = 1;
    weights[i] = 0.0;
  }
  // Hyperscale deployments outgrow the exchange metros: continue into the
  // highest-weight cities without an IXP.
  if (chosen.size() < count) {
    std::vector<CityId> rest;
    for (CityId c = 0; c < db.size(); ++c) {
      if (!is_chosen[c]) rest.push_back(c);
    }
    std::sort(rest.begin(), rest.end(), [&](CityId a, CityId b) {
      if (db.at(a).user_weight != db.at(b).user_weight) {
        return db.at(a).user_weight > db.at(b).user_weight;
      }
      return a < b;
    });
    for (const CityId c : rest) {
      if (chosen.size() >= count) break;
      chosen.push_back(c);
    }
  }
  std::sort(chosen.begin(), chosen.end());
  return chosen;
}

}  // namespace bgpcmp::topo
